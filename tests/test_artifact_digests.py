"""Byte-identity pins: the SHA-256 of every artifact of seven runs, and of
the ``graph.csv`` of three jump graphs at their default prune radius.

A change that alters any of these bytes must update the digests here and
say why in CHANGES.md; a change that only restructures the code must
leave every digest as it is.
"""

import hashlib

import pytest

from scrl.chaingraph import export_graph_csv
from scrl.cli import RunConfig, build_bundle, main

RUNS = {
    "roof12": ["analyze", "--system", "roof", "--grid", "12"],
    "roof16": ["analyze", "--system", "roof", "--grid", "16"],
    "square12": ["analyze", "--system", "square", "--grid", "12"],
    "square16": ["analyze", "--system", "square", "--grid", "16"],
    "circle64": ["analyze", "--system", "circle", "--grid", "64"],
    "compare64": ["compare", "--system", "circle", "--grid", "64",
                  "--epsilon", "0.05", "--epsilon", "0.1"],
    "compare1792": ["compare", "--system", "circle", "--grid", "1792",
                    "--epsilon", "0.02", "--epsilon", "0.05", "--epsilon", "0.1"],
}

DIGESTS = {
    "roof12": {
        "cr.json": "9869be6fa02fcfb6b2ae5615f7736f1f0bbb057e03d621121d795407b5af2998",
        "lyapunov_combined.csv": "05c0a392850559c2b79c93ae9908ca9f7ddcce977a6f3762a055ee0b245883ca",
        "lyapunov_pair_0.csv": "fedc06c047d5123a4adad096c9ace25cafc34dccd11e1474a307753e4a6a7abd",
        "lyapunov_pair_1.csv": "b944da16f10c7ce2de63684bddea03fb2818774dbbb4f291b4d80d3c206f9aed",
        "metadata.json": "6c5d2b5573286c017c40497d40a7d12947683a12820f49fd0b3f20441d419901",
        "pairs.json": "6e123722cedeb0b0fca152b6a7e04c58c58b3d87f10959e98617b06fbab33cc5",
        "scr.json": "49c0558424a710d6e5c46b209d2d112236646d97e783744cd0a85a4f3649236b",
        "verify_report.json": "05681560df678985dab82217fadb53d2ab148881a6c70de75ca7d107a38542bb",
    },
    "roof16": {
        "cr.json": "e751b64ca12ce6ce9da0b77ae49c81e8421d56bbcb4fc176ed9e822298cc1d02",
        "lyapunov_combined.csv": "558a3975f514898049897a2bb347a1adcfa00769077fbe22316e0c957edf1a02",
        "lyapunov_pair_0.csv": "02544963f940a2a2afe1662b55a7de1ad46f2e6e477f1a8893c00194e6131983",
        "lyapunov_pair_1.csv": "c2f97026c022e157a64f144edf1e10fb09577876fb204d6401d6f467e2576351",
        "metadata.json": "2bafbd2c91192afdc01a1952009d6be06f8f8f6bc02d21e221d1db4c346c69da",
        "pairs.json": "f1241c292bf65d2051866e35d26885aeb60e11d530b38f88a19b0b9fa7eb5b33",
        "scr.json": "193a4ac01bdaf7c995b567118219cc00cf596e9492508236bf1df9c6db8561af",
        "verify_report.json": "122277caeef17030366593f64584aad4b8c6724f7db4b09bd7032b1d65bb55ab",
    },
    "square12": {
        "cr.json": "4b59f8d04647b567a599bc23159e0608cc9feaaa888aa92e70c5e9ecf432c8ac",
        "lyapunov_combined.csv": "7f9def3fd43b0ff7693d48cf76e849ef056dbf3a2bb408ae93b73bbf97df6047",
        "lyapunov_pair_0.csv": "9d33b941952c17f388f254a34a2954bee5db4c2fef475c9cc079d1ffc08378df",
        "lyapunov_pair_1.csv": "867b88c23bf6b63054587c4ffa69b40f8526f29f1bc0e80e66858bedbca00664",
        "lyapunov_pair_2.csv": "72a67ce013473fbe0ad0f3729e854c487e7920ddde76f968dfde7ce91032a9f5",
        "lyapunov_pair_3.csv": "c9ede4272a82c1792593df4bc4338ecf8ea3f6d475968fc189b0b6936186a15e",
        "lyapunov_pair_4.csv": "336c4c966e7be314fd43e6846d71b6d0edb90561c9c690701d890897a3dfd9b3",
        "lyapunov_pair_5.csv": "b2fe45d4191c45e1366a12830c8d086a626ed922b10425a2b37be53b9c14531c",
        "lyapunov_pair_6.csv": "74bdb993684e1b941f1bd15e142dc834361789bc2e0eb9ccc0c56f716f41f5f6",
        "lyapunov_pair_7.csv": "39bcd6768edc4ea02b7cb0dbef387953d830e7fb6aae0a583257564eca2a50b4",
        "lyapunov_pair_8.csv": "db91c24602a05c8ad4258ba7eb3b34e8bcba4e54f4e434039981c24358eb8c54",
        "lyapunov_pair_9.csv": "f53bb2ad59fb4fc3e28e5adb56caea1536fdac59a8f3a015cefedca06b38457d",
        "metadata.json": "532fa48a0778db1e8fde64f6b3a21e200804b768b5987611212abfbe9a999a8b",
        "pairs.json": "84fd219682905c4995d37337cc0e9c1f6c83132c2ecf1d4a37eb8c9591d94d5e",
        "scr.json": "8e156229ac27bde5860f0ce21ba405df178aac708198a4e8d12656e113391806",
        "verify_report.json": "0399d32ef1bfb7bc3b752c96470b59f6982cd4d8163141faaeddbbee8f3864fb",
    },
    "square16": {
        "cr.json": "ab83befd61acf79c4b1612974d821fbb49e3baf89b6499bb7e057fc6baa54426",
        "lyapunov_combined.csv": "4cfae63ddf80ed806535701644180c81d71fae9c1d7045635527d8c9141745b5",
        "lyapunov_pair_0.csv": "bb9c1c3f3560ce808f7cfb5cec3de9cc2294e7608085cdc24bc348cd677d77d0",
        "lyapunov_pair_1.csv": "3868eff28e97b087134aa6233829c652f79e2ebd3b07f0115333e12e7d97b579",
        "lyapunov_pair_2.csv": "c71e8d1df94c4dfe70689bf3d0351f9b92859c9fafd90cecac1869ffbf58bba1",
        "lyapunov_pair_3.csv": "279ef8a9c16154564effbe7cc738754d6ae2136665a020bcbdf6d738caa687c4",
        "lyapunov_pair_4.csv": "67c1b86ed054dfc87f564910b7c4b195ab492bf14336b62544c87cb96c59e059",
        "lyapunov_pair_5.csv": "845e3ffa5a72f9c15e7819857201d594550424bec96f65fbace602dd117b357a",
        "lyapunov_pair_6.csv": "f67994587fe9c23a6c4b0a13f4c8ff4f6956b4303c6bdac94eb4c743c7d6360d",
        "lyapunov_pair_7.csv": "173f2a681bfa0e7463e02946509c28decbfe1fd00aab566f79bf5a3dc8ea6501",
        "lyapunov_pair_8.csv": "778759ead69aa1106cc3ae074d4f890a11b107f4e7e838dee77b932325a85f69",
        "lyapunov_pair_9.csv": "084568ccca7105f0596ead283b18c93f0cc35da98fee1e731bc792e14b8cfb3a",
        "lyapunov_pair_10.csv": "793870ede0e02e42ceeb218082116f5c00b2304c0f5876fc0828f38b502aff7c",
        "lyapunov_pair_11.csv": "bf0be706d81681d8a4e522850d04fb775d5dff827aa75c3b5e1f9730789cbc3e",
        "lyapunov_pair_12.csv": "ad4bf067122ea5ab4ef9215690c3444156f3d1f934a04b73b26a1a22d78112dd",
        "lyapunov_pair_13.csv": "f6c740ec6909f2a56f088f682ebe73c03bd3f5599d4d31a5138475b5b4ddedf9",
        "metadata.json": "52680a897b2ad36159eda1b467f3917d956f572471f4c862d58d405f7c22bd38",
        "pairs.json": "59e384fa6c9f902fb9eabcc81154f15cfec0dbfb65f0f9fd8028646b5896efce",
        "scr.json": "e2ef697eadf7817afe19c9116d08fe7a1accdefb53aadea3c58ed9c5ee4ed293",
        "verify_report.json": "4356da7d3d636404c37cc9775190dee57e10cc55db65cb2b8122d474ff6f72e6",
    },
    "circle64": {
        "cr.json": "c9adf42de30835277b58b82e3af85d11574782bae25304d3037868dfb7a7fb7b",
        "lyapunov_combined.csv": "ed33beafd7d8277acc5cf007f6c9f7d31b7cecc71e45779a1f9a48b7f831d42b",
        "lyapunov_pair_0.csv": "d3e799ed2dbbec3bc4056aac7352087ae50cd215b89859a9528f87bc3b1f7e90",
        "metadata.json": "6a2c2f77f9ef9e08ab08a18cfa3ee600c75c44df42354660a518ad8b5764bdbc",
        "pairs.json": "93c667aee47338fc7b89e25d82be864ca668c41dbc1d70cbe34db2a5561e7536",
        "scr.json": "e0af71aef0f1f2e46c7d8d95e3caf3e3ece76153c1a71150d51753ebb88c36b4",
        "verify_report.json": "39b7964c16e620c59bfc4a889f2010be032dac9fa19d4db595aeb0a6d03501d8",
    },
    "compare64": {
        "compare.json": "045a2a4db9b17d9a6a39b090f43639a920696b2e5052daec3720d87296255110",
        "cr.json": "e741a36655e3867a88a8f4c1ea167ad9d896550a8373695d113928944c441b3f",
        "metadata.json": "3a73be892a172b356354adf6709249dd532a8b1dc41a872e468ef735fda72fb7",
        "scr.json": "855622a321459fac1c0c89dd7843782e59cff0815315c6836f3b102b1af9f099",
    },
    "compare1792": {
        "compare.json": "045a2a4db9b17d9a6a39b090f43639a920696b2e5052daec3720d87296255110",
        "cr.json": "43cc88feab15b49291e1b1a92f92871e7f133f07648a573ded5ebe831e78f31f",
        "metadata.json": "96f873027bb6099913f0f0cfabd4739d801a2bd0452bdd744afb8485526226cb",
        "scr.json": "e95b0baf8a6e152b4c862823d3500d00800cf440c96a5301a753ac596b1f16f6",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifact_digests(name, tmp_path):
    out = tmp_path / name
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == DIGESTS[name]


GRAPH_DIGESTS = {
    ("circle", 1100): "01730bd3758a1f5163e3d18f6086c0408d3a679bee4c398ecff1f43091de1f91",
    ("roof", 32): "03c9cd6b8d8a8368e064c3671ae33d37e2df1a872c884b3d7908186948add41b",
    ("square", 32): "a0d8b857fb1d721de9d4b1e04d4fa7e66247dbc0cfadbb682233ac4e9a8b9ec8",
}


@pytest.mark.parametrize("system,n", sorted(GRAPH_DIGESTS))
def test_graph_csv_digests(system, n, tmp_path):
    path = tmp_path / "graph.csv"
    export_graph_csv(build_bundle(RunConfig(system=system, grid_n=n)).graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRAPH_DIGESTS[system, n]
