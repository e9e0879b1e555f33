import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scrl.cli import COMMANDS, DOMAIN_OF, RunConfig, main, run_pipeline
from scrl.flows import build_transition, make_flow
from scrl.lyapunov import combine_pairs
from scrl.space import build_grid


def run(argv):
    return main(argv)


def test_analyze_identity_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["analyze", "--system", "identity", "--grid", "16", "--out", str(out)])
    assert code == 0
    for name in ("metadata.json", "scr.json", "cr.json", "pairs.json",
                 "lyapunov_combined.csv", "verify_report.json"):
        assert (out / name).exists(), name
    scr = json.loads((out / "scr.json").read_text())
    assert scr["results"][0]["members"] == list(range(16))
    pairs = json.loads((out / "pairs.json").read_text())
    assert pairs["pairs"] == [] and pairs["selected"] == []
    # combined function is identically zero
    rows = (out / "lyapunov_combined.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)
    report = json.loads((out / "verify_report.json").read_text())
    assert report["monotonicity_violations"] == []


def test_scr_epsilon_sweep_nested(tmp_path):
    out = tmp_path / "sweep"
    code = run(["scr", "--system", "circle", "--grid", "64",
                "--epsilon", "0.02", "--epsilon", "0.05", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "scr.json").read_text())
    small, big = data["results"]
    assert small["epsilon"] < big["epsilon"]
    assert set(small["members"]) <= set(big["members"])


def test_repeated_epsilon_runs_once(tmp_path):
    out = tmp_path / "twice"
    code = run(["compare", "--system", "circle", "--grid", "64",
                "--epsilon", "0.05", "--epsilon", "0.05", "--out", str(out)])
    assert code == 0
    for name in ("scr.json", "cr.json"):
        results = json.loads((out / name).read_text())["results"]
        assert [r["epsilon"] for r in results] == [0.05], name
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["epsilons"] == [0.05]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(meta["config"]))
    again = tmp_path / "again"
    assert run(["compare", "--config", str(cfg_file), "--out", str(again)]) == 0
    for name in sorted(path.name for path in out.iterdir()):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_compare_reports_inclusion(tmp_path):
    out = tmp_path / "cmp"
    code = run(["compare", "--system", "circle", "--grid", "64",
                "--epsilon", "0.05", "--out", str(out)])
    assert code == 0
    cmp_data = json.loads((out / "compare.json").read_text())
    assert cmp_data["scr_subset_of_cr"] is True
    scr = json.loads((out / "scr.json").read_text())["results"][0]
    cr = json.loads((out / "cr.json").read_text())["results"][0]
    assert set(scr["members"]) <= set(cr["members"])


def test_missing_cache_names_prerequisite(tmp_path, capsys):
    out = tmp_path / "empty"
    code = run(["pairs", "--system", "circle", "--grid", "64", "--out", str(out)])
    assert code == 1
    assert "scrl scr" in capsys.readouterr().err
    code = run(["verify", "--system", "circle", "--grid", "64", "--out", str(out)])
    assert code == 1
    assert "scrl pairs" in capsys.readouterr().err


def test_stagewise_matches_analyze(tmp_path):
    staged = tmp_path / "staged"
    args = ["--system", "circle", "--grid", "64", "--epsilon", "0.05"]
    assert run(["scr", *args, "--out", str(staged)]) == 0
    assert run(["pairs", *args, "--out", str(staged)]) == 0
    assert run(["lyapunov", *args, "--out", str(staged)]) == 0
    assert run(["verify", *args, "--out", str(staged)]) == 0

    direct = tmp_path / "direct"
    assert run(["analyze", *args, "--out", str(direct)]) == 0
    written = sorted(path.name for path in staged.iterdir())
    assert {"metadata.json", "lyapunov_pair_0.csv", "verify_report.json"} <= set(written)
    for name in written:
        assert (staged / name).read_bytes() == (direct / name).read_bytes(), name


def test_rerun_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["analyze", "--system", "identity", "--grid", "16",
                    "--out", str(out)]) == 0
    for name in ("metadata.json", "scr.json", "cr.json", "pairs.json",
                 "lyapunov_combined.csv", "verify_report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_metadata_reproduces_run(tmp_path):
    first = tmp_path / "first"
    assert run(["analyze", "--system", "circle", "--grid", "64",
                "--out", str(first)]) == 0
    meta = json.loads((first / "metadata.json").read_text())
    assert meta["flow"]["profile"]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(meta["config"]))
    second = tmp_path / "second"
    assert run(["analyze", "--config", str(cfg_file), "--system", "circle",
                "--grid", "64", "--out", str(second)]) == 0
    assert (first / "scr.json").read_bytes() == (second / "scr.json").read_bytes()


def test_config_file_alone_reproduces_run(tmp_path):
    # non-default values throughout, so a flag default cannot pass for them
    first = tmp_path / "first"
    assert run(["scr", "--system", "square", "--grid", "8", "--T", "0.5",
                "--m-max", "2", "--epsilon", "0.2", "--s-max", "10",
                "--out", str(first)]) == 0
    meta = json.loads((first / "metadata.json").read_text())
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(meta["config"]))
    second = tmp_path / "second"
    assert run(["scr", "--config", str(cfg_file), "--out", str(second)]) == 0
    for name in ("metadata.json", "scr.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@st.composite
def _run_configs(draw):
    """Valid RunConfigs on small circle, square and identity grids."""
    system = draw(st.sampled_from(["circle", "square", "identity"]))
    grid_n = draw(st.integers(8, 10) if system == "square" else st.integers(8, 40))
    res = build_grid(DOMAIN_OF[system], grid_n).resolution
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    # no sweep, or a sweep of one to three budgets whose smallest is epsilon
    epsilons = draw(st.just([]) | st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3))
    epsilon = min(epsilons) if epsilons else draw(st.floats(0.01, 0.3))
    prune = draw(st.just(0.0) | st.floats(0.0, 0.2).map(
        lambda x: max(3 * res, epsilon, *epsilons) + x))
    return RunConfig(
        system=system, grid_n=grid_n, epsilon=epsilon, epsilons=epsilons, prune_radius=prune,
        T=draw(st.floats(0.1, 2.0)), m_max=draw(st.integers(1, 4)),
        radii=draw(st.lists(st.floats(2 * res, 1.0), max_size=3)),
        seed_stride=draw(st.integers(0, 5)),
        neighborhood_scale=draw(st.just(0.0) | st.floats(0.1, 1.0)),
        eta_count=draw(st.integers(1, 40)), eta_lo=draw(unit), eta_hi=draw(unit),
        s_max=draw(st.floats(0.5, 30.0)), horizon_steps=draw(st.integers(1, 300)),
        t_probe=draw(st.floats(0.1, 4.0)), margin=draw(st.just(0.0) | st.floats(1e-6, 0.1)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_run_configs())
def test_metadata_config_round_trip(cfg):
    # a config written to metadata.json and read back through --config
    # reproduces both files byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        first, second, cfg_file = Path(tmp, "first"), Path(tmp, "second"), Path(tmp, "cfg.json")
        assert run_pipeline(cfg, first, COMMANDS["scr"])[0] == 0
        cfg_file.write_text(json.dumps(json.loads((first / "metadata.json").read_text())["config"]))
        assert run(["scr", "--config", str(cfg_file), "--out", str(second)]) == 0
        for name in ("metadata.json", "scr.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_sweep_reruns_from_its_metadata(tmp_path):
    # every budget of a sweep is recorded, so its metadata reruns all of them
    first = tmp_path / "first"
    assert run(["compare", "--system", "circle", "--grid", "64", "--epsilon", "0.05",
                "--epsilon", "0.1", "--epsilon", "0.2", "--out", str(first)]) == 0
    config = json.loads((first / "metadata.json").read_text())["config"]
    assert config["epsilons"] == [0.05, 0.1, 0.2]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    second = tmp_path / "second"
    assert run(["compare", "--config", str(cfg_file), "--out", str(second)]) == 0
    for name in ("scr.json", "cr.json", "compare.json", "metadata.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_config_file_values_survive_flag_defaults(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"system": "square", "grid_n": 8, "T": 0.5, "m_max": 2}))
    out = tmp_path / "run"
    assert run(["scr", "--config", str(cfg_file), "--out", str(out)]) == 0
    cfg = json.loads((out / "metadata.json").read_text())["config"]
    assert (cfg["system"], cfg["grid_n"], cfg["T"], cfg["m_max"]) == ("square", 8, 0.5, 2)
    # an explicit flag still wins over the file
    assert run(["scr", "--config", str(cfg_file), "--m-max", "3", "--out", str(out)]) == 0
    assert json.loads((out / "metadata.json").read_text())["config"]["m_max"] == 3


def test_roof_rejected_seed_is_not_a_crash(tmp_path):
    # at roof grid 20 some settled sets escape the resolution thickening of
    # their reachable set; those seeds are rejected, the run is not aborted
    code = run(["analyze", "--system", "roof", "--grid", "20", "--out", str(tmp_path)])
    assert code in (0, 3)


def test_config_errors_exit_one(tmp_path, capsys):
    assert run(["analyze", "--system", "circle", "--grid", "64",
                "--epsilon", "-1", "--out", str(tmp_path / "x")]) == 1
    assert run(["analyze", "--system", "custom", "--out", str(tmp_path / "y")]) == 1
    # epsilon beyond the explicit prune radius is a config error
    assert run(["analyze", "--system", "circle", "--grid", "64", "--epsilon", "0.2",
                "--prune-radius", "0.1", "--out", str(tmp_path / "z")]) == 1
    # values the grid cannot resolve, caught before any stage runs
    capsys.readouterr()
    for flags, message in ((["--grid", "6"], "too coarse"),
                           (["--epsilon", "0.01", "--prune-radius", "0.02"], "prune radius"),
                           (["--radius", "0.01"], "radius 0.01"),
                           (["--t-probe", "4.125"], "t_probe"),
                           (["--s-max", "20.3"], "s_max"),
                           # negative values that would run and weaken the gate
                           (["--scale", "-1"], "neighborhood_scale"),
                           (["--seed-stride", "-1"], "seed_stride"),
                           (["--margin", "-0.01"], "margin"),
                           # a built-in system has its own domain
                           (["--grid-domain", "unit-square"], "custom flows only")):
        argv = ["analyze", "--system", "circle", "--grid", "64", *flags]
        assert run(argv + ["--out", str(tmp_path / "v")]) == 1
        assert message in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    for body in ("point_index,m,image_index\n0,1,x\n", "point_index,m,image_index\n0,1\n",
                 "point_index,m,image_index\n0,1,99\n", "u,m,v\n0,1,0\n"):
        bad.write_text(body)
        assert run(["scr", "--system", "custom", "--grid-domain", "circle", "--grid", "8",
                    "--flow-csv", str(bad), "--m-max", "1", "--out", str(tmp_path / "c")]) == 1
    assert "flow CSV" in capsys.readouterr().err
    # config-file values of the wrong type
    cfg_file = tmp_path / "cfg.json"
    for body, message in (({"system": "circle", "grid_n": 64, "m_max": "4"}, "m_max"),
                          ({"system": "circle", "grid_n": 64.5}, "grid_n"),
                          ({"system": "circle", "epsilon": "0.05"}, "epsilon"),
                          ({"system": "circle", "epsilons": [0.1, "x"]}, "epsilons"),
                          ({"system": "circle", "epsilon": 0.1, "epsilons": [0.05, 0.1]},
                           "not the smallest"),
                          ({"system": "circle", "radii": [0.1, "x"]}, "radii"),
                          ({"system": 3}, "system"),
                          ({"system": "circle", "eta_lo": 0.0}, "eta_lo"),
                          ({"system": "circle", "eta_hi": 1.0}, "eta_hi"),
                          ({"system": "circle", "horizon_steps": True}, "horizon_steps"),
                          ([1, 2], "JSON object"),
                          # keys that are not RunConfig fields, misspelled or retired
                          ({"system": "circle", "grid": 64}, "unknown keys ['grid']"),
                          ({"system": "circle", "epsilon_max": 0.2}, "replaced by epsilons")):
        cfg_file.write_text(json.dumps(body))
        assert run(["scr", "--config", str(cfg_file), "--out", str(tmp_path / "t")]) == 1
        assert message in capsys.readouterr().err


def test_lyapunov_and_verify_project_no_orbit_row(tmp_path, monkeypatch):
    # from cached artifacts these stages build the orbit table, but only
    # omega limits read it as grid cells: past setup, whose transition
    # projects the images, no point is projected to the grid
    import scrl.cli
    from scrl.space import GridSpace

    argv = ["--system", "square", "--grid", "12", "--out", str(tmp_path)]
    assert run(["analyze", *argv]) == 0
    set_up, projected, orbits = [False], [], []
    build_bundle, build_orbit_data = scrl.cli.build_bundle, scrl.cli.build_orbit_data
    nearest = GridSpace.nearest

    def spy_bundle(cfg):
        set_up[0] = False
        bundle = build_bundle(cfg)
        set_up[0] = True
        return bundle

    def spy_orbit(*args, **kwargs):
        orbits.append(build_orbit_data(*args, **kwargs))
        return orbits[-1]

    def spy_nearest(self, pts):
        if set_up[0]:
            projected.append(pts)
        return nearest(self, pts)

    monkeypatch.setattr(scrl.cli, "build_bundle", spy_bundle)
    monkeypatch.setattr(scrl.cli, "build_orbit_data", spy_orbit)
    monkeypatch.setattr(GridSpace, "nearest", spy_nearest)
    for stage in ("lyapunov", "verify"):
        assert run([stage, *argv]) == 0
    assert len(orbits) == 2 and projected == []


def test_lyapunov_csvs_hold_the_fields(tmp_path):
    # every number of the Lyapunov CSVs parses back to the in-memory
    # summands and their combination, bit for bit
    code, res = run_pipeline(RunConfig(system="roof", grid_n=12), tmp_path, COMMANDS["analyze"])
    assert code == 0
    space, fields = res["bundle"].space, res["fields"]
    assert len(fields) == 2
    assert sorted(p.name for p in tmp_path.glob("lyapunov_*.csv")) == [
        "lyapunov_combined.csv", "lyapunov_pair_0.csv", "lyapunov_pair_1.csv"]

    def columns(name, header):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        table = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in table] == list(range(space.n))
        return [np.array([float(row[c]) for row in table]) for c in range(1, len(table[0]))]

    def same(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    for rank, fld in enumerate(fields):
        x, y, l, k, h = columns(f"lyapunov_pair_{rank}.csv", "point_index,x,y,l,k,h")
        assert same(x, space.points[:, 0]) and same(y, space.points[:, 1])
        assert same(l, fld.l_values) and same(k, fld.k_values) and same(h, fld.h_values)
    x, y, H = columns("lyapunov_combined.csv", "point_index,x,y,H")
    assert same(x, space.points[:, 0]) and same(y, space.points[:, 1])
    assert same(H, combine_pairs([fld.h_values for fld in fields], space.n))


def test_internal_value_error_exits_two(tmp_path, monkeypatch, capsys):
    import scrl.cli

    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(scrl.cli, "compute_cr", broken)
    assert run(["cr", "--system", "circle", "--grid", "64", "--out", str(tmp_path)]) == 2
    assert "internal failure" in capsys.readouterr().err


def test_oracle_check_clean(tmp_path, capsys):
    out = tmp_path / "new"             # created by the run
    code = run(["oracle-check", "--seeds", "8", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["mismatches"] == 0
    assert report["grid_circle_exact"] and report["grid_square_exact"]
    assert report["grid_circle_limited_exact"] and report["grid_square_limited_exact"]
    assert report["wide_graph_exact"] and report["limited_return_costs_exact"]
    assert report["tied_budgets_exact"]


def test_custom_flow_end_to_end(tmp_path):
    # sample the drifting circle flow into CSV, then analyze it as custom
    s = build_grid("circle", 64)
    f = make_flow("circle")
    tr = build_transition(f, s, 1.0, 4)
    images = np.array([s.nearest(e) for e in tr.coords])
    csv_path = tmp_path / "flow.csv"
    with open(csv_path, "w") as fh:
        fh.write("point_index,m,image_index\n")
        for m in range(1, 5):
            for u in range(s.n):
                fh.write(f"{u},{m},{images[m - 1, u]}\n")
    out = tmp_path / "run"
    code = run(["scr", "--system", "custom", "--grid-domain", "circle",
                "--grid", "64", "--flow-csv", str(csv_path),
                "--epsilon", "0.06", "--out", str(out)])
    assert code == 0
    members = set(json.loads((out / "scr.json").read_text())["results"][0]["members"])
    theta = s.points[:, 0]
    # padded weights keep the truly recurrent fixed arc recurrent, while
    # fast mid-arc cells still cannot afford the return jumps
    fixed_arc = np.nonzero((theta >= 0.875) | (theta == 0.0))[0]
    assert all(int(i) in members for i in fixed_arc)
    assert 0 < len(members) < s.n


@pytest.mark.parametrize("command", ["analyze", "pairs", "lyapunov", "verify"])
def test_custom_flow_orbit_stages_are_config_errors(tmp_path, capsys, command):
    # a custom flow has no orbits to sample: the run stops before it writes anything
    csv_path = tmp_path / "flow.csv"
    csv_path.write_text("point_index,m,image_index\n" + "".join(f"{u},1,{u}\n" for u in range(8)))
    out = tmp_path / "run"
    out.mkdir()
    assert run([command, "--system", "custom", "--grid-domain", "circle", "--grid", "8",
                "--flow-csv", str(csv_path), "--m-max", "1", "--out", str(out)]) == 1
    assert list(out.iterdir()) == []
    assert "custom flows support scr, cr and compare" in capsys.readouterr().err


def test_export_graph_flag(tmp_path):
    out = tmp_path / "g"
    assert run(["analyze", "--system", "identity", "--grid", "16",
                "--export-graph", "--out", str(out)]) == 0
    header = (out / "graph.csv").read_text().splitlines()[0]
    assert header == "u,v,m,w"
