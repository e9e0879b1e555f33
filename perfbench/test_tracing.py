"""Self time arithmetic, and a traced ``scrl`` process that reaches every layer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import child_env  # noqa: E402
from tracing import LAYER_METRICS, TRACED, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    got = self_times(spans)
    assert got["a"] == (6.0, 1)
    assert got["b"] == (3.0, 2)
    assert got["c"] == (1.0, 1)


@pytest.fixture(scope="module")
def traced_probe(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    probe = base / "probe.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(probe), "1",
           "analyze", "--system", "square", "--grid", "12", "--out", str(base / "out")]
    done = subprocess.run(cmd, env=child_env(HERE.parent), cwd=base, capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout.decode() + done.stderr.decode()
    return json.loads(probe.read_text())


def test_every_traced_function_is_reached(traced_probe):
    names = {s[0] for s in traced_probe["trace"]["spans"]}
    assert names == {span for _, _, span in TRACED}
    assert traced_probe["bundle_done"] > 0


def test_layer_metrics_cover_the_table(traced_probe):
    got = layer_metrics(traced_probe["trace"], artifact_bytes=10, wall_s=1.0)
    assert list(got) == list(LAYER_METRICS)
    assert got["chaingraph.edges"] > 0 and got["chaingraph.all_pairs.bytes"] > 0
    assert got["space.nearest.points"] >= got["space.nearest.calls"] > 0
    assert 0 < got["pairs.certified_ratio"] <= 1
    assert 0 < got["pairs.selected_ratio"] <= 1
    assert got["pairs.selected"] <= got["pairs.candidates"]
