"""Each output check passes on real artifacts and fails on corrupted ones.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The artifacts come from small ``scrl`` runs made once per module.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from scrl.cli import main as scrl_main  # noqa: E402

EPS = [0.02, 0.05, 0.1]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("artifacts")
    argvs = {
        "roof": ["analyze", "--system", "roof", "--grid", "12"],
        "square": ["analyze", "--system", "square", "--grid", "16"],
        "circle": ["compare", "--system", "circle", "--grid", "256",
                   "--epsilon", "0.02", "--epsilon", "0.05", "--epsilon", "0.1"],
    }
    for name, argv in argvs.items():
        assert scrl_main(argv + ["--out", str(base / name)]) == 0
    return base


@pytest.fixture(scope="module")
def circle_ref():
    return checks.CircleReference(256, np.arange(0, 256, 8), limit=0.13)


def _copy(runs, name, tmp_path):
    out = tmp_path / name
    shutil.copytree(runs / name, out)
    return out


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(value)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _check(name, out, circle_ref):
    if name == "roof":
        return checks.check_roof(out, 12)
    if name == "square":
        return checks.check_square(out, 16)
    return checks.check_circle(out, circle_ref, EPS)


@pytest.mark.parametrize("name", ["roof", "square", "circle"])
def test_clean_artifacts_pass(runs, circle_ref, name):
    assert _check(name, runs / name, circle_ref) == []


def test_digest_sees_one_changed_byte(runs, tmp_path):
    out = _copy(runs, "circle", tmp_path)
    before = checks.digest(out)
    (out / "compare.json").write_text((out / "compare.json").read_text() + " ")
    assert checks.digest(out) != before


def _lyapunov_corruptions():
    def violation(out):
        _edit_json(out / "verify_report.json",
                   lambda r: r["monotonicity_violations"].append(0))

    def low_pass(out):
        _edit_json(out / "verify_report.json", lambda r: r.update(strict_pass_fraction=0.98))

    def wrong_H(out):
        H = float(np.loadtxt(out / "lyapunov_combined.csv", delimiter=",", skiprows=1)[3, 3])
        _edit_csv(out / "lyapunov_combined.csv", 3, 3, H + 1e-12)

    def l_above_k(out):
        _edit_csv(out / "lyapunov_pair_0.csv", 0, 3, 1.0)
        _edit_csv(out / "lyapunov_pair_0.csv", 0, 4, 0.5)

    def h_off_on_bstar(out):
        catalog = json.loads((out / "pairs.json").read_text())
        b_star = catalog["pairs"][catalog["selected"][0]]["B_star"]
        _edit_csv(out / "lyapunov_pair_0.csv", b_star[0], 5, 1.0 - 1e-8)

    return [(violation, "monotonicity"), (low_pass, "strict pass"),
            (wrong_H, "sum h_n"), (l_above_k, "l <= k"), (h_off_on_bstar, "B_star")]


@pytest.mark.parametrize("name", ["roof", "square"])
@pytest.mark.parametrize("corrupt,expect", _lyapunov_corruptions())
def test_lyapunov_corruption_fails(runs, circle_ref, tmp_path, name, corrupt, expect):
    out = _copy(runs, name, tmp_path)
    corrupt(out)
    assert any(expect in p for p in _check(name, out, circle_ref))


def _first_scr(out):
    return json.loads((out / "scr.json").read_text())["results"][0]


def test_roof_member_off_strip_fails(runs, tmp_path):
    out = _copy(runs, "roof", tmp_path)
    x = np.loadtxt(out / "lyapunov_combined.csv", delimiter=",", skiprows=1)[:, 1]
    far = int(np.argmax(np.abs(x - 0.5)))
    _edit_json(out / "scr.json", lambda s: s["results"][0]["members"].append(far))
    assert any("from the strip" in p for p in checks.check_roof(out, 12))


def test_roof_strip_not_excluded_fails(runs, tmp_path):
    out = _copy(runs, "roof", tmp_path)
    x = np.loadtxt(out / "lyapunov_combined.csv", delimiter=",", skiprows=1)[:, 1]
    near = np.nonzero((np.abs(x - 0.5) > 0.1) & (np.abs(x - 0.5) <= 0.1 + 2 / 12))[0]
    _edit_json(out / "scr.json", lambda s: s["results"][0]["members"].extend(near.tolist()))
    assert any("non-strip points excluded" in p for p in checks.check_roof(out, 12))


def test_square_residual_fails(runs, tmp_path):
    out = _copy(runs, "square", tmp_path)
    _edit_json(out / "pairs.json", lambda c: c["residual"].append(5))
    assert any("residual" in p for p in checks.check_square(out, 16))


def test_square_member_mid_height_fails(runs, tmp_path):
    out = _copy(runs, "square", tmp_path)
    y = np.loadtxt(out / "lyapunov_combined.csv", delimiter=",", skiprows=1)[:, 2]
    mid = int(np.argmin(np.abs(y - 0.5)))
    _edit_json(out / "scr.json", lambda s: s["results"][0]["members"].append(mid))
    assert any("fixed edges" in p for p in checks.check_square(out, 16))


def test_square_H_falling_up_a_column_fails(runs, tmp_path):
    out = _copy(runs, "square", tmp_path)
    data = np.loadtxt(out / "lyapunov_combined.csv", delimiter=",", skiprows=1)
    col = np.nonzero(data[:, 1] == data[0, 1])[0]
    top = col[np.argmax(data[col, 2])]
    _edit_csv(out / "lyapunov_combined.csv", int(top), 3, -1.0)
    assert any("decreases up a column" in p for p in checks.check_square(out, 16))


def test_circle_missing_fixed_point_fails(runs, circle_ref, tmp_path):
    out = _copy(runs, "circle", tmp_path)
    C = int(checks.CIRCLE_C * 256)

    def drop(s):
        for r in s["results"]:
            r["members"].remove(C)
    _edit_json(out / "scr.json", drop)
    assert any("fixed points missing" in p for p in checks.check_circle(out, circle_ref, EPS))


def test_circle_scr_outside_cr_fails(runs, circle_ref, tmp_path):
    out = _copy(runs, "circle", tmp_path)
    member = _first_scr(out)["members"][0]
    _edit_json(out / "cr.json", lambda c: c["results"][0]["members"].remove(member))
    assert any("not within CR" in p for p in checks.check_circle(out, circle_ref, EPS))


def test_circle_not_nested_fails(runs, circle_ref, tmp_path):
    out = _copy(runs, "circle", tmp_path)
    fixed = set(np.nonzero(checks.circle_fixed(np.arange(256) / 256))[0].tolist())
    member = next(m for m in _first_scr(out)["members"] if m not in fixed)
    _edit_json(out / "scr.json", lambda s: s["results"][-1]["members"].remove(member))
    assert any("misses smaller-budget" in p for p in checks.check_circle(out, circle_ref, EPS))


def test_circle_cost_off_reference_fails(runs, circle_ref, tmp_path):
    out = _copy(runs, "circle", tmp_path)
    u = int(circle_ref.sample[np.argmin(circle_ref.cost)])

    def shift(s):
        res = max(s["results"], key=lambda r: r["epsilon"])
        res["min_return_cost"][u] += 1e-6
    _edit_json(out / "scr.json", shift)
    assert any(f"point {u}" in p for p in checks.check_circle(out, circle_ref, EPS))
