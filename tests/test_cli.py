import json

import numpy as np
import pytest

from annulift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    for name in ("power", "perturbed_power", "ends_attracting", "ends_repelling",
                 "end_swap", "counterexample_deg_minus1"):
        assert name in out


def test_index_power_outer_circle(capsys):
    code, out, _ = run(capsys, "index", "--map", "power", "--params", '{"d": 2}',
                       "--curve", "circle:r=2")
    assert code == 0
    assert out.strip() == "2"


def test_index_rect_curve(capsys):
    code, out, _ = run(capsys, "index", "--map", "power", "--params", '{"d": 3}',
                       "--curve", "rect:-2,2,-2,2")
    assert code == 0
    assert out.strip() == "3"


def test_index_curve_from_file(tmp_path, capsys):
    # radius 1.5: clear of the map's fixed point on the unit circle
    pts = [[1.5 * float(np.cos(a)), 1.5 * float(np.sin(a))]
           for a in np.linspace(0, 2 * np.pi, 64, endpoint=False)]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(pts))
    code, out, _ = run(capsys, "index", "--map", "power", "--params", '{"d": 2}',
                       "--curve", str(path), "--min-disp", "1e-9")
    assert code == 0
    assert out.strip() == "2"


def test_completeness_table_and_artifacts(tmp_path, capsys):
    js = tmp_path / "report.json"
    cs = tmp_path / "boxes.csv"
    code, out, _ = run(capsys, "completeness", "--map", "power", "--params", '{"d": 2}',
                       "--nmax", "3", "--json", str(js), "--csv", str(cs))
    assert code == 0
    assert "COMPLETE" in out and "INCOMPLETE" not in out
    payload = json.loads(js.read_text())
    counts = [r["count_lower_bound"] for r in payload["reports"]]
    assert counts == [1, 3, 7]
    lines = cs.read_text().strip().splitlines()
    assert lines[0] == "n,k,x_lo,x_hi,y_lo,y_hi,degree,residue"
    assert len(lines) == 1 + 1 + 3 + 7


def test_json_artifact_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "completeness", "--map", "power", "--params", '{"d": 2}',
        "--nmax", "2", "--json", str(a))
    run(capsys, "completeness", "--map", "power", "--params", '{"d": 2}',
        "--nmax", "2", "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_growth_command(tmp_path, capsys):
    js = tmp_path / "growth.json"
    code, out, _ = run(capsys, "growth", "--map", "power", "--params", '{"d": 2}',
                       "--nmax", "3", "--json", str(js))
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["counts"] == {"1": 1, "2": 3, "3": 7}
    assert abs(payload["rate"] - np.log(7) / 3) < 1e-12
    assert "ln|d|" in out


def test_fixed_points_command(tmp_path, capsys):
    cs = tmp_path / "fp.csv"
    code, out, _ = run(capsys, "fixed-points", "--map", "power", "--params", '{"d": 2}',
                       "--lift-k", "1", "--region=-2,2,-2,2", "--resolution", "1e-3",
                       "--csv", str(cs))
    assert code == 0
    assert "1 certified box(es)" in out
    row = cs.read_text().strip().splitlines()[1].split(",")
    assert row[0] == "1" and row[1] == "1"
    assert float(row[2]) < -0.999 < -0.998 < -float(row[3]) < 1.0
    assert row[7] == "0"  # residue of the k=1 translate's point


def test_lemmas_command(capsys):
    code, out, _ = run(capsys, "lemmas")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_unknown_map_is_usage_error(capsys):
    code, _, err = run(capsys, "index", "--map", "nosuch", "--curve", "circle:r=1")
    assert code == 2
    assert json.loads(err)["error"] == "UnknownZooEntry"


def test_bad_params_is_usage_error(capsys):
    code, _, err = run(capsys, "index", "--map", "power", "--params", "notjson",
                       "--curve", "circle:r=1")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_identity_map_index_fails_with_code_one(capsys):
    # the degree-1 power lift is the identity: every curve point is fixed
    code, _, err = run(capsys, "index", "--map", "power", "--params", '{"d": 1}',
                       "--curve", "circle:r=1")
    assert code == 1
    assert json.loads(err)["error"] == "FixedPointOnCurve"


@pytest.mark.filterwarnings("error")
def test_non_finite_displacement_fails_with_code_one(capsys):
    # the image radius 3**729 of the circle r = 3 overflows to inf
    code, out, err = run(capsys, "index", "--map", "power", "--params", '{"d": 729}',
                         "--curve", "circle:r=3")
    assert code == 1 and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "NonFiniteDisplacement"


def test_usage_error_without_subcommand():
    assert main([]) == 2


def test_index_min_disp_flag(capsys):
    # an absurd floor: the index is undefined
    code, _, err = run(capsys, "index", "--map", "power", "--params", '{"d": 2}',
                       "--curve", "circle:r=2", "--min-disp", "10")
    assert code == 1
    assert json.loads(err)["error"] == "FixedPointOnCurve"
    code, out, _ = run(capsys, "index", "--map", "power", "--params", '{"d": 2}',
                       "--curve", "circle:r=2", "--min-disp", "1e-6")
    assert code == 0
    assert out.strip() == "2"


@pytest.mark.parametrize("flag, value", [
    ("--config", "cfg.json"),
    ("--min-dist", "1e-9"),
    ("--min-disp", "1e-6"),
])
def test_removed_tolerance_flags_are_usage_errors(capsys, flag, value):
    code, _, _ = run(capsys, "completeness", "--map", "power", "--params", '{"d": 2}',
                     "--nmax", "1", flag, value)
    assert code == 2


def test_tabulated_lift_as_map_argument(tmp_path, capsys):
    from annulift.annulus_maps import write_grid_lift
    xs = np.arange(16) / 16
    ys = np.linspace(-1, 1, 9)
    gx, gy = np.meshgrid(xs, ys)
    values = np.stack([2 * gx, 2 * gy], axis=-1)
    path = tmp_path / "tab.json"
    write_grid_lift(path, values, 2, 0.0, -1.0, 1.0, fmt="csv")
    code, out, _ = run(capsys, "index", "--map", str(path), "--curve", "circle:r=2")
    assert code == 0
    assert out.strip() == "2"


@pytest.mark.parametrize("argv", [
    ("fixed-points", "--map", "power", "--params", '{"d": 2}', "--resolution", "0"),
    ("fixed-points", "--map", "power", "--params", '{"d": 2}', "--resolution", "nan"),
    ("index", "--map", "power", "--params", '{"d": 2}', "--curve", "rect:1,0,0,1"),
])
def test_invalid_values_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "ValueError"


def _grid_header(drop=(), **changes):
    """A valid inline tabulated-lift header of the degree-2 power map, edited."""
    xs = np.arange(4) / 4
    gx, gy = np.meshgrid(xs, np.linspace(-1, 1, 3))
    values = np.stack([2 * gx, 2 * gy], axis=-1).reshape(-1, 2).tolist()
    header = {"degree": 2, "x0": 0.0, "nx": 4, "y0": -1.0, "y1": 1.0, "ny": 3,
              "values": values}
    header.update(changes)
    return {k: v for k, v in header.items() if k not in drop}


_VALUES = _grid_header()["values"]


@pytest.mark.parametrize("header, side", [
    pytest.param(_grid_header(drop=["ny"]), None, id="missing-ny"),
    pytest.param(_grid_header(drop=["values"]), None, id="no-values"),
    pytest.param(_grid_header(drop=["values"], values_file="nosuch.csv"), None,
                 id="missing-values-file"),
    pytest.param(_grid_header(y0=1.0, y1=-1.0), None, id="y0-above-y1"),
    pytest.param(_grid_header(nx=1, values=_VALUES[:3]), None, id="nx-1"),
    pytest.param(_grid_header(values=_VALUES[:-1]), None, id="short-values"),
    pytest.param(_grid_header(values=[[float("nan"), 0.0]] + _VALUES[1:]), None,
                 id="nan-value"),
    pytest.param(_grid_header(drop=["values"], values_file="tab.csv", format="csv"),
                 b"0,0\n1,1\n", id="short-csv"),
    pytest.param(_grid_header(drop=["values"], values_file="tab.bin", format="binary"),
                 b"\0" * 8, id="short-binary"),
    pytest.param(_grid_header(drop=["values"], values_file="tab.csv", format="xml"),
                 b"0,0\n", id="unknown-format"),
])
def test_malformed_grid_header_is_usage_error(tmp_path, capsys, header, side):
    if side is not None:
        (tmp_path / header["values_file"]).write_bytes(side)
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(header))
    code, _, err = run(capsys, "index", "--map", str(path), "--curve", "circle:r=2")
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"] == "GridFormatError"
