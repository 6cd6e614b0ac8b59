import contextlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from annulift import fixed_points
from annulift.annulus_maps import ZOO_SCHEMAS, deck_translate, project, write_grid_lift, zoo
from annulift.cli import main
from annulift.errors import NonFiniteDisplacement
from annulift.fixed_points import CertifiedFixedBox, nielsen_residue, polish_fixed_point


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
                       "--curve", str(path))
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


def test_fixed_points_default_region_follows_the_translate(tmp_path, capsys):
    # the fixed point (-10, 0) of 2p + (10, 0) lies ten units left of the
    # origin; without --region the command sweeps the unit strip there
    js = tmp_path / "fp.json"
    code, out, _ = run(capsys, "fixed-points", "--map", "power", "--params", '{"d": 2}',
                       "--lift-k", "10", "--json", str(js))
    assert code == 0
    assert "1 certified box(es)" in out
    assert "residue 0" in out  # -10 mod |2 - 1|
    payload = json.loads(js.read_text())
    x0, x1, y0, y1 = payload["region"]
    assert x1 - x0 == 1.0 and x0 < -10.0 < x1
    (box,) = payload["boxes"]
    assert CertifiedFixedBox(tuple(box["box"]), box["boundary_degree"]).contains((-10.0, 0.0))


def test_fixed_points_on_a_wide_low_region(tmp_path, capsys):
    # a 1e8 x 2 region is cut in thirds across x alone until its boxes are near
    # square; boxes that kept the region's aspect ran out of budget first
    js = tmp_path / "fp.json"
    code, out, _ = run(capsys, "fixed-points", "--map", "power", "--params", '{"d": 2}',
                       "--region=0,1e8,-1,1", "--resolution", "0.1", "--json", str(js))
    assert code == 0
    assert "1 certified box(es)" in out
    (box,) = json.loads(js.read_text())["boxes"]
    assert box["boundary_degree"] == 1
    assert CertifiedFixedBox(tuple(box["box"]), 1).contains((0.0, 0.0))


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
    assert _assert_error_contract([]) == 2


@pytest.mark.parametrize("argv", [
    ["index", "--map", "power", "--params", '{"d": 2}', "--curve", "circle:r=2", "--bogus", "1"],
    ["index", "--map", "power", "--params", '{"d": 2}'],
    ["completeness", "--map", "power", "--params", '{"d": 2}', "--nmax", "abc"],
], ids=["unknown flag", "missing --curve", "--nmax abc"])
def test_argparse_errors_keep_the_error_contract(argv):
    assert _assert_error_contract(argv) == 2


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "index", "--help")
    assert code == 0 and out.startswith("usage: annulift index") and err == ""


@pytest.mark.parametrize("flag, value", [
    ("--config", "cfg.json"),
    ("--min-dist", "1e-9"),
    ("--min-disp", "1e-6"),
])
def test_removed_tolerance_flags_are_usage_errors(capsys, flag, value):
    for command in (["completeness", "--nmax", "1"], ["index", "--curve", "circle:r=2"]):
        code, out, err = run(capsys, command[0], "--map", "power", "--params", '{"d": 2}',
                             *command[1:], flag, value)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "UsageError",
                                   "message": f"annulift: unrecognized arguments: {flag} {value}"}


def test_tabulated_lift_as_map_argument(tmp_path, capsys):
    xs = np.arange(16) / 16
    ys = np.linspace(-1, 1, 9)
    gx, gy = np.meshgrid(xs, ys)
    values = np.stack([2 * gx, 2 * gy], axis=-1)
    path = tmp_path / "tab.json"
    write_grid_lift(path, values, 2, 0.0, -1.0, 1.0, fmt="csv")
    code, out, _ = run(capsys, "index", "--map", str(path), "--curve", "circle:r=2")
    assert code == 0
    assert out.strip() == "2"


def test_tabulated_hat_gives_the_same_boxes_on_any_region(tmp_path, capsys):
    # a hat of width 0.008 at x = 0.3 puts two fixed points (0.3 +- 0.004/6, 0)
    # inside one 3 x 3 sample cell of the large region; the grid's declared
    # bound (151) keeps them, and both regions report the same two points
    gx, gy = np.meshgrid(np.arange(2000) / 2000, np.linspace(-1.0, 1.0, 5))
    hat = np.maximum(0.0, 1.0 - np.abs((gx - 0.3) / 0.004))
    path = tmp_path / "hat.json"
    write_grid_lift(path, np.stack([gx + 0.5 - 0.6 * hat, 0.5 * gy], axis=-1), 1, 0.0, -1.0, 1.0)
    points = [(0.3 - 0.004 / 6, 0.0), (0.3 + 0.004 / 6, 0.0)]
    for region in ("0,1,-1,1", "0.25,0.35,-0.1,0.1"):
        js = tmp_path / "fp.json"
        code, out, _ = run(capsys, "fixed-points", "--map", str(path), f"--region={region}",
                           "--json", str(js))
        assert code == 0 and "2 certified box(es)" in out
        boxes = [CertifiedFixedBox(tuple(b["box"]), b["boundary_degree"])
                 for b in json.loads(js.read_text())["boxes"]]
        assert [b.boundary_degree for b in boxes] == [1, -1]
        assert all(b.contains(p) for b, p in zip(boxes, points))


@pytest.mark.parametrize("argv", [
    ("fixed-points", "--map", "power", "--params", '{"d": 2}', "--resolution", "0"),
    ("fixed-points", "--map", "power", "--params", '{"d": 2}', "--resolution", "nan"),
    # reversed by less than the jitter, which used to widen it into a region
    ("fixed-points", "--map", "power", "--params", '{"d": 2}', "--region=1e-5,0,-1,1"),
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


# -- the error contract under fuzzing ------------------------------------------------

# Finite values stay within |v| <= 1e3: with the coarse --resolution below a
# region's quadtree then has a few levels at most, whereas a region 1e8 wide
# and 2 high runs to the subdivision cap, which takes seconds.
_NUMBER = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "1e999", "-1e999",
                     "", " ", "abc", "1e", "--1", "0x10", "1_0", "\u221e"]),
)
_JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)


def _numbers(min_size=0, max_size=6):
    return st.lists(_NUMBER, min_size=min_size, max_size=max_size).map(",".join)


_CIRCLE_PART = st.one_of(
    st.tuples(st.just("r"), _NUMBER), st.tuples(st.just("n"), _NUMBER),
    st.tuples(st.just("n"), st.integers(-3, 300).map(str)),
    st.tuples(st.sampled_from(["", "x", "R"]), _NUMBER),
).map("=".join)
_CURVE_SPEC = st.one_of(
    st.lists(_CIRCLE_PART, min_size=0, max_size=3).map(lambda ps: "circle:" + ",".join(ps)),
    _numbers().map(lambda v: "rect:" + v),
    _numbers(4, 4).map(lambda v: "rect:" + v),
    _JUNK.map(lambda j: "circle:" + j), _JUNK.map(lambda j: "rect:" + j),
)
_REGION = st.one_of(_numbers(), _numbers(4, 4), _JUNK)


def _assert_error_contract(argv):
    """Exit 0, 1 or 2; no exception escapes and no warning is printed; a
    failure writes exactly one JSON object on stderr. The command runs under
    numpy's default error state, which ignores underflow."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err
    if code != 0:
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert isinstance(payload, dict) and set(payload) == {"error", "message"}
    return code


@given(spec=_CURVE_SPEC)
def test_curve_specs_keep_the_error_contract(spec):
    _assert_error_contract(["index", "--map", "power", "--params", '{"d": 2}',
                                    "--curve", spec])


@given(region=_REGION)
def test_region_strings_keep_the_error_contract(region):
    _assert_error_contract(["fixed-points", "--map", "power", "--params", '{"d": 2}',
                                    f"--region={region}", "--resolution", "50"])


@pytest.mark.parametrize("argv", [
    ("index", "--curve", "circle:r=inf"),
    ("index", "--curve", "circle:r=nan"),
    ("index", "--curve", "circle:r=1e999"),
    ("index", "--curve", "rect:0,inf,-1,1"),
    ("index", "--curve", "rect:-1,1,nan,1"),
    ("fixed-points", "--region=0,inf,-1,1"),
    ("fixed-points", "--region=-inf,1,-1,1"),
    ("fixed-points", "--region=0,1,-1,nan"),
    ("completeness", "--nmax", "1", "--region=0,1,nan,1"),
    ("growth", "--nmax", "1", "--region=0,1,-1,inf"),
])
def test_non_finite_numbers_are_usage_errors(argv):
    command, *rest = argv
    code = _assert_error_contract([command, "--map", "power", "--params",
                                           '{"d": 2}', *rest])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("fixed-points", "--region=-1.7e308,1.7e308,-1,1", "--resolution", "0.1"),
    ("fixed-points", "--region=0,1,-1e308,1e308", "--resolution", "0.1"),
    ("index", "--curve", "rect:-1.7e308,1.7e308,-1,1"),
])
def test_region_whose_span_overflows_is_a_quiet_usage_error(argv):
    # every number is finite, but x1 - x0 (or y1 - y0) overflows; the
    # rectangle rejects it before any numpy arithmetic can warn
    command, *rest = argv
    code = _assert_error_contract([command, "--map", "power", "--params",
                                           '{"d": 2}', *rest])
    assert code == 2


# -- map parameters under fuzzing ------------------------------------------------------

# JSON texts of parameter values: numbers a float cannot hold (1e400 parses
# to inf, a 400-digit integer overflows float()), NaN, and values of the
# wrong type. Finite numbers stay within 1e3, so an index stays fast.
_PARAM_VALUE = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["1e400", "-1e400", "NaN", "1" + "0" * 400, "-" + "9" * 400,
                     '"2"', '"abc"', '""', "[2]", "[]", "{}", "null", "true"]),
)


@st.composite
def _zoo_params(draw):
    name = draw(st.sampled_from(sorted(ZOO_SCHEMAS)))
    keys = list(ZOO_SCHEMAS[name]["params"]) + ["x"]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    body = ", ".join(f'"{k}": {draw(_PARAM_VALUE)}' for k in chosen)
    return name, "{" + body + "}"


@given(_zoo_params())
def test_map_params_keep_the_error_contract(case):
    name, params = case
    _assert_error_contract(["index", "--map", name, "--params", params,
                            "--curve", "circle:r=2"])


@pytest.mark.parametrize("name,params", [
    ("power", '{"d": 1e400}'), ("power", '{"d": -1e400}'), ("power", '{"d": NaN}'),
    ("power", '{"d": 1' + "0" * 400 + "}"), ("end_swap", '{"d": 1e400}'),
    ("perturbed_power", '{"d": 2, "eps": NaN}'), ("ends_attracting", '{"d": 2, "lam": 1e400}'),
], ids=["power-inf", "power-minus-inf", "power-nan", "power-huge-int", "end_swap-inf",
        "perturbed_power-eps-nan", "ends_attracting-lam-inf"])
def test_non_finite_map_params_are_usage_errors(name, params):
    code = _assert_error_contract(["index", "--map", name, "--params", params,
                                   "--curve", "circle:r=2"])
    assert code == 2


def test_huge_region_overflow_is_one_quiet_error():
    # 2 * 1.7e308 overflows at a sample of the region's first test: a typed
    # error at once, not a warning followed by a subdivision budget run of
    # seconds
    start = time.perf_counter()
    code = _assert_error_contract(["fixed-points", "--map", "power", "--params", '{"d": 2}',
                                   "--region=0,1.7e308,-1,1", "--resolution", "0.1"])
    assert code == 1 and time.perf_counter() - start < 1.0
    # the sweeps take only x0 from the region, so theirs overflows in y;
    # the strip's x-displacement enclosure is then too wide to sweep
    for command in ("completeness", "growth"):
        start = time.perf_counter()
        code = _assert_error_contract([command, "--map", "power", "--params", '{"d": 2}',
                                       "--nmax", "2", "--region=0,1,0,1e308",
                                       "--resolution", "0.1"])
        assert code == 1 and time.perf_counter() - start < 1.0


def test_huge_region_without_overflow_certifies_the_origin(tmp_path, capsys):
    # on 0 <= x <= 1e308 every sample's image stays finite, 2 x at most
    # 1.67e308: the right third is excluded, and the origin is certified
    js = tmp_path / "fp.json"
    code = _assert_error_contract(["fixed-points", "--map", "power", "--params", '{"d": 2}',
                                   "--region=0,1e308,-1,1", "--resolution", "0.1",
                                   "--json", str(js)])
    assert code == 0
    (box,) = json.loads(js.read_text())["boxes"]
    assert CertifiedFixedBox(tuple(box["box"]), 1).contains((0.0, 0.0))


@pytest.mark.parametrize("command", ["completeness", "growth"])
def test_failed_translate_is_one_json_error(monkeypatch, capsys, command):
    # a translate that fails is recorded in the report; the command still
    # prints its table, then exits 1 with one JSON object on stderr
    real = fixed_points.isolate_fixed_points

    def isolate(F, region, resolution, lift_offset=0):
        if lift_offset == 0:
            raise NonFiniteDisplacement("injected")
        return real(F, region, resolution, lift_offset)

    monkeypatch.setattr(fixed_points, "isolate_fixed_points", isolate)
    code, out, err = run(capsys, command, "--map", "power", "--params", '{"d": 3}',
                         "--nmax", "1", "--resolution", "0.01")
    assert code == 1
    assert "1 translate error(s)" in out if command == "completeness" else "growth rate" in out
    (line,) = err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "ToolkitError"
    assert "k=0: NonFiniteDisplacement: injected" in payload["message"]


# Header values: valid ones, numbers a float or an int cannot hold, and
# values of the wrong type; a key is kept, dropped or replaced by one.
_HEADER_VALUE = st.one_of(
    st.integers(-3, 6), st.floats(-1e3, 1e3), st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 10 ** 400, None,
                     True, "2", "", "csv", "binary", [], {}, [2], [[0.0, 0.0]]]),
)
_HEADER_KEYS = ("degree", "x0", "nx", "y0", "y1", "ny", "values", "values_file", "format")
# 4 x 3 node tables of any floats, huge ones included
_VALUE_TABLE = st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=12, max_size=12)


@st.composite
def _grid_headers(draw):
    header = _grid_header()
    if draw(st.booleans()):
        header.pop("values")
        header.update(values_file=draw(st.sampled_from(["tab.csv", "tab.bin", "nosuch", ""])),
                      format=draw(st.sampled_from(["csv", "binary", "xml"])))
    for key in draw(st.lists(st.sampled_from(_HEADER_KEYS), unique=True, max_size=3)):
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(st.one_of(_HEADER_VALUE, _VALUE_TABLE) if key == "values"
                               else _HEADER_VALUE)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([[], "tab", 2, None, [header]]))
    return header


_INDEX = ("index", "--curve", "circle:r=2")


@given(header=_grid_headers(), side=st.one_of(st.just(b"0,0\n" * 12), st.binary(max_size=200)),
       command=st.sampled_from([_INDEX, ("fixed-points", "--resolution", "0.5")]))
# an infinite or huge degree overflowed int() or float(), and an empty CSV
# values file warned, before they became GridFormatErrors
@example(header=_grid_header(degree=float("inf")), side=b"", command=_INDEX)
@example(header=_grid_header(degree=10 ** 400), side=b"", command=_INDEX)
@example(header=_grid_header(drop=["values"], values_file="tab.csv", format="csv"), side=b"",
         command=_INDEX)
def test_grid_headers_keep_the_error_contract(header, side, command):
    # a malformed header is exit 2 (GridFormatError), a table the lift
    # rejects is exit 1 with a typed error; never a traceback or a warning.
    # fixed-points sweeps its default strip, sized from the header's y0, y1
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("tab.csv", "tab.bin"):
            (Path(tmp) / name).write_bytes(side)
        path = Path(tmp) / "tab.json"
        path.write_text(json.dumps(header))
        _assert_error_contract([command[0], "--map", str(path), *command[1:]])


@pytest.mark.parametrize("d,k", [(3, 1), (3, -1), (-2, 1), (-2, 2), (-1, 1), (-1, 2)])
def test_fixed_point_residue_is_read_off_the_translate(tmp_path, capsys, d, k):
    # the printed residue (-k) mod |d - 1| is the one nielsen_residue reads
    # off the polished point
    out = tmp_path / "fp.json"
    x = -k / (d - 1)   # the fixed point of (d x + k, d y)
    code, _, _ = run(capsys, "fixed-points", "--map", "power", "--params", f'{{"d": {d}}}',
                     "--lift-k", str(k), f"--region={x - 0.7},{x + 0.6},-1,1",
                     "--json", str(out))
    assert code == 0
    boxes = json.loads(out.read_text())["boxes"]
    assert len(boxes) == 1
    lift = zoo("power", d=d)
    box = CertifiedFixedBox(tuple(boxes[0]["box"]), boxes[0]["boundary_degree"], k)
    point = polish_fixed_point(deck_translate(lift, k), box)
    assert boxes[0]["residue"] == nielsen_residue(lift, project(point), 1) == (-k) % abs(d - 1)
