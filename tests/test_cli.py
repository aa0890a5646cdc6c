"""Command-line behavior: output lines, exit codes, machine mode, config."""

import functools
import json
import math
import random
import re
import shlex
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from persimod import Barcode, Interval
from persimod.cli import MAX_DEMO_DENOM, build_parser, main, rational_degeneracy
from persimod.fields import GF2, PrimeField
from persimod.interleaving import gamma
from persimod.io import emit_certificate, emit_plfunction, emit_system, load_certificate, parse_barcode_text
from persimod.limits import InductiveSystem, defect_check
from persimod.morphisms import Morphism
from persimod.spectral import PLFunction

from test_limits import geometric_tower, graded_tower


@pytest.fixture
def unit_pair(tmp_path, monkeypatch):
    """F = {[0,10)}, G = {[1,10)} on disk, cwd moved to the temp dir."""
    (tmp_path / "F.bc").write_text("0 0 10\n")
    (tmp_path / "G.bc").write_text("0 1 10\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- dist --------------------------------------------------------------------


def test_dist_gamma_human(unit_pair, capsys):
    rc, out, _ = run(capsys, "dist", "gamma", "F.bc", "G.bc")
    assert rc == 0
    assert out == "1 exact (certificate: gamma.cert)\n"
    F, G, cert = load_certificate(unit_pair / "gamma.cert")
    assert cert.total == 1


def test_dist_gamma_machine(unit_pair, capsys):
    rc, out, _ = run(capsys, "--machine", "dist", "gamma", "F.bc", "G.bc")
    assert rc == 0
    assert out.splitlines() == [
        "value=1",
        "exactness=Exact",
        "lower=1",
        "upper=1",
        "certificate=gamma.cert",
    ]


def test_dist_gamma_symmetric(unit_pair, capsys):
    rc, out, _ = run(capsys, "dist", "gamma", "F.bc", "G.bc", "--symmetric",
                     "--certificate", "sym.cert")
    assert rc == 0
    assert out.startswith("2 exact")
    _, _, cert = load_certificate(unit_pair / "sym.cert")
    assert cert.a == cert.b == 1


@pytest.mark.parametrize("symmetric", [[], ["--symmetric"]])
def test_dist_gamma_at_infinite_distance_writes_no_certificate(unit_pair, capsys, symmetric):
    # one right-infinite bar in degree 0 against one in degree 1
    (unit_pair / "F.bc").write_text("0 0 inf\n")
    (unit_pair / "G.bc").write_text("1 1 inf\n")
    assert run(capsys, "dist", "gamma", "F.bc", "G.bc", *symmetric) == (0, "inf exact\n", "")
    rc, out, _ = run(capsys, "--machine", "dist", "gamma", "F.bc", "G.bc", *symmetric)
    assert (rc, out.splitlines()[0], out.splitlines()[-1]) == (0, "value=inf", "certificate=none")
    assert not (unit_pair / "gamma.cert").exists()


def test_dist_gamma_over_gf5(unit_pair, capsys):
    rc, out, _ = run(capsys, "--field", "5", "dist", "gamma", "F.bc", "G.bc")
    assert rc == 0
    assert out.startswith("1 exact")


def test_dist_check(unit_pair, capsys):
    rc, out, _ = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert (rc, out) == (0, "interleaved\n")
    rc, out, _ = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1/2")
    assert (rc, out) == (0, "not-interleaved\n")


def test_dist_check_method_flag_is_gone(unit_pair, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "check", "F.bc", "G.bc", "--a", "1", "--b", "1", "--method", "matching"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method matching" in capsys.readouterr().err


# --- spectral / sublevel -------------------------------------------------------


def test_spectral_cmd(tmp_path, capsys):
    p = tmp_path / "b.bc"
    p.write_text("-1 -inf 7/10\n0 -inf 13/10\n")
    rc, out, _ = run(capsys, "spectral", str(p), "--convention", "LeftInfinite", "--dim", "1")
    assert (rc, out) == (0, "c-=7/10 c+=13/10 gamma=3/5\n")
    rc, out, _ = run(capsys, "--machine", "spectral", str(p),
                     "--convention", "LeftInfinite", "--dim", "1")
    assert rc == 0
    assert "spectrum=-1:7/10,0:13/10" in out.splitlines()


def test_spectral_domain_error_exits_1(tmp_path, capsys):
    p = tmp_path / "b.bc"
    p.write_text("0 0 1\n")
    rc, _, err = run(capsys, "spectral", str(p), "--convention", "LeftInfinite", "--dim", "1")
    assert rc == 1
    assert err.startswith("error:")


def test_sublevel_cmd(tmp_path, capsys):
    f = PLFunction("circle", [0, 1, 2, 3], [0, 2, 1, 3])
    p = tmp_path / "f.plf"
    p.write_text(emit_plfunction(f))
    rc, out, _ = run(capsys, "sublevel", str(p))
    assert rc == 0
    assert out.splitlines() == [
        "# degree lo hi [multiplicity]",
        "0 0 inf",
        "0 1 2",
        "1 3 inf",
    ]


# --- limit / complete ----------------------------------------------------------


def test_limit_cmd(tmp_path, capsys):
    emit_system(tmp_path / "tower", geometric_tower(2, 5))
    rc, out, _ = run(capsys, "limit", str(tmp_path / "tower"))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "error bound: 1/4"
    assert lines[2] == "0 0 15/16"


def test_limit_defect_cmd(tmp_path, capsys):
    emit_system(tmp_path / "tower", geometric_tower(2, 5))
    system = geometric_tower(2, 5)
    lhs, rhs, _ = defect_check(system, 1)
    rc, out, _ = run(capsys, "limit", str(tmp_path / "tower"), "--defect", "1")
    assert (rc, out) == (0, f"defect at stage 1: {lhs} <= {rhs}: ok\n")


def test_complete_cmd(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    for i in range(6):
        (d / f"F{i}.bc").write_text(f"0 {Fraction(1, 2 ** (i + 1))} 1\n")
    rc, out, _ = run(capsys, "complete", str(d), "--tol", "1/4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "start: 0; distance to last stage: 1/64"
    assert lines[2] == "0 0 1"


def test_complete_tolerance_exits_1(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    for i in range(6):
        (d / f"F{i}.bc").write_text(f"0 {Fraction(1, 2 ** (i + 1))} 1\n")
    rc, _, err = run(capsys, "complete", str(d), "--tol", "1/1000")
    assert rc == 1
    assert err.startswith("error:")


def test_complete_refuses_a_sequence_that_is_not_cauchy(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    for i, hi in enumerate((1, 100, 1, 100)):
        (d / f"F{i}.bc").write_text(f"0 0 {hi}\n")
    rc, out, err = run(capsys, "complete", str(d), "--tol", "1")
    assert (rc, out, err) == (1, "", "error: no suffix has consecutive distances bounded by 1, 1/2, 1/4, ...\n")


@pytest.mark.parametrize("entry, message", [
    ("0 0 1/2", "bad scalar (denominator divisible by 2)"),
    ("1 0 1", "entry (1,0) not allowed: no degree-0 generator [0,3/4) -> [5,6)"),
])
def test_limit_refuses_a_bad_entry_at_its_line(tmp_path, capsys, entry, message):
    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    (d / "F1.bc").write_text("0 0 7/8\n0 5 6\n")
    (d / "f0.mor").write_text(f"# target source scalar\n{entry}\n")
    rc, out, err = run(capsys, "limit", str(d))
    assert (rc, out, err) == (2, "", f"error: {d / 'f0.mor'}:2: {message}\n")


def test_complete_empty_dir_exits_2(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    rc, _, err = run(capsys, "complete", str(d), "--tol", "1/4")
    assert rc == 2
    assert "no stage files" in err


@pytest.mark.parametrize("names, message", [
    (["F0.bc", "F2.bc"], "stage files not contiguous from F0: [0, 2]"),
    (["F0.bc", "F1.bc", "F01.bc"], "duplicate stage index 1: F01.bc, F1.bc"),
])
def test_complete_and_limit_reject_the_same_stage_sets(tmp_path, capsys, names, message):
    d = tmp_path / "seq"
    d.mkdir()
    for name in names:
        (d / name).write_text("0 0 1\n")
    for argv in (["complete", str(d), "--tol", "1/4"], ["limit", str(d)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", f"error: {d}: {message}\n")


# --- cone-test / cantor ----------------------------------------------------------


def test_cone_test_cmd(tmp_path, capsys):
    rows = ["0.0,0.0,0.0,0.0"]
    for j in range(20):
        rows.append(f"{0.7 ** j!r},0.0,0.0,0.0")
        rows.append(f"{-(0.7 ** j)!r},0.0,0.0,0.0")
    (tmp_path / "axis.csv").write_text("\n".join(rows) + "\n")
    rc, out, _ = run(capsys, "cone-test", "--cloud", str(tmp_path / "axis.csv"),
                     "--point", "0,0,0,0")
    assert rc == 0
    assert out.startswith("NotCoisotropic witness-normal ")

    rows = ["0.0,0.0"]
    for j in range(20):
        rows.append(f"{0.7 ** j!r},0.0")
        rows.append(f"{-(0.7 ** j)!r},0.0")
    (tmp_path / "line.csv").write_text("\n".join(rows) + "\n")
    rc, out, _ = run(capsys, "--machine", "cone-test", "--cloud",
                     str(tmp_path / "line.csv"), "--point", "0 0")
    assert (rc, out) == (0, "verdict=Coisotropic\n")


@pytest.mark.parametrize("flags", [
    ["--theta-res", "0"], ["--theta-res", "nan"], ["--theta-res", "inf"], ["--theta-res", "720"],
    ["--theta-res", "0.2"], ["--point", "nan,0,0,0"], ["--point", "inf,0,0,0"],
])
def test_cone_test_refuses_an_angle_or_point_off_its_domain(tmp_path, capsys, flags):
    # the Lagrangian plane (q1, q2): Coisotropic at the default angle
    rows = ["0.0,0.0,0.0,0.0"]
    for t in range(0, 360, 5):
        c, s = math.cos(math.radians(t)), math.sin(math.radians(t))
        rows += [f"{r * c!r},{r * s!r},0.0,0.0" for r in (0.7**j for j in range(20))]
    (tmp_path / "plane.csv").write_text("\n".join(rows) + "\n")
    argv = ["cone-test", "--cloud", str(tmp_path / "plane.csv"), "--point", "0,0,0,0"]
    assert run(capsys, *argv) == (0, "Coisotropic\n", "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *argv, *flags)
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("rows, rc, out, err", [
    # secants up to 6e153 long: squared norms stay finite
    ("0,0\n3e153,0\n-3e153,0\n1,0\n0.5,0\n-1,0\n", 0, "Coisotropic\n", ""),
    ("0,0\n1e200,0\n5e199,0\n1,0\n0.5,0\n", 1, "",
     "error: secant norms overflow: a point lies 2^510 (about 3.4e153) or farther from the base point\n"),
    ("0,0\n3.4e153,0\n1,0\n", 1, "",
     "error: secant norms overflow: a point lies 2^510 (about 3.4e153) or farther from the base point\n"),
])
def test_cone_test_near_the_float_range_warns_nothing(tmp_path, rows, rc, out, err):
    # A fresh interpreter, so that numpy's warnings are not filtered by an
    # earlier test; `-W error` turns any of them into a traceback.
    (tmp_path / "far.csv").write_text(rows)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "persimod.cli", "cone-test", "--cloud", "far.csv", "--point", "0,0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)


def _plane_and_axis_cloud():
    """Rays in R^6 = (q1, q2, q3, p1, p2, p3) along the symplectic plane
    spanned by (q1 + q2)/sqrt2 and (p1 + p2)/sqrt2, every 5 degrees, and
    both ways along q3.  The one axis normal, p3, passes (J p3 lies on the
    q3 line), so the witness comes from the sphere grid; its p3 coordinate
    is an exact zero."""
    s = math.sqrt(0.5)
    dirs = [(math.cos(math.radians(t)) * s, math.cos(math.radians(t)) * s, 0.0,
             math.sin(math.radians(t)) * s, math.sin(math.radians(t)) * s, 0.0)
            for t in range(0, 360, 5)]
    dirs += [(0.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)]
    rows = [(0.0,) * 6]
    for d in dirs:
        norm = math.sqrt(sum(c * c for c in d))
        rows.extend(tuple(0.7 ** j * c / norm for c in d) for j in range(20))
    return "".join(",".join(repr(c) for c in row) + "\n" for row in rows)


def test_cone_test_grid_witness_stdout_is_pinned(tmp_path, capsys):
    # Pinned bytes, signs of zeros included, so a faster direction-set
    # kernel cannot move the printed normal.
    (tmp_path / "plane.csv").write_text(_plane_and_axis_cloud())
    rc, out, err = run(capsys, "--machine", "cone-test", "--cloud", str(tmp_path / "plane.csv"),
                       "--point", "0,0,0,0,0,0")
    assert (rc, err) == (0, "")
    assert out == (
        "verdict=NotCoisotropic\n"
        "witness=0.004262676352051893,-0.004262676352051908,8.823832579430339e-17,"
        "-0.7070939326499116,0.7070939326499109,0.0\n"
    )


def test_cantor_bound_table(capsys):
    rc, out, _ = run(capsys, "cantor", "--a", "1/8", "--n", "1", "--k", "3", "--bound-table")
    assert (rc, out) == (0, "1 1/2\n2 1/4\n3 1/8\n")
    rc, out, _ = run(capsys, "--machine", "cantor", "--a", "1/8", "--n", "1", "--k", "3",
                     "--bound-table")
    assert out == "level=1 bound=1/2\nlevel=2 bound=1/4\nlevel=3 bound=1/8\n"


def test_cantor_family_summary(capsys):
    rc, out, _ = run(capsys, "cantor", "--a", "1/4", "--n", "1", "--k", "1")
    assert (rc, out) == (0, "4 cubes of edge 1/4; displacement bound 1\n")


def test_cantor_emit_cloud(capsys):
    rc, out, _ = run(capsys, "cantor", "--a", "1/4", "--n", "1", "--k", "1", "--emit-cloud")
    assert rc == 0
    assert len(out.splitlines()) == 16


def test_readme_emit_cloud_example_gets_a_verdict(tmp_path, capsys):
    # README's pipeline: the corners of the level-2 family, then a cone test
    # at one of them.  The nearest corner lies farther than r0 / 256, so the
    # default scales reach down to it; the exact answer is vacuous.
    rc, out, _ = run(capsys, "cantor", "--a", "1/4", "--n", "1", "--k", "2", "--emit-cloud")
    assert rc == 0
    (tmp_path / "corners.csv").write_text(out)
    assert run(capsys, "cone-test", "--cloud", str(tmp_path / "corners.csv"), "--point", "0,0") == (
        0, "CoisotropicVacuous\n", "")


def test_cantor_domain_error_exits_1(capsys):
    rc, _, err = run(capsys, "cantor", "--a", "1/2", "--n", "1", "--k", "1")
    assert rc == 1
    assert "disjointness" in err


@pytest.mark.parametrize("k", ["100000000", "20000000000"])
def test_cantor_huge_level_exits_1_before_counting(capsys, k):
    # the budget is checked on the exponent: 2^(2nk) is never built
    rc, out, err = run(capsys, "cantor", "--a", "1/4", "--n", "1", "--k", k)
    assert (rc, out) == (1, "")
    assert err == f"error: cube count 2^{2 * int(k)} exceeds budget 1000000\n"


@pytest.mark.parametrize("n, k", [("1", "3000000"), ("1", "5001"), ("1000000000000", "1")])
def test_cantor_bound_table_over_budget_exits_1_without_rows(capsys, n, k):
    rc, out, err = run(capsys, "cantor", "--a", "1/4", "--n", n, "--k", k, "--bound-table")
    assert (rc, out) == (1, "")
    assert err.startswith("error: bound exponent") and err.count("\n") == 1


# --- demo / validate / config ------------------------------------------------------


def test_demo_rational_degeneracy(capsys):
    rc, out, _ = run(capsys, "demo", "rational-degeneracy", "--denom-max", "6")
    assert (rc, out) == (0, "distinct barcodes (12 vs 12 bars), certified gamma <= 1/6\n")
    rc, out, _ = run(capsys, "--machine", "demo", "rational-degeneracy", "--denom-max", "6")
    assert out.splitlines() == ["n=6", "distinct=true", "bound=1/6", "cert_a=0", "cert_b=1/6"]


def test_demo_api_certificate_is_tight():
    F, G, cert = rational_degeneracy(4)
    assert F != G
    assert cert.total == Fraction(1, 4)
    assert gamma(F, G).value <= Fraction(1, 4)


def test_demo_rejects_denominator_below_2(capsys):
    rc, _, err = run(capsys, "demo", "rational-degeneracy", "--denom-max", "1")
    assert rc == 1
    assert err.startswith("error:")


def test_demo_rejects_denominator_above_cap(capsys):
    rc, out, err = run(capsys, "demo", "rational-degeneracy", "--denom-max", str(MAX_DEMO_DENOM + 1))
    assert (rc, out) == (1, "")
    assert err == f"error: need 2 <= denominator bound <= {MAX_DEMO_DENOM}, got {MAX_DEMO_DENOM + 1}\n"


def test_validate_cmd(tmp_path, capsys):
    p = tmp_path / "b.bc"
    p.write_text("0 0 1\n1 0 2 3\n")
    rc, out, _ = run(capsys, "validate", str(p))
    assert (rc, out) == (0, "barcode: 4 bars, degrees 0,1\n")


def test_validate_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "b.bc"
    p.write_text("0 5 5\n")
    rc, _, err = run(capsys, "validate", str(p))
    assert rc == 2
    assert "empty interval" in err
    rc, _, err = run(capsys, "validate", str(tmp_path / "missing.bc"))
    assert rc == 2


def test_malformed_tower_shift_header_exits_2(tmp_path, capsys):
    emit_system(tmp_path / "tower", geometric_tower(2, 4))
    mor = tmp_path / "tower" / "f0.mor"
    mor.write_text("shift: abc\n" + mor.read_text())
    rc, out, err = run(capsys, "limit", str(tmp_path / "tower"))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {mor}: bad shift header")


@pytest.mark.parametrize("name", ["f0.mor", "g0.mor"])
@pytest.mark.parametrize("value", ["4", "zz"])
def test_malformed_tower_field_header_exits_2(tmp_path, capsys, name, value):
    emit_system(tmp_path / "tower", geometric_tower(2, 4))
    mor = tmp_path / "tower" / name
    mor.write_text(f"field: {value}\n" + mor.read_text())
    rc, out, err = run(capsys, "limit", str(tmp_path / "tower"))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {mor}: bad field header (")


@pytest.mark.parametrize("name", ["f0.mor", "g1.mor"])
@pytest.mark.parametrize("header, argv, loaded", [
    ("5", (), "2"),
    ("2", ("--field", "5"), "5"),
    ("q", ("--field", "3"), "3"),
    ("5", ("--field", "q"), "q"),
])
def test_contradicting_tower_field_header_exits_2(tmp_path, capsys, name, header, argv, loaded):
    emit_system(tmp_path / "tower", geometric_tower(2, 5))
    mor = tmp_path / "tower" / name
    mor.write_text(f"field: {header}\n" + mor.read_text())
    rc, out, err = run(capsys, *argv, "limit", str(tmp_path / "tower"))
    assert (rc, out) == (2, "")
    assert err == f"error: {mor}: field header is not {loaded}\n"


@pytest.mark.parametrize("header, argv", [("2", ()), ("5", ("--field", "5")), ("Q", ("--field", "q"))])
def test_agreeing_tower_field_header_is_accepted(tmp_path, capsys, header, argv):
    emit_system(tmp_path / "tower", geometric_tower(2, 5))
    rc, want, _ = run(capsys, *argv, "limit", str(tmp_path / "tower"))
    assert rc == 0 and want
    for name in ("f0.mor", "g1.mor"):
        mor = tmp_path / "tower" / name
        mor.write_text(f"field: {header}\n" + mor.read_text())
    assert run(capsys, *argv, "limit", str(tmp_path / "tower"))[:2] == (0, want)


@pytest.mark.parametrize("value", ["4", "zz"])
def test_malformed_certificate_field_header_exits_2(unit_pair, capsys, value):
    assert run(capsys, "dist", "gamma", "F.bc", "G.bc")[0] == 0
    cert = unit_pair / "gamma.cert"
    cert.write_text(cert.read_text().replace("field: 2", f"field: {value}"))
    rc, out, err = run(capsys, "validate", str(cert))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {cert}: bad field header")


def test_malformed_morphism_shift_header_exits_2(unit_pair, capsys):
    mor = unit_pair / "m.mor"
    mor.write_text("source: F.bc\ntarget: G.bc\nshift: 1/0\n0 0 1\n")
    rc, out, err = run(capsys, "validate", str(mor))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {mor}: bad shift header")


def test_multiplicity_above_cap_exits_2(tmp_path, capsys):
    p = tmp_path / "huge.bc"
    p.write_text("0 0 1 1000000000\n")
    rc, out, err = run(capsys, "validate", str(p))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "exceeds the cap" in err


@pytest.mark.parametrize(
    "case",
    [
        "exponent in a file",
        "copies in a file",
        "digits in a file",
        "digits of a distance",
        "exponent in a flag",
        "bound size",
        "bound before cubes",
        "field size",
    ],
)
def test_oversized_input_ends_in_one_error_line(unit_pair, capsys, case):
    if case == "exponent in a file":
        (unit_pair / "huge.bc").write_text("0 0 1e30000000\n")
        argv, want_rc, want = ("validate", "huge.bc"), 2, "huge.bc:1: unknown token (decimal exponent"
    elif case == "copies in a file":
        # the eleventh line of 100,000 copies takes the total past 10^6
        (unit_pair / "huge.bc").write_text("".join(f"0 {i} {i + 1} 100000\n" for i in range(20)))
        argv, want_rc, want = ("validate", "huge.bc"), 2, "huge.bc:11: 1100000 bars exceed the cap of 1000000 per barcode"
    elif case == "digits in a file":
        # 10^4300 has 4,301 digits: it parses, but could not be printed back
        (unit_pair / "huge.bc").write_text("0 0 1\n0 0 1e4300\n")
        argv, want_rc, want = ("dist", "gamma", "huge.bc", "huge.bc"), 2, "huge.bc:2: unknown token (value has over 4300 digits"
    elif case == "digits of a distance":
        # each file's 3,000-digit denominator prints, but the distance of
        # the two bars has a denominator of about 6,000 digits
        (unit_pair / "a.bc").write_text(f"0 0 1/{10**2999 + 7}\n")
        (unit_pair / "b.bc").write_text(f"0 0 1/{10**2999 + 9}\n")
        argv, want_rc, want = ("dist", "gamma", "a.bc", "b.bc"), 1, "distance has over 4300 digits, the printable limit"
    elif case == "exponent in a flag":
        argv, want_rc, want = ("dist", "check", "F.bc", "G.bc", "--a", "1e30000000", "--b", "0"), 1, "decimal exponent"
    elif case == "bound size":
        argv = ("cantor", "--a", "999/1000", "--n", "1", "--k", "5000", "--bound-table")
        want_rc, want = 1, "level-5000 bound has about 14998 digits"
    elif case == "bound before cubes":
        # 2^18 cubes with coordinates of about 27,000 digits are never built
        argv = ("cantor", "--a", f"1/{10 ** 3000 + 7}", "--n", "1", "--k", "9")
        want_rc, want = 1, "level-9 bound has about 27001 digits"
    else:
        emit_system(unit_pair / "tower", geometric_tower(2, 4))
        mor = unit_pair / "tower" / "f0.mor"
        mor.write_text(f"field: {2**61 - 1}\n" + mor.read_text())
        argv, want_rc, want = ("limit", "tower"), 2, "field header is not 2"
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (rc, out) == (want_rc, "")
    assert err.startswith("error: ") and want in err and err.count("\n") == 1


def test_unknown_field_exits_1(unit_pair, capsys):
    rc, _, err = run(capsys, "--field", "4", "dist", "gamma", "F.bc", "G.bc")
    assert rc == 1
    assert err.startswith("error:")


def test_config_file_sets_defaults(unit_pair, monkeypatch, capsys):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text("machine = 1  # records, not prose\nfield = 5\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    rc, out, _ = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert rc == 0
    assert out.splitlines() == ["a=0", "b=1", "result=interleaved"]


def test_malformed_config_exits_2(unit_pair, monkeypatch, capsys):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text("field = 5\nbudget = abc\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    rc, out, err = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"error: {cfg}:2: unknown key 'budget'"]


def test_config_line_without_equals_exits_2(unit_pair, monkeypatch, capsys):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text("# defaults\n\nfield: 5\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    rc, out, err = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"error: {cfg}:3: expected 'key = value'"]


def test_config_repeated_key_exits_2(unit_pair, monkeypatch, capsys):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text("field = 5\nmachine = 1\nfield = 3\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    rc, out, err = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"error: {cfg}:3: duplicate key 'field'"]


@pytest.mark.parametrize("repeat", ["a: 5", "a: 0"])
def test_certificate_repeated_header_exits_2(unit_pair, capsys, repeat):
    assert run(capsys, "dist", "gamma", "F.bc", "G.bc")[0] == 0
    cert = unit_pair / "gamma.cert"
    text = cert.read_text()
    n = text.splitlines().index("a: 0") + 1
    cert.write_text(text.replace("a: 0\n", f"a: 0\n{repeat}\n"))
    rc, out, err = run(capsys, "validate", str(cert))
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"error: {cert}:{n + 1}: duplicate a header"]


# --- one reader, one field rule ---------------------------------------------------


@pytest.mark.parametrize("kind", [".bc", ".plf", ".csv", ".mor", "slacks.txt", ".cert", "config"])
def test_non_utf8_input_exits_2_naming_the_file(unit_pair, monkeypatch, capsys, kind):
    emit_system(unit_pair / "tower", geometric_tower(2, 4))
    assert run(capsys, "dist", "gamma", "F.bc", "G.bc")[0] == 0
    argv = {
        ".bc": ("dist", "gamma", "F.bc", "G.bc"),
        ".plf": ("sublevel", "f.plf"),
        ".csv": ("cone-test", "--cloud", "c.csv", "--point", "0,0"),
        ".mor": ("limit", "tower"),
        "slacks.txt": ("limit", "tower"),
        ".cert": ("validate", "gamma.cert"),
        "config": ("dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1"),
    }[kind]
    bad = {
        ".bc": "F.bc", ".plf": "f.plf", ".csv": "c.csv", ".mor": "tower/f0.mor",
        "slacks.txt": "tower/slacks.txt", ".cert": "gamma.cert", "config": "persimod.cfg",
    }[kind]
    (unit_pair / bad).write_bytes(b"0 0 1\n\xff\n")
    if kind == "config":
        monkeypatch.setenv("PERSIMOD_CONFIG", "persimod.cfg")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {bad}: cannot read ('utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_missing_named_config_exits_2_naming_the_file(unit_pair, monkeypatch, capsys):
    monkeypatch.setenv("PERSIMOD_CONFIG", "no-such.cfg")
    rc, out, err = run(capsys, "cantor", "--a", "1/4", "--n", "1", "--k", "1")
    assert (rc, out) == (2, "")
    assert err.startswith("error: no-such.cfg: cannot read ([Errno 2] ") and err.count("\n") == 1


@pytest.mark.parametrize("line, what", [
    ("field = banana", "field value (invalid literal for int()"),
    ("field = 4", "field value (4 is not prime)"),
    ("machine = maybe", "machine value (expected one of 1/0/true/false/yes/no, got 'maybe')"),
])
def test_config_bad_value_exits_2_at_its_line(unit_pair, monkeypatch, capsys, line, what):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text(f"# defaults\n{line}\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    rc, out, err = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {cfg}:2: bad {what}") and err.count("\n") == 1


@pytest.mark.parametrize("value, records", [("YES", True), ("True", True), ("no", False), ("0", False)])
def test_config_machine_words(unit_pair, monkeypatch, capsys, value, records):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text(f"machine = {value}\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    rc, out, _ = run(capsys, "dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert (rc, out) == (0, "a=0\nb=1\nresult=interleaved\n" if records else "interleaved\n")


def test_flags_win_over_the_config(unit_pair, monkeypatch, capsys):
    cfg = unit_pair / "persimod.cfg"
    cfg.write_text("machine = no\nfield = 5\n")
    monkeypatch.setenv("PERSIMOD_CONFIG", str(cfg))
    check = ("dist", "check", "F.bc", "G.bc", "--a", "0", "--b", "1")
    assert run(capsys, "--machine", *check) == (0, "a=0\nb=1\nresult=interleaved\n", "")
    assert run(capsys, "--field", "4", *check) == (1, "", "error: 4 is not prime\n")


def gf5_tower():
    """Two stages whose maps scale by 2 and 3: a tower over GF(5), whose
    round trip reads as the zero map over GF(2)."""
    gf5 = PrimeField(5)
    eps = Fraction(1, 8)
    lo, hi = Barcode([(0, Interval(0, Fraction(3, 4)))]), Barcode([(0, Interval(0, Fraction(7, 8)))])
    f = Morphism(lo, hi, {(0, 0): 2}, field=gf5)
    g = Morphism(hi, lo.shift(eps), {(0, 0): 3}, field=gf5)
    return InductiveSystem([lo, hi], [f], [eps], [g], gf5)


def test_validate_reads_a_tower_in_the_field_flag(tmp_path, capsys):
    emit_system(tmp_path / "tower", gf5_tower())
    for cmd in ("validate", "limit"):
        rc, _, err = run(capsys, cmd, str(tmp_path / "tower"))
        assert rc == 2 and "is not the canonical comparison" in err
    rc, out, _ = run(capsys, "--field", "5", "validate", str(tmp_path / "tower"))
    assert (rc, out) == (0, "tower: 2 stages, 1 reverse maps\n")
    assert run(capsys, "--field", "5", "limit", str(tmp_path / "tower"))[0] == 0


def test_validate_reads_a_headerless_morphism_in_the_field_flag(unit_pair, capsys):
    (unit_pair / "u.mor").write_text("source: F.bc\ntarget: F.bc\n0 0 2\n")
    assert run(capsys, "validate", "u.mor")[:2] == (0, "morphism: 0 entries, shift 0\n")
    assert run(capsys, "--field", "5", "validate", "u.mor")[:2] == (0, "morphism: 1 entries, shift 0\n")


def test_standalone_morphism_field_header_must_name_the_field_flag(unit_pair, capsys):
    (unit_pair / "u.mor").write_text("source: F.bc\ntarget: F.bc\nfield: 3\n0 0 2\n")
    rc, out, err = run(capsys, "--field", "5", "validate", "u.mor")
    assert (rc, out, err) == (2, "", "error: u.mor: field header is not 5\n")
    assert run(capsys, "--field", "3", "validate", "u.mor")[:2] == (0, "morphism: 1 entries, shift 0\n")


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("persimod ")]


def test_readme_command_lines_parse_to_a_handler(monkeypatch):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    lines = _readme_commands()
    assert len(lines) == 14
    for line in lines:
        argv = shlex.split(line.split(">")[0])[1:]
        assert callable(build_parser().parse_args(argv).run), line


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        ["persimod", "cantor", "--a", "1/4", "--n", "1", "--k", "2"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "16 cubes of edge 1/16; displacement bound 1\n"


def test_module_entry_point_smoke(tmp_path):
    (tmp_path / "F.bc").write_text("0 0 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "persimod.cli", "validate", "F.bc"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "barcode: 1 bars, degrees 0\n"


# Runs each argv through `main` in one fresh process and prints, as the
# last line, the exit codes and whether numpy was loaded after the
# commands that read no point cloud and again after `cone-test`.
_STARTUP_SCRIPT = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO
from persimod.cli import main
plain, cloud = json.loads(sys.argv[1])
with redirect_stdout(StringIO()):
    codes = [main(argv) for argv in plain]
    before = "numpy" in sys.modules
    codes.append(main(cloud))
print(json.dumps([codes, before, "numpy" in sys.modules]))
"""


def test_commands_without_a_point_cloud_start_without_numpy(unit_pair, monkeypatch):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    (unit_pair / "f.plf").write_text(emit_plfunction(PLFunction("circle", [0, 1, 2, 3], [0, 2, 1, 3])))
    (unit_pair / "b.bc").write_text("-1 -inf 7/10\n0 -inf 13/10\n")
    emit_system(unit_pair / "tower", geometric_tower(2, 5))
    (unit_pair / "seq").mkdir()
    for i in range(4):
        (unit_pair / "seq" / f"F{i}.bc").write_text(f"0 {Fraction(1, 2 ** (i + 1))} 1\n")
    (unit_pair / "c.csv").write_text("".join(f"{0.5 ** k},0\n" for k in range(11)) + "0,0\n")
    plain = [
        ["dist", "gamma", "F.bc", "G.bc", "--certificate", "x.cert"],
        ["dist", "gamma", "F.bc", "G.bc", "--symmetric", "--certificate", "sym.cert"],
        ["dist", "check", "F.bc", "G.bc", "--a", "1/2", "--b", "1/2"],
        ["validate", "F.bc"],
        ["validate", "f.plf"],
        ["validate", "x.cert"],
        ["validate", "tower"],
        ["sublevel", "f.plf"],
        ["spectral", "b.bc", "--convention", "LeftInfinite", "--dim", "1"],
        ["limit", "tower"],
        ["limit", "tower", "--defect", "1"],
        ["complete", "seq", "--tol", "1/4"],
        ["cantor", "--a", "1/4", "--n", "1", "--k", "2"],
        ["cantor", "--a", "1/8", "--n", "1", "--k", "3", "--bound-table"],
        ["demo", "rational-degeneracy", "--denom-max", "4"],
    ]
    cloud = ["cone-test", "--cloud", "c.csv", "--point", "0,0"]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, json.dumps([plain, cloud])],
        capture_output=True, text=True, cwd=unit_pair,
    )
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * (len(plain) + 1)
    assert (before, after) == (False, True)


# --- fuzzed readers ------------------------------------------------------------

_NUMBERS = ["-1", "-1/3", "0", "7", "1e300", "1e-300", "99999999999999999999/7", "9" * 400, "inf", "-inf", "nan"]


@st.composite
def _mutated(draw, text):
    """`text` with one to three edits: a flipped byte, a cut, a deleted or
    repeated line, a dropped `[section]` line, a line's lo and hi tokens
    swapped, a number swapped for a huge or negative one, or a foreign
    `field:` header.  None is the directory edit: the file's path holds an
    empty directory instead."""
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["flip", "cut", "delete", "repeat", "section", "swap", "number", "field", "directory"]))
        if kind == "directory":
            return None
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "cut":
            data = data[: draw(st.integers(0, len(data)))]
        else:
            lines = data.decode("utf-8", "replace").splitlines(keepends=True) or [""]
            at = draw(st.integers(0, len(lines) - 1))
            numbers = list(re.finditer(r"-?[0-9][0-9/.e]*", lines[at]))
            sections = [k for k, line in enumerate(lines) if re.fullmatch(r"\s*\[\w+\]\s*", line)]
            tokens = lines[at].split()
            if kind == "delete":
                del lines[at]
            elif kind == "section" and sections:
                del lines[draw(st.sampled_from(sections))]
            elif kind == "swap" and len(tokens) >= 2:
                # lo and hi of a bar, or a breakpoint and its value
                k = 1 if len(tokens) >= 3 else 0
                tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
                lines[at] = " ".join(tokens) + "\n"
            elif kind == "repeat":
                lines.insert(at, lines[at])
            elif kind == "field":
                lines.insert(at, f"field: {draw(st.sampled_from(['3', '4', 'q', 'zz']))}\n")
            elif kind == "number" and numbers:
                m = draw(st.sampled_from(numbers))
                lines[at] = lines[at][: m.start()] + draw(st.sampled_from(_NUMBERS)) + lines[at][m.end():]
            data = "".join(lines).encode()
    return data


@functools.cache
def _fuzz_inputs():
    """A verified two-degree certificate and a four-stage graded tower, built
    on first use so that collecting this module does not pay for them."""
    F = parse_barcode_text("0 0 10\n0 2 5\n1 0 3\n1 1 inf\n")
    G = parse_barcode_text("0 1 10\n0 2 6\n1 1/2 3\n1 1 inf\n")
    cert = emit_certificate(F, G, gamma(F, G).certificate)
    stages, fwd, rev, slacks = graded_tower(random.Random(3), GF2, 4)
    return cert, InductiveSystem(stages, fwd, slacks, rev)


_TOWER_FILES = ["F0.bc", "F2.bc", "f0.mor", "f2.mor", "g1.mor", "slacks.txt"]


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_certificates_and_towers_exit_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    cert_text, system = _fuzz_inputs()
    target = data.draw(st.sampled_from(["gamma.cert"] + _TOWER_FILES))
    tower = tmp_path / "tower"
    # every example shares one tmp_path: emit_system rewrites each tower file,
    # and the certificate is rewritten below, so no mutation leaks to the next
    emit_system(tower, system)
    if target == "gamma.cert":
        path = tmp_path / target
        argv = ["validate", str(path)]
        text = cert_text
    else:
        path = tower / target
        k = data.draw(st.integers(-1, len(system.stages)))
        argv = data.draw(st.sampled_from([["limit", str(tower)], ["limit", str(tower), "--defect", str(k)]]))
        text = path.read_text()
    _assert_exits_cleanly_on(path, data.draw(_mutated(text)), argv)


def _assert_exits_cleanly_on(path, data, argv):
    """`_assert_exits_cleanly(argv)` with `data` written at `path`, or with
    an empty directory there for None.  Examples share one tmp_path, so the
    directory goes afterwards and the next example can write the file."""
    if data is None:
        path.unlink(missing_ok=True)
        path.mkdir()
    else:
        path.write_bytes(data)
    try:
        _assert_exits_cleanly(argv)
    finally:
        if data is None:
            path.rmdir()


# Process seconds one fuzzed command may take.  The slowest example of the
# six fuzz tests took 0.06 s, the first of a kind paying its imports; a
# mutation that makes the work unbounded shows up as a failure here.
EXAMPLE_BUDGET_S = 1.0


def _assert_exits_cleanly(argv):
    """`main(argv)` exits 0, 1 or 2 within `EXAMPLE_BUDGET_S` of process
    time, and a nonzero exit leaves exactly one `error:` line and no
    traceback."""
    out, err = StringIO(), StringIO()
    start = time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    took = time.process_time() - start
    assert took < EXAMPLE_BUDGET_S, f"{argv} took {took:.2f} s of process time"
    assert rc in (0, 1, 2)
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


# One value spelled five ways, and a tie-heavy interval with a plateau.
_PLF_TEXTS = [
    "domain: circle\n0 1\n1/2 2/4\n1 -3/4\n3/2 +1/2\n2 05/10\n5/2 0.5\n3 7\n",
    "# ties and a plateau\ndomain: interval\n0 0\n1 2\n2 1\n3 1\n4 3\n9/2 1\n",
]


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_pl_functions_exit_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    path = tmp_path / "f.plf"
    argv = [data.draw(st.sampled_from(["sublevel", "validate"])), str(path)]
    _assert_exits_cleanly_on(path, data.draw(_mutated(data.draw(st.sampled_from(_PLF_TEXTS)))), argv)


# A half-line with its base point in R^2, and the q1 axis with a stray
# point in R^4, at radii 2^-k down past the finest default scale.
_CSV_TEXTS = [
    "".join(f"{0.5 ** k},0\n" for k in range(11)) + "0,0\n",
    "# q1 axis in R^4\n0,0,0,0\n0,0.5,0,1\n" + "".join(f"{s * 0.5 ** k},0,0,0\n" for k in range(11) for s in (1, -1)),
]


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_point_clouds_exit_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    text = data.draw(st.sampled_from(_CSV_TEXTS))
    path = tmp_path / "c.csv"
    mutated = data.draw(_mutated(text))
    point = ",".join("0" * len(text.splitlines()[-1].split(",")))
    _assert_exits_cleanly_on(path, mutated, data.draw(st.sampled_from(
        [["validate", str(path)], ["cone-test", "--cloud", str(path), "--point", point]])))


# A barcode with a comment, a multiplicity, a negative endpoint and both
# sublevel essential bars; a second in the homological convention.
_BC_TEXTS = [
    "# degree lo hi [multiplicity]\n0 0 inf\n0 2 5 2\n1 -1/2 3\n1 1 inf\n",
    "-1 -inf 7/10\n0 -inf 13/10\n0 1 2\n",
]
_BC_COMMANDS = [
    ["validate", "F.bc"],
    ["dist", "gamma", "F.bc", "G.bc", "--certificate", "x.cert"],
    ["dist", "check", "F.bc", "G.bc", "--a", "1/2", "--b", "1/2"],
    ["spectral", "F.bc", "--convention", "Sublevel", "--dim", "1"],
    ["spectral", "F.bc", "--convention", "LeftInfinite", "--dim", "1"],
]


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_barcodes_exit_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    mutated = data.draw(_mutated(data.draw(st.sampled_from(_BC_TEXTS))))
    (tmp_path / "G.bc").write_text(data.draw(st.sampled_from(_BC_TEXTS)))
    _assert_exits_cleanly_on(tmp_path / "F.bc", mutated, data.draw(st.sampled_from(_BC_COMMANDS)))


# Two standalone maps between two small graded barcodes: one into G + 1/2,
# and one into G with scalars that differ over GF(2) and GF(5).
_MOR_BARS = ("0 0 inf\n0 2 5 2\n1 -1/2 3\n1 1 inf\n", "0 1 inf\n0 2 6 2\n1 0 3\n1 1 inf\n")
_MOR_TEXTS = [
    "# target source scalar\nsource: F.bc\ntarget: G.bc\nshift: 1/2\n0 0 1\n1 1 1\n2 2 1\n3 3 1\n",
    "source: F.bc\ntarget: G.bc\n0 0 3\n1 1 1\n2 2 4\n3 3 1\n",
]


@seed(20261022)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_standalone_morphisms_exit_cleanly(tmp_path, monkeypatch, data):
    monkeypatch.delenv("PERSIMOD_CONFIG", raising=False)
    files = dict(zip(("F.bc", "G.bc"), _MOR_BARS), **{"f.mor": data.draw(st.sampled_from(_MOR_TEXTS))})
    target = data.draw(st.sampled_from(["f.mor", "f.mor", "F.bc"]))
    for name, text in files.items():
        if name != target:
            (tmp_path / name).write_text(text)
    argv = ["--field", data.draw(st.sampled_from(["2", "5"])), "validate", str(tmp_path / "f.mor")]
    _assert_exits_cleanly_on(tmp_path / target, data.draw(_mutated(files[target])), argv)


_CONFIG_TEXTS = ["machine = yes\nfield = 5\n", "# defaults\nfield = q\nmachine = 0\n"]


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_configs_exit_cleanly(unit_pair, monkeypatch, data):
    path = unit_pair / "persimod.cfg"
    monkeypatch.setenv("PERSIMOD_CONFIG", str(path))
    _assert_exits_cleanly_on(path, data.draw(_mutated(data.draw(st.sampled_from(_CONFIG_TEXTS)))), ["validate", "F.bc"])
