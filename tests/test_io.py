"""Round trips and error reporting for every text format."""

from fractions import Fraction

import pytest

from persimod import Barcode, Interval
from persimod.fields import GF2, PrimeField
from persimod.intervals import NEG_INF, POS_INF
from persimod.interleaving import InterleavingCertificate, check_interleaving, gamma
from persimod.io import (
    ParseError,
    emit_barcode,
    emit_certificate,
    emit_cloud,
    emit_plfunction,
    emit_system,
    load_certificate,
    load_system,
    parse_barcode,
    parse_barcode_text,
    parse_cloud,
    parse_plfunction,
    validate_file,
    _entry_tokens,
)
from persimod.limits import InductiveSystem
from persimod.morphisms import Morphism
from persimod.spectral import PLFunction

from test_limits import geometric_tower


def B(*bars):
    return Barcode(bars)


# --- barcodes ----------------------------------------------------------------


def test_barcode_round_trip():
    b = B(
        (0, Interval(0, Fraction(3, 2))),
        (0, Interval(0, Fraction(3, 2))),
        (2, Interval(Fraction(-1, 4), 7)),
        (0, Interval(1, POS_INF)),
    )
    assert parse_barcode_text(emit_barcode(b)) == b


def test_barcode_emit_folds_multiplicity():
    b = B((0, Interval(0, 1)), (0, Interval(0, 1)), (0, Interval(0, 1)))
    assert "0 0 1 3" in emit_barcode(b)


def test_barcode_emit_splits_runs_above_the_multiplicity_cap(monkeypatch):
    import persimod.io as pio

    monkeypatch.setattr(pio, "MAX_MULTIPLICITY", 2)
    b = B(*[(0, Interval(0, 1))] * 5, (1, Interval(0, 1)))
    text = emit_barcode(b)
    assert text.splitlines()[1:] == ["0 0 1 2", "0 0 1 2", "0 0 1", "1 0 1"]
    assert parse_barcode_text(text) == b


def test_barcode_total_copies_are_capped_at_the_line_that_passes_the_cap(tmp_path, monkeypatch):
    """Twenty lines of 100,000 copies ask for 2,000,000 bars; the eleventh
    takes the total past MAX_BARS and is refused before its copies are
    built, while one line of 100,000 copies still reads.  A total equal to
    the cap reads."""
    import persimod.io as pio

    p = tmp_path / "many.bc"
    p.write_text("".join(f"0 {i} {i + 1} 100000\n" for i in range(20)))
    with pytest.raises(ParseError, match=r"many\.bc:11: 1100000 bars exceed the cap of 1000000 per barcode"):
        parse_barcode(p)
    assert len(parse_barcode_text("0 0 1 100000\n").bars) == 100_000
    monkeypatch.setattr(pio, "MAX_BARS", 5)
    assert len(parse_barcode_text("0 0 1 3\n1 0 1\n0 1 2\n").bars) == 5
    with pytest.raises(ParseError, match=r"<string>:3: 6 bars exceed the cap of 5 per barcode"):
        parse_barcode_text("0 0 1 3\n1 0 1\n0 1 2 2\n")


def test_barcode_parse_accepts_comments_and_infinities():
    text = """
    # clipped
    -1 -inf 5   # left-infinite
    0 1/2 inf
    """
    b = parse_barcode_text(text)
    assert len(b.bars) == 2
    assert b.bars[0].interval.lo == NEG_INF
    assert b.bars[1].interval.hi == POS_INF


def test_barcode_parse_errors_carry_position(tmp_path):
    p = tmp_path / "bad.bc"
    p.write_text("0 0 1\n0 5 5\n")
    with pytest.raises(ParseError, match=r"bad\.bc:2: empty interval \[5,5\)"):
        parse_barcode(p)
    with pytest.raises(ParseError, match="unknown token"):
        parse_barcode_text("0 zero 1\n")
    with pytest.raises(ParseError, match="multiplicity must be >= 1"):
        parse_barcode_text("0 0 1 0\n")
    with pytest.raises(ParseError, match=r"<string>:1: multiplicity 1000000000 exceeds the cap of 100000"):
        parse_barcode_text("0 0 1 1000000000\n")
    with pytest.raises(ParseError, match="expected 'degree lo hi"):
        parse_barcode_text("0 0\n")
    with pytest.raises(ParseError, match="cannot read"):
        parse_barcode(tmp_path / "absent.bc")


# --- PL functions ------------------------------------------------------------


def test_plfunction_round_trip(tmp_path):
    f = PLFunction("circle", [0, Fraction(1, 2), 2], [1, Fraction(-3, 4), 0])
    p = tmp_path / "f.plf"
    p.write_text(emit_plfunction(f))
    assert parse_plfunction(p) == f


def test_plfunction_parse_errors(tmp_path):
    p = tmp_path / "f.plf"
    p.write_text("0 1\n1 2\n")
    with pytest.raises(ParseError, match="missing 'domain"):
        parse_plfunction(p)
    p.write_text("domain: circle\ndomain: interval\n0 1\n1 2\n")
    with pytest.raises(ParseError, match="duplicate domain"):
        parse_plfunction(p)
    p.write_text("domain: circle\n0 1 2\n")
    with pytest.raises(ParseError, match="expected '<breakpoint> <value>'"):
        parse_plfunction(p)
    p.write_text("domain: circle\n1 0\n0 1\n")
    with pytest.raises(ParseError, match="strictly increasing"):
        parse_plfunction(p)


# --- point clouds ------------------------------------------------------------


def test_cloud_round_trip(tmp_path):
    from persimod.cones import PointCloud

    cloud = PointCloud([[0.0, 0.25], [1.5, -2.0], [0.1, 0.3]])
    p = tmp_path / "c.csv"
    p.write_text(emit_cloud(cloud))
    back = parse_cloud(p)
    assert back.points.tolist() == cloud.points.tolist()


def test_cloud_row_with_a_trailing_comment(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# x, y\n0,0.25  # first row\n , \n1.5,-2.0,# second\n")
    assert parse_cloud(p).points.tolist() == [[0.0, 0.25], [1.5, -2.0]]


def test_cloud_parse_errors(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0,1\n2\n")
    with pytest.raises(ParseError, match="ragged row"):
        parse_cloud(p)
    p.write_text("0,x\n")
    with pytest.raises(ParseError, match="unknown token"):
        parse_cloud(p)
    p.write_text("# only a comment\n")
    with pytest.raises(ParseError, match="empty point cloud"):
        parse_cloud(p)
    p.write_text("0,1,2\n")
    with pytest.raises(ParseError, match="even"):
        parse_cloud(p)


# --- tower directories -------------------------------------------------------


def test_system_round_trip(tmp_path):
    system = geometric_tower(2, 6)
    d = tmp_path / "tower"
    emit_system(d, system)
    back = load_system(d)
    assert back.stages == system.stages
    assert back.slacks == system.slacks
    assert [f.entries for f in back.maps] == [f.entries for f in system.maps]
    assert [g.target for g in back.reverses] == [g.target for g in system.reverses]


def test_system_without_reverses(tmp_path):
    system = geometric_tower(2, 5, with_reverses=False)
    d = tmp_path / "tower"
    emit_system(d, system)
    back = load_system(d)
    assert tuple(back.reverses) == (None, None)


def _tower_files(system):
    n = len(system.stages)
    names = {f"F{i}.bc" for i in range(n)} | {f"f{i}.mor" for i in range(n - 1)}
    names |= {f"g{i}.mor" for i, g in enumerate(system.reverses) if g is not None}
    return names | ({"slacks.txt"} if n > 1 else set())


@pytest.mark.parametrize("first, second", [
    (geometric_tower(2, 7), geometric_tower(2, 5, with_reverses=False)),
    (geometric_tower(2, 5, with_reverses=False), geometric_tower(2, 7)),
    (geometric_tower(2, 7), geometric_tower(2, 3)),
])
def test_emit_system_over_an_old_tower_round_trips(tmp_path, first, second):
    d = tmp_path / "tower"
    emit_system(d, first)
    unrelated = {"notes.txt": "keep\n", "F.bc": "0 0 1\n", "h0.mor": "# kept\n", "slacks.bak": "1\n"}
    for name, text in unrelated.items():
        (d / name).write_text(text)
    emit_system(d, second)
    back = load_system(d)
    assert back.stages == second.stages
    assert back.slacks == second.slacks
    assert [f.entries for f in back.maps] == [f.entries for f in second.maps]
    assert [g and g.entries for g in back.reverses] == [g and g.entries for g in second.reverses]
    assert {p.name for p in d.iterdir()} == _tower_files(second) | set(unrelated)
    assert all((d / name).read_text() == text for name, text in unrelated.items())


def test_load_system_directory_errors(tmp_path):
    with pytest.raises(ParseError, match="not a directory"):
        load_system(tmp_path / "nowhere")
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(ParseError, match="no stage files"):
        load_system(d)


def test_load_system_gap_in_stages(tmp_path):
    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    (d / "F1.bc").rename(d / "F9.bc")
    with pytest.raises(ParseError, match="not contiguous"):
        load_system(d)


def test_load_system_slack_count(tmp_path):
    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    (d / "slacks.txt").write_text("1/8\n")
    with pytest.raises(ParseError, match="expected 2 slacks, found 1"):
        load_system(d)


def test_load_system_missing_forward(tmp_path):
    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    (d / "f1.mor").unlink()
    with pytest.raises(ParseError, match="missing forward map"):
        load_system(d)


def test_load_system_header_mismatch(tmp_path):
    for name, header, want in (
        ("f0.mor", "source: F1.bc", "f0.mor: source header is not F0.bc"),
        ("f0.mor", "target: F2.bc", "f0.mor: target header is not F1.bc"),
        ("g0.mor", "shift: 1", "g0.mor: shift header is not 1/8"),
    ):
        d = tmp_path / name / header[:5]
        emit_system(d, geometric_tower(2, 5))
        body = (d / name).read_text()
        (d / name).write_text(header + "\n" + body)
        with pytest.raises(ParseError, match=want):
            load_system(d)


def test_load_system_rejects_broken_round_trip(tmp_path):
    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    (d / "g0.mor").write_text("# target source scalar\n")
    with pytest.raises(ParseError, match="inconsistent tower"):
        load_system(d)


def test_morphism_entry_errors(tmp_path):
    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    (d / "f0.mor").write_text("0 7 1\n")
    with pytest.raises(ParseError, match=r"entry \(0,7\) out of range"):
        load_system(d)
    (d / "f0.mor").write_text("0 0 1\n0 0 1\n")
    with pytest.raises(ParseError, match=r"duplicate entry \(0,0\)"):
        load_system(d)
    (d / "f0.mor").write_text("0 0\n")
    with pytest.raises(ParseError, match="expected '<target> <source> <scalar>'"):
        load_system(d)


@pytest.mark.parametrize("kind, want", [
    ("barcode", r"b\.bc:1: unknown token"),
    ("breakpoint", r"f\.plf:2: unknown token"),
    ("slack", r"slacks\.txt:1: unknown token"),
    ("scalar", r"f0\.mor:1: unknown token"),
    ("tower shift", r"f0\.mor: bad shift header"),
    ("certificate shift", r"c\.cert: bad shift"),
    ("morphism shift", r"u\.mor: bad shift header"),
])
def test_decimal_exponent_over_the_digit_limit_is_a_parse_error(tmp_path, kind, want):
    # Fraction would build 10**99999 digit by digit; the cap is the
    # interpreter's int/str limit, 4300 by default.
    huge = "1e99999"
    emit_system(tmp_path, geometric_tower(2, 4))
    F, G, cert = unit_shift_certificate()
    path = tmp_path
    if kind == "barcode":
        path = tmp_path / "b.bc"
        path.write_text(f"0 0 {huge}\n")
    elif kind == "breakpoint":
        path = tmp_path / "f.plf"
        path.write_text(f"domain: circle\n{huge} 1\n")
    elif kind == "slack":
        (tmp_path / "slacks.txt").write_text(f"{huge}\n")
    elif kind == "scalar":
        (tmp_path / "f0.mor").write_text(f"0 0 {huge}\n")
    elif kind == "tower shift":
        (tmp_path / "f0.mor").write_text(f"shift: {huge}\n0 0 1\n")
    elif kind == "certificate shift":
        path = tmp_path / "c.cert"
        path.write_text(emit_certificate(F, G, cert).replace("a: 0", f"a: {huge}"))
    else:
        path = tmp_path / "u.mor"
        path.write_text(f"source: F0.bc\ntarget: F1.bc\nshift: {huge}\n")
    with pytest.raises(ParseError, match=want + r".*decimal exponent over the limit of 4300"):
        validate_file(path)


@pytest.mark.parametrize("kind, want", [("barcode", r"b\.bc:1: unknown token"), ("breakpoint", r"f\.plf:2: unknown token")])
def test_digit_run_over_the_limit_is_refused_in_the_programs_words(tmp_path, kind, want):
    # int(...) would refuse it with advice to call sys.set_int_max_str_digits(),
    # in a plain token and in the integer, fraction or exponent run of a decimal
    for run in ("9" * 4301, "1." + "0" * 4301, "9" * 4301 + ".5", "0.5e" + "0" * 4301 + "1"):
        if kind == "barcode":
            path = tmp_path / "b.bc"
            path.write_text(f"0 0 {run}\n")
        else:
            path = tmp_path / "f.plf"
            path.write_text(f"domain: circle\n{run} 1\n")
        with pytest.raises(ParseError, match=want + r" \(digit run over the limit of 4300\)") as err:
            validate_file(path)
        assert "sys.set_int_max_str_digits" not in str(err.value)


# --- certificates ------------------------------------------------------------


def unit_shift_certificate():
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    cert = check_interleaving(F, G, 0, 1)
    assert cert is not None
    return F, G, cert


def test_certificate_round_trip(tmp_path):
    F, G, cert = unit_shift_certificate()
    p = tmp_path / "unit.cert"
    p.write_text(emit_certificate(F, G, cert))
    F2, G2, cert2 = load_certificate(p)
    assert (F2, G2) == (F, G)
    assert (cert2.a, cert2.b) == (cert.a, cert.b)
    assert cert2.u.entries == cert.u.entries


def test_certificate_gf5_field_round_trip(tmp_path):
    F = B((0, Interval(0, 4)))
    u = Morphism(F, F, {(0, 0): 2}, field=PrimeField(5))
    v = Morphism(F, F, {(0, 0): 3}, field=PrimeField(5))
    cert = InterleavingCertificate(0, 0, u, v)
    p = tmp_path / "scale.cert"
    p.write_text(emit_certificate(F, F, cert))
    _, _, back = load_certificate(p)
    assert back.u.field.p == 5
    assert back.u.entries == {(0, 0): 2}


def test_headerless_certificate_is_read_in_the_given_field(tmp_path):
    F = B((0, Interval(0, 4)))
    gf5 = PrimeField(5)
    cert = InterleavingCertificate(0, 0, Morphism(F, F, {(0, 0): 2}, field=gf5), Morphism(F, F, {(0, 0): 3}, field=gf5))
    p = tmp_path / "scale.cert"
    p.write_text(emit_certificate(F, F, cert).replace("field: 5\n", ""))
    _, _, back = load_certificate(p, gf5)
    assert (back.u.field, back.u.entries) == (gf5, {(0, 0): 2})
    assert validate_file(p, gf5) == "certificate: shifts (0,0) verified"
    with pytest.raises(ValueError):
        load_certificate(p)


def test_load_certificate_reverifies(tmp_path):
    F, G, cert = unit_shift_certificate()
    p = tmp_path / "doctored.cert"
    p.write_text(emit_certificate(F, G, cert).replace("a: 0", "a: -1"))
    with pytest.raises(ValueError):
        load_certificate(p)
    # shrinking the source bar makes the reverse map unrealizable
    p.write_text(emit_certificate(F, G, cert).replace("0 0 10", "0 0 3"))
    with pytest.raises(ValueError):
        load_certificate(p)


def test_load_certificate_structure_errors(tmp_path):
    F, G, cert = unit_shift_certificate()
    text = emit_certificate(F, G, cert)
    p = tmp_path / "c.cert"
    p.write_text(text.replace("[reverse]\n", ""))
    with pytest.raises(ParseError, match=r"missing section \[reverse\]"):
        load_certificate(p)
    p.write_text(text.replace("a: 0\n", ""))
    with pytest.raises(ParseError, match="missing a:/b: headers"):
        load_certificate(p)
    p.write_text(text + "[forward]\n")
    with pytest.raises(ParseError, match=r"duplicate section \[forward\]"):
        load_certificate(p)
    p.write_text("a: 0\nb: 1\nnonsense\n")
    with pytest.raises(ParseError, match="expected header or section"):
        load_certificate(p)


@pytest.mark.parametrize("repeat", ["a: 5", "a: 0", "field: 3"])
def test_load_certificate_refuses_a_repeated_header(tmp_path, repeat):
    F, G, cert = unit_shift_certificate()
    p = tmp_path / "c.cert"
    p.write_text(emit_certificate(F, G, cert).replace("field: 2\n", f"field: 2\n{repeat}\n"))
    key = repeat.split(":")[0]
    with pytest.raises(ParseError) as exc:
        load_certificate(p)
    assert (exc.value.line, str(exc.value)) == (5, f"{p}:5: duplicate {key} header")


def test_emitted_certificate_matches_gamma(tmp_path):
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    report = gamma(F, G)
    p = tmp_path / "g.cert"
    p.write_text(emit_certificate(F, G, report.certificate))
    _, _, cert = load_certificate(p)
    assert cert.total == report.value.as_fraction()


# --- one token rule and one header rule --------------------------------------

_CERT = "a: 0\nb: 1\n[source]\n0 0 10\n[target]\n0 1 10\n[forward]\n0 0 1\n[reverse]\n"


def _reader_fixture(tmp_path, name, text):
    """`text` as the file `name` beside (or inside) a valid two-step tower;
    returns the path to validate and the path an error names."""
    emit_system(tmp_path, geometric_tower(2, 5))
    (tmp_path / name).write_text(text)
    in_tower = name in ("slacks.txt", "f0.mor")
    return (tmp_path if in_tower else tmp_path / name), tmp_path / name


@pytest.mark.parametrize("name, text, line", [
    ("b.bc", "0 0 1\n0 x 1\n", 2),
    ("f.plf", "domain: circle\n0 1\n1 y\n", 3),
    ("c.csv", "0,1\n2,z\n", 2),
    ("slacks.txt", "1/4\nq\n", 2),
    ("u.mor", "source: F0.bc\ntarget: F1.bc\n0 0 x\n", 3),
    ("f0.mor", "# target source scalar\n0 0 x\n", 2),
    ("c.cert", _CERT + "0 0 x\n", 10),
    ("c.cert", _CERT.replace("[source]\n", "[source]\n# bars of F\n0 0 1\n").replace("0 0 10\n", "0 x 10\n", 1), 6),
    ("c.cert", _CERT.replace("0 1 10\n", "0 1 y\n"), 6),
])
def test_every_reader_refuses_a_bad_token_at_its_line(tmp_path, name, text, line):
    path, named = _reader_fixture(tmp_path, name, text)
    with pytest.raises(ParseError) as exc:
        validate_file(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{named}:{line}: unknown token (")


@pytest.mark.parametrize("name, text, key, line", [
    ("f.plf", "domain: circle\n0 1\ndomain: interval\n1 2\n", "domain", 3),
    ("u.mor", "source: F0.bc\ntarget: F1.bc\nsource: F0.bc\n0 0 1\n", "source", 3),
    ("u.mor", "source: F0.bc\ntarget: F1.bc\n0 0 1\ntarget : F1.bc\n", "target", 4),
    ("u.mor", "source: F0.bc\ntarget: F1.bc\nshift: 0\nshift:1\n", "shift", 4),
    ("u.mor", "field: 2\nsource: F0.bc\ntarget: F1.bc\nfield: 2\n", "field", 4),
    ("f0.mor", "shift: 0\n0 0 1\nshift: 0\n", "shift", 3),
    ("c.cert", "a: 0\n" + _CERT + "0 0 1\n", "a", 2),
])
def test_every_headed_reader_refuses_a_repeated_header_at_its_line(tmp_path, name, text, key, line):
    path, named = _reader_fixture(tmp_path, name, text)
    with pytest.raises(ParseError) as exc:
        validate_file(path)
    assert (exc.value.line, str(exc.value)) == (line, f"{named}:{line}: duplicate {key} header")


_FAR = {"F1.bc": "0 5 6\n", "g0.mor": "# target source scalar\n"}


@pytest.mark.parametrize("name, text, others, line, message", [
    ("f0.mor", "0 7 1\n", {}, 1, "entry (0,7) out of range"),
    ("f0.mor", "0 0 1\n0 0 1\n", {}, 2, "duplicate entry (0,0)"),
    ("f0.mor", "# target source scalar\n0 0 1/2\n", {}, 2, "bad scalar (denominator divisible by 2)"),
    ("u.mor", "source: F0.bc\ntarget: F1.bc\n0 0 1/2\n", {}, 3, "bad scalar (denominator divisible by 2)"),
    ("c.cert", _CERT.replace("[forward]\n0 0 1", "[forward]\n0 0 3/4"), {}, 8, "bad scalar (denominator divisible by 2)"),
    ("f0.mor", "0 0 1\n", _FAR, 1, "entry (0,0) not allowed: no degree-0 generator [0,3/4) -> [5,6)"),
    ("u.mor", "source: F1.bc\ntarget: F0.bc\n0 0 1\n", {}, 3, "entry (0,0) not allowed: no degree-0 generator [0,7/8) -> [0,3/4)"),
    ("c.cert", _CERT.replace("0 1 10", "0 20 30"), {}, 8, "entry (0,0) not allowed: no degree-0 generator [0,10) -> [20,30)"),
    # several faults: the first in line order is named, and a zero entry is none
    ("f0.mor", "0 0 1\n0 7 1\n", _FAR, 1, "entry (0,0) not allowed: no degree-0 generator [0,3/4) -> [5,6)"),
    ("f0.mor", "0 0 1\n0 0 1/2\n", _FAR, 1, "entry (0,0) not allowed: no degree-0 generator [0,3/4) -> [5,6)"),
    ("f0.mor", "0 7 1\n0 0 1\n", _FAR, 1, "entry (0,7) out of range"),
    ("f0.mor", "0 0 2\n0 0 1\n", _FAR, 2, "duplicate entry (0,0)"),
    # a negative shift is refused at its header, before any entry it leaves without a generator
    ("c.cert", _CERT.replace("a: 0", "a: -1"), {}, None, "bad shift header (interleaving shifts must be nonnegative)"),
    ("c.cert", _CERT.replace("a: 0", "a: -1").replace("0 0 1\n", ""), {}, None, "bad shift header (interleaving shifts must be nonnegative)"),
])
def test_every_entry_reader_refuses_a_bad_entry_at_its_line(tmp_path, name, text, others, line, message):
    path, named = _reader_fixture(tmp_path, name, text)
    for other, content in others.items():
        (tmp_path / other).write_text(content)
    with pytest.raises(ParseError) as exc:
        validate_file(path)
    where = named if line is None else f"{named}:{line}"
    assert (exc.value.line, str(exc.value)) == (line, f"{where}: {message}")


@pytest.mark.parametrize("name, text, line", [
    ("f0.mor", "0 0 RUN\n", 1),
    ("u.mor", "source: F0.bc\ntarget: F1.bc\n0 0 RUN\n", 3),
    ("c.cert", _CERT.replace("[forward]\n0 0 1", "[forward]\n0 0 RUN"), 8),
])
def test_an_over_long_integer_scalar_is_refused_in_the_programs_words(tmp_path, name, text, line):
    # an integer scalar is read with int, which would refuse an over-long one
    # with advice to call sys.set_int_max_str_digits()
    for run in ("9" * 4301, "-" + "9" * 4301, "+" + "0" * 4301):
        path, named = _reader_fixture(tmp_path, name, text.replace("RUN", run))
        with pytest.raises(ParseError) as exc:
            validate_file(path)
        assert (exc.value.line, str(exc.value)) == (line, f"{named}:{line}: unknown token (digit run over the limit of 4300)")


def test_an_integer_scalar_stays_an_int(tmp_path):
    # A signed run of ASCII digits is an int, which a prime field reduces
    # without an inverse; any other token is a Fraction, as before.
    tokens = ("7", "-12", "+0", "9" * 4300, "3/4", "-6/1", "1.5", "2e1", "1_0")
    got = [_entry_tokens(["0", "1", tok])[2] for tok in tokens]
    assert got == [7, -12, 0, int("9" * 4300), Fraction(3, 4), -6, Fraction(3, 2), 20, 10]
    assert [type(x) for x in got] == [int] * 4 + [Fraction] * 5
    gf5 = PrimeField(5)
    F, G = B((0, Interval(0, 10))), B((0, Interval(1, 10)))
    cert = check_interleaving(F, G, 0, 1, field=gf5)
    text = emit_certificate(F, G, cert)
    assert "0 0 1\n[reverse]" in text
    for scalar in ("6", "-4", "6/1", "-24/6"):
        p = tmp_path / "c.cert"
        p.write_text(text.replace("0 0 1\n[reverse]", f"0 0 {scalar}\n[reverse]"))
        _, _, back = load_certificate(p)
        assert back.u.entries == cert.u.entries and back.v.entries == cert.v.entries


# --- validate_file -----------------------------------------------------------


def test_validate_file_summaries(tmp_path):
    (tmp_path / "b.bc").write_text(emit_barcode(B((0, Interval(0, 1)), (2, Interval(0, 1)))))
    assert validate_file(tmp_path / "b.bc") == "barcode: 2 bars, degrees 0,2"

    f = PLFunction("interval", [0, 1], [0, 1])
    (tmp_path / "f.plf").write_text(emit_plfunction(f))
    assert validate_file(tmp_path / "f.plf") == "pl-function: interval, 2 breakpoints"

    (tmp_path / "c.csv").write_text("0,1\n2,3\n")
    assert validate_file(tmp_path / "c.csv") == "point-cloud: 2 points in R^2"

    F, G, cert = unit_shift_certificate()
    (tmp_path / "u.cert").write_text(emit_certificate(F, G, cert))
    assert validate_file(tmp_path / "u.cert") == "certificate: shifts (0,1) verified"

    d = tmp_path / "tower"
    emit_system(d, geometric_tower(2, 5))
    assert validate_file(d) == "tower: 3 stages, 2 reverse maps"


def test_validate_standalone_morphism(tmp_path):
    src = B((0, Interval(0, 2)))
    tgt = B((0, Interval(1, 3)))
    (tmp_path / "src.bc").write_text(emit_barcode(src))
    (tmp_path / "tgt.bc").write_text(emit_barcode(tgt))
    (tmp_path / "u.mor").write_text(
        "source: src.bc\ntarget: tgt.bc\nshift: 0\nfield: 2\n0 0 1\n"
    )
    assert validate_file(tmp_path / "u.mor") == "morphism: 1 entries, shift 0"
    (tmp_path / "bare.mor").write_text("0 0 1\n")
    with pytest.raises(ParseError, match="needs source:/target: headers"):
        validate_file(tmp_path / "bare.mor")


def test_validate_unknown_extension(tmp_path):
    (tmp_path / "x.xyz").write_text("")
    with pytest.raises(ParseError, match="unknown fixture kind"):
        validate_file(tmp_path / "x.xyz")
