"""Relation file format: parsing, formatting, diagnostics."""

import re

import pytest

from relcalc import (
    Domain,
    DomainError,
    FormatError,
    UnsupportedError,
    format_relation,
    life_relation,
    make_relation,
    parse_relation,
    parse_relations,
    read_relation,
    read_relations,
    wolfram_relation,
    write_relation,
)

R30 = wolfram_relation(30).relation


def test_parse_single_record():
    text = """
# elementary rule 30
q 2
points p q r s
bits 1001010101101010
"""
    assert parse_relation(text) == R30


def test_parse_comma_separated_points_and_tabs():
    text = "q\t2\npoints\tp, q, r, s\nbits\t1001010101101010\n"
    assert parse_relation(text) == R30


def test_unknown_keys_ignored():
    text = """
rule 30
status irreducible
q 2
points p q r s
bits 1001010101101010
"""
    assert parse_relation(text) == R30


def test_multiple_records_and_order():
    text = """
q 2
points a
bits 10

# second
q 2
points a b
bits 1010
"""
    records = parse_relations(text)
    assert len(records) == 2
    assert records[0].domain.points == ("a",)
    assert records[1].bit_string() == "1010"


def test_format_roundtrip_small_uses_bits():
    rel = make_relation(Domain(("a", "b"), 3), "100101011")
    text = format_relation(rel, extra={"label": "demo"})
    assert "bits 100101011" in text
    assert text.startswith("label demo\n")
    assert parse_relation(text) == rel


def test_format_roundtrip_large_uses_hex():
    life = life_relation()
    text = format_relation(life)
    assert "bits_hex" in text
    assert parse_relation(text) == life


def test_parse_bits_hex_record():
    rel = make_relation(Domain(("p", "q", "r", "s"), 2), "1001010101101010")
    text = "q 2\npoints p q r s\nbits_hex 956A\n"
    assert parse_relation(text) == rel


def test_diagnostics_carry_line_numbers():
    with pytest.raises(FormatError, match="line 3"):
        parse_relation("q 2\npoints a b\nbits 10\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_relation("q 2\nq 3\npoints a\nbits 10\n")
    with pytest.raises(FormatError, match="missing field 'points'"):
        parse_relation("q 2\nbits 10\n")
    with pytest.raises(FormatError, match="bits or bits_hex"):
        parse_relation("q 2\npoints a\n")
    # bits_hex 9 reads as 1001, so the two tables disagree; they are refused even when they agree
    for text in ("q 2\npoints a b\nbits 0110\nbits_hex 9\n",
                 "q 2\npoints a b\nbits_hex 6\nbits 0110\n"):
        with pytest.raises(FormatError, match="line 4: record has both bits and bits_hex"):
            parse_relation(text)
    with pytest.raises(FormatError, match="q must be an integer"):
        parse_relation("q two\npoints a\nbits 10\n")
    with pytest.raises(FormatError, match="no value"):
        parse_relation("q 2\npoints\nbits 10\n")
    with pytest.raises(FormatError, match="no relation records"):
        parse_relations("# only comments\n")
    with pytest.raises(FormatError, match="expected one"):
        parse_relation("q 2\npoints a\nbits 10\n\nq 2\npoints a\nbits 01\n")


def test_read_and_write_files(tmp_path):
    path = tmp_path / "rule30.rel"
    write_relation(path, R30, extra={"rule": "30"})
    assert read_relation(path) == R30
    multi = tmp_path / "pair.rel"
    multi.write_text(format_relation(R30) + "\n" + format_relation(R30))
    assert read_relations(multi) == [R30, R30]


@pytest.mark.parametrize("text, line, error, message", [
    ("# one state\nq 1\npoints a\nbits 0\n", 2, DomainError, "state count must be >= 2, got 1"),
    ("q 2\npoints a a\nbits 0110\n", 2, DomainError, r"duplicate point names in \('a', 'a'\)"),
    ("q 2\npoints " + " ".join(f"v{i}" for i in range(25)) + "\nbits 0\n", 2, UnsupportedError,
     r"table would need 2\^25 cells"),
], ids=["state_count", "duplicate_points", "table_limit"])
def test_domain_errors_carry_the_field_line(tmp_path, text, line, error, message):
    with pytest.raises(error, match=f"^line {line}: {message}"):
        parse_relation(text)
    path = tmp_path / "bad.rel"
    path.write_text(text)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line {line}: {message}"):
        read_relation(path)


def test_read_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.rel"
    path.write_text("q 2\npoints a\nbits 1\n")
    with pytest.raises(FormatError, match="bad.rel"):
        read_relation(path)
    latin1 = tmp_path / "latin1.rel"
    latin1.write_bytes(b"# r\xe9gle\nq 2\npoints a\nbits 01\n")
    for read in (read_relation, read_relations):
        with pytest.raises(FormatError, match="latin1.rel: byte 3 is not UTF-8"):
            read(latin1)
