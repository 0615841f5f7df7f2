"""Command line interface: golden outputs and exit codes."""

import time

import pytest

from relcalc import classify_all_rules, parse_relations, structure, wolfram_relation
from relcalc.cli import main

RULE_30_POLY = """\
rule 30
points p q r s
bit table 1001010101101010
cardinality 8
status irreducible
polynomial qr+s+r+q+p
consequences 2
  face p,q,s  bit table 11011110  polynomial qs+pq+q
  face p,r,s  bit table 11011110  polynomial rs+pr+r
principal factor 1011111101111111
principal factor polynomial qrs+pqr+rs+qs+pr+pq+s+p
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rule_30_poly_golden(capsys):
    code, out, err = run(capsys, "rule", "30", "--poly")
    assert code == 0
    assert err == ""
    assert out == RULE_30_POLY


def test_parser_survives_usage_error(capsys):
    # the parser is built once per process; a failed parse must not leave
    # state behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "rule", "30", "--poly")
    assert code == 0
    assert err == ""
    assert out == RULE_30_POLY


def test_one_codim1_pass_per_relation(capsys, monkeypatch):
    calls = []
    real = structure._consequences

    def counting(rel, codim):
        calls.append(rel.domain.points)
        return real(rel, codim)

    monkeypatch.setattr(structure, "_consequences", counting)
    for argv in (["rule", "30"], ["life"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv
    calls.clear()
    classify_all_rules()
    assert len(calls) == 256


def test_rule_150_prime_golden(capsys):
    code, out, err = run(capsys, "rule", "150")
    assert code == 0
    assert out == """\
rule 150
points p q r s
bit table 1001011001101001
cardinality 8
status prime
consequences 0
principal factor 1001011001101001
"""


def test_rule_90_topology_golden(capsys):
    code, out, err = run(capsys, "rule", "90", "--topology")
    assert code == 0
    assert "status reducible" in out
    assert "  face p,r,s  bit table 10010110" in out
    assert out.rstrip().endswith("topology p,r,s")


def test_rule_number_out_of_range(capsys):
    code, out, err = run(capsys, "rule", "300")
    assert code == 2
    assert "error: rule number 300 out of range [0, 256)" in err


def test_classify_all_golden(capsys):
    code, out, err = run(capsys, "classify-all")
    assert code == 0
    assert out == "reducible: 118, irreducible: 138, prime: 2 (105, 150)\n"


def test_classify_all_expect_match(capsys):
    code, out, err = run(capsys, "classify-all", "--expect", "118,138,2")
    assert code == 0


def test_classify_all_expect_mismatch(capsys):
    code, out, err = run(capsys, "classify-all", "--expect", "117,139,2")
    assert code == 1
    assert "expected (117, 139, 2), got (118, 138, 2)" in out


def test_classify_all_consequence_scan(capsys):
    code, out, err = run(capsys, "classify-all", "--consequence-1101")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "rules with 1101 face consequence: 68"
    listed = lines[2].split()
    assert len(listed) == 68
    assert listed == sorted(listed, key=int)
    assert lines[3] == "beyond the usual 64-rule tally: 12 68 207 221"


def test_life_golden(capsys):
    code, out, err = run(capsys, "life")
    assert code == 0
    assert out == """\
life relation
points x0 x1 x2 x3 x4 x5 x6 x7 x8 x9
cardinality 512
status reducible
codimension-1 consequences: 9 in 2 classes up to permuting x0,x1,x2,x3,x4,x5,x6,x7
  class of 8  example face x0,x1,x2,x3,x4,x5,x6,x8,x9
  class of 1  example face x0,x1,x2,x3,x4,x5,x6,x7,x9
reconstruction from the x8-free face plus any 7 neighbor faces: 8/8 exact
"""


def test_life_poly_line(capsys):
    code, out, err = run(capsys, "life", "--poly")
    assert code == 0
    assert "polynomial x9 + x8{σ7+σ6+σ3+σ2} + σ7+σ3" in out


def test_life_decompose(capsys):
    code, out, err = run(capsys, "life", "--decompose")
    assert code == 0
    assert "decomposition: 326 faces analyzed, 70 prime leaves" in out
    assert "prime leaf sizes: 5" in out


@pytest.mark.parametrize("points", ["x0,zz", "x0,x1,x0"])
def test_life_symmetric_rejects_bad_points(capsys, points):
    code, out, err = run(capsys, "life", "--symmetric", points)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_life_symmetric_keeps_given_order(capsys):
    code, out, err = run(capsys, "life", "--symmetric", "x3,x1")
    assert code == 0
    assert "classes up to permuting x3,x1\n" in out


def test_base_compatible(capsys, tmp_path):
    f1 = tmp_path / "ab.rel"
    f1.write_text("q 2\npoints a b\nbits 1001\n")
    f2 = tmp_path / "bc.rel"
    f2.write_text("q 2\npoints b c\nbits 1001\n")
    code, out, err = run(capsys, "base", str(f1), str(f2))
    assert code == 0
    assert "base relation on a,b,c" in out
    assert "bit table 10000001" in out
    assert "incompatible" not in out


def test_base_incompatible_exits_1(capsys, tmp_path):
    f1 = tmp_path / "one.rel"
    f1.write_text("q 2\npoints a\nbits 01\n")
    f2 = tmp_path / "zero.rel"
    f2.write_text("q 2\npoints a\nbits 10\n")
    code, out, err = run(capsys, "base", str(f1), str(f2))
    assert code == 1
    assert "incompatible" in out


def test_base_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "base", str(tmp_path / "nope.rel"))
    assert code == 2
    assert err.startswith("error:")


def test_base_over_table_limit_fails_fast(capsys, tmp_path):
    # five 5-point binary files whose union has 2^25 cells, past the limit
    paths = []
    for i in range(5):
        points = " ".join(f"v{5 * i + j}" for j in range(5))
        path = tmp_path / f"part{i}.rel"
        path.write_text(f"q 2\npoints {points}\nbits {'1' * 32}\n")
        paths.append(str(path))
    start = time.perf_counter()
    code, out, err = run(capsys, "base", *paths)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out == ""
    assert err.startswith("error: table would need 2^25 cells")
    assert elapsed < 1.0


def test_project_golden(capsys, tmp_path):
    f = tmp_path / "r90.rel"
    f.write_text("q 2\npoints p q r s\nbits 1010010101011010\n")
    code, out, err = run(capsys, "project", str(f), "--onto", "p,r,s")
    assert code == 0
    assert "projection onto p,r,s" in out
    assert "bit table 10010110" in out


def test_project_unknown_point(capsys, tmp_path):
    f = tmp_path / "r90.rel"
    f.write_text("q 2\npoints p q r s\nbits 1010010101011010\n")
    code, out, err = run(capsys, "project", str(f), "--onto", "p,z")
    assert code == 2
    assert "error:" in err


def test_simulate_check_golden(capsys):
    code, out, err = run(capsys, "simulate", "90", "--width", "11",
                         "--steps", "5", "--check")
    assert code == 0
    assert out == """\
00000100000
00001010000
00010001000
00101010100
01000000010
10100000101
violations: 0
"""


def test_simulate_random_seed_reproducible(capsys):
    code1, out1, _ = run(capsys, "--seed", "7", "simulate", "30",
                         "--width", "15", "--steps", "4", "--random")
    code2, out2, _ = run(capsys, "--seed", "7", "simulate", "30",
                         "--width", "15", "--steps", "4", "--random")
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_bad_init(capsys):
    code, out, err = run(capsys, "simulate", "90", "--init", "01201")
    assert code == 2
    assert "error:" in err


def test_topology_from_rule(capsys):
    code, out, err = run(capsys, "topology", "--rule", "15")
    assert code == 0
    assert out == "maximal simplices (1):\n  p,s\n"


def test_topology_from_file(capsys, tmp_path):
    f = tmp_path / "r90.rel"
    f.write_text("q 2\npoints p q r s\nbits 1010010101011010\n")
    code, out, err = run(capsys, "topology", str(f))
    assert code == 0
    assert out == "maximal simplices (1):\n  p,r,s\n"


def test_topology_needs_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["topology"])
    assert exc.value.code == 2


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_records_format_parses_back(capsys):
    code, out, err = run(capsys, "--format", "records", "rule", "30")
    assert code == 0
    records = parse_relations(out)
    assert len(records) == 4
    assert records[0] == wolfram_relation(30).relation
    assert records[1].domain.points == ("p", "q", "s")
    assert records[3].bit_string() == "1011111101111111"


def test_records_format_classify_all(capsys):
    code, out, err = run(capsys, "--format", "records", "classify-all")
    assert code == 0
    records = parse_relations(out)
    assert len(records) == 256
    assert records[110] == wolfram_relation(110).relation
