"""Elementary rules, Life, simulation, closed forms, trajectory checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc import (
    RULE_POINTS,
    ConsequenceEntry,
    Domain,
    DomainError,
    Relation,
    Trajectory,
    QUOTED_1101_RULES,
    UnsupportedError,
    absorbing_consequences,
    cardinality,
    check_trajectory,
    classify_all_rules,
    closed_form,
    contains,
    is_trivial,
    life_relation,
    project,
    proper_consequences,
    random_row,
    rule_function,
    simulate,
    wolfram_relation,
)

import oracle


def rule(n):
    return wolfram_relation(n).relation


def test_rule_tables_frozen():
    assert rule(30).bit_string() == "1001010101101010"
    assert rule(110).bit_string() == "1100000100111110"
    assert rule(90).bit_string() == "1010010101011010"
    assert rule(15).bit_string() == "0101010110101010"
    assert rule(30).hex_string() == "956A"


def test_rule_function_bits():
    f = rule_function(110)
    got = [f(p, q, r) for p in (0, 1) for q in (0, 1) for r in (0, 1)]
    # neighborhood (p,q,r) reads bit 4p+2q+r of the rule number
    assert got == [(110 >> i) & 1 for i in range(8)]
    with pytest.raises(DomainError):
        rule_function(256)
    with pytest.raises(DomainError):
        rule_function(-1)


def test_rule_relations_are_functional():
    for n in range(256):
        r = rule(n)
        assert cardinality(r) == 8
        f = rule_function(n)
        for p in (0, 1):
            for q in (0, 1):
                for rr in (0, 1):
                    assert contains(r, (p, q, rr, f(p, q, rr)))


def test_life_relation_examples():
    life = life_relation()
    assert cardinality(life) == 512
    alive3 = (1, 1, 1, 0, 0, 0, 0, 0)
    alive2 = (1, 1, 0, 0, 0, 0, 0, 0)
    alive4 = (1, 1, 1, 1, 0, 0, 0, 0)
    assert contains(life, alive3 + (0, 1))
    assert contains(life, alive3 + (1, 1))
    assert not contains(life, alive3 + (0, 0))
    assert contains(life, alive2 + (0, 0))
    assert contains(life, alive2 + (1, 1))
    assert not contains(life, alive2 + (0, 1))
    assert contains(life, alive4 + (1, 0))
    assert not contains(life, alive4 + (1, 1))
    # functional: every input assignment has exactly one successor state
    assert is_trivial(project(life, tuple(f"x{i}" for i in range(9))))


def test_classification_counts():
    summary = classify_all_rules()
    assert summary.counts == {"reducible": 118, "irreducible": 138, "prime": 2}
    assert summary.prime == (105, 150)
    assert len(summary.statuses) == 256
    fine = {s: summary.statuses.count(s) for s in set(summary.statuses)}
    assert fine == {"reducible": 118, "irreducible": 136, "prime": 2}


def test_1101_consequence_scan():
    summary = classify_all_rules()
    found = set(summary.rules_1101)
    assert len(found) == 68
    assert QUOTED_1101_RULES <= found
    missing, extra = summary.quoted_list_difference()
    assert missing == (12, 68, 207, 221)
    assert extra == ()


def test_absorbing_consequences_examples():
    assert absorbing_consequences(rule(168)) == (("r", "1101"),)
    assert absorbing_consequences(rule(30)) == ()
    # rule 12 carries the constraint on the q face
    hits = absorbing_consequences(rule(12))
    assert ("q", "1101") in hits
    table = project(rule(168), ("r", "s")).bit_string()
    assert table == "1101"


def test_simulate_basics():
    traj = simulate(0, (1, 1, 1, 1), 2)
    assert traj.rows == ((1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))
    ident = simulate(204, (1, 0, 1, 0, 0), 3)
    assert all(row == (1, 0, 1, 0, 0) for row in ident.rows)
    shift = simulate(170, (1, 0, 0, 0), 4)
    # rule 170 copies the right neighbor, so the pattern rotates left
    assert shift.rows[1] == (0, 0, 0, 1)
    assert shift.rows[4] == shift.rows[0]
    assert traj.width == 4 and traj.steps == 2


def test_rule_and_life_tables_match_oracle():
    for n in range(256):
        assert rule(n).bits == oracle.o_rule_table(n)
    assert life_relation().bits == oracle.o_life_table()


def test_simulate_accepts_rule_objects_and_strings_of_bits():
    a = simulate(wolfram_relation(90), (0, 1, 0), 2)
    b = simulate(90, "010", 2)
    assert a.rows == b.rows
    init = random_row(23, seed=5)
    for n in range(256):
        from_relation = simulate(wolfram_relation(n), init, 9)
        assert from_relation.rule == n
        assert from_relation.rows == simulate(n, init, 9).rows == oracle.o_simulate(n, init, 9)


def test_simulate_guards():
    with pytest.raises(DomainError):
        simulate(90, (0, 1), 1)
    with pytest.raises(DomainError):
        simulate(90, (0, 2, 0), 1)
    with pytest.raises(DomainError):
        simulate(90, (0, 1, 0), -1)
    # every state other than 0/1 is refused, as check_trajectory refuses it
    for row in ((0, 1.5, 1), (0, None, 1), "01a"):
        with pytest.raises(DomainError):
            simulate(90, row, 1)
    assert simulate(90, "010", 2).rows == ((0, 1, 0), (1, 0, 1), (1, 0, 1))


def test_random_row_seeded():
    assert random_row(20, seed=4) == random_row(20, seed=4)
    assert len(random_row(9)) == 9
    assert set(random_row(50, seed=1)) <= {0, 1}


def test_zero_dimensional_closed_forms():
    # falling: stays only at t = 0
    assert [closed_form("1100", 1, 0, t) for t in range(4)] == [1, 0, 0, 0]
    # oscillating from state 0: 0, 1, 0, 1
    assert closed_form("0110", 0, 0, 3) == 1
    assert [closed_form("0110", 0, 0, t) for t in range(4)] == [0, 1, 0, 1]
    # frozen keeps the initial state
    assert [closed_form("1001", 1, 0, t) for t in range(3)] == [1, 1, 1]
    # rising: jumps to 1 and stays
    assert [closed_form("0011", 0, 0, t) for t in range(3)] == [0, 1, 1]


def test_closed_form_rule15_matches_simulation():
    rng = random.Random(99)
    for _ in range(5):
        init = tuple(rng.randint(0, 1) for _ in range(9))
        traj = simulate(15, init, 8)
        for t in range(9):
            for x in range(9):
                assert traj.rows[t][x] == closed_form(15, init, x, t)


def test_closed_form_rule90_matches_simulation():
    rng = random.Random(100)
    for _ in range(5):
        init = tuple(rng.randint(0, 1) for _ in range(9))
        traj = simulate(90, init, 8)
        for t in range(9):
            for x in range(9):
                assert traj.rows[t][x] == closed_form(90, init, x, t)


@pytest.mark.parametrize("rule, init, x", [(90, (0, 1, 0), 1), (15, (0, 1, 0), 1), ("0110", 1, None)])
def test_closed_form_refuses_negative_time(rule, init, x):
    with pytest.raises(DomainError, match="time -3 is negative"):
        closed_form(rule, init, x, -3)


@pytest.mark.parametrize("rule, init, x, t, message", [
    (15, (0, 2, 0), 1, 0, r"initial row \(0, 2, 0\)"),
    ("1001", 5, None, 2, "initial row 5 "),
    (90, (), 0, 1, r"initial row \(\) "),
    (90, (0, 1, 0), 1.5, 1, "position 1.5 is not an int"),
    (15, (1, 0, 1), 0, 2.0, "time 2.0 is not an int"),
], ids=["state-2", "one-cell-state-5", "empty-row", "float-x", "float-t"])
def test_closed_form_refuses_what_simulate_refuses(rule, init, x, t, message):
    with pytest.raises(DomainError, match=message):
        closed_form(rule, init, x, t)


def test_closed_form_reads_strings_of_bits():
    traj = simulate(15, "010", 2)
    assert [[closed_form(15, "010", x, t) for x in range(3)] for t in range(3)] == [
        list(row) for row in traj.rows]
    assert closed_form("0110", "1", None, 1) == 0


def test_closed_form_unknown_rule():
    with pytest.raises(UnsupportedError):
        closed_form(110, (0, 1, 0), 0, 1)


def test_check_trajectory_clean():
    for n in (30, 90, 110, 168):
        traj = simulate(n, random_row(17, seed=n), 10)
        cons = proper_consequences(rule(n), codim=1)
        report = check_trajectory(n, traj, cons)
        assert report.ok
        assert report.rule_violations == ()
        assert report.consequence_violations == ()


def test_check_trajectory_catches_corruption():
    traj = simulate(90, (0, 0, 0, 1, 0, 0, 0), 4)
    rows = [list(row) for row in traj.rows]
    rows[2][3] ^= 1
    corrupted = type(traj)(traj.rule, traj.width, traj.steps,
                           tuple(tuple(r) for r in rows))
    report = check_trajectory(90, corrupted)
    assert not report.ok
    assert report.rule_violations


def test_rule168_never_violates_absorbing_consequence():
    cons = proper_consequences(rule(168))
    rs = [e for e in cons if e.face.points == ("r", "s")]
    assert rs and rs[0].relation.bit_string() == "1101"
    for seed in range(10):
        traj = simulate(168, random_row(21, seed=seed), 12)
        assert check_trajectory(168, traj, rs).ok


@pytest.mark.parametrize("state", [2, -1, 256, 0.5, "1", None])
def test_check_trajectory_rejects_bad_states(state):
    traj = simulate(90, (0, 0, 0, 1, 0, 0, 0), 2)
    rows = (traj.rows[0], (0, 0, state, 0, 1, 0, 0), traj.rows[2])
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 7, 2, rows))


def test_check_trajectory_accepts_bool_states():
    traj = simulate(90, (0, 0, 0, 1, 0, 0, 0), 2)
    rows = (traj.rows[0], (0, 0, 0, 0, 1, 0, 0), traj.rows[2])
    as_bools = tuple(tuple(bool(v) for v in row) for row in rows)
    report = check_trajectory(90, Trajectory(90, 7, 2, as_bools))
    assert report.rule_violations == ((2, 0), (1, 1), (3, 1))
    assert report == check_trajectory(90, Trajectory(90, 7, 2, rows))


def test_check_trajectory_rejects_wrong_row_count():
    traj = simulate(90, (0, 0, 0, 1, 0, 0, 0), 2)
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 7, 3, traj.rows))
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 7, 1, traj.rows))
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 7, -1, ()))


def test_check_trajectory_rejects_wrong_row_length():
    traj = simulate(90, (0, 0, 0, 1, 0, 0, 0), 2)
    longer = (traj.rows[0], traj.rows[1] + (0,), traj.rows[2])
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 7, 2, longer))
    shorter = (traj.rows[0], traj.rows[1], traj.rows[2][:-1])
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 7, 2, shorter))
    with pytest.raises(DomainError):
        check_trajectory(90, Trajectory(90, 0, 1, ((), ())))


def test_check_trajectory_rejects_consequences_off_the_window():
    traj = simulate(90, (0, 0, 0, 1, 0, 0, 0), 2)
    off = Domain(("p", "z"), 2)
    with pytest.raises(DomainError):
        check_trajectory(90, traj, [ConsequenceEntry(off, Relation(off, 0b1101))])
    face = Domain(("r", "s"), 2)
    wrong_arity = Relation(Domain(("r",), 2), 0b01)
    with pytest.raises(DomainError):
        check_trajectory(90, traj, [ConsequenceEntry(face, wrong_arity)])


@st.composite
def evolutions(draw):
    """A rule, a row of width <= 64, <= 12 steps and up to 4 (t, x) cells to flip."""
    number = draw(st.integers(0, 255))
    width = draw(st.integers(3, 64))
    steps = draw(st.integers(0, 12))
    bits = draw(st.integers(0, 2 ** width - 1))
    init = tuple(bits >> x & 1 for x in range(width))
    flips = draw(st.lists(st.tuples(st.integers(0, steps), st.integers(0, width - 1)),
                          max_size=4))
    return number, init, steps, flips


@st.composite
def window_consequences(draw):
    """Codim-1 consequences of some rule plus one q=3 relation on a face of the window."""
    entries = list(proper_consequences(rule(draw(st.integers(0, 255))), codim=1))
    points = tuple(draw(st.permutations(RULE_POINTS))[:draw(st.integers(1, 4))])
    face = Domain(points, 3)
    entries.insert(draw(st.integers(0, len(entries))),
                   ConsequenceEntry(face, Relation(face, draw(st.integers(0, 2 ** face.size - 1)))))
    return tuple(entries)


@st.composite
def built_trajectories(draw):
    """Rows of width 1 to 4 and 0 to 3 steps, any cells: the rotations wrap within a row."""
    width = draw(st.integers(1, 4))
    steps = draw(st.integers(0, 3))
    cells = draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                          min_size=steps + 1, max_size=steps + 1))
    return Trajectory(draw(st.integers(0, 255)), width, steps, tuple(map(tuple, cells)))


# 50 examples: each runs the per-window oracle on up to 64 x 13 cells,
# and the suite's wall time is kept down.
@settings(max_examples=50)
@given(evolutions(), window_consequences(), built_trajectories())
def test_simulate_and_check_match_oracle(case, consequences, built):
    number, init, steps, flips = case
    traj = simulate(number, init, steps)
    assert traj.rows == oracle.o_simulate(number, init, steps)
    # simulate's own grid, the same rows built directly, and corrupted rows
    # rebuilt through the constructor, which must not reuse that grid
    rebuilt = Trajectory(traj.rule, traj.width, traj.steps, traj.rows)
    assert rebuilt == traj
    rows = [list(row) for row in traj.rows]
    for t, x in flips:
        rows[t][x] ^= 1
    corrupted = Trajectory(traj.rule, traj.width, traj.steps, tuple(map(tuple, rows)))

    def checked(t):
        report = check_trajectory(wolfram_relation(t.rule), t, consequences)
        return report.rule_violations, report.consequence_violations

    def expected(t):
        return oracle.o_check_trajectory(rule(t.rule), t, consequences)

    assert checked(traj) == checked(rebuilt) == expected(traj)
    assert checked(corrupted) == expected(corrupted)
    assert checked(built) == expected(built)
