"""Elementary cellular automata and the Life rule as relations.

Builds the 256 nearest-neighbor binary rules on points (p, q, r, s) with
s the next state of the center, classifies every rule through the
decomposition calculus, simulates 1-D evolutions on a periodic lattice,
and checks the printed closed-form solutions.

A rule is read only from its relation table, through one evaluator:
_matches ORs the AND of each (place, state) pattern over lits[place][state],
the cells where a place has a state.  An elementary rule's table is the OR
of its 8 transitions over the table's digit planes, and Life's is a
bit-sliced neighbor count over them.  On the packed space-time grid (bit
t*width + x = cell (x, t); p and r the grid rotated within each row, s the
grid one row down) the patterns are a relation's forbidden ones, its
non-member cells with all states 0/1: simulate ORs the rule's with s = 0,
less s, row by row; check_trajectory ORs each relation's over all rows at once.
Rows enter the grid through one packer, _pack_rows, which refuses a state
other than 0/1, and violations are read off the masks with the kernel's
set-bit scanner.
"""

import functools
import itertools
import math
import random

from .errors import DomainError, UnsupportedError
from .relation import (
    MAX_TABLE_CELLS,
    Domain,
    Relation,
    Value,
    _pack_cells,
    _set_bits,
    complement,
    digit_planes,
    members,
    project,
)
from .structure import (
    STATUS_IRREDUCIBLE,
    STATUS_PRIME,
    STATUS_REDUCIBLE,
    canonical_decomposition,
)

RULE_POINTS = ("p", "q", "r", "s")
LIFE_POINTS = tuple(f"x{i}" for i in range(10))

# Two-point faces pairing one neighborhood cell with the successor cell.
ABSORBING_TABLE = "1101"
MIRROR_TABLE = "1011"

# Tally usually quoted for rules with the 1101 face consequence; our scan
# finds these plus four more (12, 68, 207, 221), one reflection and
# complementation class that the quoted list misses.
QUOTED_1101_RULES = frozenset(
    [2, 4, 8, 10, 16, 32, 34, 40, 42, 48, 64, 72, 76, 80, 96, 112,
     128, 130, 132, 136, 138, 140, 144, 160, 162, 168, 171, 174, 175, 176,
     186, 187, 190, 191, 192, 196, 200, 205, 206, 208,
     220, 222, 223, 224, 234, 235, 236, 237, 238, 239]
    + list(range(241, 255)))


class ElementaryRule(Value):
    """A rule number together with its relation on (p, q, r, s)."""

    _fields = ("number", "relation")


class Trajectory(Value):
    """Space-time grid of one simulation: steps + 1 rows of width 0/1 states.

    rows is a tuple of tuples indexed by time.  _grid is the packed grid of
    rows, set only by simulate; a trajectory built through the constructor
    leaves it None, and check_trajectory packs its rows then.
    """

    _fields = ("rule", "width", "steps", "rows")
    _grid = None


class ClassificationSummary(Value):
    """Per-rule statuses plus the rules carrying the 1101 face consequence.

    Statuses are mutually exclusive ('reducible', 'irreducible', 'prime');
    reported irreducible totals usually fold the primes back in, since a
    prime relation is in particular irreducible.  consequences_1101 holds
    (rule number, absorbing_consequences of the rule) pairs.
    """

    _fields = ("statuses", "consequences_1101")

    @property
    def reducible(self):
        return tuple(n for n, s in enumerate(self.statuses) if s == STATUS_REDUCIBLE)

    @property
    def irreducible(self):
        """Irreducible rules including the prime ones."""
        return tuple(n for n, s in enumerate(self.statuses) if s != STATUS_REDUCIBLE)

    @property
    def prime(self):
        return tuple(n for n, s in enumerate(self.statuses) if s == STATUS_PRIME)

    @property
    def counts(self):
        return {
            STATUS_REDUCIBLE: len(self.reducible),
            STATUS_IRREDUCIBLE: len(self.irreducible),
            STATUS_PRIME: len(self.prime),
        }

    @property
    def rules_1101(self):
        return tuple(n for n, _ in self.consequences_1101)

    def quoted_list_difference(self):
        """(missing_from_quoted, extra_in_quoted) versus the usual 64-rule tally."""
        found = set(self.rules_1101)
        return (tuple(sorted(found - QUOTED_1101_RULES)),
                tuple(sorted(QUOTED_1101_RULES - found)))


def rule_function(n):
    """The local map f with s = f(p, q, r); bit 4p+2q+r of n, big-endian rule index."""
    if not 0 <= n < 256:
        raise DomainError(f"rule number {n} out of range [0, 256)")
    return lambda p, q, r: n >> (4 * p + 2 * q + r) & 1


def wolfram_relation(n):
    """Relation of rule n on points (p, q, r, s) with q = 2: the OR of its 8 transitions."""
    f = rule_function(n)
    transitions = [tuple(enumerate(m + (f(*m),))) for m in itertools.product((0, 1), repeat=3)]
    domain = Domain(RULE_POINTS, 2)
    bits = _matches(digit_planes(domain), transitions, (1 << domain.size) - 1)
    return ElementaryRule(n, Relation(domain, bits))


def life_relation():
    """The Life rule on ten points: eight neighbors, the cell, its next state.

    x9 is the next state of the center x8: it is 1 when exactly three of
    x0..x7 are alive, keeps x8 when exactly two are, and is 0 otherwise.
    The neighbors are counted bit-sliced over the table's digit planes:
    exactly[c] holds the cells where c of the neighbors seen so far are alive.
    """
    domain = Domain(LIFE_POINTS, 2)
    planes = digit_planes(domain)
    full = (1 << domain.size) - 1
    exactly = [full]
    for dead, alive in planes[:8]:
        exactly = [a & dead | b & alive for a, b in zip(exactly + [0], [0] + exactly)]
    (_, x8), (_, x9) = planes[8:]
    lives = exactly[3] | exactly[2] & x8
    return Relation(domain, full ^ lives ^ x9)  # the cells where x9 is the next state


def absorbing_consequences(rel):
    """Faces pairing one of p, q, r with s whose projection is 1101 or 1011.

    Both tables describe the same unordered-face constraint: one mixed
    state pair is excluded, so along the matching lattice line a 0 (or a
    1) can never flip back.
    """
    hits = []
    for x in ("p", "q", "r"):
        table = project(rel, (x, "s")).bit_string()
        if table in (ABSORBING_TABLE, MIRROR_TABLE):
            hits.append((x, table))
    return tuple(hits)


def classify_all_rules():
    """Status of all 256 rules plus the 1101-consequence scan."""
    statuses = []
    with_1101 = []
    for n in range(256):
        rel = wolfram_relation(n).relation
        statuses.append(canonical_decomposition(rel).status)
        hits = absorbing_consequences(rel)
        if hits:
            with_1101.append((n, hits))
    return ClassificationSummary(tuple(statuses), tuple(with_1101))


def simulate(rule, init, steps):
    """Evolve a periodic row; rows[t][x] is the state at (x, t).

    rule is a rule number or an ElementaryRule, and init a sequence of
    states or a string of 0/1 characters.  The next state is 1 where the
    rule's relation forbids s = 0.  A state other than 0/1 in init, or a
    grid of more than MAX_TABLE_CELLS cells, width * (steps + 1), is
    refused with DomainError before anything is built.
    """
    if isinstance(rule, int):
        rule = wolfram_relation(rule)
    row = _row_of(init)
    width = len(row)
    _check_grid(width, steps)
    mask = (1 << width) - 1
    minterms = [pattern[:3] for pattern in _forbidden_patterns(rule.relation, RULE_POINTS)
                if pattern[3] == (3, 0)]
    bits = _pack_rows((row,), width)
    packed = [bits]
    for _ in range(steps):
        bits = _matches(_literals(_neighbors(bits, width, 1), mask), minterms, mask)
        packed.append(bits)
    # Row steps leads the binary string, so reversed it reads the cells in (t, x) order.
    digits = "".join(format(bits, f"0{width}b") for bits in reversed(packed))
    cells = digits[::-1].encode().translate(_CELLS)
    rows = tuple(tuple(cells[i:i + width]) for i in range(0, len(cells), width))
    traj = Trajectory(rule.number, width, steps, rows)
    traj._set("_grid", int(digits, 2))
    return traj


def _check_grid(width, steps):
    """Raise DomainError unless simulate can run a row of width cells for steps steps.

    The row needs the 3-cell neighborhood, steps must be nonnegative, and
    the grid of width * (steps + 1) cells must fit MAX_TABLE_CELLS.
    """
    if width < 3:
        raise DomainError(f"width {width} is below the 3-cell neighborhood")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if width * (steps + 1) > MAX_TABLE_CELLS:
        raise DomainError(
            f"trajectory would need {width} x {steps + 1} cells (limit {MAX_TABLE_CELLS})")


# Byte translation from binary digits to a row's cells (one 0/1 byte each).
_CELLS = bytes.maketrans(b"01", b"\0\1")
_STATES = {"0": 0, "1": 1}


def _row_of(init):
    """init as a tuple of states; a string is read as 0/1 characters."""
    return tuple(_STATES.get(c, c) for c in init) if isinstance(init, str) else tuple(init)


def _pack_rows(rows, width):
    """Rows of width cells packed side by side, bit t*width + x = cell (x, t).

    A row of another length or a state other than 0/1 raises DomainError.
    """
    if set(map(len, rows)) - {width}:
        t, row = next((t, row) for t, row in enumerate(rows) if len(row) != width)
        raise DomainError(f"row {t} has {len(row)} cells, width is {width}")
    try:
        return _pack_cells(b"".join(map(bytes, rows)))
    except (TypeError, ValueError):  # a state that is not an int in range(256), or not 0/1
        raise DomainError("a row holds a state other than 0/1") from None


def _first_column(width, rows):
    """Bit t*width for each t < rows: column 0 of rows packed side by side.

    Built by doubling, linear in the grid size; dividing the full mask
    by 2^width - 1 gives the same bits but takes quadratic time.
    """
    col, filled = 1, 1
    while filled < rows:
        col |= col << (filled * width)
        filled *= 2
    return col & ((1 << (width * rows)) - 1)


def _neighbors(cur, width, col0):
    """Packed p, q, r of rows packed side by side: bit x of a row holds cell x-1, x, x+1.

    col0 has the bit of column 0 of each row set.  p may carry one stray
    bit above the last row, which the masks of _matches drop.
    """
    last = col0 << (width - 1)
    left = (cur << 1) & ~col0 | (cur >> (width - 1)) & col0
    right = (cur >> 1) & ~last | (cur << (width - 1)) & last
    return left, cur, right


def _literals(rows, mask):
    """(complement, row) of each packed row, so lits[i][state] selects on a state."""
    return [(bits ^ mask, bits) for bits in rows]


def _matches(lits, patterns, mask):
    """Cells within mask that match one of the (place, state) patterns, packed."""
    out = 0
    for pattern in patterns:
        hit = mask
        for place, state in pattern:
            hit &= lits[place][state]
        out |= hit
    return out


def format_rows(traj):
    """The rows of a trajectory as lines of 0/1 characters, each ending in a newline."""
    width = traj.width
    digits = format(_grid_of(traj), f"0{width * (traj.steps + 1)}b")[::-1]
    return "".join(digits[i:i + width] + "\n" for i in range(0, len(digits), width))


def random_row(width, seed=None):
    rng = random.Random(seed)
    return tuple(rng.randint(0, 1) for _ in range(width))


ZERO_DIM_TABLES = ("1100", "0110", "1001", "0011")


def closed_form(rule, init, x, t):
    """Printed general solutions.

    Rule 15: u(x, t) = u(x-t, 0) + t mod 2.  Rule 90: u(x, t) =
    sum of C(t, k) u(x-t+2k, 0) mod 2.  The four one-cell automata are
    addressed by their 4-bit tables; for them init may be a single state
    and x may be None.  init is read as simulate reads its row: a
    sequence of 0/1 states or a string of 0/1 characters.  Any other
    state, an empty row, an x or t that is not an int, or a negative
    time t raises DomainError.
    """
    if not isinstance(t, int):
        raise DomainError(f"time {t!r} is not an int")
    if t < 0:
        raise DomainError(f"time {t} is negative")
    one_cell = rule in ZERO_DIM_TABLES
    if not (isinstance(x, int) or one_cell and x is None):
        raise DomainError(f"position {x!r} is not an int")
    try:
        row = (init,) if one_cell and isinstance(init, int) else _row_of(init)
        _pack_cells(bytes(row))  # refuses an empty row and any state other than 0/1
    except (TypeError, ValueError):
        raise DomainError(f"initial row {init!r} is not a nonempty row of 0/1 states") from None
    width = len(row)
    if one_cell:
        u0 = row[(x or 0) % width]
        if rule == "1100":
            return u0 if t == 0 else 0
        if rule == "0110":
            return (u0 + t) % 2
        if rule == "1001":
            return u0
        return u0 if t == 0 else 1
    if rule == 15:
        return (row[(x - t) % width] + t) % 2
    if rule == 90:
        total = 0
        for k in range(t + 1):
            total += math.comb(t, k) * row[(x - t + 2 * k) % width]
        return total % 2
    raise UnsupportedError(f"no closed form integrated for rule {rule!r}")


class TrajectoryReport(Value):
    """Violations in a trajectory, (x, t) or (face points, x, t); empty tuples when clean."""

    _fields = ("rule_violations", "consequence_violations")

    @property
    def ok(self):
        return not self.rule_violations and not self.consequence_violations


def check_trajectory(rule, traj, consequences=None):
    """Verify every space-time window against the rule and optional face relations.

    Checks each window ((x-1, t), (x, t), (x+1, t), (x, t+1)) for
    membership in the rule's relation, and each supplied consequence on
    the matching subset of the window.  Reports (x, t) pairs that fail,
    by time then position, and each failing consequence after the
    previous ones at the same window.  A trajectory whose step count,
    row count, row lengths or states do not fit it raises DomainError.
    """
    if isinstance(rule, int):
        rule = wolfram_relation(rule)
    rule_patterns = _forbidden_patterns(rule.relation, RULE_POINTS)
    entries = tuple(consequences or ())
    cons_patterns = [_forbidden_patterns(e.relation, e.face.points) for e in entries]
    grid = _grid_of(traj)
    width = traj.width
    full = (1 << width * traj.steps) - 1
    cur = grid & full
    lits = _literals(_neighbors(cur, width, _first_column(width, traj.steps))
                     + (grid >> width,), full)
    rule_bad = [(i % width, i // width) for i in _set_bits(_matches(lits, rule_patterns, full))]
    cons_bad = sorted((i, n) for n, patterns in enumerate(cons_patterns)
                      for i in _set_bits(_matches(lits, patterns, full)))
    return TrajectoryReport(tuple(rule_bad), tuple(
        (entries[n].face.points, i % width, i // width) for i, n in cons_bad))


def _grid_of(traj):
    """The packed grid of a trajectory: simulate's own, or its rows packed and checked."""
    return _pack_trajectory(traj) if traj._grid is None else traj._grid


def _pack_trajectory(traj):
    """The rows of a trajectory packed into one grid, after checking shape and states."""
    if traj.steps < 0:
        raise DomainError(f"trajectory has {traj.steps} steps, steps must be nonnegative")
    if len(traj.rows) != traj.steps + 1:
        raise DomainError(
            f"trajectory has {len(traj.rows)} rows, {traj.steps} steps need {traj.steps + 1}")
    if traj.width < 1:
        raise DomainError(f"trajectory width {traj.width} is not positive")
    return _pack_rows(traj.rows, traj.width)


@functools.lru_cache(maxsize=16)
def _forbidden_patterns(rel, points):
    """Window patterns rel rejects: its non-member cells whose states are all 0/1.

    points names the window point each table position reads, in order;
    a pattern is the (position in RULE_POINTS, state) pair of each.  Cached
    for simulate and check_trajectory, which both read a rule's patterns.
    A check reads at most four relations (the rule and three consequences)
    and an entry takes about 2 KB, so a few checks' worth is kept.
    """
    if len(points) != rel.domain.k:
        raise DomainError(
            f"tuple arity {len(points)} does not match domain arity {rel.domain.k}")
    if set(points) - set(RULE_POINTS):
        raise DomainError(f"face {points} is not on the window points {RULE_POINTS}")
    places = [RULE_POINTS.index(p) for p in points]
    return tuple(tuple(zip(places, states)) for states in members(complement(rel))
                 if max(states) < 2)
