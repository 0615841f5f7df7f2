"""Elementary cellular automata and the Life rule as relations.

Builds the 256 nearest-neighbor binary rules on points (p, q, r, s) with
s the next state of the center, classifies every rule through the
decomposition calculus, simulates 1-D evolutions on a periodic lattice,
and checks the printed closed-form solutions.
"""

import math
import random
from dataclasses import dataclass

from .errors import DomainError, UnsupportedError
from .relation import Domain, Relation, contains, decode_point, project
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


@dataclass(frozen=True)
class ElementaryRule:
    """A rule number together with its relation on (p, q, r, s)."""

    number: int
    relation: Relation


@dataclass(frozen=True)
class Trajectory:
    """Space-time grid of one simulation, rows indexed by time."""

    rule: int
    width: int
    steps: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ClassificationSummary:
    """Per-rule statuses plus the rules carrying the 1101 face consequence.

    Statuses are mutually exclusive ('reducible', 'irreducible', 'prime');
    reported irreducible totals usually fold the primes back in, since a
    prime relation is in particular irreducible.
    """

    statuses: tuple[str, ...]
    consequences_1101: tuple[tuple[int, tuple[tuple[str, str], ...]], ...]

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
    """Relation of rule n on points (p, q, r, s) with q = 2."""
    f = rule_function(n)
    domain = Domain(RULE_POINTS, 2)
    value = 0
    for i in range(16):
        p, q, r, s = decode_point(i, 4, 2)
        if f(p, q, r) == s:
            value |= 1 << i
    return ElementaryRule(n, Relation(domain, value))


def life_relation():
    """The Life rule on ten points: eight neighbors, the cell, its next state.

    x9 is the next state of the center x8: it is 1 when exactly three of
    x0..x7 are alive, keeps x8 when exactly two are, and is 0 otherwise.
    """
    domain = Domain(LIFE_POINTS, 2)
    value = 0
    for i in range(domain.size):
        t = decode_point(i, 10, 2)
        alive = sum(t[0:8])
        x8, x9 = t[8], t[9]
        if alive == 3:
            ok = x9 == 1
        elif alive == 2:
            ok = x9 == x8
        else:
            ok = x9 == 0
        if ok:
            value |= 1 << i
    return Relation(domain, value)


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
    """Evolve a periodic row; rows[t][x] is the state at (x, t)."""
    if isinstance(rule, ElementaryRule):
        rule = rule.number
    f = rule_function(rule)
    row = tuple(int(v) for v in init)
    if len(row) < 3:
        raise DomainError(f"width {len(row)} is below the 3-cell neighborhood")
    if set(row) - {0, 1}:
        raise DomainError("initial row must be 0/1")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    width = len(row)
    rows = [row]
    for _ in range(steps):
        prev = rows[-1]
        rows.append(tuple(
            f(prev[(x - 1) % width], prev[x], prev[(x + 1) % width])
            for x in range(width)))
    return Trajectory(rule, width, steps, tuple(rows))


def random_row(width, seed=None):
    rng = random.Random(seed)
    return tuple(rng.randint(0, 1) for _ in range(width))


ZERO_DIM_TABLES = ("1100", "0110", "1001", "0011")


def closed_form(rule, init, x, t):
    """Printed general solutions.

    Rule 15: u(x, t) = u(x-t, 0) + t mod 2.  Rule 90: u(x, t) =
    sum of C(t, k) u(x-t+2k, 0) mod 2.  The four one-cell automata are
    addressed by their 4-bit tables; for them init may be a single state
    and x is ignored.
    """
    if rule in ZERO_DIM_TABLES:
        u0 = init if isinstance(init, int) else init[x or 0]
        if rule == "1100":
            return u0 if t == 0 else 0
        if rule == "0110":
            return (u0 + t) % 2
        if rule == "1001":
            return u0
        return u0 if t == 0 else 1
    if rule == 15:
        width = len(init)
        return (init[(x - t) % width] + t) % 2
    if rule == 90:
        width = len(init)
        total = 0
        for k in range(t + 1):
            total += math.comb(t, k) * init[(x - t + 2 * k) % width]
        return total % 2
    raise UnsupportedError(f"no closed form integrated for rule {rule!r}")


@dataclass(frozen=True)
class TrajectoryReport:
    """Violations found in a trajectory, empty tuples when it is clean."""

    rule_violations: tuple[tuple[int, int], ...]
    consequence_violations: tuple[tuple[tuple[str, ...], int, int], ...]

    @property
    def ok(self):
        return not self.rule_violations and not self.consequence_violations


_OFFSETS = {"p": (-1, 0), "q": (0, 0), "r": (1, 0), "s": (0, 1)}


def check_trajectory(rule, traj, consequences=None):
    """Verify every space-time window against the rule and optional face relations.

    Checks each window ((x-1, t), (x, t), (x+1, t), (x, t+1)) for
    membership in the rule's relation, and each supplied consequence on
    the matching subset of the window.  Reports (x, t) pairs that fail.
    """
    if isinstance(rule, int):
        rule = wolfram_relation(rule)
    rel = rule.relation
    rule_bad = []
    cons_bad = []
    width = traj.width
    for t in range(traj.steps):
        for x in range(width):
            window = {
                name: traj.rows[t + dt][(x + dx) % width]
                for name, (dx, dt) in _OFFSETS.items()
            }
            states = tuple(window[name] for name in RULE_POINTS)
            if not contains(rel, states):
                rule_bad.append((x, t))
            for entry in consequences or ():
                face_states = tuple(window[name] for name in entry.face.points)
                if not contains(entry.relation, face_states):
                    cons_bad.append((entry.face.points, x, t))
    return TrajectoryReport(tuple(rule_bad), tuple(cons_bad))
