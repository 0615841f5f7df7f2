"""Slow reference implementations the tests compare the package against.

Relations are plain sets of state tuples here, with points tracked as a
separate name tuple.  Nothing in this module uses the package's bit
tables except the boundary converters `member_list`, `cells` and
`o_hex_string`, which read them one cell at a time without calling the
package, and the table builders `o_rule_table` and `o_life_table`, which
fill one cell at a time.  `o_parse_polynomial` hands its terms to the
package's `polynomial`.
"""

import itertools
import random
import re

from relcalc import (
    Domain,
    FormatError,
    Relation,
    canonical_decomposition,
    extend,
    intersect,
    is_trivial,
    is_reducible,
    polynomial,
    project,
)


def all_tuples(k, q):
    return itertools.product(range(q), repeat=k)


def member_list(rel):
    """Member tuples in ordinal order, decoded cell by cell."""
    out = []
    for i in range(rel.domain.size):
        if rel.bits >> i & 1:
            ordinal, states = i, []
            for _ in range(rel.domain.k):
                ordinal, s = divmod(ordinal, rel.domain.q)
                states.append(s)
            out.append(tuple(states))
    return out


def to_members(rel):
    return set(member_list(rel))


def o_hex_string(rel):
    """Hex digits of a table, one nibble of four ordinals at a time, ordinal 0 leading."""
    size = rel.domain.size
    nibbles = []
    for start in range(0, size, 4):
        value = 0
        for i in range(start, start + 4):
            value = 2 * value + (i < size and rel.bits >> i & 1)
        nibbles.append("0123456789ABCDEF"[value])
    return "".join(nibbles)


def cells(bits):
    """Ordinals of the set bits of a table."""
    return {i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"}


def o_digit_planes(q, k):
    """planes[j][v]: the ordinals of the q^k cells whose digit j is v."""
    planes = [[set() for _ in range(q)] for _ in range(k)]
    for i in range(q ** k):
        ordinal = i
        for j in range(k):
            ordinal, s = divmod(ordinal, q)
            planes[j][s].add(i)
    return planes


def o_rule_table(n):
    """Bit table of rule n on (p, q, r, s), filled one ordinal p + 2q + 4r + 8s at a time."""
    bits = 0
    for i in range(16):
        p, q, r, s = (i >> j & 1 for j in range(4))
        if n >> (4 * p + 2 * q + r) & 1 == s:
            bits |= 1 << i
    return bits


def o_life_table():
    """Bit table of Life on x0..x9, filled one ordinal at a time; x9 is x8's next state."""
    bits = 0
    for i in range(2 ** 10):
        x = [i >> j & 1 for j in range(10)]
        alive = sum(x[:8])
        if x[9] == (1 if alive == 3 else x[8] if alive == 2 else 0):
            bits |= 1 << i
    return bits


def o_project(member_set, src_points, dst_points):
    positions = [src_points.index(p) for p in dst_points]
    return {tuple(t[i] for i in positions) for t in member_set}


def o_extend(member_set, src_points, dst_points, q):
    positions = [dst_points.index(p) for p in src_points]
    out = set()
    for t in all_tuples(len(dst_points), q):
        if tuple(t[i] for i in positions) in member_set:
            out.add(t)
    return out


def o_is_trivial(member_set, k, q):
    return len(member_set) == q ** k


def o_codim1_consequences(member_set, points, q):
    """Nontrivial projections onto faces dropping one point."""
    out = []
    for drop in points:
        face = tuple(p for p in points if p != drop)
        proj = o_project(member_set, points, face)
        if not o_is_trivial(proj, len(face), q):
            out.append((face, proj))
    return out

def o_joint_cylinder(member_set, points, q):
    joint = set(all_tuples(len(points), q))
    for face, proj in o_codim1_consequences(member_set, points, q):
        joint &= o_extend(proj, face, points, q)
    return joint


def o_is_reducible(member_set, points, q):
    return o_joint_cylinder(member_set, points, q) == member_set


def o_is_prime(member_set, points, q):
    return not o_codim1_consequences(member_set, points, q)


def o_status(member_set, points, q):
    """'empty', 'trivial', 'prime', 'reducible' or 'irreducible' by brute force."""
    if not member_set:
        return "empty"
    if o_is_trivial(member_set, len(points), q):
        return "trivial"
    if o_is_prime(member_set, points, q):
        return "prime"
    return "reducible" if o_is_reducible(member_set, points, q) else "irreducible"


def o_topology(member_set, points, q):
    """Maximal faces whose projection is nontrivial and prime or irreducible, face by face."""
    faces = set()
    for size in range(1, len(points) + 1):
        for face in itertools.combinations(points, size):
            proj = o_project(member_set, points, face)
            if o_status(proj, face, q) in ("prime", "irreducible"):
                faces.add(frozenset(face))
    return {f for f in faces if not any(f < g for g in faces)}


def o_principal_factor(member_set, points, q):
    joint = o_joint_cylinder(member_set, points, q)
    full = set(all_tuples(len(points), q))
    return member_set | (full - joint)


def o_equivalent_under(a, b, symmetric_points):
    """Whether a and b, each (member_set, points, q), match up to permuting the symmetric points.

    The state counts must agree.  Then every bijection of a's symmetric
    points onto b's is tried, the other points fixed: each member of a is
    renamed as an assignment of states to points and read in b's order.
    """
    (members_a, points_a, q_a), (members_b, points_b, q_b) = a, b
    if q_a != q_b or len(points_a) != len(points_b):
        return False
    sym = set(symmetric_points)
    sym_a = [p for p in points_a if p in sym]
    for image in itertools.permutations([p for p in points_b if p in sym]):
        rename = dict(zip(sym_a, image))
        names = [rename.get(p, p) for p in points_a]
        if sorted(names) != sorted(points_b):
            continue
        moved = {tuple(dict(zip(names, t))[p] for p in points_b) for t in members_a}
        if moved == members_b:
            return True
    return False


def o_simulate(number, init, steps):
    """Rows of rule `number` from `init`, cell by cell on a periodic row."""
    width = len(init)
    rows = [tuple(init)]
    for _ in range(steps):
        prev = rows[-1]
        rows.append(tuple(
            number >> (4 * prev[(x - 1) % width] + 2 * prev[x] + prev[(x + 1) % width]) & 1
            for x in range(width)))
    return tuple(rows)


# Space-time offset (dx, dt) of each window point from (x, t).
WINDOW_OFFSETS = {"p": (-1, 0), "q": (0, 0), "r": (1, 0), "s": (0, 1)}


def o_check_trajectory(rule_relation, traj, consequences=()):
    """(rule_violations, consequence_violations), testing one window at a time.

    Each window's states are looked up in the member set of the rule and
    of each consequence, in the order check_trajectory reports them.
    """
    rule_members = to_members(rule_relation)
    cons_members = [(entry.face.points, to_members(entry.relation)) for entry in consequences]
    rule_bad = []
    cons_bad = []
    width = traj.width
    for t in range(traj.steps):
        for x in range(width):
            window = {
                name: traj.rows[t + dt][(x + dx) % width]
                for name, (dx, dt) in WINDOW_OFFSETS.items()
            }
            if tuple(window[name] for name in "pqrs") not in rule_members:
                rule_bad.append((x, t))
            for points, member_set in cons_members:
                if tuple(window[name] for name in points) not in member_set:
                    cons_bad.append((points, x, t))
    return tuple(rule_bad), tuple(cons_bad)


def random_domain(rng, max_k=4, letters="abcdef"):
    q = rng.choice((2, 3))
    k = rng.randint(1, max_k)
    return Domain(tuple(letters[:k]), q)


def random_relation(rng, domain):
    size = domain.size
    style = rng.random()
    if style < 0.2:
        count = rng.randint(0, size)  # sparse to dense uniformly
        bits = 0
        for i in rng.sample(range(size), count):
            bits |= 1 << i
        return Relation(domain, bits)
    return Relation(domain, rng.getrandbits(size))


def random_nondegenerate(rng, domain):
    size = domain.size
    full = (1 << size) - 1
    while True:
        rel = random_relation(rng, domain)
        if 0 < rel.bits < full:
            return rel


def random_face(rng, domain, proper=False):
    upper = domain.k - 1 if proper else domain.k
    size = rng.randint(1, max(upper, 1))
    points = tuple(sorted(rng.sample(domain.points, size),
                          key=domain.points.index))
    return Domain(points, domain.q)


def run_adjunction_suite(n, seed):
    """project(R, face) <= Q iff R <= extend(Q, domain), cross-checked with sets."""
    rng = random.Random(seed)
    for _ in range(n):
        domain = random_domain(rng)
        rel = random_relation(rng, domain)
        face = random_face(rng, domain)
        q_rel = random_relation(rng, face)

        proj = project(rel, face)
        ext = extend(q_rel, domain)
        left = proj.bits & ~q_rel.bits == 0
        right = rel.bits & ~ext.bits == 0
        assert left == right

        mem = to_members(rel)
        assert to_members(proj) == o_project(mem, domain.points, face.points)
        assert to_members(ext) == o_extend(
            to_members(q_rel), face.points, domain.points, domain.q)
    return n


def run_composition_suite(n, seed):
    """Projecting in two steps equals projecting directly."""
    rng = random.Random(seed)
    for _ in range(n):
        domain = random_domain(rng)
        rel = random_relation(rng, domain)
        mid = random_face(rng, domain)
        inner = random_face(rng, mid)
        two_step = project(project(rel, mid), inner)
        one_step = project(rel, inner)
        assert two_step == one_step
    return n


def run_reconstruction_suite(n, seed):
    """factor intersected with the consequences' cylinders gives back the relation."""
    rng = random.Random(seed)
    for _ in range(n):
        domain = random_domain(rng)
        rel = random_nondegenerate(rng, domain)
        dec = canonical_decomposition(rel)
        joint = dec.principal_factor
        for entry in dec.consequences:
            joint = intersect(joint, extend(entry.relation, domain))
        assert joint == rel
        expected = o_principal_factor(to_members(rel), domain.points, domain.q)
        assert to_members(dec.principal_factor) == expected
    return n


def run_reducible_suite(n, seed):
    """is_reducible agrees with a trivial factor and with the set oracle."""
    rng = random.Random(seed)
    for _ in range(n):
        domain = random_domain(rng)
        rel = random_nondegenerate(rng, domain)
        reducible = is_reducible(rel)
        dec = canonical_decomposition(rel)
        assert reducible == is_trivial(dec.principal_factor)
        assert reducible == o_is_reducible(to_members(rel), domain.points, domain.q)
    return n


# Tokens of polynomial text: digits, a letter with optional digits, '^', '+' or '-'.
O_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][0-9]*|\^|\+|-)")


def o_parse_polynomial(text, p=2, variables=None):
    """parse_polynomial as a dict per term, then one pass each for '^', order and exponents."""
    text = re.sub(r"=\s*0\s*$", "", text.strip())
    if not text:
        raise FormatError("empty polynomial text")
    pos = 0
    tokens = []
    while pos < len(text):
        m = O_TOKEN.match(text, pos)
        if not m:
            raise FormatError(f"bad character at position {pos}: {text[pos]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    raw_terms = []
    current = None
    sign = 1
    for i, tok in enumerate(tokens):
        if tok in "+-":
            if current is not None:
                raw_terms.append((sign, current))
            current = None
            sign = 1 if tok == "+" else -1
            continue
        if current is None:
            current = {"coeff": 1, "vars": []}
        if tok.isdigit():
            if current["vars"] and current["vars"][-1][1] is None:
                current["vars"][-1] = (current["vars"][-1][0], int(tok))
            else:
                current["coeff"] *= int(tok)
        elif tok == "^":
            if not current["vars"] or current["vars"][-1][1] is None:
                raise FormatError("dangling '^' in polynomial text")
            if i >= 2 and tokens[i - 2] == "^":  # the previous token was exponent digits
                raise FormatError("second '^' on one variable in polynomial text")
            current["vars"][-1] = (current["vars"][-1][0], None)
        else:
            if current["vars"] and current["vars"][-1][1] is None:
                raise FormatError(f"expected exponent digits before {tok!r}")
            current["vars"].append((tok, 1))
    if current is None:
        raise FormatError("polynomial text ends with a dangling sign")
    raw_terms.append((sign, current))
    for _, term in raw_terms:
        if term["vars"] and term["vars"][-1][1] is None:
            raise FormatError("dangling '^' in polynomial text")

    seen = []
    for _, term in raw_terms:
        for name, _ in term["vars"]:
            if name not in seen:
                seen.append(name)
    if variables is None:
        variables = tuple(seen)
    else:
        variables = tuple(variables)
        unknown = [n for n in seen if n not in variables]
        if unknown:
            raise FormatError(f"unknown variables {unknown}")

    terms = []
    for sign, term in raw_terms:
        exps = [0] * len(variables)
        for name, e in term["vars"]:
            exps[variables.index(name)] += e
        terms.append((tuple(exps), sign * term["coeff"]))
    return polynomial(p, variables, terms)
