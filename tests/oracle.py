"""Slow reference implementations the tests compare the package against.

Relations are plain sets of state tuples here, with points tracked as a
separate name tuple.  Nothing in this module uses the package's bit
tables except the boundary converter `member_list`, which reads them one
cell at a time without calling the package.
"""

import itertools
import random

from relcalc import (
    Domain,
    Relation,
    canonical_decomposition,
    extend,
    intersect,
    is_trivial,
    is_reducible,
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


def o_principal_factor(member_set, points, q):
    joint = o_joint_cylinder(member_set, points, q)
    full = set(all_tuples(len(points), q))
    return member_set | (full - joint)


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
