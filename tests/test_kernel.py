"""Differential tests of the bit-parallel kernel against the set oracle.

Every kernel entry point (extend, project, cylinder, permute_points,
members, the codimension-1 analysis and the decomposition tree) is
compared with tests/oracle.py for q in {2, 3, 5} and up to six points.  Point names and faces come in
arbitrary order, so the axis-reordering path is reached as well.  The
algebraic laws are checked on the same inputs.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from relcalc import (
    Domain,
    Relation,
    canonical_decomposition,
    cylinder,
    decomposition_tree,
    extend,
    intersect,
    is_empty,
    is_prime,
    is_reducible,
    is_trivial,
    members,
    permute_points,
    project,
    proper_consequences,
)

import oracle

LETTERS = tuple("abcdefgh")
# q^k stays at most 3125 cells so the set oracle stays quick.
SHAPES = tuple((q, k) for q, top in ((2, 6), (3, 6), (5, 5)) for k in range(1, top + 1))


def tables(size):
    """Bit tables of a size: uniform, a few cells, or all but a few cells."""
    full = (1 << size) - 1
    few = st.sets(st.integers(0, size - 1), max_size=6).map(
        lambda cells: sum(1 << c for c in cells))
    return st.one_of(st.integers(0, full), few, few.map(lambda bits: full ^ bits))


@st.composite
def domains(draw):
    q, k = draw(st.sampled_from(SHAPES))
    return Domain(tuple(draw(st.permutations(LETTERS))[:k]), q)


def subdomain(draw, domain):
    """A nonempty face of domain with its points in arbitrary order."""
    size = draw(st.integers(1, domain.k))
    return Domain(tuple(draw(st.permutations(domain.points))[:size]), domain.q)


def relation(draw, domain):
    return Relation(domain, draw(tables(domain.size)))


@given(domains(), st.data())
def test_extend_matches_oracle(domain, data):
    face = subdomain(data.draw, domain)
    rel = relation(data.draw, face)
    got = extend(rel, domain)
    assert got.domain == domain
    assert oracle.to_members(got) == oracle.o_extend(
        oracle.to_members(rel), face.points, domain.points, domain.q)


@given(domains(), st.data())
def test_project_matches_oracle(domain, data):
    face = subdomain(data.draw, domain)
    rel = relation(data.draw, domain)
    mem = oracle.to_members(rel)
    got = project(rel, face)
    assert got.domain == face
    assert oracle.to_members(got) == oracle.o_project(mem, domain.points, face.points)
    by_names = project(rel, face.points)
    assert by_names.domain.points == tuple(p for p in domain.points if p in face.points)
    assert oracle.to_members(by_names) == oracle.o_project(
        mem, domain.points, by_names.domain.points)


@given(domains(), st.data())
def test_cylinder_matches_oracle(domain, data):
    face = subdomain(data.draw, domain)
    rel = relation(data.draw, domain)
    proj = oracle.o_project(oracle.to_members(rel), domain.points, face.points)
    got = cylinder(rel, face)
    assert got.domain == domain
    assert oracle.to_members(got) == oracle.o_extend(
        proj, face.points, domain.points, domain.q)


@given(domains(), st.data())
def test_permute_points_matches_oracle(domain, data):
    order = tuple(data.draw(st.permutations(domain.points)))
    rel = relation(data.draw, domain)
    moved = permute_points(rel, order)
    assert moved.domain.points == order
    assert oracle.to_members(moved) == oracle.o_project(
        oracle.to_members(rel), domain.points, order)
    assert permute_points(moved, domain.points) == rel


@given(domains(), st.data())
def test_members_matches_oracle(domain, data):
    rel = relation(data.draw, domain)
    assert list(members(rel)) == oracle.member_list(rel)


@given(domains(), st.data())
def test_codim1_analysis_matches_oracle(domain, data):
    rel = relation(data.draw, domain)
    assume(not is_empty(rel))
    mem, q = oracle.to_members(rel), domain.q
    got = {e.face.points: oracle.to_members(e.relation)
           for e in proper_consequences(rel, codim=1)}
    assert got == dict(oracle.o_codim1_consequences(mem, domain.points, q))
    if is_trivial(rel):
        return
    dec = canonical_decomposition(rel)
    assert oracle.to_members(dec.principal_factor) == oracle.o_principal_factor(
        mem, domain.points, q)
    assert is_reducible(rel) == oracle.o_is_reducible(mem, domain.points, q)
    assert is_prime(rel) == oracle.o_is_prime(mem, domain.points, q)
    assert dec.status == oracle.o_status(mem, domain.points, q)


@given(domains(), st.data())
def test_decomposition_tree_matches_oracle(domain, data):
    """Each node holds the projection onto its face and that projection's status."""
    rel = relation(data.draw, domain)
    mem, q = oracle.to_members(rel), domain.q
    for node in decomposition_tree(rel).walk():
        got = oracle.to_members(node.relation)
        assert got == oracle.o_project(mem, domain.points, node.face)
        assert node.status == oracle.o_status(got, node.face, q)


@given(domains(), st.data())
def test_adjunction(domain, data):
    """project(R, face) <= Q iff R <= extend(Q, domain)."""
    face = subdomain(data.draw, domain)
    rel = relation(data.draw, domain)
    q_rel = relation(data.draw, face)
    left = project(rel, face).bits & ~q_rel.bits == 0
    right = rel.bits & ~extend(q_rel, domain).bits == 0
    assert left == right
    assert project(extend(q_rel, domain), face) == q_rel


@given(domains(), st.data())
def test_projections_compose(domain, data):
    mid = subdomain(data.draw, domain)
    inner = subdomain(data.draw, mid)
    rel = relation(data.draw, domain)
    assert project(project(rel, mid), inner) == project(rel, inner)
    assert cylinder(cylinder(rel, mid), inner) == cylinder(rel, inner)


@given(domains(), st.data())
def test_reconstruction(domain, data):
    """A relation is its principal factor cut by its consequences' cylinders."""
    rel = relation(data.draw, domain)
    assume(not is_empty(rel) and not is_trivial(rel))
    dec = canonical_decomposition(rel)
    joint = dec.principal_factor
    for entry in dec.consequences:
        ext = extend(entry.relation, domain)
        assert ext == cylinder(rel, entry.face)
        joint = intersect(joint, ext)
    assert joint == rel
