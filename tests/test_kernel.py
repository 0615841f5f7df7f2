"""Differential tests of the bit-parallel kernel against the set oracle.

Every kernel entry point (extend, project, cylinder, permute_points,
members, digit_planes, the codimension-1 analysis, the decomposition
tree and the topology it induces) is compared with tests/oracle.py for
q in {2, 3, 5} and up to six points, the symmetry classes for up to
four.  Point names and faces come in arbitrary order, so the
axis-reordering path is reached as well.  The algebraic laws are checked
on the same inputs, and seeded ones on 16 binary points, where reorderings
have longer cycles than six points allow.
"""

import itertools
import random

from hypothesis import assume, given
from hypothesis import strategies as st

from relcalc import (
    ConsequenceEntry,
    Domain,
    Relation,
    canonical_decomposition,
    cylinder,
    decomposition_tree,
    digit_planes,
    equivalent_under,
    extend,
    group_by_symmetry,
    impose_topology,
    intersect,
    is_empty,
    is_prime,
    is_reducible,
    is_trivial,
    members,
    permute_points,
    project,
    proper_consequences,
    relation_from_members,
)

import oracle

LETTERS = tuple("abcdefgh")
# q^k stays at most 3125 cells so the set oracle stays quick.
SHAPES = tuple((q, k) for q, top in ((2, 6), (3, 6), (5, 5)) for k in range(1, top + 1))
# Symmetry classes try up to k! bijections per pair, so they stay smaller.
SYMMETRY_SHAPES = tuple((q, k) for q, k in SHAPES if k <= (3 if q == 5 else 4))


def tables(size):
    """Bit tables of a size: uniform, a few cells, or all but a few cells."""
    full = (1 << size) - 1
    few = st.sets(st.integers(0, size - 1), max_size=6).map(
        lambda cells: sum(1 << c for c in cells))
    return st.one_of(st.integers(0, full), few, few.map(lambda bits: full ^ bits))


@st.composite
def domains(draw, shapes=SHAPES):
    q, k = draw(st.sampled_from(shapes))
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
    assert project(rel, iter(face.points)) == project(rel, list(face.points)) == by_names
    assert oracle.to_members(by_names) == oracle.o_project(
        mem, domain.points, by_names.domain.points)


@given(domains(), st.data())
def test_cylinder_matches_oracle(domain, data):
    face = subdomain(data.draw, domain)
    rel = relation(data.draw, domain)
    proj = oracle.o_project(oracle.to_members(rel), domain.points, face.points)
    got = cylinder(rel, face)
    assert got.domain == domain
    assert cylinder(rel, iter(face.points)) == got
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


def test_laws_on_sixteen_binary_points():
    rng = random.Random(16)
    points = tuple(f"x{i}" for i in range(16))
    domain = Domain(points, 2)
    for _ in range(4):
        rel = Relation(domain, rng.getrandbits(domain.size))
        sparse = Relation(domain, sum(1 << c for c in rng.sample(range(domain.size), 20)))
        sigma, tau = tuple(rng.sample(points, 16)), tuple(rng.sample(points, 16))
        assert permute_points(permute_points(rel, sigma), tau) == permute_points(rel, tau)
        assert permute_points(permute_points(rel, points[::-1]), points) == rel
        face = tuple(rng.sample(points, rng.randint(1, 15)))
        for order in (sigma, face, face[::-1]):
            image = {tuple(t[points.index(p)] for p in order) for t in members(sparse)}
            assert set(members(project(sparse, Domain(order, 2)))) == image
        for order in (face, face[::-1]):
            sub = Domain(order, 2)
            small = Relation(sub, rng.getrandbits(sub.size))
            assert project(extend(small, domain), sub) == small
            assert extend(project(rel, sub), domain) == cylinder(rel, sub)


@given(st.sampled_from([(q, k) for q in (2, 3, 5) for k in range(1, 7)]))
def test_digit_planes_match_oracle(shape):
    q, k = shape
    planes = digit_planes(Domain(LETTERS[:k], q))
    assert [[oracle.cells(mask) for mask in plane] for plane in planes] == oracle.o_digit_planes(q, k)


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
def test_walk_yields_parents_first(domain, data):
    """The root first, each distinct node once, and every parent before each of its children."""
    tree = decomposition_tree(relation(data.draw, domain))
    nodes = list(tree.walk())
    order = {id(node): i for i, node in enumerate(nodes)}
    reachable, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) not in reachable:
            reachable.add(id(node))
            stack.extend(node.children)
    assert len(order) == len(nodes) == len(reachable) and nodes[0] is tree
    for node in nodes:
        assert all(order[id(node)] < order[id(child)] for child in node.children)


@given(domains(tuple(s for s in SHAPES if s[1] <= 5)), st.data())
def test_topology_matches_oracle(domain, data):
    rel = relation(data.draw, domain)
    assume(not is_empty(rel))
    got = impose_topology(rel)
    assert got.points == domain.points
    assert got.maximal_simplices == oracle.o_topology(
        oracle.to_members(rel), domain.points, domain.q)


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


def symmetric_copy(draw, rel, sym):
    """rel with its symmetric points renamed to other symmetric names and all points reordered."""
    points = rel.domain.points
    moving = [p for p in points if p in sym]
    rename = dict(zip(moving, draw(st.permutations(sorted(sym)))))
    names = [rename.get(p, p) for p in points]
    order = tuple(draw(st.permutations(names)))
    assignments = [dict(zip(names, t)) for t in oracle.member_list(rel)]
    return relation_from_members(Domain(order, rel.domain.q),
                                 [tuple(a[p] for p in order) for a in assignments])


def symmetry_partner(draw, rel, sym):
    """A relabelled, reordered copy of rel, a random relation, or a copy's bits over another q."""
    mode = draw(st.sampled_from(("copy", "random table", "random shape", "other q")))
    if mode == "random shape":
        return relation(draw, draw(domains(SYMMETRY_SHAPES)))
    copy = symmetric_copy(draw, rel, sym)
    if mode == "random table":
        return relation(draw, copy.domain)
    others = [q for q, k in SYMMETRY_SHAPES
              if k == copy.domain.k and q != copy.domain.q and copy.bits >> q ** k == 0]
    if mode == "other q" and others:
        return Relation(Domain(copy.domain.points, draw(st.sampled_from(others))), copy.bits)
    return copy


@given(domains(SYMMETRY_SHAPES), st.sets(st.sampled_from(LETTERS)), st.data())
def test_symmetry_classes_match_oracle(domain, sym, data):
    """equivalent_under on every pair and the classes of group_by_symmetry, against the oracle."""
    rels = [relation(data.draw, domain)]
    for _ in range(data.draw(st.integers(1, 3))):
        rels.append(symmetry_partner(data.draw, rels[0], sym))
    entries = [ConsequenceEntry(r.domain, r) for r in rels]
    views = [(oracle.to_members(r), r.domain.points, r.domain.q) for r in rels]
    indices = range(len(rels))
    want = {(i, j): oracle.o_equivalent_under(views[i], views[j], sym)
            for i, j in itertools.product(indices, repeat=2)}
    assert {pair: equivalent_under(entries[pair[0]], entries[pair[1]], sym)
            for pair in want} == want
    classes = []
    for i in indices:
        if not any(i in cls for cls in classes):
            classes.append([j for j in indices if want[i, j]])
    got = group_by_symmetry(entries, sym)
    assert [[next(j for j in indices if entries[j] is e) for e in cls] for cls in got] == classes
