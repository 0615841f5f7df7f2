"""Base relations, consequences, decomposition, induced topology."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import time
import weakref

import pytest

import relcalc
from relcalc import (
    ConsequenceEntry,
    DecompositionTree,
    ContractError,
    DegenerateError,
    Domain,
    DomainError,
    Relation,
    extend,
    intersect,
    STATUS_EMPTY,
    STATUS_IRREDUCIBLE,
    STATUS_PRIME,
    STATUS_REDUCIBLE,
    STATUS_TRIVIAL,
    base_relation,
    canonical_decomposition,
    cardinality,
    classify_all_rules,
    count_consequences,
    decomposition_tree,
    empty_relation,
    equivalent_under,
    group_by_symmetry,
    impose_topology,
    is_empty,
    is_prime,
    is_reducible,
    is_trivial,
    life_relation,
    make_relation,
    permute_points,
    principal_factor,
    project,
    proper_consequences,
    proper_faces,
    relation_from_members,
    trivial_relation,
    wolfram_relation,
)

import oracle

RULE_DOMAIN = Domain(("p", "q", "r", "s"), 2)


def rule(n):
    return wolfram_relation(n).relation


def chain(n):
    """x0 <= x1 <= ... <= x(n-1) on binary points: the pairs are its only constraints."""
    d = Domain(tuple(f"x{i}" for i in range(n)), 2)
    return relation_from_members(d, [(0,) * (n - j) + (1,) * j for j in range(n + 1)])


def test_proper_faces_enumeration():
    d = Domain(("a", "b", "c"), 2)
    faces = [f.points for f in proper_faces(d)]
    assert faces == [("a", "b"), ("a", "c"), ("b", "c"), ("a",), ("b",), ("c",)]
    codim1 = [f.points for f in proper_faces(d, codim=1)]
    assert codim1 == [("a", "b"), ("a", "c"), ("b", "c")]
    assert [f.points for f in proper_faces(Domain(("a",), 2), codim=1)] == []


def test_base_relation_equality_chain():
    ab = make_relation(Domain(("a", "b"), 2), "1001")
    bc = make_relation(Domain(("b", "c"), 2), "1001")
    base = base_relation([ab, bc])
    assert base.domain.points == ("a", "b", "c")
    assert base.bit_string() == "10000001"


def test_base_relation_contradiction_is_empty():
    a1 = relation_from_members(Domain(("a",), 2), [(1,)])
    a0 = relation_from_members(Domain(("a",), 2), [(0,)])
    assert is_empty(base_relation([a1, a0]))


def test_base_relation_single_input_unchanged():
    r = rule(30)
    assert base_relation([r]) == r


def test_base_relation_point_order_first_appearance():
    bc = make_relation(Domain(("b", "c"), 2), "1001")
    ab = make_relation(Domain(("a", "b"), 2), "1001")
    assert base_relation([bc, ab]).domain.points == ("b", "c", "a")


def test_base_relation_guards():
    with pytest.raises(DomainError):
        base_relation([])
    r2 = make_relation(Domain(("a",), 2), "10")
    r3 = make_relation(Domain(("a",), 3), "100")
    with pytest.raises(DomainError):
        base_relation([r2, r3])


def test_base_relation_matches_oracle():
    rng = random.Random(5)
    for _ in range(40):
        d1 = Domain(("a", "b", "c"), 2)
        d2 = Domain(("b", "c", "d"), 2)
        r1 = oracle.random_relation(rng, d1)
        r2 = oracle.random_relation(rng, d2)
        base = base_relation([r1, r2])
        assert base.domain.points == ("a", "b", "c", "d")
        m1 = oracle.o_extend(oracle.to_members(r1), d1.points, base.domain.points, 2)
        m2 = oracle.o_extend(oracle.to_members(r2), d2.points, base.domain.points, 2)
        assert oracle.to_members(base) == m1 & m2


def test_proper_consequences_rule30():
    entries = proper_consequences(rule(30), codim=1)
    got = {e.face.points: e.relation.bit_string() for e in entries}
    assert got == {
        ("p", "q", "s"): "11011110",
        ("p", "r", "s"): "11011110",
    }


def test_proper_consequences_all_faces_rule30():
    entries = proper_consequences(rule(30))
    faces = {e.face.points for e in entries}
    # every nontrivial projection, all sizes
    assert ("p", "q", "s") in faces
    for e in entries:
        assert not is_trivial(e.relation)
        assert project(rule(30), e.face.points) == e.relation


def test_proper_consequences_empty_relation_degenerate():
    with pytest.raises(DegenerateError):
        proper_consequences(empty_relation(RULE_DOMAIN))


def test_proper_consequences_match_oracle_with_minimality():
    rng = random.Random(17)
    for _ in range(120):
        domain = oracle.random_domain(rng)
        rel = oracle.random_relation(rng, domain)
        if is_empty(rel) or domain.k == 1:
            continue
        mem = oracle.to_members(rel)
        entries = proper_consequences(rel, codim=1)
        got = {e.face.points: oracle.to_members(e.relation) for e in entries}
        expect = dict(
            (face, proj) for face, proj in
            oracle.o_codim1_consequences(mem, domain.points, domain.q))
        assert got == expect
        # each projection is minimal: dropping any member breaks containment
        for face, proj in got.items():
            for t in proj:
                smaller = oracle.o_extend(
                    proj - {t}, face, domain.points, domain.q)
                assert not mem <= smaller


def test_principal_factor_reconstruction_rule30():
    r = rule(30)
    dec = canonical_decomposition(r)
    assert dec.principal_factor.bit_string() == "1011111101111111"
    joint = trivial_relation(r.domain)
    for e in dec.consequences:
        joint = intersect(joint, extend(e.relation, r.domain))
    assert intersect(joint, dec.principal_factor) == r


def test_principal_factor_rejects_non_consequences():
    r = rule(30)
    bogus = proper_consequences(rule(90), codim=1)
    with pytest.raises(ContractError):
        principal_factor(r, bogus)


def test_canonical_decomposition_degenerate_inputs():
    with pytest.raises(DegenerateError):
        canonical_decomposition(empty_relation(RULE_DOMAIN))
    with pytest.raises(DegenerateError):
        canonical_decomposition(trivial_relation(RULE_DOMAIN))
    with pytest.raises(DegenerateError):
        is_reducible(trivial_relation(RULE_DOMAIN))
    with pytest.raises(DegenerateError):
        is_prime(empty_relation(RULE_DOMAIN))


def test_reducible_and_prime_all_rules_match_oracle():
    statuses = classify_all_rules().statuses
    for n in range(256):
        r = rule(n)
        mem = oracle.to_members(r)
        assert statuses[n] == oracle.o_status(mem, r.domain.points, 2)
        reducible = is_reducible(r)
        prime = is_prime(r)
        assert reducible == oracle.o_is_reducible(mem, r.domain.points, 2)
        assert prime == oracle.o_is_prime(mem, r.domain.points, 2)
        if prime:
            assert not reducible
        dec = canonical_decomposition(r)
        assert reducible == is_trivial(dec.principal_factor)
        joint = dec.principal_factor
        for e in dec.consequences:
            joint = intersect(joint, extend(e.relation, r.domain))
        assert joint == r


def test_base_relation_input_order_and_duplicates():
    ab = make_relation(Domain(("a", "b"), 2), "1001")
    bc = make_relation(Domain(("b", "c"), 2), "1001")
    forward = base_relation([ab, bc])
    backward = base_relation([bc, ab, ab])
    assert backward.domain.points == ("b", "c", "a")
    assert permute_points(backward, forward.domain.points) == forward


def test_decomposition_tree_leaves_are_prime():
    for n in (30, 90, 110, 12, 168, 204):
        tree = decomposition_tree(rule(n))
        for leaf in tree.leaves():
            assert leaf.status == STATUS_PRIME or leaf is tree


def test_rule90_is_reducible_rule30_is_not():
    assert is_reducible(rule(90))
    assert not is_reducible(rule(30))
    assert is_prime(rule(105))
    assert is_prime(rule(150))
    assert not is_prime(rule(90))


def test_decomposition_tree_statuses():
    t90 = decomposition_tree(rule(90))
    assert t90.status == STATUS_REDUCIBLE
    assert [c.face for c in t90.children] == [("p", "r", "s")]
    child = t90.children[0]
    assert child.status == STATUS_PRIME
    assert child.children == ()
    assert child.principal_factor is None

    t150 = decomposition_tree(rule(150))
    assert t150.status == STATUS_PRIME
    assert t150.children == ()

    t30 = decomposition_tree(rule(30))
    assert t30.status == STATUS_IRREDUCIBLE
    assert t30.principal_factor.bit_string() == "1011111101111111"


def test_decomposition_tree_trivial_and_empty():
    t = decomposition_tree(trivial_relation(RULE_DOMAIN))
    assert t.status == STATUS_TRIVIAL
    assert t.principal_factor == trivial_relation(RULE_DOMAIN)
    e = decomposition_tree(empty_relation(RULE_DOMAIN))
    assert e.status == STATUS_EMPTY
    assert e.principal_factor is None


def test_decomposition_tree_shares_face_nodes():
    # rule 12: s = (not p) and q; the faces {p,q,s} and {q,r,s} both have
    # a {q,s} consequence, and the memoized build must hand them the very
    # same node object
    tree = decomposition_tree(rule(12))
    by_face = {}
    for node in tree.walk():
        key = frozenset(node.face)
        assert key not in by_face
        by_face[key] = node
    a = by_face[frozenset(("p", "q", "s"))]
    b = by_face[frozenset(("q", "r", "s"))]
    shared_a = [c for c in a.children if set(c.face) == {"q", "s"}]
    shared_b = [c for c in b.children if set(c.face) == {"q", "s"}]
    assert shared_a and shared_b
    assert shared_a[0] is shared_b[0]


def test_decomposition_tree_leaves_no_cyclic_garbage():
    # reference counting alone must free a dropped tree: nothing built
    # for it may sit in a reference cycle waiting for the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = decomposition_tree(life_relation())
        child = weakref.ref(tree.children[0].relation)
        assert child() is not None
        del tree
        assert child() is None
    finally:
        if enabled:
            gc.enable()


def test_walk_yields_parents_first_on_life():
    tree = decomposition_tree(life_relation())
    nodes = list(tree.walk())
    order = {id(node): i for i, node in enumerate(nodes)}
    assert len(order) == len(nodes) == 326 and nodes[0] is tree
    for node in nodes:
        assert all(order[id(node)] < order[id(child)] for child in node.children)


def test_tree_hash_and_equality_across_builds():
    life = life_relation()
    for rel in (life, chain(6)):
        a, b = decomposition_tree(rel), decomposition_tree(rel)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(a._key)
        assert len({a, b}) == 1
    assert decomposition_tree(rule(30)) != decomposition_tree(rule(90))
    dropped = Relation(life.domain, life.bits & (life.bits - 1))  # one member less
    assert decomposition_tree(life) != decomposition_tree(dropped)


def test_tree_equality_ignores_sharing():
    # a node reused by two parents equals two equal copies of it
    def node(points, bits, status, *children):
        return DecompositionTree(Relation(Domain(points, 2), bits), status, children, None)

    leaf = node(("b",), 1, STATUS_PRIME)
    twin = node(("b",), 1, STATUS_PRIME)
    other = node(("b",), 2, STATUS_PRIME)

    def root(left_leaf, right_leaf):
        return node(("a", "b", "c"), 1, STATUS_REDUCIBLE,
                    node(("a", "b"), 1, STATUS_REDUCIBLE, left_leaf),
                    node(("b", "c"), 1, STATUS_REDUCIBLE, right_leaf))

    shared, copies, differs = root(leaf, leaf), root(leaf, twin), root(leaf, other)
    assert shared == copies and copies == shared
    assert hash(shared) == hash(copies)
    assert shared != differs and differs != copies
    assert (shared == copies, shared == differs) == (
        shared._key == copies._key, shared._key == differs._key)


def test_tree_copies_keep_sharing():
    tree = decomposition_tree(life_relation())
    for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert clone == tree and hash(clone) == hash(tree)
        assert len(list(clone.walk())) == 326


def test_tree_pickle_crosses_hash_seeds():
    # the hash kept in a node is rebuilt on load, not carried from the dumping process
    src = os.path.dirname(os.path.dirname(relcalc.__file__))
    dump = ("import pickle, sys, relcalc; sys.stdout.buffer.write(pickle.dumps("
            "relcalc.decomposition_tree(relcalc.life_relation())))")
    load = ("import pickle, sys, relcalc; t = pickle.loads(sys.stdin.buffer.read()); "
            "life = relcalc.decomposition_tree(relcalc.life_relation()); "
            "print(hash(t) == hash(t._key), t == life, life in {t}, len(list(t.walk())))")

    def python(code, seed, stdin=None):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                               env=env, timeout=60, check=True).stdout

    assert python(load, "2", python(dump, "1")) == b"True True True 326\n"


def test_chain_of_eleven_points_visits_each_node_once():
    # 2036 distinct nodes but millions of root-to-node paths: topology,
    # hash and == must visit nodes, not paths
    start = time.perf_counter()
    rel = chain(11)
    a, b = decomposition_tree(rel), decomposition_tree(rel)
    pairs = impose_topology(rel).maximal_simplices
    assert hash(a) == hash(b) and a == b
    assert time.perf_counter() - start < 5.0
    assert len(list(a.walk())) == 2 ** 11 - 12
    assert pairs == {frozenset((f"x{i}", f"x{j}")) for i in range(11) for j in range(i)}


def test_impose_topology_frozen_rules():
    def topo(n):
        return {s for s in impose_topology(rule(n)).maximal_simplices}

    assert topo(90) == {frozenset(("p", "r", "s"))}
    assert topo(15) == {frozenset(("p", "s"))}
    assert topo(0) == {frozenset(("s",))}
    assert topo(30) == {frozenset(("p", "q", "r", "s"))}
    assert topo(204) == {frozenset(("q", "s"))}


def test_tree_from_given_root_decomposition():
    dec = canonical_decomposition(rule(30))
    assert decomposition_tree(rule(30), _root=dec) == decomposition_tree(rule(30))
    assert impose_topology(rule(30), _root=dec) == impose_topology(rule(30))
    with pytest.raises(ContractError):
        decomposition_tree(rule(90), _root=dec)


def test_impose_topology_lattice_splitting_rule_groups():
    three_point = {5, 10, 80, 90, 95, 160, 165, 175, 245, 250}
    for n in three_point:
        assert impose_topology(rule(n)).maximal_simplices == frozenset(
            {frozenset(("p", "r", "s"))}), n
    two_point = {15: ("p", "s"), 51: ("q", "s"), 85: ("r", "s"),
                 170: ("r", "s"), 204: ("q", "s"), 240: ("p", "s")}
    for n, face in two_point.items():
        assert impose_topology(rule(n)).maximal_simplices == frozenset(
            {frozenset(face)}), n


def test_impose_topology_trivial_and_empty():
    assert impose_topology(trivial_relation(RULE_DOMAIN)).maximal_simplices == frozenset()
    with pytest.raises(DegenerateError):
        impose_topology(empty_relation(RULE_DOMAIN))


def test_sorted_simplices_order():
    complex_ = impose_topology(rule(90))
    assert complex_.sorted_simplices() == [("p", "r", "s")]


def test_count_consequences_rule30():
    assert count_consequences(rule(30)) == 2 ** 8


def test_equivalent_under_symmetry():
    d1 = Domain(("a", "b", "z"), 2)
    d2 = Domain(("a", "c", "z"), 2)
    r1 = relation_from_members(d1, [(0, 1, 1), (1, 0, 0)])
    r2 = relation_from_members(d2, [(0, 1, 1), (1, 0, 0)])
    ea = ConsequenceEntry(d1, r1)
    eb = ConsequenceEntry(d2, r2)
    assert equivalent_under(ea, eb, ("a", "b", "c"))
    # with a, b symmetric the leftover fixed points differ: {z} vs {c, z}
    assert not equivalent_under(ea, eb, ("a", "b"))
    # same faces but different cardinalities never match
    r3 = relation_from_members(d2, [(0, 1, 1)])
    assert not equivalent_under(ea, ConsequenceEntry(d2, r3), ("a", "b", "c"))


def test_life_level_one_symmetry_classes():
    life = life_relation()
    entries = proper_consequences(life, codim=1)
    assert len(entries) == 9
    classes = group_by_symmetry(entries, [f"x{i}" for i in range(8)])
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 8]
    big = next(c for c in classes if len(c) == 8)
    assert all("x8" in e.face.points for e in big)
    small = next(c for c in classes if len(c) == 1)
    assert "x8" not in small[0].face.points


def test_life_cardinality():
    assert cardinality(life_relation()) == 512
