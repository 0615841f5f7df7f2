"""Bit table relations: encoding, algebra, extension, projection."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcalc import (
    Domain,
    DomainError,
    FormatError,
    Relation,
    UnsupportedError,
    cardinality,
    complement,
    contains,
    cylinder,
    decode_point,
    empty_relation,
    encode_point,
    extend,
    intersect,
    is_empty,
    is_trivial,
    make_relation,
    members,
    permute_points,
    project,
    relation_from_hex,
    relation_from_members,
    rename_points,
    trivial_relation,
    union,
)

import oracle


def test_encode_decode_roundtrip():
    for q in (2, 3, 5):
        for k in (1, 2, 3):
            for i in range(q ** k):
                t = decode_point(i, k, q)
                assert len(t) == k
                assert encode_point(t, q) == i


def test_encoding_is_little_endian():
    assert decode_point(6, 3, 2) == (0, 1, 1)
    assert encode_point((0, 1, 1), 2) == 6
    assert encode_point((2, 1), 3) == 5
    assert decode_point(5, 2, 3) == (2, 1)


def test_encode_decode_guards():
    with pytest.raises(DomainError):
        encode_point((0, 2), 2)
    with pytest.raises(DomainError):
        decode_point(8, 3, 2)
    with pytest.raises(DomainError):
        decode_point(-1, 3, 2)


@pytest.mark.parametrize("call", [
    lambda: encode_point((0.5, 1), 2),
    lambda: contains(trivial_relation(Domain(("a", "b"), 2)), (0.5, 1)),
    lambda: relation_from_members(Domain(("a", "b"), 2), [(0.5, 1)]),
], ids=["encode_point", "contains", "relation_from_members"])
def test_non_integer_state_refused(call):
    with pytest.raises(DomainError, match=r"state 0\.5 is not an integer"):
        call()


def test_domain_basics():
    d = Domain(("p", "q", "r"), 2)
    assert d.k == 3
    assert d.size == 8
    assert d.index("r") == 2
    face = d.face(("r", "p"))
    assert face.points == ("p", "r")
    assert face.q == 2


def test_domain_guards():
    with pytest.raises(DomainError):
        Domain((), 2)
    with pytest.raises(DomainError):
        Domain(("a", "a"), 2)
    with pytest.raises(DomainError):
        Domain(("a",), 1)
    with pytest.raises(DomainError):
        Domain(("a", "b"), 2).index("c")
    with pytest.raises(DomainError):
        Domain(("a", "b"), 2).face(("a", "a"))
    with pytest.raises(UnsupportedError):
        Domain(tuple(f"v{i}" for i in range(33)), 2)


def test_domain_table_limit():
    # 2^24 cells is the largest table; building the domain allocates none
    assert Domain(tuple(f"v{i}" for i in range(24)), 2).size == 2 ** 24
    with pytest.raises(UnsupportedError):
        Domain(tuple(f"v{i}" for i in range(25)), 2)
    with pytest.raises(UnsupportedError):
        Domain(tuple(f"v{i}" for i in range(16)), 3)


def test_bit_string_orientation():
    d = Domain(("a", "b"), 2)
    rel = relation_from_members(d, [(1, 0)])
    assert rel.bits == 2
    assert rel.bit_string() == "0100"
    assert make_relation(d, "0100") == rel


def test_make_relation_forms():
    d = Domain(("a", "b"), 2)
    s = make_relation(d, "1010")
    i = make_relation(d, 0b0101)
    seq = make_relation(d, [1, 0, 1, 0])
    assert s == i == seq
    assert set(members(s)) == {(0, 0), (0, 1)}


@given(st.sampled_from([(q, k) for q in (2, 3, 5) for k in range(1, 7)]), st.data())
def test_make_relation_list_matches_string(shape, data):
    q, k = shape
    d = Domain(tuple("abcdef"[:k]), q)
    bits = data.draw(st.integers(0, (1 << d.size) - 1))
    cells = [bits >> i & 1 for i in range(d.size)]
    text = "".join(map(str, cells))
    assert make_relation(d, cells) == make_relation(d, text) == Relation(d, bits)


def test_make_relation_guards():
    d = Domain(("a", "b"), 2)
    with pytest.raises(FormatError):
        make_relation(d, "101")
    with pytest.raises(FormatError):
        make_relation(d, "10x0")
    with pytest.raises(FormatError):
        make_relation(d, [1, 0, 1])
    with pytest.raises(FormatError):
        make_relation(d, [1, 0, 2, 0])
    with pytest.raises(FormatError, match="entry 1.0 is not 0/1"):
        make_relation(d, [1.0, 0, 1, 0])
    with pytest.raises(FormatError, match="entry '1' is not 0/1"):
        make_relation(d, [1, 0, "1", 0])
    assert make_relation(d, [True, False, True, False]) == make_relation(d, "1010")
    with pytest.raises(FormatError):
        Relation(d, 1 << 4)
    with pytest.raises(FormatError):
        Relation(d, -1)


def test_hex_string_roundtrip():
    d = Domain(("p", "q", "r", "s"), 2)
    rel = make_relation(d, "1001010101101010")
    assert rel.hex_string() == "956A"
    assert relation_from_hex(d, "956a") == rel
    d3 = Domain(("a", "b"), 3)
    rel3 = make_relation(d3, "100101011")
    assert relation_from_hex(d3, rel3.hex_string()) == rel3


def test_hex_string_guards():
    d = Domain(("a", "b"), 3)
    with pytest.raises(FormatError):
        relation_from_hex(d, "95")
    with pytest.raises(FormatError):
        relation_from_hex(d, "95A1")
    with pytest.raises(FormatError):
        relation_from_hex(d, "95g")
    with pytest.raises(FormatError):
        # nonzero padding past ordinal 8
        relation_from_hex(d, "954")
    # int(text, 16) would take each of these, all of the right length
    for text in ("0x8", "9_0", "+98", "9 0", "-98"):
        with pytest.raises(FormatError):
            relation_from_hex(d, text)


@given(st.sampled_from([(q, k) for q in (2, 3, 5) for k in range(1, 5)]), st.data())
def test_hex_round_trip(shape, data):
    q, k = shape
    d = Domain(tuple("abcd"[:k]), q)
    r = Relation(d, data.draw(st.integers(0, (1 << d.size) - 1)))
    assert r.hex_string() == oracle.o_hex_string(r)
    assert relation_from_hex(d, r.hex_string()) == r
    assert relation_from_hex(d, r.hex_string().lower()) == r


def test_membership_and_cardinality():
    d = Domain(("a", "b", "c"), 2)
    rel = relation_from_members(d, [(0, 0, 0), (1, 1, 1), (1, 0, 0)])
    assert cardinality(rel) == 3
    assert contains(rel, (1, 0, 0))
    assert not contains(rel, (0, 1, 0))
    assert list(members(rel)) == [(0, 0, 0), (1, 0, 0), (1, 1, 1)]
    with pytest.raises(DomainError):
        contains(rel, (1, 0))
    with pytest.raises(DomainError):
        relation_from_members(d, [(0, 0)])


def test_set_algebra():
    d = Domain(("a", "b"), 3)
    r1 = make_relation(d, "110010001")
    r2 = make_relation(d, "011010010")
    assert union(r1, r2).bit_string() == "111010011"
    assert intersect(r1, r2).bit_string() == "010010000"
    assert complement(complement(r1)) == r1
    # De Morgan
    assert complement(union(r1, r2)) == intersect(complement(r1), complement(r2))
    assert is_empty(empty_relation(d))
    assert is_trivial(trivial_relation(d))
    assert not is_trivial(r1)
    with pytest.raises(DomainError):
        intersect(r1, make_relation(Domain(("a", "c"), 3), 0))
    with pytest.raises(DomainError):
        union(r1, make_relation(Domain(("a", "b"), 2), 0))


def test_extend_single_point():
    a = Domain(("a",), 2)
    ab = Domain(("a", "b"), 2)
    rel = relation_from_members(a, [(0,)])
    assert extend(rel, ab).bit_string() == "1010"
    with pytest.raises(DomainError, match="extend needs a Domain"):
        extend(rel, ("a", "b"))


def test_extend_then_project_recovers():
    rng = random.Random(7)
    for _ in range(50):
        domain = oracle.random_domain(rng, max_k=3)
        rel = oracle.random_relation(rng, domain)
        if is_empty(rel):
            continue
        bigger = Domain(domain.points + ("zz",), domain.q)
        assert project(extend(rel, bigger), domain) == rel


def test_project_examples():
    d = Domain(("p", "q", "r", "s"), 2)
    r90 = make_relation(d, "1010010101011010")
    proj = project(r90, ("p", "r", "s"))
    assert proj.domain.points == ("p", "r", "s")
    assert proj.bit_string() == "10010110"
    # face points come back in domain order even if given shuffled
    assert project(r90, ("s", "p", "r")).domain.points == ("p", "r", "s")
    # any iterable of point names works as a tuple does
    for face in ("prs", dict.fromkeys("rsp").keys(), ["r", "s", "p"]):
        assert project(r90, face) == proj
        assert cylinder(r90, face) == extend(proj, d)
    assert project(r90, iter(["s", "p", "r"])) == proj
    assert cylinder(r90, iter(["s", "p", "r"])) == extend(proj, d)
    assert project(r90, "p").domain.points == ("p",)
    with pytest.raises(DomainError):
        project(r90, ("p", "z"))
    with pytest.raises(DomainError):
        cylinder(r90, "pz")


def test_project_matches_oracle():
    rng = random.Random(11)
    for _ in range(60):
        domain = oracle.random_domain(rng)
        rel = oracle.random_relation(rng, domain)
        face = oracle.random_face(rng, domain)
        got = project(rel, face)
        assert oracle.to_members(got) == oracle.o_project(
            oracle.to_members(rel), domain.points, face.points)


def test_extend_matches_oracle():
    rng = random.Random(13)
    for _ in range(60):
        domain = oracle.random_domain(rng)
        face = oracle.random_face(rng, domain)
        rel = oracle.random_relation(rng, face)
        got = extend(rel, domain)
        assert oracle.to_members(got) == oracle.o_extend(
            oracle.to_members(rel), face.points, domain.points, domain.q)


def test_extend_counts_and_degenerate_cases():
    rng = random.Random(19)
    for _ in range(40):
        domain = oracle.random_domain(rng, max_k=3)
        rel = oracle.random_relation(rng, domain)
        bigger = Domain(domain.points + ("y", "z"), domain.q)
        ext = extend(rel, bigger)
        assert cardinality(ext) == cardinality(rel) * domain.q ** 2
        assert is_empty(ext) == is_empty(rel)
        assert is_trivial(ext) == is_trivial(rel)


def test_permute_points_equivariance():
    rng = random.Random(29)
    for _ in range(40):
        domain = oracle.random_domain(rng)
        rel = oracle.random_relation(rng, domain)
        order = list(domain.points)
        rng.shuffle(order)
        moved = permute_points(rel, tuple(order))
        assert cardinality(moved) == cardinality(rel)
        assert is_empty(moved) == is_empty(rel)
        assert is_trivial(moved) == is_trivial(rel)
        assert set(
            tuple(t[order.index(p)] for p in domain.points)
            for t in members(moved)) == set(members(rel))


def test_boolean_laws_random():
    rng = random.Random(31)
    for _ in range(40):
        domain = oracle.random_domain(rng)
        r1 = oracle.random_relation(rng, domain)
        r2 = oracle.random_relation(rng, domain)
        assert union(r1, r1) == r1
        assert intersect(r1, r1) == r1
        assert complement(union(r1, r2)) == intersect(
            complement(r1), complement(r2))
        assert complement(intersect(r1, r2)) == union(
            complement(r1), complement(r2))


def test_permute_points_keeps_abstract_relation():
    d = Domain(("a", "b", "c"), 2)
    rel = relation_from_members(d, [(0, 1, 1), (1, 0, 0)])
    swapped = permute_points(rel, ("c", "a", "b"))
    assert swapped.domain.points == ("c", "a", "b")
    assert set(members(swapped)) == {(1, 0, 1), (0, 1, 0)}
    assert permute_points(swapped, ("a", "b", "c")) == rel
    with pytest.raises(DomainError):
        permute_points(rel, ("a", "b"))
    with pytest.raises(DomainError):
        permute_points(rel, ("a", "b", "z"))


def test_permute_points_symmetric_table_unchanged():
    d = Domain(("p", "r", "s"), 2)
    rel = make_relation(d, "10010110")
    assert permute_points(rel, ("r", "p", "s")).bit_string() == "10010110"


def test_rename_points():
    d = Domain(("a", "b"), 2)
    rel = make_relation(d, "1010")
    renamed = rename_points(rel, {"a": "x"})
    assert renamed.domain.points == ("x", "b")
    assert renamed.bits == rel.bits


def test_members_ordinal_order_exhaustive():
    d = Domain(("a", "b", "c"), 2)
    for bits in range(0, 256, 17):
        rel = Relation(d, bits)
        expect = [decode_point(i, 3, 2) for i in range(8) if bits >> i & 1]
        assert list(members(rel)) == expect
        assert cardinality(rel) == len(expect)


def test_all_tuples_cover_hypercube():
    d = Domain(("a", "b"), 3)
    assert set(members(trivial_relation(d))) == set(
        itertools.product(range(3), repeat=2))
