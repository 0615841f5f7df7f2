"""GF(p) polynomial bridge: interpolation, parsing, printing, symmetry."""

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
    add,
    constant,
    contains,
    elementary_symmetric,
    empty_relation,
    eval_polynomial,
    extend,
    grouped_string,
    life_relation,
    make_relation,
    multiply,
    parse_polynomial,
    polynomial,
    polynomial_to_relation,
    polynomial_to_string,
    project,
    relation_to_polynomial,
    sigma_polynomial,
    variable,
    wolfram_relation,
    zero,
)

import oracle

RULE_POINTS = ("p", "q", "r", "s")


def rule(n):
    return wolfram_relation(n).relation


def rule_poly(n):
    return relation_to_polynomial(rule(n))


def test_roundtrip_exhaustive_gf2():
    for k in (1, 2, 3):
        domain = Domain(tuple("abc"[:k]), 2)
        for bits in range(1 << domain.size):
            rel = Relation(domain, bits)
            poly = relation_to_polynomial(rel)
            assert polynomial_to_relation(poly, domain) == rel


def test_roundtrip_exhaustive_gf3():
    domain = Domain(("a", "b"), 3)
    for bits in range(1 << domain.size):
        rel = Relation(domain, bits)
        poly = relation_to_polynomial(rel)
        assert polynomial_to_relation(poly, domain) == rel


def test_roundtrip_random_gf3_and_gf5():
    rng = random.Random(23)
    d3 = Domain(("a", "b", "c"), 3)
    for _ in range(25):
        rel = Relation(d3, rng.getrandbits(d3.size))
        assert polynomial_to_relation(relation_to_polynomial(rel), d3) == rel
    d5 = Domain(("a",), 5)
    for bits in range(1 << d5.size):
        rel = Relation(d5, bits)
        assert polynomial_to_relation(relation_to_polynomial(rel), d5) == rel


def test_roundtrip_random_four_points():
    rng = random.Random(37)
    for q in (2, 3):
        domain = Domain(("a", "b", "c", "d"), q)
        for _ in range(20):
            rel = Relation(domain, rng.getrandbits(domain.size))
            assert polynomial_to_relation(relation_to_polynomial(rel), domain) == rel


def test_gf2_normal_form_is_unique():
    domain = Domain(("a", "b"), 2)
    rels = [Relation(domain, bits) for bits in range(16)]
    polys = [relation_to_polynomial(r) for r in rels]
    for i, pi in enumerate(polys):
        for j, pj in enumerate(polys):
            assert (pi == pj) == (i == j)


def test_characteristic_values():
    poly = rule_poly(30)
    r = rule(30)
    for t in itertools.product((0, 1), repeat=4):
        assert eval_polynomial(poly, t) == (0 if contains(r, t) else 1)


def test_rule_polynomial_strings():
    assert polynomial_to_string(rule_poly(30)) == "qr+s+r+q+p"
    assert polynomial_to_string(rule_poly(110)) == "pqr+qr+s+r+q"
    assert polynomial_to_string(rule_poly(168)) == "pqr+qr+pr+s"
    # linear polynomials print their degree-1 block in the same order as
    # every other degree block: later points first
    assert polynomial_to_string(rule_poly(105)) == "s+r+q+p+1"
    assert polynomial_to_string(rule_poly(150)) == "s+r+q+p"
    assert parse_polynomial("p+q+r+s+1", variables=RULE_POINTS) == rule_poly(105)
    assert parse_polynomial("p+q+r+s", variables=RULE_POINTS) == rule_poly(150)


def test_rule30_term_set():
    got = rule_poly(30).term_dict()
    assert got == {
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1,
        (0, 1, 1, 0): 1,
    }


def test_consequence_and_factor_polynomial_strings():
    r30 = rule(30)
    pqs = relation_to_polynomial(project(r30, ("p", "q", "s")))
    prs = relation_to_polynomial(project(r30, ("p", "r", "s")))
    assert polynomial_to_string(pqs) == "qs+pq+q"
    assert polynomial_to_string(prs) == "rs+pr+r"

    from relcalc import canonical_decomposition
    factor30 = canonical_decomposition(r30).principal_factor
    assert polynomial_to_string(relation_to_polynomial(factor30)) == \
        "qrs+pqr+rs+qs+pr+pq+s+p"
    factor110 = canonical_decomposition(rule(110)).principal_factor
    assert polynomial_to_string(relation_to_polynomial(factor110)) == "pqrs"


def test_nonprime_state_count_rejected():
    with pytest.raises(UnsupportedError):
        relation_to_polynomial(empty_relation(Domain(("a",), 4)))
    with pytest.raises(UnsupportedError):
        polynomial(6, ("a",), [])


def test_constructor_normalization():
    assert polynomial(2, ("a",), [((1,), 1), ((1,), 1)]).is_zero()
    assert polynomial(2, ("a",), [((2,), 1)]) == variable(2, ("a",), "a")
    assert polynomial(3, ("a",), [((3,), 1)]) == variable(3, ("a",), "a")
    assert polynomial(2, ("a",), [((0,), 3)]) == constant(2, ("a",), 1)
    assert constant(2, ("a",), 2).is_zero()
    assert zero(2, ("a", "b")).terms == ()


def test_add_multiply():
    vars_ = ("a", "b")
    a = variable(2, vars_, "a")
    b = variable(2, vars_, "b")
    assert add(a, a).is_zero()
    ab = multiply(a, b)
    assert ab.term_dict() == {(1, 1): 1}
    # (a + b)^2 = a + b over GF(2) after exponent reduction
    s = add(a, b)
    assert multiply(s, s) == s
    with pytest.raises(DomainError):
        add(a, variable(2, ("a", "c"), "a"))
    with pytest.raises(DomainError):
        multiply(a, variable(3, vars_, "a"))


@pytest.mark.parametrize("call, message", [
    (lambda: variable(2, ["a"], "b"), "unknown variable 'b'"),
    (lambda: sigma_polynomial(2, ("a", "b"), 1, over=("c",)), "unknown variable 'c'"),
    (lambda: add(), "add needs at least one polynomial"),
], ids=["variable", "sigma_polynomial", "add"])
def test_bad_arguments_raise_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: polynomial(3, ("a", "a"), [((1, 1), 1)]),
    lambda: variable(2, ("a", "a"), "a"),
    lambda: parse_polynomial("a+b", 2, variables=("a", "b", "a")),
    lambda: sigma_polynomial(2, ("a", "b"), 1, over=("a", "a")),
], ids=["polynomial", "variable", "parse_polynomial", "sigma_polynomial"])
def test_variable_named_twice(call):
    """Two exponents under one name would print as one variable (aa reads back as a^2)."""
    with pytest.raises(DomainError, match="variable named twice"):
        call()


def test_eval_polynomial_guards():
    poly = rule_poly(30)
    with pytest.raises(DomainError):
        eval_polynomial(poly, (0, 1))


def test_parse_roundtrip():
    for n in (30, 110, 168, 105, 150):
        poly = rule_poly(n)
        assert parse_polynomial(
            polynomial_to_string(poly), variables=RULE_POINTS) == poly


def test_parse_examples():
    poly = parse_polynomial("pqr+qr+pr+s=0", variables=RULE_POINTS)
    assert poly == rule_poly(168)

    two_digit = parse_polynomial("x9x0")
    assert two_digit.variables == ("x9", "x0")
    assert two_digit.term_dict() == {(1, 1): 1}

    coeffs = parse_polynomial("2x^2y + 1", p=3)
    assert coeffs.variables == ("x", "y")
    assert coeffs.term_dict() == {(2, 1): 2, (0, 0): 1}

    minus = parse_polynomial("p-q", p=3)
    assert minus.term_dict() == {(1, 0): 1, (0, 1): 2}

    squared = parse_polynomial("pp")
    assert squared == parse_polynomial("p")


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_polynomial("")
    with pytest.raises(FormatError):
        parse_polynomial("p*q")
    with pytest.raises(FormatError):
        parse_polynomial("p^")
    with pytest.raises(FormatError):
        parse_polynomial("p^q")
    with pytest.raises(FormatError):
        parse_polynomial("p+")
    with pytest.raises(FormatError):
        parse_polynomial("p+q", variables=("p",))
    for text in ("x^2^3", "x^2^0"):  # a second exponent neither replaces nor multiplies the first
        with pytest.raises(FormatError, match="second '\\^'"):
            parse_polynomial(text, p=5)


def _parse_outcome(parse, text, p, variables):
    try:
        return parse(text, p, variables)
    except FormatError as exc:
        return str(exc)


POLY_TOKENS = ("p", "x1", "0", "1", "2", "12", "^", "+", "-", " ", "*", "= 0")


@given(st.lists(st.sampled_from(POLY_TOKENS), max_size=10).map("".join),
       st.sampled_from((2, 3)),
       st.sampled_from((None, ("p", "x1"), ("x1", "q", "p"), ("x1",))))
def test_parse_matches_oracle(text, p, variables):
    """Same polynomial, or the same FormatError message, as the reference parser."""
    assert (_parse_outcome(parse_polynomial, text, p, variables)
            == _parse_outcome(oracle.o_parse_polynomial, text, p, variables))


def test_display_order_degree_then_position():
    poly = parse_polynomial("p+qr+s+1+pqr", variables=RULE_POINTS)
    assert polynomial_to_string(poly) == "pqr+qr+s+p+1"


def test_elementary_symmetric_values():
    assert elementary_symmetric(0, (7, 8, 9)) == 1
    assert elementary_symmetric(2, (1, 1, 1)) == 3
    assert elementary_symmetric(2, (1, 1, 1), p=2) == 1
    assert elementary_symmetric(3, (2, 3, 4)) == 24
    with pytest.raises(DomainError):
        elementary_symmetric(4, (1, 1, 1))


def test_sigma_polynomial():
    s2 = sigma_polynomial(2, ("a", "b", "c"), 2)
    assert s2.term_dict() == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    s1 = sigma_polynomial(2, ("a", "b", "c"), 1, over=("a", "c"))
    assert s1.term_dict() == {(1, 0, 0): 1, (0, 0, 1): 1}
    # values agree with the numeric evaluator
    for t in itertools.product((0, 1), repeat=3):
        assert eval_polynomial(s2, t) == elementary_symmetric(2, t, p=2)


def test_polynomial_to_relation_on_larger_domain():
    poly = parse_polynomial("qs+q", variables=("q", "s"))
    small = polynomial_to_relation(poly, Domain(("q", "s"), 2))
    big = polynomial_to_relation(poly, Domain(RULE_POINTS, 2))
    assert big == extend(small, Domain(RULE_POINTS, 2))
    with pytest.raises(DomainError):
        polynomial_to_relation(poly, Domain(("q", "s"), 3))
    with pytest.raises(DomainError):
        polynomial_to_relation(poly, Domain(("a", "b"), 2))


def life_sigma(k, variables):
    return sigma_polynomial(2, variables, k, over=tuple(f"x{i}" for i in range(8)))


def test_life_polynomial_formula():
    life = life_relation()
    variables = life.domain.points
    x8 = variable(2, variables, "x8")
    x9 = variable(2, variables, "x9")
    formula = add(
        x9,
        multiply(x8, add(*(life_sigma(k, variables) for k in (7, 6, 3, 2)))),
        life_sigma(7, variables),
        life_sigma(3, variables),
    )
    assert relation_to_polynomial(life) == formula
    assert polynomial_to_relation(formula, life.domain) == life


def test_grouped_string_life():
    poly = relation_to_polynomial(life_relation())
    got = grouped_string(poly, [f"x{i}" for i in range(8)])
    assert got == "x9 + x8{σ7+σ6+σ3+σ2} + σ7+σ3"
    ascii_form = grouped_string(poly, [f"x{i}" for i in range(8)], sigma="s")
    assert ascii_form == "x9 + x8{s7+s6+s3+s2} + s7+s3"


def test_grouped_string_falls_back_when_not_symmetric():
    poly = parse_polynomial("pq+q", variables=("p", "q", "r"))
    assert grouped_string(poly, ("p", "r")) == "pq+q"
    assert grouped_string(zero(2, ("a",)), ("a",)) == "0"
