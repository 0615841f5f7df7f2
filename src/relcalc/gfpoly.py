"""Polynomials over prime fields GF(p) as relation characteristic functions.

A relation with prime q maps to the polynomial that is 0 exactly on its
members and 1 elsewhere, built by multivariate Lagrange interpolation
over the complement.  Exponents stay below p via x^p = x, which makes
the form unique for p = 2.
"""

import itertools
import math
import re

from .errors import DomainError, FormatError, UnsupportedError
from .relation import Relation, Value, decode_point


def _is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def _reduce_exponent(e, p):
    # x^p = x, so positive exponents cycle with period p-1
    if e < p:
        return e
    return (e - 1) % (p - 1) + 1


def _normalize(terms, nvars, p):
    acc = {}
    for exps, coeff in terms:
        exps = tuple(_reduce_exponent(e, p) for e in exps)
        if len(exps) != nvars:
            raise DomainError(f"exponent tuple {exps} has wrong arity")
        acc[exps] = (acc.get(exps, 0) + coeff) % p
    return tuple(sorted((e, c) for e, c in acc.items() if c))


class Polynomial(Value):
    """Reduced-form polynomial: exponent tuples mapped to nonzero coefficients."""

    _fields = ("p", "variables", "terms")

    def __init__(self, p: int, variables: tuple[str, ...],
                 terms: tuple[tuple[tuple[int, ...], int], ...]):
        self._set("p", p)
        self._set("variables", variables)
        self._set("terms", terms)
        self._set("_key", (p, variables, terms))

    def term_dict(self):
        return dict(self.terms)

    def is_zero(self):
        return not self.terms


def polynomial(p, variables, terms):
    """Build a reduced Polynomial from any (exponents, coefficient) pairs."""
    if not _is_prime(p):
        raise UnsupportedError(f"modulus {p} is not prime")
    variables = tuple(variables)
    return Polynomial(p, variables, _normalize(terms, len(variables), p))


def zero(p, variables):
    return polynomial(p, variables, [])


def constant(p, variables, c):
    return polynomial(p, variables, [((0,) * len(variables), c)])


def variable(p, variables, name):
    variables = tuple(variables)
    exps = [0] * len(variables)
    exps[variables.index(name)] = 1
    return polynomial(p, variables, [(tuple(exps), 1)])


def add(*polys):
    first = polys[0]
    for other in polys[1:]:
        if other.p != first.p or other.variables != first.variables:
            raise DomainError("polynomials live over different variables or moduli")
    terms = [tc for poly in polys for tc in poly.terms]
    return polynomial(first.p, first.variables, terms)


def multiply(a, b):
    if a.p != b.p or a.variables != b.variables:
        raise DomainError("polynomials live over different variables or moduli")
    terms = []
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            terms.append((tuple(x + y for x, y in zip(ea, eb)), ca * cb))
    return polynomial(a.p, a.variables, terms)


def eval_polynomial(poly, states):
    """Value at one point, states aligned with poly.variables."""
    if len(states) != len(poly.variables):
        raise DomainError(
            f"tuple arity {len(states)} does not match {len(poly.variables)} variables")
    total = 0
    for exps, coeff in poly.terms:
        value = coeff
        for s, e in zip(states, exps):
            if e:
                value = value * pow(s, e, poly.p) % poly.p
        total = (total + value) % poly.p
    return total


def relation_to_polynomial(rel):
    """Characteristic polynomial: 0 on members, 1 off them.

    Sums, over the complement, products of one-point indicators
    1 - (x_i - s_i)^(p-1); prime q only.
    """
    p = rel.domain.q
    if not _is_prime(p):
        raise UnsupportedError(f"polynomial form needs a prime state count, got {p}")
    variables = rel.domain.points
    nvars = len(variables)
    result = zero(p, variables)
    full = (1 << rel.size) - 1
    comp_bits = ~rel.bits & full
    for i in range(rel.size):
        if not comp_bits >> i & 1:
            continue
        t = decode_point(i, nvars, p)
        indicator = constant(p, variables, 1)
        for j, s in enumerate(t):
            # 1 - (x_j - s)^(p-1), expanded by the binomial theorem
            factor_terms = [((0,) * nvars, 1)]
            for m in range(p):
                exps = [0] * nvars
                exps[j] = m
                coeff = -math.comb(p - 1, m) * pow(-s, p - 1 - m, p)
                factor_terms.append((tuple(exps), coeff))
            indicator = multiply(indicator, polynomial(p, variables, factor_terms))
        result = add(result, indicator)
    return result


def polynomial_to_relation(poly, domain):
    """Relation of the polynomial's zero set over the given domain."""
    if domain.q != poly.p:
        raise DomainError(f"modulus {poly.p} does not match state count {domain.q}")
    missing = set(poly.variables) - set(domain.points)
    if missing:
        raise DomainError(f"variables {sorted(missing)} are not domain points")
    positions = [domain.index(v) for v in poly.variables]
    value = 0
    for i in range(domain.size):
        t = decode_point(i, domain.k, domain.q)
        states = tuple(t[j] for j in positions)
        if eval_polynomial(poly, states) == 0:
            value |= 1 << i
    return Relation(domain, value)


def elementary_symmetric(k, values, p=None):
    """Value of the kth elementary symmetric polynomial at concrete inputs."""
    n = len(values)
    if not 0 <= k <= n:
        raise DomainError(f"symmetric index {k} out of range [0, {n}]")
    acc = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            acc[j] += acc[j - 1] * v
    return acc[k] % p if p is not None else acc[k]


def sigma_polynomial(p, variables, k, over=None):
    """The kth elementary symmetric polynomial in a subset of the variables."""
    variables = tuple(variables)
    names = tuple(over) if over is not None else variables
    if not 0 <= k <= len(names):
        raise DomainError(f"symmetric index {k} out of range [0, {len(names)}]")
    terms = []
    for combo in itertools.combinations(names, k):
        exps = [0] * len(variables)
        for name in combo:
            exps[variables.index(name)] = 1
        terms.append((tuple(exps), 1))
    return polynomial(p, variables, terms)


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][0-9]*|\^|\+|-)")


def parse_polynomial(text, p=2, variables=None):
    """Parse polynomial text like 'qr+s+r+q+p' or '2x0^2x1+1'.

    Variables are single letters with an optional digit suffix; terms are
    joined by + or -; a trailing '= 0' is tolerated.  With variables
    given, exponent tuples use that ordering, otherwise variables are
    collected in order of first appearance.
    """
    text = re.sub(r"=\s*0\s*$", "", text.strip())
    if not text:
        raise FormatError("empty polynomial text")
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise FormatError(f"bad character at position {pos}: {text[pos]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    # A term is [signed coefficient, name, exponent, name, exponent, ...];
    # an exponent is None from its '^' to its digits.  The "+" appended to
    # the tokens closes the last term.
    terms, term, sign, dangling = [], None, 1, False
    for tok in tokens + ["+"]:
        pending = term is not None and term[-1] is None
        if tok in "+-":
            if term is not None:
                terms.append(term)
                dangling |= pending
            term, sign = None, -1 if tok == "-" else 1
            continue
        if term is None:
            term = [sign]
        if tok.isdigit():
            if pending:
                term[-1] = int(tok)
            else:
                term[0] *= int(tok)
        elif tok == "^":
            if len(term) == 1 or pending:
                raise FormatError("dangling '^' in polynomial text")
            term[-1] = None
        elif pending:
            raise FormatError(f"expected exponent digits before {tok!r}")
        else:
            term += [tok, 1]
    if tokens[-1] in "+-":
        raise FormatError("polynomial text ends with a dangling sign")
    if dangling:
        raise FormatError("dangling '^' in polynomial text")

    seen = dict.fromkeys(name for term in terms for name in term[1::2])
    if variables is None:
        variables = tuple(seen)
    else:
        variables = tuple(variables)
        unknown = [n for n in seen if n not in variables]
        if unknown:
            raise FormatError(f"unknown variables {unknown}")
    out = []
    for term in terms:
        exps = [0] * len(variables)
        for name, e in zip(term[1::2], term[2::2]):
            exps[variables.index(name)] += e
        out.append((tuple(exps), term[0]))
    return polynomial(p, variables, out)


def _display_key(exps):
    return (-sum(exps), exps)


def sorted_terms(poly):
    """Terms in display order: total degree descending, then by variable position."""
    return sorted(poly.terms, key=lambda tc: _display_key(tc[0]))


def _monomial_str(variables, exps, coeff):
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    body = "".join(parts)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    return f"{coeff}{body}"


def polynomial_to_string(poly):
    """Expanded reduced form with a stable term order."""
    if poly.is_zero():
        return "0"
    return "+".join(_monomial_str(poly.variables, e, c) for e, c in sorted_terms(poly))


def _symmetric_layers(entries, m):
    """(degree, coeff) layers if the monomials fill whole symmetric levels."""
    if any(set(part) - {0, 1} for part, _ in entries):
        return None
    by_degree = {}
    for part, coeff in entries:
        by_degree.setdefault(sum(part), {})[part] = coeff
    layers = []
    for deg in sorted(by_degree, reverse=True):
        items = by_degree[deg]
        coeffs = set(items.values())
        if len(items) != math.comb(m, deg) or len(coeffs) != 1:
            return None
        layers.append((deg, coeffs.pop()))
    return layers


def grouped_string(poly, symmetric_points, sigma="σ"):
    """Display form collecting complete symmetric layers over the given points.

    Monomials are bucketed by their part outside the symmetric set; a
    bucket whose symmetric parts form whole degree layers with a uniform
    coefficient prints as cofactor{σ_a+σ_b+...}.  Buckets that do not
    group cleanly print expanded.  Display only, never used for equality.
    """
    if poly.is_zero():
        return "0"
    variables = poly.variables
    sym = set(symmetric_points)
    sym_positions = [i for i, v in enumerate(variables) if v in sym]
    pos_set = set(sym_positions)
    m = len(sym_positions)
    buckets = {}
    for exps, coeff in poly.terms:
        cof = tuple(0 if i in pos_set else e for i, e in enumerate(exps))
        part = tuple(exps[i] for i in sym_positions)
        buckets.setdefault(cof, []).append((part, coeff, exps))

    pieces = []
    for cof in sorted(buckets, key=_display_key):
        entries = [(part, coeff) for part, coeff, _ in buckets[cof]]
        layers = _symmetric_layers(entries, m)
        cof_str = _monomial_str(variables, cof, 1)
        if layers is None:
            sub = polynomial(poly.p, variables,
                             [(exps, coeff) for _, coeff, exps in buckets[cof]])
            pieces.append(polynomial_to_string(sub))
            continue
        parts = []
        for deg, coeff in layers:
            if deg == 0:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(f"{sigma}{deg}")
            else:
                parts.append(f"{coeff}{sigma}{deg}")
        body = "+".join(parts)
        if cof_str == "1":
            pieces.append(body)
        elif len(layers) == 1 and layers[0][0] == 0:
            pieces.append(_monomial_str(variables, cof, layers[0][1]))
        elif len(layers) == 1 and layers[0][1] == 1:
            pieces.append(f"{cof_str}{body}")
        else:
            pieces.append(f"{cof_str}{{{body}}}")
    return " + ".join(pieces)
