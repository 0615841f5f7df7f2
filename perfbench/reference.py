"""Independent reference computations the benchmark checks outputs against.

Nothing here imports relcalc.  Relations are (points, q, bits) triples
with the README's table layout: the tuple (s0, ..., s_{k-1}) has ordinal
s0 + s1*q + ..., and bit i of the int is set iff tuple i is a member.
Everything is a plain per-cell loop, slow but obviously right, except
the GF(2) and elementary-rule helpers, which use the standard bit tricks
and are cross-checked against the loops in the self test at the bottom.
"""

import itertools
import random


class CheckFailed(Exception):
    """An op's output broke a law, a golden digest or a headline fact."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def digits(ordinal, k, q):
    out = []
    for _ in range(k):
        ordinal, s = divmod(ordinal, q)
        out.append(s)
    return out


def ordinal(states, q):
    total = 0
    for s in reversed(states):
        total = total * q + s
    return total


def full_bits(k, q):
    return (1 << q ** k) - 1


def cylinder(bits, points, superpoints, q):
    """Cells of the superdomain whose restriction to points is in bits."""
    positions = [superpoints.index(p) for p in points]
    value = 0
    for i in range(q ** len(superpoints)):
        t = digits(i, len(superpoints), q)
        if bits >> ordinal([t[j] for j in positions], q) & 1:
            value |= 1 << i
    return value


def projection(bits, points, face, q):
    """Tuples on the face that extend to at least one member."""
    positions = [points.index(p) for p in face]
    value = 0
    for i in range(q ** len(points)):
        if bits >> i & 1:
            t = digits(i, len(points), q)
            value |= 1 << ordinal([t[j] for j in positions], q)
    return value


def reconstruct(points, q, parts):
    """Intersection of the cylinders of (face, bits) parts over points."""
    joint = full_bits(len(points), q)
    for face, bits in parts:
        joint &= cylinder(bits, face, points, q)
    return joint


def solutions(system, points, q):
    """Brute force: assignments of points that satisfy every (face, bits)."""
    checks = [([points.index(p) for p in face], bits) for face, bits in system]
    value = 0
    for i, t in enumerate(itertools.product(range(q), repeat=len(points))):
        t = t[::-1]  # product varies the last entry fastest; ordinals vary s0 fastest
        if all(bits >> ordinal([t[j] for j in pos], q) & 1 for pos, bits in checks):
            value |= 1 << i
    return value


def bit_string(bits, size):
    return format(bits, f"0{size}b")[::-1]


def from_bit_string(text):
    require(set(text) <= {"0", "1"}, f"bad bit table {text[:40]!r}")
    return int(text[::-1], 2) if text else 0


def from_hex(text, size):
    bitstr = "".join(format(int(c, 16), "04b") for c in text)
    return from_bit_string(bitstr[:size])


def parse_records(text):
    """Records as (fields, points, q, bits); unknown keys kept in fields."""
    out = []
    for block in text.strip().split("\n\n"):
        fields = {}
        for line in block.splitlines():
            key, _, value = line.strip().partition(" ")
            fields[key] = value.strip()
        q = int(fields["q"])
        points = tuple(fields["points"].replace(",", " ").split())
        size = q ** len(points)
        if "bits" in fields:
            bits = from_bit_string(fields["bits"])
        else:
            bits = from_hex(fields["bits_hex"], size)
        out.append((fields, points, q, bits))
    return out


def format_record(points, q, bits):
    """A relation file in the README's format, with a `bits` table."""
    return f"q {q}\npoints {' '.join(points)}\nbits {bit_string(bits, q ** len(points))}\n"


# --- elementary rules and Life-like rules ---------------------------------

RULE_POINTS = ("p", "q", "r", "s")
LIFE_POINTS = tuple(f"x{i}" for i in range(10))


def rule_table(n):
    """Rule n on (p, q, r, s): s is bit 4p+2q+r of n."""
    value = 0
    for i in range(16):
        p, q, r, s = digits(i, 4, 2)
        if (n >> (4 * p + 2 * q + r) & 1) == s:
            value |= 1 << i
    return value


def life_like_table(birth, survive):
    """Outer-totalistic rule on x0..x9: x9 is the next state of x8."""
    value = 0
    for i in range(1024):
        t = digits(i, 10, 2)
        alive = sum(t[:8])
        nxt = int(alive in (survive if t[8] else birth))
        if t[9] == nxt:
            value |= 1 << i
    return value


def ca_step(row, width, n):
    """One step of rule n on a periodic row packed little-endian in an int."""
    mask = (1 << width) - 1
    left = ((row << 1) | (row >> (width - 1))) & mask   # cell x sees x-1
    right = ((row >> 1) | (row << (width - 1))) & mask  # cell x sees x+1
    out = 0
    for code in range(8):
        if n >> code & 1:
            p, q, r = code >> 2 & 1, code >> 1 & 1, code & 1
            out |= ((left if p else ~left) & (row if q else ~row)
                    & (right if r else ~right)) & mask
    return out


def random_row(width, seed):
    """The documented row generator: random.Random(seed).randint(0, 1) per cell."""
    rng = random.Random(seed)
    return tuple(rng.randint(0, 1) for _ in range(width))


# --- polynomials ------------------------------------------------------------

def gf2_zero_set(monomials, k):
    """Members of the zero set of a GF(2) polynomial given as bit masks.

    The value table is the Moebius transform of the monomial indicator.
    """
    table = 0
    for m in monomials:
        table |= 1 << m
    size = 1 << k
    for j in range(k):
        step = 1 << j
        low = 0
        for base in range(0, size, 2 * step):
            low |= ((1 << step) - 1) << base
        table ^= (table & low) << step
    return ~table & ((1 << size) - 1)


def parse_gf2(text, variables):
    """Monomial masks of GF(2) polynomial text such as 'qr+s+1' or 'x1x9+x0'."""
    require(text, "empty polynomial text")
    if text == "0":
        return []
    order = {v: j for j, v in enumerate(variables)}
    out = []
    for term in text.split("+"):
        if term == "1":
            out.append(0)
            continue
        mask = 0
        name = ""
        for ch in term + "\0":
            if name and not ch.isdigit():
                require(name in order, f"unknown variable {name!r}")
                mask |= 1 << order[name]
                name = ""
            if ch.isalpha():
                name = ch
            elif ch.isdigit():
                require(name, f"stray digit in {term!r}")
                name += ch
        out.append(mask)
    return out


def gfp_values(terms, k, p):
    """Value table of a GF(p) polynomial from (exponents, coeff) terms.

    Evaluates axis by axis on a flat array, so the cost is k * p^(k+1).
    """
    table = [0] * p ** k
    for exps, coeff in terms:
        table[ordinal(list(exps), p)] = coeff % p
    powers = [[pow(s, e, p) for e in range(p)] for s in range(p)]
    stride = 1
    for _ in range(k):
        for base in range(p ** k):
            if base // stride % p:
                continue
            coeffs = [table[base + e * stride] for e in range(p)]
            for s in range(p):
                table[base + s * stride] = sum(c * w for c, w in zip(coeffs, powers[s])) % p
        stride *= p
    return table


def zero_set(values):
    bits = 0
    for i, v in enumerate(values):
        if v == 0:
            bits |= 1 << i
    return bits


if __name__ == "__main__":
    rng = random.Random(7)
    for n in range(256):
        row = rng.getrandbits(13)
        expect = 0
        for x in range(13):
            p, q, r = (row >> (x - 1) % 13 & 1), row >> x & 1, row >> (x + 1) % 13 & 1
            expect |= (n >> (4 * p + 2 * q + r) & 1) << x
        assert ca_step(row, 13, n) == expect, n
    for _ in range(50):
        k = rng.randint(1, 6)
        monos = rng.sample(range(1 << k), rng.randint(0, 1 << k))
        slow = 0
        for i in range(1 << k):
            if sum(1 for m in monos if m & i == m) % 2 == 0:
                slow |= 1 << i
        assert gf2_zero_set(monos, k) == slow
    for p, k in ((3, 3), (5, 2)):
        terms = {}
        for _ in range(6):
            exps = tuple(rng.randrange(p) for _ in range(k))
            terms[exps] = (terms.get(exps, 0) + rng.randrange(1, p)) % p
        slow = []
        for i in range(p ** k):
            point = digits(i, k, p)
            total = 0
            for exps, coeff in terms.items():
                for s, e in zip(point, exps):
                    coeff *= s ** e
                total += coeff
            slow.append(total % p)
        assert gfp_values(terms.items(), k, p) == slow
    print("reference self test ok")
