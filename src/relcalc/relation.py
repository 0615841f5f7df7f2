"""Relations over q-state hypercubes stored as packed bit tables.

A relation on k named points with q states per point is a subset of the
q^k assignment tuples.  Tuple (s0, ..., s_{k-1}) gets the ordinal
s0 + s1*q + s2*q^2 + ... (little-endian, s0 belongs to the first point),
and bit i of the table is set iff the tuple with ordinal i is a member.
Tables live in Python ints, so the set operations are single bitwise ops.

Extension, projection and reordering also work on the whole table at
once.  Point j is digit j of the ordinal, so the cells whose digit j is 0
form a periodic pattern: a run of q^j cells in every q^(j+1).  Masking
with that pattern picks one slice of the table, and shifting by v*q^j
moves the slice to digit value v; shifting by a multiple of q^j larger
than that moves a digit to another place whose digit is 0.  A call to
`extend`, `project`, `cylinder` or `permute_points` therefore costs
O(k*q) big-int operations, each linear in the table size, and `members`
scans the set bits only.  The masks are built on first use and kept in a
small cache.
"""

import functools
import itertools

from .errors import DomainError, FormatError, UnsupportedError

# Largest table a domain may have.  A table is one int of q^k bits and a
# kernel call holds a few of them plus up to ~k cached masks of the same
# size, so 2^24 cells (2 MiB per int) keeps a process under ~200 MiB and
# one call within a few seconds.  The worst case is a reordering of 24
# binary points: at most 36 digit moves, some on twice the table while a
# digit is parked above it.  Reversing 24 points and back took 0.5-0.8 s
# and peaked at 104 MiB (Python 3.11, one core of a Xeon host).  Larger
# domains fail when they are built, before any table is allocated.
MAX_TABLE_CELLS = 2 ** 24


class Value:
    """Base of relcalc's immutable value objects.

    A subclass names its fields in _fields.  The constructor binds values by
    position, then by name, in that order, and stores each field, then _key,
    the tuple of their values; a missing, extra, unknown or repeated field
    raises TypeError.  Instances compare equal when they are of the same
    class with equal _key, hash as hash(_key), print as Name(field=value,
    ...), and refuse assignment and deletion.  Attributes a subclass derives
    from the fields and stores through _set stay out of _key; copy and
    pickle carry them along.
    """

    _fields = ()
    _set = object.__setattr__

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or set(named) != set(rest):
                raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}, "
                                f"got {len(values)} by position and {sorted(named)} by name")
            values += tuple(named[name] for name in rest)
        store = self._set
        for _ in map(store, fields, values):  # stores from C, faster than a loop over zip
            pass
        store("_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"


class Domain(Value):
    """Ordered point names plus the common state count q.

    size, the q^k cells of the bit table, is kept beside the fields.
    """

    _fields = ("points", "q")

    def __init__(self, points: tuple[str, ...], q: int):
        points = tuple(points)
        if not points:
            raise DomainError("domain needs at least one point")
        if len(set(points)) != len(points):
            raise DomainError(f"duplicate point names in {points}")
        if q < 2:
            raise DomainError(f"state count must be >= 2, got {q}")
        size = q ** len(points)
        if size > MAX_TABLE_CELLS:
            raise UnsupportedError(
                f"table would need {q}^{len(points)} cells (limit {MAX_TABLE_CELLS})")
        self._set("points", points)
        self._set("q", q)
        self._set("_key", (points, q))
        self._set("size", size)
        self._set("_index", {p: i for i, p in enumerate(points)})

    @property
    def k(self):
        return len(self.points)

    def index(self, point):
        try:
            return self._index[point]
        except KeyError:
            raise DomainError(f"unknown point {point!r} in domain {self.points}") from None

    def face(self, points):
        """Subdomain on the given points, kept in this domain's order."""
        pts = tuple(points)
        for p in pts:
            self.index(p)
        kept = set(pts)
        if len(kept) != len(pts):
            raise DomainError(f"duplicate points in face {pts}")
        return Domain(tuple(p for p in self.points if p in kept), self.q)


class Relation(Value):
    """A subset of a domain's hypercube, one membership bit per tuple."""

    _fields = ("domain", "bits")

    def __init__(self, domain: Domain, bits: int):
        if bits < 0 or bits.bit_length() > domain.size:
            raise FormatError(f"bit table out of range for {domain.size} cells")
        self._set("domain", domain)
        self._set("bits", bits)
        self._set("_key", (domain, bits))

    @property
    def size(self):
        return self.domain.size

    def bit_string(self):
        """Characters for ordinals 0, 1, 2, ... in that order."""
        return format(self.bits, f"0{self.size}b")[::-1]

    def hex_string(self):
        """Hex digits, most significant nibble covering ordinals 0-3."""
        digits = (self.size + 3) // 4
        return format(int(self.bit_string().ljust(4 * digits, "0"), 2), f"0{digits}X")


def encode_point(states, q):
    """Ordinal of a state tuple: sum of states[j] * q^j."""
    total = 0
    for j, s in enumerate(states):
        if not isinstance(s, int):
            raise DomainError(f"state {s!r} is not an integer")
        if not 0 <= s < q:
            raise DomainError(f"state {s} out of range [0, {q})")
        total += s * q ** j
    return total


def decode_point(ordinal, k, q):
    """State tuple of an ordinal; inverse of encode_point."""
    if not 0 <= ordinal < q ** k:
        raise DomainError(f"ordinal {ordinal} out of range for q^k = {q ** k}")
    states = []
    for _ in range(k):
        ordinal, s = divmod(ordinal, q)
        states.append(s)
    return tuple(states)


def make_relation(domain, bits):
    """Build a relation from an int, a 0/1 string, or a bit iterable."""
    if isinstance(bits, str):
        text = bits.strip()
        if len(text) != domain.size:
            raise FormatError(
                f"bit table has {len(text)} characters, domain needs {domain.size}")
        if text.count("0") + text.count("1") != len(text):
            bad = set(text) - {"0", "1"}
            raise FormatError(f"bit table contains {sorted(bad)}, only 0/1 allowed")
        value = int(text[::-1], 2)
    elif isinstance(bits, int):
        value = bits
    else:
        try:
            seq = list(bits)
        except TypeError:
            raise FormatError(
                f"bit table {bits!r} is not an int, a 0/1 string or a sequence of 0/1") from None
        if len(seq) != domain.size:
            raise FormatError(
                f"bit sequence has {len(seq)} entries, domain needs {domain.size}")
        try:
            value = _pack_cells(bytes(seq))
        except (TypeError, ValueError):  # an entry that is not an int in range(256), or not 0/1
            bad = next(b for b in seq if not isinstance(b, int) or b not in (0, 1))
            raise FormatError(f"bit sequence entry {bad!r} is not 0/1") from None
    return Relation(domain, value)


# Byte translation from cells (one 0/1 byte each) to binary digits.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack_cells(cells):
    """The int whose bit i is cells[i], for nonempty bytes of 0/1 cells.

    Any other byte raises ValueError.  One translate and one int parse,
    so the cost is linear in the number of cells.
    """
    if cells.translate(None, b"\0\1"):
        raise ValueError("a cell is not 0/1")
    return int(cells[::-1].translate(_DIGITS), 2)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def relation_from_hex(domain, text):
    """Build a relation from hex digits (see Relation.hex_string)."""
    text = text.strip()
    expected = (domain.size + 3) // 4
    if len(text) != expected:
        raise FormatError(
            f"hex table has {len(text)} digits, domain needs {expected}")
    if not _HEX_DIGITS.issuperset(text):  # int(text, 16) also takes 0x, _, + and spaces
        raise FormatError(f"bad hex digit in {text!r}")
    bitstr = format(int(text, 16), f"0{4 * expected}b")
    if bitstr[domain.size:].strip("0"):
        raise FormatError("hex table has nonzero padding past the last ordinal")
    return Relation(domain, int(bitstr[:domain.size][::-1], 2))


def relation_from_members(domain, tuples):
    """Relation containing exactly the given state tuples."""
    value = 0
    for t in tuples:
        if len(t) != domain.k:
            raise DomainError(f"tuple {t} has arity {len(t)}, domain has {domain.k}")
        value |= 1 << encode_point(t, domain.q)
    return Relation(domain, value)


def empty_relation(domain):
    return Relation(domain, 0)


def trivial_relation(domain):
    return Relation(domain, (1 << domain.size) - 1)


def is_empty(rel):
    return rel.bits == 0


def is_trivial(rel):
    return rel.bits == (1 << rel.size) - 1


def contains(rel, states):
    """Membership test for one state tuple."""
    if len(states) != rel.domain.k:
        raise DomainError(
            f"tuple arity {len(states)} does not match domain arity {rel.domain.k}")
    return bool(rel.bits >> encode_point(states, rel.domain.q) & 1)


def members(rel):
    """Iterate member tuples in ordinal order.

    Only the set bits are visited; each ordinal splits into a low and a
    high half whose state tuples are tabulated once per call.
    """
    k, q = rel.domain.k, rel.domain.q
    half = k // 2
    low = [t[::-1] for t in itertools.product(range(q), repeat=half)]
    high = [t[::-1] for t in itertools.product(range(q), repeat=k - half)]
    for i in _set_bits(rel.bits):
        hi, lo = divmod(i, len(low))
        yield low[lo] + high[hi]


def _set_bits(bits):
    """Positions of the set bits of a nonnegative int, ascending, read off one binary string."""
    digits = format(bits, "b")[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def cardinality(rel):
    return rel.bits.bit_count()


def _same_domain(r1, r2):
    if r1.domain != r2.domain:
        raise DomainError(
            f"domain mismatch: {r1.domain.points} q={r1.domain.q} "
            f"vs {r2.domain.points} q={r2.domain.q}")


def intersect(r1, r2):
    _same_domain(r1, r2)
    return Relation(r1.domain, r1.bits & r2.bits)


def union(r1, r2):
    _same_domain(r1, r2)
    return Relation(r1.domain, r1.bits | r2.bits)


def complement(rel):
    return Relation(rel.domain, ~rel.bits & (1 << rel.size) - 1)


# --- the bit-parallel kernel: whole-table moves of ordinal digits -----------


@functools.lru_cache(maxsize=64)
def _zero_mask(q, k, lo, hi):
    """Cells of a q^k table whose digits at places lo..hi-1 are all 0."""
    mask, width = (1 << q ** lo) - 1, q ** hi
    for _ in range(hi, k):
        mask = _spread(mask, width, q)
        width *= q
    return mask


def digit_planes(domain):
    """planes[j][v]: the cells of domain's table where point j has state v.

    Each is the cached slice of cells whose digit j is 0, shifted by v*q^j.
    """
    q, k = domain.q, domain.k
    return [tuple(_zero_mask(q, k, j, j + 1) << v * q ** j for v in range(q)) for j in range(k)]


def _spread(bits, step, q):
    """bits with copies shifted up by step, 2*step, ..., (q-1)*step."""
    out = bits
    for v in range(1, q):
        out |= bits << v * step
    return out


def _fold(bits, q, k, place):
    """Existential fold over the digit at place.

    A cell with that digit 0 comes out set iff the cell is set for some
    value of the digit; every other cell comes out clear.
    """
    step = q ** place
    out = bits
    for v in range(1, q):
        out |= bits >> v * step
    return out & _zero_mask(q, k, place, place + 1)


def _move_digit(bits, q, mask, src, dst):
    """Move each cell's digit at place src to place dst, where digit dst is 0.

    mask holds the cells whose digit src is 0.  Only the cells' positions
    change, by v*(q^dst - q^src) for digit value v.
    """
    out = bits & mask
    for v in range(1, q):
        out |= ((bits >> v * q ** src) & mask) << v * q ** dst
    return out


def _arrange(bits, q, k, dest):
    """Move digit src of every cell of a q^k table to place dest[src].

    dest maps places to distinct places below k; every digit it does not
    name must be 0.  A digit only moves into a place whose digit is 0, so
    a path of moves runs back from its free end.  A cycle has no free
    end: its last digit is parked at place k, just above the table, while
    the others move, and then goes to its place.  Each digit thus moves
    once, and one digit of each cycle twice.  Masks over the q^(k+1)
    cells in use while a digit is parked are spread from the cached q^k
    ones and not kept, since they would take q times the cache's memory.
    """
    pending = {src: dst for src, dst in dest.items() if src != dst}
    while pending:
        path = [next(iter(pending))]
        while path[-1] in pending:
            path.append(pending.pop(path[-1]))
        parked = path[-1] == path[0]
        if parked:  # a cycle: its digits go round through place k
            path = [k, *path[:-1], k]
        for i in range(len(path) - 2, -1, -1):
            src, dst = path[i], path[i + 1]
            mask = _zero_mask(q, k, src, src + 1)  # the whole q^k table when src is k
            if parked and k not in (src, dst):
                mask = _spread(mask, q ** k, q)
            bits = _move_digit(bits, q, mask, src, dst)
    return bits


def _as_face(rel, face):
    if not isinstance(face, Domain):
        face = rel.domain.face(face)
    if face.q != rel.domain.q:
        raise DomainError(f"state counts differ: {rel.domain.q} vs {face.q}")
    return face


def extend(rel, superdomain):
    """Cylinder of a relation over a larger domain.

    A tuple belongs to the result iff its restriction to the original
    points belongs to the relation.
    """
    if not isinstance(superdomain, Domain):
        raise DomainError(f"extend needs a Domain to extend onto, got {superdomain!r}")
    if superdomain.q != rel.domain.q:
        raise DomainError(f"state counts differ: {rel.domain.q} vs {superdomain.q}")
    q, k = superdomain.q, superdomain.k
    dest = {t: superdomain.index(p) for t, p in enumerate(rel.domain.points)}
    bits = _arrange(rel.bits, q, k, dest)  # the new digits of rel's own table are 0
    kept = set(dest.values())
    for j in range(k):
        if j not in kept:
            bits = _spread(bits, q ** j, q)
    return Relation(superdomain, bits)


def project(rel, subdomain):
    """Strongest consequence on a face: tuples with at least one extension in rel.

    The result is the smallest relation on the face whose cylinder contains rel.
    """
    subdomain = _as_face(rel, subdomain)
    domain = rel.domain
    q, k = domain.q, domain.k
    dest = {domain.index(p): t for t, p in enumerate(subdomain.points)}
    bits = rel.bits
    for j in range(k):
        if j not in dest:
            bits = _fold(bits, q, k, j)
    return Relation(subdomain, _arrange(bits, q, k, dest))


def cylinder(rel, face):
    """extend(project(rel, face), rel.domain), computed on rel's own table.

    Nothing is compressed to the face, so this is the cheap way to test
    a projection for triviality: it is trivial iff its cylinder is.
    """
    face = _as_face(rel, face)
    domain = rel.domain
    q, k = domain.q, domain.k
    kept = {domain.index(p) for p in face.points}
    bits = rel.bits
    for j in range(k):
        if j not in kept:
            bits = _spread(_fold(bits, q, k, j), q ** j, q)
    return Relation(domain, bits)


def permute_points(rel, new_order):
    """Same abstract relation, stored with the points in a new order."""
    new_pts = tuple(new_order)
    if sorted(new_pts) != sorted(rel.domain.points):
        raise DomainError(
            f"{new_pts} is not a permutation of {rel.domain.points}")
    new_dom = Domain(new_pts, rel.domain.q)
    dest = {t: new_dom.index(p) for t, p in enumerate(rel.domain.points)}
    return Relation(new_dom, _arrange(rel.bits, new_dom.q, new_dom.k, dest))


def rename_points(rel, mapping):
    """Substitute point names; bit table is untouched."""
    new_pts = tuple(mapping.get(p, p) for p in rel.domain.points)
    return Relation(Domain(new_pts, rel.domain.q), rel.bits)
