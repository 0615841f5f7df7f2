"""Self-describing text format for relations.

A record is a block of `key value` lines:

    # any comment
    q 2
    points p q r s
    bits 1001010101101010

`bits` holds one character per ordinal, ordinal 0 first.  Large tables
may use `bits_hex` instead, most significant nibble covering ordinals
0-3, zero padding at the tail; a record holds one of the two, not both.
Point names may be separated by spaces or commas.  Unknown keys are
ignored, so report records with extra fields read back as plain
relations.  Blank lines separate records.
"""

from .errors import DomainError, FormatError, RelcalcError
from .relation import Domain, make_relation, relation_from_hex

# Tables with more cells than this are written as bits_hex.
_HEX_THRESHOLD = 64


def _record_blocks(text):
    block, start = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line and block:
                yield start, block
                block, start = [], None
            continue
        if start is None:
            start = lineno
        block.append((lineno, line))
    if block:
        yield start, block


def _parse_block(start, block):
    fields = {}
    for lineno, line in block:
        parts = line.split(None, 1)
        key = parts[0]
        value = parts[1].strip() if len(parts) > 1 else ""
        if not value:
            raise FormatError(f"line {lineno}: key {key!r} has no value")
        if key in fields:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = (lineno, value)

    def need(key):
        if key not in fields:
            raise FormatError(f"record at line {start}: missing field {key!r}")
        return fields[key]

    lineno, q_text = need("q")
    try:
        q = int(q_text)
    except ValueError:
        raise FormatError(f"line {lineno}: q must be an integer, got {q_text!r}") from None
    if q < 2:
        raise DomainError(f"line {lineno}: state count must be >= 2, got {q}")
    lineno, points_text = need("points")
    points = tuple(p for p in points_text.replace(",", " ").split() if p)
    if not points:
        raise FormatError(f"line {lineno}: empty point list")
    try:
        domain = Domain(points, q)
    except RelcalcError as exc:  # duplicate points, or a table over the size limit
        raise type(exc)(f"line {lineno}: {exc}") from None

    tables = [(key, *fields[key]) for key in ("bits", "bits_hex") if key in fields]
    if not tables:
        raise FormatError(f"record at line {start}: needs a bits or bits_hex field")
    if len(tables) > 1:
        lineno = max(line for _, line, _ in tables)
        raise FormatError(f"line {lineno}: record has both bits and bits_hex")
    key, lineno, text = tables[0]
    parse = make_relation if key == "bits" else relation_from_hex
    try:
        return parse(domain, text)
    except FormatError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def parse_relations(text):
    """All relation records in the text, in order."""
    records = [_parse_block(start, block) for start, block in _record_blocks(text)]
    if not records:
        raise FormatError("no relation records found")
    return records


def parse_relation(text):
    """Exactly one relation record."""
    records = parse_relations(text)
    if len(records) > 1:
        raise FormatError(f"expected one relation record, found {len(records)}")
    return records[0]


def _read(path, parse):
    """parse applied to the text of a file; an error names the path and keeps its class."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    except RelcalcError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_relation(path):
    return _read(path, parse_relation)


def read_relations(path):
    return _read(path, parse_relations)


def format_relation(rel, extra=None):
    """One record; tables with more than _HEX_THRESHOLD cells use bits_hex."""
    lines = []
    for key, value in (extra or {}).items():
        lines.append(f"{key} {value}")
    lines.append(f"q {rel.domain.q}")
    lines.append("points " + " ".join(rel.domain.points))
    if rel.size > _HEX_THRESHOLD:
        lines.append(f"bits_hex {rel.hex_string()}")
    else:
        lines.append(f"bits {rel.bit_string()}")
    return "\n".join(lines) + "\n"


def write_relation(path, rel, extra=None):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_relation(rel, extra))
