"""The four workloads: seeded op streams, each op with its own output check.

Every op drives relcalc from outside, through `relcalc.cli.main` or the
library calls the README documents, looked up on the module at call
time so the tracer's wrappers are used when installed.  An op's inputs
are built, and its files written, before it is timed; its check runs
after.  Each stream is infinite and depends only on the seed.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import relcalc as rc
import relcalc.cli

import reference as ref
from reference import require

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _handle:
    DIGESTS = json.load(_handle)


@dataclass
class Outcome:
    stdout: str
    stderr: str = ""
    code: int = 0
    value: object = None


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]
    limit: float


def digest(outcome):
    text = f"{outcome.code}\n{outcome.stdout}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_of(*parts):
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def check_digest(workload, op, outcome):
    """Outputs recorded at the seed commit must not change."""
    want = DIGESTS.get(workload, {}).get(op.key)
    require(want is None or want == digest(outcome),
            f"{op.kind} output differs from the recorded digest")


def cli_call(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = relcalc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return Outcome(out.getvalue(), err.getvalue(), code)
    return run


def expect_code(outcome, code):
    require(outcome.code == code,
            f"exit {outcome.code}, expected {code}; stderr {outcome.stderr[-200:]!r}")


# README examples: their output must stay byte-identical.
README_RULE_30 = """\
rule 30
points p q r s
bit table 1001010101101010
cardinality 8
status irreducible
polynomial qr+s+r+q+p
consequences 2
  face p,q,s  bit table 11011110  polynomial qs+pq+q
  face p,r,s  bit table 11011110  polynomial rs+pr+r
principal factor 1011111101111111
principal factor polynomial qrs+pqr+rs+qs+pr+pq+s+p
"""
README_CLASSIFY = "reducible: 118, irreducible: 138, prime: 2 (105, 150)\n"
README_TOPOLOGY_90 = "maximal simplices (1):\n  p,r,s\n"
README_LIFE_POLY = """\
life relation
points x0 x1 x2 x3 x4 x5 x6 x7 x8 x9
cardinality 512
status reducible
codimension-1 consequences: 9 in 2 classes up to permuting x0,x1,x2,x3,x4,x5,x6,x7
  class of 8  example face x0,x1,x2,x3,x4,x5,x6,x8,x9
  class of 1  example face x0,x1,x2,x3,x4,x5,x6,x7,x9
reconstruction from the x8-free face plus any 7 neighbor faces: 8/8 exact
polynomial x9 + x8{σ7+σ6+σ3+σ2} + σ7+σ3
"""
README_SIMULATE_90 = """\
00000100000
00001010000
00010001000
00101010100
01000000010
10100000101
violations: 0
"""
# Headline facts frozen by the paper reproduction.
LIFE_DECOMPOSITION = "decomposition: 326 faces analyzed, 70 prime leaves\nprime leaf sizes: 5\n"
TALLY_EXTRAS = "beyond the usual 64-rule tally: 12 68 207 221"


def codim1_parts(bits, points, q):
    """(face, projection) for every codim-1 face with a nontrivial projection."""
    out = []
    for drop in points:
        face = tuple(p for p in points if p != drop)
        proj = ref.projection(bits, points, face, q)
        if proj != ref.full_bits(len(face), q):
            out.append((face, proj))
    return out


def check_decomposition(bits, points, q, consequences, factor, status):
    """Consequences are the nontrivial codim-1 projections and R = PR ∩ ⋂ cylinders."""
    want = codim1_parts(bits, points, q)
    require(sorted(consequences) == sorted(want), "codim-1 consequences are wrong")
    require(ref.reconstruct(points, q, consequences + [(points, factor)]) == bits,
            "reconstruction R = PR ∩ ⋂ cylinders fails")
    if not want:
        expected = "prime"
    elif ref.reconstruct(points, q, want) == bits:
        expected = "reducible"
    else:
        expected = "irreducible"
    require(status == expected, f"status {status}, expected {expected}")


def check_topology(bits, points, q, simplices):
    """The relation is the intersection of its projections' cylinders on the maximal simplices."""
    sets = [frozenset(s) for s in simplices]
    require(not any(a < b for a in sets for b in sets), "a listed simplex is not maximal")
    parts = []
    for simplex in simplices:
        face = tuple(p for p in points if p in simplex)
        proj = ref.projection(bits, points, face, q)
        require(proj != ref.full_bits(len(face), q), f"simplex {face} carries no constraint")
        parts.append((face, proj))
    require(ref.reconstruct(points, q, parts) == bits, "relation is not rebuilt from its topology")


# --- life-like ----------------------------------------------------------------

SYMMETRIC = tuple(f"x{i}" for i in range(8))


# Generated rules of a life-like round: (birth counts, survival counts).
# Fixed, so every seed runs the same work; the seed only sets the order.
LIFE_LIKE_RULES = ((2, (3, 4)), (6, (1, 7)), (5, (0, 4)))


def life_like(seed, workdir):
    """Conway's Life and three fixed outer-totalistic rules, each a 1024-cell relation.

    Why: the relation kernel and gfpoly do nearly all the work (thousands
    of extend/project calls per decomposition tree, then a Lagrange
    interpolation over the complement cells).  A bit-parallel kernel,
    a linear-transform polynomial bridge and a single analysis pass
    should all show here.  A round is Conway through the CLI plus the
    rules in LIFE_LIKE_RULES through library calls, in an order drawn
    from the seed: every round does the same work whatever the seed, so
    the spread of a metric across seeds is the host's, not the inputs'.
    Not in BENCHMARK.json: a run holds only eight to twelve ops of 2-4 s,
    so its tail is the slowest of a few ops and moves from run to run
    more than the gated workloads' (NOTES.md).  Run it by name to compare
    commits.
    """
    rng = random.Random(seed)
    conway = ["life", "--poly", "--decompose"]
    while True:
        round_ops = [Op("conway", key_of("cli", *conway), cli_call(conway), check_conway, 120.0)]
        round_ops += [life_like_op(birth, survive) for birth, survive in LIFE_LIKE_RULES]
        rng.shuffle(round_ops)
        yield from round_ops


def check_conway(outcome):
    expect_code(outcome, 0)
    require(outcome.stdout == README_LIFE_POLY + LIFE_DECOMPOSITION,
            "life --poly --decompose differs from the README and the headline facts")


def analyse(rel, symmetric):
    """Status, canonical decomposition, its symmetry classes and decomposition-tree nodes."""
    if rc.is_prime(rel):
        status = "prime"
    else:
        status = "reducible" if rc.is_reducible(rel) else "irreducible"
    dec = rc.canonical_decomposition(rel)
    classes = rc.group_by_symmetry(dec.consequences, symmetric)
    nodes = list(rc.decomposition_tree(rel).walk())
    return status, dec, classes, nodes


def analysis_report(analysis):
    status, _, classes, nodes = analysis
    primes = sum(1 for n in nodes if not n.children and n.status == "prime")
    return (f"status {status}\n"
            f"classes {sorted(len(c) for c in classes)}\n"
            f"decomposition: {len(nodes)} faces analyzed, {primes} prime leaves\n")


def check_analysis(bits, points, q, analysis, sample_seed):
    """Decomposition laws, classes partition the consequences, tree nodes are projections."""
    status, dec, classes, nodes = analysis
    consequences = [(e.face.points, e.relation.bits) for e in dec.consequences]
    check_decomposition(bits, points, q, consequences, dec.principal_factor.bits, status)
    grouped = sorted(id(e) for c in classes for e in c)
    require(grouped == sorted(id(e) for e in dec.consequences),
            "symmetry classes do not partition the consequences")
    require(nodes[0].relation.bits == bits, "tree root is not the relation")
    for node in random.Random(sample_seed).sample(nodes, min(8, len(nodes))):
        require(node.relation.bits == ref.projection(bits, points, node.face, q),
                f"tree node {node.face} is not the projection onto its face")


def life_like_op(birth, survive):
    bits = ref.life_like_table({birth}, set(survive))
    rel = rc.Relation(rc.Domain(ref.LIFE_POINTS, 2), bits)
    name = f"B{birth}/S{''.join(map(str, survive))}"

    def run():
        analysis = analyse(rel, SYMMETRIC)
        poly = rc.relation_to_polynomial(rel)
        report = (f"{name} {analysis_report(analysis)}"
                  f"polynomial {rc.grouped_string(poly, SYMMETRIC)}\n")
        return Outcome(report, value=(analysis, poly))

    def check(outcome):
        analysis, poly = outcome.value
        check_analysis(bits, ref.LIFE_POINTS, 2, analysis, name)
        monomials = [sum(1 << j for j, e in enumerate(exps) if e) for exps, _ in poly.terms]
        require(ref.gf2_zero_set(monomials, 10) == bits, "polynomial zero set is not the relation")

    return Op("life-like", key_of("lib", name), run, check, 120.0)


# --- rules ----------------------------------------------------------------------

CLASSIFY_EVERY = 64


def rules(seed, workdir):
    """All 256 elementary rules through the CLI, as a user would run them.

    Why: on 16-cell tables argparse, report formatting and repeated
    analysis (six proper_consequences calls per `rule` op) dominate,
    so a per-cell kernel speed-up should barely move this workload,
    while one analysis pass per relation should.  Each seeded cycle
    runs `rule N --poly --topology` and `--format records rule N` for
    every N in a seeded order, with classify-all before every 64 rules:
    a run then holds dozens of classify-all ops, so the tail sits well
    inside their latencies instead of on the edge of a handful.
    """
    rng = random.Random(seed)
    classify = ["classify-all", "--expect", "118,138,2", "--consequence-1101"]
    while True:
        for i, n in enumerate(rng.sample(range(256), 256)):
            if i % CLASSIFY_EVERY == 0:
                yield Op("classify-all", key_of("cli", *classify), cli_call(classify),
                         check_classify, 30.0)
            argv = ["rule", str(n), "--poly", "--topology"]
            yield Op("rule", key_of("cli", *argv), cli_call(argv),
                     lambda outcome, n=n: check_rule_text(n, outcome), 10.0)
            argv = ["--format", "records", "rule", str(n)]
            yield Op("rule-records", key_of("cli", *argv), cli_call(argv),
                     lambda outcome, n=n: check_rule_records(n, outcome), 10.0)


def absorbing_rules():
    """Rules with a 1101 (or mirrored 1011) consequence on a {p|q|r, s} face."""
    out = []
    for n in range(256):
        table = ref.rule_table(n)
        for x in ("p", "q", "r"):
            proj = ref.projection(table, ref.RULE_POINTS, (x, "s"), 2)
            if ref.bit_string(proj, 4) in ("1101", "1011"):
                out.append(n)
                break
    return out


def check_classify(outcome):
    expect_code(outcome, 0)
    lines = outcome.stdout.splitlines()
    require(len(lines) == 4, "classify-all prints four lines")
    require(lines[0] + "\n" == README_CLASSIFY, "classify-all counts or primes changed")
    found = absorbing_rules()
    require(lines[1] == f"rules with 1101 face consequence: {len(found)}" and len(found) == 68,
            "the 1101 scan no longer finds 68 rules")
    require(lines[2] == " ".join(map(str, found)), "the 1101 rule list is wrong")
    require(lines[3] == TALLY_EXTRAS, "the 68-vs-64 tally changed")


def _gf2_check(text, face, bits):
    monomials = ref.parse_gf2(text, face)
    require(ref.gf2_zero_set(monomials, len(face)) == bits,
            f"polynomial {text} does not vanish exactly on the relation")


def check_rule_text(n, outcome):
    expect_code(outcome, 0)
    table = ref.rule_table(n)
    points = ref.RULE_POINTS
    lines = outcome.stdout.splitlines()
    require(lines[:4] == [f"rule {n}", "points p q r s", f"bit table {ref.bit_string(table, 16)}",
                          "cardinality 8"], "rule header is wrong")
    status = lines[4].removeprefix("status ")
    poly = lines[5].removeprefix("polynomial ")
    _gf2_check(poly, points, table)
    count = int(lines[6].removeprefix("consequences "))
    consequences = []
    for line in lines[7:7 + count]:
        _, face, _, _, bits, _, poly = line.split()
        face = tuple(face.split(","))
        consequences.append((face, ref.from_bit_string(bits)))
        _gf2_check(poly, face, consequences[-1][1])
    rest = lines[7 + count:]
    require(len(rest) == 3, "rule report ends with factor, factor polynomial, topology")
    factor = ref.from_bit_string(rest[0].removeprefix("principal factor "))
    _gf2_check(rest[1].removeprefix("principal factor polynomial "), points, factor)
    check_decomposition(table, points, 2, consequences, factor, status)
    simplices = [tuple(s.split(",")) for s in rest[2].removeprefix("topology ").split(" | ")]
    check_topology(table, points, 2, simplices)


def check_rule_records(n, outcome):
    expect_code(outcome, 0)
    table = ref.rule_table(n)
    points = ref.RULE_POINTS
    records = ref.parse_records(outcome.stdout)
    (fields, rpoints, _, bits), *parts = records
    require(rpoints == points and bits == table and fields["rule"] == str(n),
            "rule record is wrong")
    *consequences, factor = parts
    require(factor[0].get("kind") == "principal-factor", "last record is not the factor")
    require(all(c[0].get("kind") == "consequence" for c in consequences), "bad record kinds")
    check_decomposition(table, points, 2, [(c[1], c[3]) for c in consequences],
                        factor[3], fields["status"])


# --- trajectories -------------------------------------------------------------

def trajectories(seed, workdir):
    """Seeded rules run on random periodic rows with --check.

    Why: automata.simulate and check_trajectory do the work, and the
    relation kernel is reached only through `contains` on 16-cell
    tables, so this is the control where kernel, polynomial and
    analysis-pass changes predict no change.  Width times steps is
    held near 80000 cells so op cost depends little on the seed.
    Uses `--seed S simulate ... --random`: `--seed` is a global option.
    """
    rng = random.Random(seed)
    while True:
        n = rng.randrange(256)
        width = rng.randint(200, 400)
        steps = 80000 // width
        row_seed = rng.randrange(2 ** 31)
        argv = ["--seed", str(row_seed), "simulate", str(n), "--width", str(width),
                "--steps", str(steps), "--random", "--check"]
        yield Op("simulate", key_of("cli", *argv), cli_call(argv),
                 lambda outcome, a=(n, width, steps, row_seed): check_simulation(*a, outcome),
                 60.0)


def check_simulation(n, width, steps, row_seed, outcome):
    expect_code(outcome, 0)
    lines = outcome.stdout.splitlines()
    require(len(lines) == steps + 2 and lines[-1] == "violations: 0", "trajectory report shape")
    require(all(len(line) == width for line in lines[:-1]), "row width")
    init = "".join(map(str, ref.random_row(width, row_seed)))
    require(lines[0] == init, "first row is not the seeded random row")
    row = ref.from_bit_string(lines[0])
    for line in lines[1:-1]:
        row = ref.ca_step(row, width, n)
        require(ref.from_bit_string(line) == row, f"row does not follow rule {n}")


# --- relfiles -------------------------------------------------------------------

# One round: (op kind, q, points).  Sizes are fixed so every seed runs the
# same mix of table sizes; the seed draws the relations.  Union tables of
# base: 4096 (q=2), 2187 (q=3) and 3125 (q=5) cells.  No kind dominates the
# round's time (the slowest take about 0.1 s), so op_tail_s rests on dozens
# of samples of several kinds rather than on a few long polynomial ops.
RELFILE_ROUND = (("base", 2, 12), ("project", 2, 12), ("topology", 2, 7), ("records", 2, 11),
                 ("poly", 3, 5), ("base", 3, 7), ("decompose", 2, 6), ("project", 3, 7),
                 ("topology", 3, 5), ("base", 5, 5), ("poly", 5, 3), ("decompose", 3, 5),
                 ("malformed", 3, 4))


def relfiles(seed, workdir):
    """Seeded relation files for q in {2, 3, 5}: base, project, topology, records, analysis.

    Why: the only workload that reaches relfile, q > 2 arithmetic and
    base_relation.  It uses the kernel the other way round from
    life-like: base extends small 3-point relations into union tables
    of up to 4096 cells instead of projecting large tables onto faces,
    so a kernel change that speeds up project but slows extend shows
    here.  Bucket elimination for base would be measured here.  Its
    decompose ops are the gated workloads' only route into
    decomposition_tree and group_by_symmetry, and its poly ops the only
    route into q > 2 polynomials.  The round of op kinds and table
    sizes is fixed (RELFILE_ROUND); the seed draws every relation, so
    op costs vary little from seed to seed.  One op in thirteen reads a
    malformed file and must exit 2.
    """
    rng = random.Random(seed)
    files = _FileMaker(workdir)
    while True:
        for kind, q, n in RELFILE_ROUND:
            yield MAKERS[kind](rng, files, q, n)


class _FileMaker:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, text):
        self.count += 1
        path = os.path.join(self.workdir, f"r{self.count}.rel")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


def _points(n):
    return tuple(f"v{i}" for i in range(n))


def _system(rng, q, n):
    """Three-point relations covering n points; half get a planted common solution."""
    points = _points(n)
    planted = [rng.randrange(q) for _ in range(n)] if rng.random() < 0.5 else None
    density = rng.uniform(0.55, 0.8)
    system = []
    for i in range(n):
        others = rng.sample([j for j in range(n) if j != i], 2)
        face = tuple(points[j] for j in sorted([i] + others))
        bits = 0
        for c in range(q ** 3):
            if rng.random() < density:
                bits |= 1 << c
        if planted is not None:
            bits |= 1 << ref.ordinal([planted[points.index(p)] for p in face], q)
        system.append((face, bits))
    return points, system


def _union_points(system):
    seen = []
    for face, _ in system:
        seen.extend(p for p in face if p not in seen)
    return tuple(seen)


def _relfile_op(kind, argv, contents, check, value_fn=None):
    key = key_of(kind, *[contents.get(a, a) for a in argv])
    call = cli_call(argv)

    def run():
        outcome = call()
        if value_fn is not None:
            outcome.value = value_fn(outcome)
        return outcome

    return Op(kind, key, run, check, 60.0)


def base_op(rng, files, q, n, records=False):
    _, system = _system(rng, q, n)
    texts = [ref.format_record(face, q, bits) for face, bits in system]
    contents = {files.write(text): text for text in texts}
    paths = list(contents)
    union = _union_points(system)

    def expected():
        return ref.solutions(system, union, q)

    if not records:
        def check(outcome):
            want = expected()
            expect_code(outcome, 0 if want else 1)
            lines = outcome.stdout.splitlines()
            require(lines[0] == "base relation on " + ",".join(union), "base domain")
            require(ref.from_bit_string(lines[1].removeprefix("bit table ")) == want,
                    "base is not the set of joint solutions")
            require(lines[2] == f"cardinality {want.bit_count()}", "base cardinality")
            require(lines[3:] == ([] if want else ["incompatible"]), "incompatible flag")
        return _relfile_op("base", ["base", *paths], contents, check)

    def parse(outcome):
        return rc.parse_relations(outcome.stdout)

    def check(outcome):
        want = expected()
        expect_code(outcome, 0 if want else 1)
        (rel,) = outcome.value
        require(rel.domain.points == union and rel.domain.q == q and rel.bits == want,
                "records do not read back as the base relation")
        require(ref.parse_records(outcome.stdout)[0][3] == want, "records text is wrong")

    return _relfile_op("records", ["--format", "records", "base", *paths], contents,
                       check, value_fn=parse)


def project_op(rng, files, q, n):
    points = _points(n)
    size = q ** n
    bits = 0
    for _ in range(rng.randint(4, 40)):
        bits |= 1 << rng.randrange(size)
    text = ref.format_record(points, q, bits)
    path = files.write(text)
    face = rng.sample(points, rng.randint(2, n - 1))
    ordered = tuple(p for p in points if p in face)

    def check(outcome):
        expect_code(outcome, 0)
        lines = outcome.stdout.splitlines()
        require(lines[0] == "projection onto " + ",".join(ordered), "projection face")
        require(ref.from_bit_string(lines[1].removeprefix("bit table "))
                == ref.projection(bits, points, ordered, q), "projection is wrong")

    return _relfile_op("project", ["project", path, "--onto", ",".join(face)],
                       {path: text}, check)


def _solvable(rng, q, n):
    """Points and table of a nonempty relation: the joint solutions of a seeded system."""
    while True:
        points, system = _system(rng, q, n)
        bits = ref.solutions(system, points, q)
        if bits:
            return points, bits


def topology_op(rng, files, q, n):
    points, bits = _solvable(rng, q, n)
    text = ref.format_record(points, q, bits)
    path = files.write(text)

    def check(outcome):
        expect_code(outcome, 0)
        lines = outcome.stdout.splitlines()
        require(lines[0] == f"maximal simplices ({len(lines) - 1}):", "topology header")
        check_topology(bits, points, q, [tuple(line.strip().split(",")) for line in lines[1:]])

    return _relfile_op("topology", ["topology", path], {path: text}, check)


def decompose_op(rng, files, q, n):
    """Decomposition tree and symmetry classes of a relation read from a file."""
    points, bits = _solvable(rng, q, n)
    text = ref.format_record(points, q, bits)
    path = files.write(text)

    def run():
        analysis = analyse(rc.read_relation(path), points)
        return Outcome(analysis_report(analysis), value=analysis)

    def check(outcome):
        check_analysis(bits, points, q, outcome.value, text)

    return Op("decompose", key_of("decompose", text), run, check, 60.0)


def poly_op(rng, files, q, k):
    points = tuple(f"x{i}" for i in range(k))
    bits = 0
    for c in range(q ** k):
        if rng.random() < 0.5:
            bits |= 1 << c
    text = ref.format_record(points, q, bits)
    path = files.write(text)

    def run():
        rel = rc.read_relation(path)
        poly = rc.relation_to_polynomial(rel)
        back = rc.polynomial_to_relation(poly, rel.domain)
        return Outcome(rc.polynomial_to_string(poly) + "\n", value=(poly, back))

    def check(outcome):
        poly, back = outcome.value
        require(back.bits == bits, "polynomial round trip lost the relation")
        require(poly.variables == points and poly.p == q, "polynomial variables")
        require(ref.zero_set(ref.gfp_values(poly.terms, k, q)) == bits,
                "polynomial does not vanish exactly on the relation")

    return Op("poly", key_of("poly", text), run, check, 60.0)


DEFECTS = ("bad bit character", "short bit table", "missing q", "duplicate key",
           "q not an integer", "bad hex digit", "duplicate point", "no table")


def malformed_text(defect, points, q, bits):
    """A relation file with one defect that relcalc must reject."""
    good = ref.format_record(points, q, bits)
    header = f"q {q}\npoints {' '.join(points)}\n"
    table = good.index("bits ") + len("bits ")
    return {
        "bad bit character": good[:table] + "2" + good[table + 1:],
        "short bit table": good[:-2] + "\n",
        "missing q": good.replace(f"q {q}\n", ""),
        "duplicate key": f"q {q}\n" + good,
        "q not an integer": good.replace(f"q {q}\n", "q two\n"),
        "bad hex digit": header + "bits_hex G" + "0" * ((q ** len(points) + 3) // 4 - 1) + "\n",
        "duplicate point": good.replace(f" {points[1]}", f" {points[0]}", 1),
        "no table": header,
    }[defect]


def malformed_op(rng, files, q, n):
    points = _points(n)
    bits = rng.getrandbits(q ** len(points))
    defect = rng.choice(DEFECTS)
    text = malformed_text(defect, points, q, bits)
    path = files.write(text)
    argv = rng.choice((["base", path], ["project", path, "--onto", points[0]], ["topology", path]))

    def check(outcome):
        expect_code(outcome, 2)
        require(outcome.stdout == "", f"{defect}: malformed input printed a report")
        require(any(line.startswith("error:") for line in outcome.stderr.splitlines()),
                f"{defect}: no error: line on stderr")

    return _relfile_op("malformed", argv, {path: text}, check)


MAKERS = {
    "base": base_op,
    "poly": poly_op,
    "decompose": decompose_op,
    "records": lambda rng, files, q, n: base_op(rng, files, q, n, records=True),
    "project": project_op,
    "topology": topology_op,
    "malformed": malformed_op,
}

WORKLOADS = {
    "life-like": life_like,
    "rules": rules,
    "trajectories": trajectories,
    "relfiles": relfiles,
}

# Ops in one full round of each workload's fixed op mix.  A run measures
# whole rounds only, so the mix behind every metric is the same.
CYCLE_OPS = {
    "life-like": 1 + len(LIFE_LIKE_RULES),
    "rules": 256 // CLASSIFY_EVERY + 2 * 256,
    "trajectories": 4,
    "relfiles": len(RELFILE_ROUND),
}

# Fixed examples from the README, run once per run before timing starts.
PREFLIGHT = {
    "life-like": [],
    "rules": [(["rule", "30", "--poly"], README_RULE_30),
              (["classify-all", "--expect", "118,138,2"], README_CLASSIFY),
              (["topology", "--rule", "90"], README_TOPOLOGY_90)],
    "trajectories": [(["simulate", "90", "--width", "11", "--steps", "5", "--check"],
                      README_SIMULATE_90)],
    "relfiles": [],
}
