"""Command line front end.

Subcommands: rule, classify-all, life, base, project, simulate, topology.
Exit codes: 0 on success, 1 when an analysis reports incompatibility or a
failed expectation, 2 for usage and input format errors.  --format records
refuses a command or flag whose report has no relation-record form.
"""

import argparse
import functools
import sys

from . import automata, gfpoly, relfile, structure
from .errors import RelcalcError, UnsupportedError
from .relation import cardinality, extend, is_empty, project
from .structure import (
    STATUS_PRIME,
    canonical_decomposition,
    decomposition_tree,
    group_by_symmetry,
    impose_topology,
)


def _point_list(arg):
    points = tuple(p for p in arg.replace(",", " ").split() if p)
    if not points:
        raise argparse.ArgumentTypeError("empty point list")
    return points


def _counts(arg):
    try:
        r, i, p = (int(v) for v in arg.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected three comma-separated integers, e.g. 118,138,2") from None
    return r, i, p


def _print_records(out, records):
    out.write("\n".join(records))


def cmd_rule(args, out):
    rule = automata.wolfram_relation(args.number)
    rel = rule.relation
    dec = canonical_decomposition(rel)

    if args.format == "records":
        records = [relfile.format_relation(
            rel, extra={"rule": rule.number, "status": dec.status})]
        for entry in dec.consequences:
            records.append(relfile.format_relation(
                entry.relation, extra={"rule": rule.number, "kind": "consequence"}))
        records.append(relfile.format_relation(
            dec.principal_factor, extra={"rule": rule.number, "kind": "principal-factor"}))
        _print_records(out, records)
        return 0

    out.write(f"rule {rule.number}\n")
    out.write("points " + " ".join(rel.domain.points) + "\n")
    out.write(f"bit table {rel.bit_string()}\n")
    out.write(f"cardinality {cardinality(rel)}\n")
    out.write(f"status {dec.status}\n")
    if args.poly:
        out.write(f"polynomial {gfpoly.polynomial_to_string(gfpoly.relation_to_polynomial(rel))}\n")
    out.write(f"consequences {len(dec.consequences)}\n")
    for entry in dec.consequences:
        line = (f"  face {','.join(entry.face.points)}"
                f"  bit table {entry.relation.bit_string()}")
        if args.poly:
            poly = gfpoly.relation_to_polynomial(entry.relation)
            line += f"  polynomial {gfpoly.polynomial_to_string(poly)}"
        out.write(line + "\n")
    out.write(f"principal factor {dec.principal_factor.bit_string()}\n")
    if args.poly:
        poly = gfpoly.relation_to_polynomial(dec.principal_factor)
        out.write(f"principal factor polynomial {gfpoly.polynomial_to_string(poly)}\n")
    if args.topology:
        complex_ = impose_topology(rel, _root=dec)
        simplices = " | ".join(",".join(s) for s in complex_.sorted_simplices())
        out.write(f"topology {simplices}\n")
    return 0


def cmd_classify_all(args, out):
    summary = automata.classify_all_rules()
    counts = summary.counts

    if args.format == "records":
        records = []
        for n, status in enumerate(summary.statuses):
            records.append(relfile.format_relation(
                automata.wolfram_relation(n).relation,
                extra={"rule": n, "status": status}))
        _print_records(out, records)
    else:
        primes = ", ".join(str(n) for n in summary.prime)
        out.write(
            f"reducible: {counts['reducible']}, "
            f"irreducible: {counts['irreducible']}, "
            f"prime: {counts['prime']} ({primes})\n")
        if args.consequence_1101:
            rules = summary.rules_1101
            out.write(f"rules with 1101 face consequence: {len(rules)}\n")
            out.write(" ".join(str(n) for n in rules) + "\n")
            missing, extra = summary.quoted_list_difference()
            if missing:
                out.write("beyond the usual 64-rule tally: "
                          + " ".join(str(n) for n in missing) + "\n")
            if extra:
                out.write("in the usual tally but not found: "
                          + " ".join(str(n) for n in extra) + "\n")

    if args.expect is not None:
        got = (counts["reducible"], counts["irreducible"], counts["prime"])
        if got != args.expect:
            # after records the note would parse as a key of the last one
            note = sys.stderr if args.format == "records" else out
            note.write(f"expected {args.expect}, got {got}\n")
            return 1
    return 0


def cmd_life(args, out):
    rel = automata.life_relation()
    rel.domain.face(args.symmetric)  # unknown or repeated points raise DomainError
    dec = canonical_decomposition(rel)

    if args.format == "records":
        records = [relfile.format_relation(rel, extra={"name": "life"})]
        for entry in dec.consequences:
            records.append(relfile.format_relation(
                entry.relation, extra={"name": "life", "kind": "consequence"}))
        _print_records(out, records)
        return 0

    out.write("life relation\n")
    out.write("points " + " ".join(rel.domain.points) + "\n")
    out.write(f"cardinality {cardinality(rel)}\n")
    out.write(f"status {dec.status}\n")

    sym = args.symmetric
    classes = group_by_symmetry(dec.consequences, sym)
    out.write(f"codimension-1 consequences: {len(dec.consequences)} "
              f"in {len(classes)} classes up to permuting {','.join(sym)}\n")
    for cls in sorted(classes, key=len, reverse=True):
        example = cls[0]
        out.write(f"  class of {len(cls)}  example face {','.join(example.face.points)}\n")

    ok = _life_reconstructions(rel, dec)
    out.write(f"reconstruction from the x8-free face plus any 7 neighbor faces: {ok}/8 exact\n")

    if args.poly:
        poly = gfpoly.relation_to_polynomial(rel)
        out.write(f"polynomial {gfpoly.grouped_string(poly, sym)}\n")

    if args.decompose:
        tree = decomposition_tree(rel, _root=dec)
        nodes = list(tree.walk())
        leaves = [n for n in nodes if not n.children]
        prime_leaves = [n for n in leaves if n.status == STATUS_PRIME]
        out.write(f"decomposition: {len(nodes)} faces analyzed, "
                  f"{len(prime_leaves)} prime leaves\n")
        sizes = sorted({len(n.face) for n in prime_leaves})
        out.write(f"prime leaf sizes: {','.join(str(s) for s in sizes)}\n")
    return 0


def _life_reconstructions(rel, dec):
    """How many of the 8 seven-neighbor reconstructions recover the relation."""
    cylinders = {}
    for entry in dec.consequences:
        dropped = set(rel.domain.points) - set(entry.face.points)
        cylinders[dropped.pop()] = extend(entry.relation, rel.domain).bits
    ok = 0
    for skip in range(8):
        joint = cylinders["x8"]
        for i in range(8):
            if i != skip:
                joint &= cylinders[f"x{i}"]
        if joint == rel.bits:
            ok += 1
    return ok


def cmd_base(args, out):
    relations = [relfile.read_relation(path) for path in args.files]
    base = structure.base_relation(relations)
    if args.format == "records":
        _print_records(out, [relfile.format_relation(base)])
    else:
        out.write("base relation on " + ",".join(base.domain.points) + "\n")
        out.write(f"bit table {base.bit_string()}\n")
        out.write(f"cardinality {cardinality(base)}\n")
        if is_empty(base):
            out.write("incompatible\n")
    return 1 if is_empty(base) else 0


def cmd_project(args, out):
    rel = relfile.read_relation(args.file)
    face = rel.domain.face(args.onto)
    proj = project(rel, face)
    if args.format == "records":
        _print_records(out, [relfile.format_relation(proj)])
    else:
        out.write("projection onto " + ",".join(face.points) + "\n")
        out.write(f"bit table {proj.bit_string()}\n")
    return 0


def cmd_simulate(args, out):
    automata._check_grid(args.width, args.steps)  # before a row of that width is built
    if args.init is not None:
        init = args.init.strip()
    elif args.random:
        init = automata.random_row(args.width, args.seed)
    else:
        init = tuple(1 if x == args.width // 2 else 0 for x in range(args.width))
    if len(init) != args.width:
        raise RelcalcError(
            f"initial row has {len(init)} cells, width is {args.width}")
    rule = automata.wolfram_relation(args.number)
    traj = automata.simulate(rule, init, args.steps)
    out.write(automata.format_rows(traj))
    if args.check:
        consequences = structure.proper_consequences(rule.relation, codim=1)
        report = automata.check_trajectory(rule, traj, consequences)
        total = len(report.rule_violations) + len(report.consequence_violations)
        out.write(f"violations: {total}\n")
        return 0 if report.ok else 1
    return 0


def cmd_topology(args, out):
    if args.rule is not None:
        rel = automata.wolfram_relation(args.rule).relation
    else:
        rel = relfile.read_relation(args.file)
    complex_ = impose_topology(rel)
    simplices = complex_.sorted_simplices()
    out.write(f"maximal simplices ({len(simplices)}):\n")
    for simplex in simplices:
        out.write("  " + ",".join(simplex) + "\n")
    return 0


# Reports, or sections of one, that have no relation-record form.
_TEXT_ONLY_COMMANDS = ("simulate", "topology")
_TEXT_ONLY_FLAGS = {"rule": ("poly", "topology"), "life": ("poly", "decompose"),
                   "classify-all": ("consequence_1101",)}


def _refuse_text_only(args):
    """Raise UnsupportedError naming the command or flag records mode cannot print."""
    if args.command in _TEXT_ONLY_COMMANDS:
        raise UnsupportedError(f"{args.command} has no --format records output")
    for flag in _TEXT_ONLY_FLAGS.get(args.command, ()):
        if getattr(args, flag):
            raise UnsupportedError(
                f"--{flag.replace('_', '-')} has no --format records output")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="relcalc",
        description="Analyze discrete relations: decomposition, polynomials, automata.")
    parser.add_argument("--format", choices=("text", "records"), default="text",
                        help="report style; records parse back as relation files")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized inputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rule = sub.add_parser("rule", help="analyze one elementary rule")
    p_rule.add_argument("number", type=int)
    p_rule.add_argument("--poly", action="store_true",
                        help="include GF(2) polynomial forms")
    p_rule.add_argument("--topology", action="store_true",
                        help="include the induced maximal simplices")
    p_rule.set_defaults(func=cmd_rule)

    p_cls = sub.add_parser("classify-all", help="classify all 256 elementary rules")
    p_cls.add_argument("--expect", type=_counts, default=None, metavar="R,I,P",
                       help="exit 1 unless counts match, e.g. 118,138,2")
    p_cls.add_argument("--consequence-1101", action="store_true",
                       help="list rules whose two-point face consequence is 1101")
    p_cls.set_defaults(func=cmd_classify_all)

    p_life = sub.add_parser("life", help="analyze the Life rule relation")
    p_life.add_argument("--decompose", action="store_true",
                        help="walk the full decomposition tree")
    p_life.add_argument("--poly", action="store_true",
                        help="include the grouped polynomial form")
    p_life.add_argument("--symmetric", type=_point_list,
                        default=tuple(f"x{i}" for i in range(8)),
                        help="interchangeable points for consequence grouping")
    p_life.set_defaults(func=cmd_life)

    p_base = sub.add_parser("base", help="base relation of relation files")
    p_base.add_argument("files", nargs="+")
    p_base.set_defaults(func=cmd_base)

    p_proj = sub.add_parser("project", help="project a relation file onto a face")
    p_proj.add_argument("file")
    p_proj.add_argument("--onto", type=_point_list, required=True,
                        help="face points, comma or space separated")
    p_proj.set_defaults(func=cmd_project)

    p_sim = sub.add_parser("simulate", help="run a rule on a periodic row")
    p_sim.add_argument("number", type=int)
    p_sim.add_argument("--width", type=int, default=31)
    p_sim.add_argument("--steps", type=int, default=15)
    p_init = p_sim.add_mutually_exclusive_group()
    p_init.add_argument("--init", default=None, help="initial row of 0/1 characters")
    p_init.add_argument("--random", action="store_true",
                        help="random initial row (honors --seed)")
    p_sim.add_argument("--check", action="store_true",
                       help="verify every window against the rule and its consequences")
    p_sim.set_defaults(func=cmd_simulate)

    p_topo = sub.add_parser("topology", help="maximal simplices of a relation")
    p_source = p_topo.add_mutually_exclusive_group(required=True)
    p_source.add_argument("file", nargs="?")
    p_source.add_argument("--rule", type=int, default=None)
    p_topo.set_defaults(func=cmd_topology)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format == "records":
            _refuse_text_only(args)
        return args.func(args, sys.stdout)
    except (RelcalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
