"""Spans and counters around relcalc's public functions, from outside the package.

The tracer wraps every public function defined in the layer modules
(relation, structure, gfpoly, automata, relfile, cli) and swaps the
wrapper in for every name bound to the original in any loaded relcalc
module, package re-exports included, since modules import each other's
names with `from .relation import extend`.  uninstall() puts the
originals back.

Entry points record a span (name, start, end, parent).  Per-cell
helpers only count calls, and generator functions count what they
iterate, because a span around a generator call measures nothing.
Spans live in flat arrays and are written out once, at the end.
"""

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("relation", "structure", "gfpoly", "automata", "relfile", "cli")
COUNT_ONLY = {"decode_point", "encode_point", "contains"}

# Per-layer metrics, per traced op unless a ratio.  A layer's self time
# excludes its child spans; harness.self_s is the benchmark's own share
# of each op (argument building, output capture) outside any layer.
# trace.layer_share is the layers' self time, harness excluded, over the
# traced wall: how much of the wall the six layers account for.
PER_LAYER = (
    ("relation.self_s", "s/op"),
    ("relation.extend.self_s", "s/op"),
    ("relation.project.self_s", "s/op"),
    ("relation.cells", "count/op"),
    ("relation.decode_point.calls", "count/op"),
    ("relation.unique_ratio", "ratio"),
    ("relation.calls", "count/op"),
    ("relation.contains.calls", "count/op"),
    ("structure.self_s", "s/op"),
    ("structure.proper_consequences.calls", "count/op"),
    ("structure.faces", "count/op"),
    ("structure.unique_ratio", "ratio"),
    ("structure.decomposition_tree.self_s", "s/op"),
    ("structure.group_by_symmetry.self_s", "s/op"),
    ("structure.base_relation.self_s", "s/op"),
    ("gfpoly.self_s", "s/op"),
    ("gfpoly.relation_to_polynomial.self_s", "s/op"),
    ("gfpoly.polynomial_to_relation.self_s", "s/op"),
    ("gfpoly.interp_cells", "count/op"),
    ("gfpoly.terms_out", "count/op"),
    ("gfpoly.multiply.calls", "count/op"),
    ("automata.self_s", "s/op"),
    ("automata.simulate.self_s", "s/op"),
    ("automata.check_trajectory.self_s", "s/op"),
    ("automata.windows", "count/op"),
    ("relfile.self_s", "s/op"),
    ("relfile.records", "count/op"),
    ("relfile.bytes", "count/op"),
    ("cli.self_s", "s/op"),
    ("cli.calls", "count/op"),
    ("harness.self_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_share", "ratio"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.keys = {"relation": set(), "structure": set()}
        self.wrappers = {}
        self.patched = []
        self._build()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # --- wrappers ------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        nid = self._name_id(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def generator(self, name, fn, before=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            if before is not None:
                before(*args, **kwargs)
            for item in fn(*args, **kwargs):
                counts[f"{name}.items"] += 1
                yield item

        return counted

    # --- per-function hooks: work counted from argument and result sizes -----

    def _hooks(self, layer, fname):
        counts, keys = self.counts, self.keys
        if (layer, fname) == ("relation", "extend"):
            def before(rel, superdomain):
                counts["relation.cells"] += superdomain.size
                keys["relation"].add(("extend", rel.domain.points, rel.bits, superdomain.points))
            return before, None
        if (layer, fname) == ("relation", "project"):
            def before(rel, subdomain):
                face = subdomain.points if hasattr(subdomain, "points") else tuple(subdomain)
                keys["relation"].add(("project", rel.domain.points, rel.bits, face))
            return before, None
        if (layer, fname) == ("relation", "members"):
            def before(rel):
                counts["relation.cells"] += rel.bits.bit_length()
            return before, None
        if (layer, fname) == ("relation", "permute_points"):
            def before(rel, new_order):
                counts["relation.cells"] += rel.domain.size
            return before, None
        if (layer, fname) == ("structure", "proper_consequences"):
            def before(rel, codim=None):
                keys["structure"].add((rel.domain.points, rel.bits))
            return before, None
        if (layer, fname) == ("gfpoly", "relation_to_polynomial"):
            def before(rel):
                counts["gfpoly.interp_cells"] += rel.domain.size - rel.bits.bit_count()

            def after(poly):
                counts["gfpoly.terms_out"] += len(poly.terms)
            return before, after
        if (layer, fname) == ("automata", "check_trajectory"):
            def before(rule, traj, consequences=None):
                counts["automata.windows"] += traj.steps * traj.width
            return before, None
        if (layer, fname) == ("relfile", "parse_relations"):
            def before(text):
                counts["relfile.bytes"] += len(text)

            def after(records):
                counts["relfile.records"] += len(records)
            return before, after
        if (layer, fname) == ("relfile", "format_relation"):
            def after(text):
                counts["relfile.bytes"] += len(text)
                counts["relfile.records"] += 1
            return None, after
        return None, None

    def _build(self):
        for layer in LAYERS:
            module = sys.modules[f"relcalc.{layer}"]
            for fname, fn in vars(module).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{fname}"
                if fname in COUNT_ONLY:
                    wrapper = self.counter(f"{name}.calls", fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self.generator(name, fn, self._hooks(layer, fname)[0])
                else:
                    wrapper = self.span(name, fn, *self._hooks(layer, fname))
                self.wrappers[id(fn)] = (fn, wrapper)

    def install(self):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "relcalc" and not mod_name.startswith("relcalc."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self.wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self.patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # --- op boundaries and results ----------------------------------------------

    def begin_op(self):
        """Open the harness span that parents one op's top-level calls."""
        for seen in self.keys.values():
            seen.clear()
        idx = len(self.span_name)
        self.span_name.append(self._name_id("harness.op"))
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def end_op(self, idx):
        self.span_end[idx] = perf_counter()
        del self.stack[1:]
        self.counts["relation.distinct"] += len(self.keys["relation"])
        self.counts["structure.distinct"] += len(self.keys["structure"])

    def self_times(self):
        """Self seconds per span name: duration minus what child spans cover."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        by_name = Counter()
        names = self.span_name
        for i in range(n):
            by_name[self.names[names[i]]] += ends[i] - starts[i] - child[i]
        calls = Counter(self.names[i] for i in names)
        return by_name, calls

    def write_spans(self, path):
        """One line per span: id, parent id, name, start, end (seconds)."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                handle.write(f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                             f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")

    def layer_metrics(self, ops, plain_s, traced_s):
        """The PER_LAYER values for `ops` traced ops that took traced_s (plain_s untraced)."""
        self_s, calls = self.self_times()
        layer_s = Counter()
        for name, seconds in self_s.items():
            layer_s[name.split(".")[0]] += seconds
        counts = Counter(self.counts)
        for name, n in calls.items():
            counts[f"{name}.calls"] += n
        for name, n in list(counts.items()):
            if name.endswith(".calls") and name.count(".") == 2:
                counts[name.split(".")[0] + ".calls"] += n
        counts["structure.faces"] = counts["structure.proper_faces.items"]
        counts["cli.calls"] = counts["cli.main.calls"]
        kernel_calls = counts["relation.extend.calls"] + counts["relation.project.calls"]
        out = {}
        for name, unit in PER_LAYER:
            layer, _, rest = name.partition(".")
            if name == "relation.unique_ratio":
                value = counts["relation.distinct"] / kernel_calls if kernel_calls else 0.0
            elif name == "structure.unique_ratio":
                analysed = counts["structure.proper_consequences.calls"]
                value = counts["structure.distinct"] / analysed if analysed else 0.0
            elif name == "trace.overhead_ratio":
                value = traced_s / plain_s
            elif name == "trace.layer_share":
                value = sum(t for n, t in layer_s.items() if n != "harness") / traced_s
            elif rest == "self_s":
                value = layer_s[layer] / ops
            elif name.endswith(".self_s"):
                value = self_s[name.removesuffix(".self_s")] / ops
            else:
                value = counts[name] / ops
            out[name] = {"value": value, "unit": unit}
        return out
