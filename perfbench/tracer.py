"""Tracing from outside the library, for the benchmark's traced run.

The library is not edited: the tracer swaps wrappers in for its public
functions, in every ``groupmatch`` namespace that holds them (``theorems``
and ``cli`` import most of them by name), and swaps the originals back
when the traced phase ends.

Three kinds of wrapper:

* span  -- keeps one (name, start, end, parent) record per call, in memory;
* hot   -- aggregated only (calls, total and self time), for leaves called
           hundreds of thousands of times per run;
* count -- counts calls and takes no clock reading at all.

Self time is a call's duration minus the time of the timed calls nested
directly inside it, so the self times of all timed wrappers add up to the
traced time without double counting.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# The theorems function behind each ``verify --checks`` name, plus the lattice check.
THEOREM_ENTRY_POINTS = {
    "kemperman": "sweep_kemperman",
    "corollary": "sweep_corollary",
    "olson": "sweep_olson",
    "automatching": "check_automatching",
    "matching-property": "check_matching_property",
    "hall": "sweep_hall",
    "lattice": "check_lattice_matching",
}


class Tracer:
    """Wrappers, their call statistics and the kept spans of one traced run."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list = []              # (name, start, end, parent id)
        self._child_s = [0.0]              # child time of each open timed call
        self._open = [None]                # ids of open kept spans
        self._patches: list = []
        self.origin = perf_counter()

    def wrap(self, name: str, fn, kind: str = "span", observe=None):
        """A wrapper for fn that records under ``name``.

        ``observe(counters, args, result)`` runs after each call that
        returns, to derive counts such as graph edges from the result.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        if kind == "count":
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return counted

        child_s, open_ids, spans, counters = self._child_s, self._open, self.spans, self.counters
        keep = kind == "span"

        def timed(*args, **kwargs):
            child_s.append(0.0)
            if keep:
                sid = len(spans)
                spans.append(None)
                parent = open_ids[-1]
                open_ids.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - child_s.pop()
                child_s[-1] += duration
                if keep:
                    open_ids.pop()
                    spans[sid] = (name, start, end, parent)
            if observe is not None:
                observe(counters, args, result)
            return result
        return timed

    def patch_function(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every loaded groupmatch module."""
        found = False
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != "groupmatch":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not bound in any groupmatch module")

    def patch_method(self, cls, attr: str, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as JSON lines ``[id, name, start, end, parent]``,
        times in seconds from tracer creation, after one header line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "name", "start", "end", "parent"]}) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps([sid, name, round(start - self.origin, 7),
                                      round(end - self.origin, 7), parent]) + "\n")


def install(tracer: Tracer, gm) -> None:
    """Wrap the public functions whose metrics the benchmark reports.

    ``gm`` is the imported ``groupmatch`` package.
    """
    groups, subsets, matching, theorems, reports, cli = (
        gm.groups, gm.subsets, gm.matching, gm.theorems, gm.reports, gm.cli)

    tracer.patch_method(groups.GroupTable, "__init__",
                        tracer.wrap("groups.GroupTable", groups.GroupTable.__init__))
    for cls in (groups.GroupTable, groups.LatticeGroup):
        tracer.patch_method(cls, "check_element",
                            tracer.wrap("groups.check_element", cls.check_element, "count"))
    tracer.patch_method(subsets.GroupSubset, "__init__",
                        tracer.wrap("subsets.GroupSubset", subsets.GroupSubset.__init__, "hot"))

    def function(name, fn, kind="span", observe=None):
        tracer.patch_function(fn, tracer.wrap(name, fn, kind, observe))

    function("groups.enumerate_subgroups", groups.enumerate_subgroups)
    for fn in (subsets.product_set, subsets.unique_products,
               subsets.candidate_set, subsets.stable_set):
        function(f"subsets.{fn.__name__}", fn, "hot")

    def graph_observed(counters, args, graph):
        counters["matching.graph_edges"] += sum(len(row) for row in graph.adjacency)
        counters["matching.products_scanned"] += len(args[0]) * len(args[1])

    def result_observed(counters, args, result):
        counters["matching.violators"] += isinstance(result, matching.HallViolator)

    function("matching.build_graph", matching.build_graph, observe=graph_observed)
    function("matching.find_matching", matching.find_matching, observe=result_observed)
    function("matching.brute_force_matching", matching.brute_force_matching)
    function("matching.verify_matching", matching.verify_matching)

    for check, attr in THEOREM_ENTRY_POINTS.items():
        def report_observed(counters, args, report, check=check):
            counters[f"theorems.{check}.instances"] += report.instances_tested
            counters[f"theorems.{check}.skipped"] += report.instances_skipped
        function(f"theorems.{check}", getattr(theorems, attr), observe=report_observed)

    def bytes_observed(counters, args, text):
        counters["reports.bytes"] += len(text.encode("utf-8"))

    function("reports.machine_json", reports.machine_json, observe=bytes_observed)
    function("cli.main", cli.main)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit); a ratio whose base is 0 reads 0."""
    stats, counters = tracer.stats, tracer.counters

    def ratio(part, base):
        return part / base if base else 0.0

    out = {}
    for name in ("groups.GroupTable", "groups.enumerate_subgroups", "subsets.GroupSubset"):
        out[f"{name}.calls"] = (stats[name][0], "count")
        out[f"{name}.s"] = (stats[name][1], "s")
    out["groups.check_element.calls"] = (stats["groups.check_element"][0], "count")
    instances = sum(counters[f"theorems.{check}.instances"] for check in THEOREM_ENTRY_POINTS)
    out["subsets.GroupSubset.per_instance"] = (
        ratio(stats["subsets.GroupSubset"][0], instances), "ratio")
    for name in ("subsets.product_set", "subsets.unique_products", "subsets.candidate_set",
                 "subsets.stable_set", "matching.build_graph", "matching.find_matching",
                 "matching.brute_force_matching", "matching.verify_matching"):
        out[f"{name}.calls"] = (stats[name][0], "count")
        out[f"{name}.self_s"] = (stats[name][2], "s")
    out["matching.graph_edges"] = (counters["matching.graph_edges"], "count")
    out["matching.edge_yield"] = (
        ratio(counters["matching.graph_edges"], counters["matching.products_scanned"]), "ratio")
    out["matching.violators"] = (counters["matching.violators"], "count")
    out["matching.violator_ratio"] = (
        ratio(counters["matching.violators"], stats["matching.find_matching"][0]), "ratio")
    for check in THEOREM_ENTRY_POINTS:
        out[f"theorems.{check}.s"] = (stats[f"theorems.{check}"][1], "s")
        out[f"theorems.{check}.instances"] = (counters[f"theorems.{check}.instances"], "count")
    for check in ("kemperman", "corollary"):
        out[f"theorems.{check}.skip_ratio"] = (
            ratio(counters[f"theorems.{check}.skipped"],
                  counters[f"theorems.{check}.instances"]), "ratio")
    out["cli.main.self_s"] = (stats["cli.main"][2], "s")
    out["reports.machine_json.calls"] = (stats["reports.machine_json"][0], "count")
    out["reports.machine_json.s"] = (stats["reports.machine_json"][1], "s")
    out["reports.bytes"] = (counters["reports.bytes"], "bytes")
    return out
