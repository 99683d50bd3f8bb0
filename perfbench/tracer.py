"""Per-module spans for the traced benchmark run.

Nothing here lives in the library: ``install`` replaces each public
function of ``decomp_embed`` at the name its caller looks it up by (for
example ``embedding.decide_lp_membership`` and ``covering.sets_intersect``)
with a wrapper that records a span, and ``uninstall`` puts the originals
back.  Spans are kept in memory and written out when the run ends.

Per span name the recorder keeps the call count, the inclusive time of the
outermost calls (nested calls of the same name are not counted twice), and
the self time, which is the span's duration minus the time its direct child
spans cover.  ``exponents`` spans are only aggregated, not stored one by
one, because a query makes hundreds of them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> function names, wrapped in every loaded decomp_embed module
# that binds them (the names callers look them up by)
FUNCTION_SPANS = {
    "exponents": ("compound", "conjugate", "lower_conjugate"),
    "seqspace.membership": ("decide_lp_membership",),
    "seqspace.oracle": ("truncated_oracle",),
    "seqspace.weight_parse": ("expweight_from_json",),
    "embedding.decide": ("decide_sobolev",),
    "covering.adjacency": ("adjacency",),
    "covering.intersect": ("sets_intersect",),
    "covering.certify": ("certify_constants",),
    "covering.moderate": ("check_moderate",),
    "covering.neighbors": ("neighbors",),
    "covering.surrogate": ("norm_surrogate_check",),
    "cli": ("main",),
}
# span name -> methods, wrapped on every Family class that defines them
FAMILY_METHODS = {
    "families.parse": ("parse_params",),
    "families.quotient": ("quotient_weight", "khintchine_quotient"),
    "families.refined": ("refined_criteria",),
}
AGGREGATE_ONLY = {"exponents"}
# prefix of the stderr line on which cli_child.py reports its spans
TRACE_MARK = "PERFBENCH_TRACE "


class Recorder:
    def __init__(self):
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.query = 0
        self.built: set = set()

    def begin_query(self, query_id: int) -> None:
        self.query = query_id
        self.built.clear()

    def wrap(self, name: str, fn, on_result=None):
        rec = self
        keep = name not in AGGREGATE_ONLY

        def traced(*args, **kwargs):
            stack = rec.stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            rec.depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.depth[name] -= 1
                dur = t1 - t0
                rec.calls[name] += 1
                rec.self_time[name] += dur - frame[1]
                if rec.depth[name] == 0:
                    rec.incl[name] += dur
                if parent is not None:
                    parent[1] += dur
                if keep:
                    rec.spans.append((rec.query, name, parent[0] if parent else None, t0, t1))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- hooks

    def _on_adjacency(self, args, kwargs, result):
        covering = args[0] if args else kwargs.get("covering")
        radius = args[1] if len(args) > 1 else kwargs.get("radius")
        key = (id(covering), radius)
        if key in self.built:
            self.counts["adjacency_repeat"] += 1
        self.built.add(key)
        self.counts["window_sets"] += len(result[0])

    def _on_intersect(self, args, kwargs, result):
        if not result[1]:
            self.counts["intersect_uncertain"] += 1

    def _on_oracle(self, args, kwargs, result):
        if getattr(result, "verdict", None) == "Inconclusive":
            self.counts["oracle_inconclusive"] += 1

    def raw(self) -> dict:
        """Mergeable totals: every value is summed across recorders."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }



class Instrumentation:
    """Installs a recorder's wrappers into the loaded ``decomp_embed`` modules."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        rec = self.recorder
        hooks = {
            "covering.adjacency": rec._on_adjacency,
            "covering.intersect": rec._on_intersect,
            "seqspace.oracle": rec._on_oracle,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "decomp_embed" or n.startswith("decomp_embed."))]
        wrapped: dict[int, object] = {}
        for name, attrs in FUNCTION_SPANS.items():
            for attr in attrs:
                for mod in modules:
                    fn = mod.__dict__.get(attr)
                    if callable(fn) and getattr(fn, "__module__", "").startswith("decomp_embed"):
                        if id(fn) not in wrapped:
                            wrapped[id(fn)] = rec.wrap(name, fn, hooks.get(name))
                        self._replace(mod, attr, wrapped[id(fn)])

        exponents = sys.modules.get("decomp_embed.exponents")
        ext = getattr(exponents, "ExtExponent", None)
        if ext is not None and "__init__" in ext.__dict__:
            self._replace(ext, "__init__", rec.wrap("exponents", ext.__dict__["__init__"]))

        families = sys.modules.get("decomp_embed.families")
        base = getattr(families, "Family", None)
        if base is not None:
            classes = [c for c in vars(families).values()
                       if isinstance(c, type) and issubclass(c, base)]
            for name, attrs in FAMILY_METHODS.items():
                for cls in classes:
                    for attr in attrs:
                        if attr in cls.__dict__:
                            self._replace(cls, attr, rec.wrap(name, cls.__dict__[attr]))

        weights = sys.modules.get("decomp_embed.weights")
        cw = getattr(weights, "CoveringWeight", None)
        if cw is not None and "evaluate" in cw.__dict__:
            self._replace(cw, "evaluate", rec.wrap("weights.evaluate", cw.__dict__["evaluate"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


PER_LAYER = (
    ("exponents.calls", "count"),
    ("exponents.time_s", "s"),
    ("families.quotient_calls", "count"),
    ("families.quotient_time_s", "s"),
    ("families.parse_time_s", "s"),
    ("families.refined_time_s", "s"),
    ("seqspace.membership_calls", "count"),
    ("seqspace.membership_time_s", "s"),
    ("embedding.decide_calls", "count"),
    ("embedding.self_time_s", "s"),
    ("seqspace.oracle_calls", "count"),
    ("seqspace.oracle_time_s", "s"),
    ("seqspace.oracle_inconclusive_frac", "fraction"),
    ("seqspace.weight_parse_time_s", "s"),
    ("covering.adjacency_calls", "count"),
    ("covering.adjacency_time_s", "s"),
    ("covering.window_sets", "count"),
    ("covering.adjacency_repeat_frac", "fraction"),
    ("covering.intersect_calls", "count"),
    ("covering.intersect_time_s", "s"),
    ("covering.intersect_uncertain_frac", "fraction"),
    ("covering.certify_time_s", "s"),
    ("covering.moderate_time_s", "s"),
    ("covering.neighbors_time_s", "s"),
    ("covering.surrogate_time_s", "s"),
    ("weights.evaluate_calls", "count"),
    ("weights.evaluate_time_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.import_pkg_s", "s"),
    ("cli.self_time_s", "s"),
    ("trace.queries", "count"),
    ("trace.overhead_pct", "%"),
)


def write_spans(spans, path) -> None:
    """One JSON line per span: query id, name, parent span name, start, end."""
    with open(path, "w") as fh:
        for query, name, parent, t0, t1 in spans:
            fh.write(json.dumps({"query": query, "name": name, "parent": parent,
                                 "start": t0, "end": t1}) + "\n")


def merge(raws: list[dict]) -> dict:
    """Sum the ``Recorder.raw`` totals of several processes."""
    out = {"calls": defaultdict(int), "incl": defaultdict(float),
           "self": defaultdict(float), "counts": defaultdict(int)}
    for raw in raws:
        for part, values in raw.items():
            for key, value in values.items():
                out[part][key] += value
    return out


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values (without the cli import and trace entries)."""
    calls = defaultdict(int, raw["calls"])
    incl = defaultdict(float, raw["incl"])
    self_time = defaultdict(float, raw["self"])
    counts = defaultdict(int, raw["counts"])

    def frac(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "exponents.calls": calls["exponents"],
        "exponents.time_s": incl["exponents"],
        "families.quotient_calls": calls["families.quotient"],
        "families.quotient_time_s": incl["families.quotient"],
        "families.parse_time_s": incl["families.parse"],
        "families.refined_time_s": incl["families.refined"],
        "seqspace.membership_calls": calls["seqspace.membership"],
        "seqspace.membership_time_s": incl["seqspace.membership"],
        "embedding.decide_calls": calls["embedding.decide"],
        "embedding.self_time_s": self_time["embedding.decide"],
        "seqspace.oracle_calls": calls["seqspace.oracle"],
        "seqspace.oracle_time_s": incl["seqspace.oracle"],
        "seqspace.oracle_inconclusive_frac": frac(counts["oracle_inconclusive"],
                                                  calls["seqspace.oracle"]),
        "seqspace.weight_parse_time_s": incl["seqspace.weight_parse"],
        "covering.adjacency_calls": calls["covering.adjacency"],
        "covering.adjacency_time_s": incl["covering.adjacency"],
        "covering.window_sets": counts["window_sets"],
        "covering.adjacency_repeat_frac": frac(counts["adjacency_repeat"],
                                               calls["covering.adjacency"]),
        "covering.intersect_calls": calls["covering.intersect"],
        "covering.intersect_time_s": incl["covering.intersect"],
        "covering.intersect_uncertain_frac": frac(counts["intersect_uncertain"],
                                                  calls["covering.intersect"]),
        "covering.certify_time_s": incl["covering.certify"],
        "covering.moderate_time_s": incl["covering.moderate"],
        "covering.neighbors_time_s": incl["covering.neighbors"],
        "covering.surrogate_time_s": incl["covering.surrogate"],
        "weights.evaluate_calls": calls["weights.evaluate"],
        "weights.evaluate_time_s": incl["weights.evaluate"],
        "cli.self_time_s": self_time["cli"],
    }
