"""Traced run: spans and counters around the calls into each ssecalc layer.

Nothing under src/ changes.  ``Tracer.install`` replaces each probed
function at every module binding that holds it (the package imports with
``from .x import y``, so patching only the defining module would miss most
calls); ``uninstall`` puts the originals back.

A probe is one of three kinds:

* span: one in-memory record per call, ``(id, name, start, end, parent id,
  job, timed_s)``.  Used for calls that are few per job.
* timed: calls too frequent for a record each (``mul``,
  ``SSEEdge.__post_init__``, the ``codes`` layer).  Calls, total time and
  self time are summed per name.  Timed probes never enclose a span.
* counted: the number of calls only (``NonnegMatrix.__eq__``, tens of
  millions per explore job).  Their time stays in the caller's self time.

A span's self time is its duration minus the durations of its child spans
minus ``timed_s``, the time of the timed calls made directly under it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module under ssecalc, attribute, probe kind, metric name)
PROBES = (
    ("matrices", "mul", TIMED, "matrices.mul"),
    ("matrices", "NonnegMatrix.__eq__", COUNTED, "matrices.eq"),
    ("matrices", "core_indices", TIMED, "matrices.core_indices"),
    ("factorize", "factorizations", SPAN, "factorize.factorizations"),
    ("elementary", "SSEEdge.__post_init__", TIMED, "elementary.edge_validate"),
    ("elementary", "check_triangle", COUNTED, "elementary.check_triangle"),
    ("elementary", "code_from_edge", SPAN, "elementary.code_from_edge"),
    ("elementary", "edge_from_code", SPAN, "elementary.edge_from_code"),
    ("complexes", "explore", SPAN, "complexes.explore"),
    ("complexes", "compose_path", SPAN, "complexes.compose_path"),
    ("codes", "compose", TIMED, "codes.compose"),
    ("codes", "normalize", TIMED, "codes.normalize"),
    ("codes", "verify_inverse", TIMED, "codes.verify_inverse"),
    ("shifts", "DeterministicPresentation.from_graph", SPAN, "shifts.from_graph"),
    ("shifts", "language_difference_witness", SPAN, "shifts.witness"),
    ("refinement", "star_image", SPAN, "refinement.star_image"),
    ("refinement", "delta", SPAN, "refinement.delta"),
    ("refinement", "star_map_general", SPAN, "refinement.star_map_general"),
    ("refinement", "verify_refinement_axioms", SPAN, "refinement.verify_refinement_axioms"),
    ("williams", "decompose", SPAN, "williams.decompose"),
    ("degenerate", "deg_triangulate", SPAN, "degenerate.deg_triangulate"),
    ("degenerate", "normalize_path", SPAN, "degenerate.normalize_path"),
    ("degenerate", "DegSSEEdge.__post_init__", COUNTED, "degenerate.edge"),
    ("gsft", "bar", SPAN, "gsft.bar"),
    ("gsft", "mul_gstar", SPAN, "gsft.mul_gstar"),
    ("freudenthal", "_subdivision_cells", SPAN, "freudenthal.cells"),
    ("freudenthal", "chain_f", SPAN, "freudenthal.chain_f"),
    ("freudenthal", "chain_rho", SPAN, "freudenthal.chain_rho"),
    ("freudenthal", "boundary", SPAN, "freudenthal.boundary"),
    ("cli", "main", SPAN, "cli.main"),
)


# probe name -> (counter, amount read off the probed call's return value)
_RESULT_COUNTERS = {
    "factorize.factorizations": ("factorize.results", len),
    "elementary.check_triangle": ("elementary.check_triangle.true", bool),
    "shifts.from_graph": ("shifts.dfa_states", lambda p: p.n_states),
    "refinement.delta": ("refinement.markov", lambda v: v.in_h_n),
    "refinement.star_map_general": ("refinement.markov", lambda _code: 1),  # raises if not Markov
    "williams.decompose": ("williams.steps", len),
}


def _on_error(name: str, exc: BaseException, counts: Counter) -> None:
    if name == "factorize.factorizations" and type(exc).__name__ == "ResourceBoundError":
        counts["factorize.bound_errors"] += 1


_active: "Tracer | None" = None


def count(name: str, n: int = 1) -> None:
    """Add to a counter of the active tracer; does nothing when tracing is off."""
    if _active is not None:
        _active.counts[name] += n


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.timed_total: defaultdict = defaultdict(float)
        self.timed_self: defaultdict = defaultdict(float)
        self.job: str | None = None
        # frames: [span id (None for timed), start, child span time, timed child time]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- probes --------------------------------------------------------

    def _span_probe(self, name, fn):
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter
        hook = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, clock(), 0.0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                _on_error(name, exc, counts)
                raise
            finally:
                end = clock()
                stack.pop()
                parent = None
                if stack:
                    up = stack[-1]
                    parent = up[0]
                    up[2] += end - frame[1]
                spans.append((sid, name, frame[1], end, parent, self.job, frame[3]))
            if hook:
                counts[hook[0]] += hook[1](result)
            return result

        return probe

    def _timed_probe(self, name, fn):
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        total, own = self.timed_total, self.timed_self
        calls = name + ".calls"

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [None, clock(), 0.0, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                counts[calls] += 1
                total[name] += dur
                own[name] += dur - frame[2] - frame[3]
                if stack:
                    stack[-1][3] += dur

        return probe

    def _counted_probe(self, name, fn):
        counts = self.counts
        calls = name + ".calls"
        hook = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if hook:
                counts[hook[0]] += hook[1](result)
            return result

        return probe

    # -- install -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        global _active
        package = [m for n, m in list(sys.modules.items()) if n == "ssecalc" or n.startswith("ssecalc.")]
        make = {SPAN: self._span_probe, TIMED: self._timed_probe, COUNTED: self._counted_probe}
        for module, attr, kind, name in PROBES:
            mod = sys.modules["ssecalc." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(owner, meth, classmethod(make[kind](name, raw.__func__)))
                else:
                    self._set(owner, meth, make[kind](name, raw))
                continue
            fn = getattr(mod, attr)
            probe = make[kind](name, fn)
            for m in package:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, key, probe)
        _active = self

    def uninstall(self) -> None:
        global _active
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        _active = None

    # -- results -------------------------------------------------------

    def span_totals(self) -> tuple[Counter, defaultdict]:
        """Calls and self time per span name, computed from the span records."""
        child: defaultdict = defaultdict(float)
        for _sid, _name, start, end, parent, _job, _timed in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        for sid, name, start, end, _parent, _job, timed in self.spans:
            calls[name] += 1
            own[name] += end - start - child[sid] - timed
        return calls, own

    def write(self, path: Path, header: dict) -> None:
        record = dict(header)
        record["span_fields"] = ["id", "name", "start", "end", "parent", "job", "timed_child_s"]
        record["spans"] = self.spans
        record["counts"] = dict(self.counts)
        record["timed_total_s"] = dict(self.timed_total)
        record["timed_self_s"] = dict(self.timed_self)
        path.write_text(json.dumps(record))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, factor_cache_entries: int, overhead: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    calls, own = tr.span_totals()
    c, ts = tr.counts, tr.timed_self
    refinement_self = sum(v for k, v in own.items() if k.startswith("refinement."))
    verdicts = calls["refinement.delta"] + calls["refinement.star_map_general"]
    return {
        "matrices.mul.calls": (c["matrices.mul.calls"], "count"),
        "matrices.mul.self_s": (ts["matrices.mul"], "s"),
        "matrices.eq.calls": (c["matrices.eq.calls"], "count"),
        "matrices.core_indices.self_s": (ts["matrices.core_indices"], "s"),
        "factorize.factorizations.calls": (calls["factorize.factorizations"], "count"),
        "factorize.factorizations.self_s": (own["factorize.factorizations"], "s"),
        "factorize.results": (c["factorize.results"], "count"),
        "factorize.target_hit_ratio": (
            _ratio(c["factorize.target_hits"], c["factorize.target_searched"]), "ratio"),
        "factorize.bound_errors": (c["factorize.bound_errors"], "count"),
        "elementary.edges_built": (c["elementary.edge_validate.calls"], "count"),
        "elementary.edge_validate_s": (tr.timed_total["elementary.edge_validate"], "s"),
        "elementary.check_triangle.calls": (c["elementary.check_triangle.calls"], "count"),
        "elementary.code_from_edge.self_s": (own["elementary.code_from_edge"], "s"),
        "elementary.edge_from_code.self_s": (own["elementary.edge_from_code"], "s"),
        "complexes.explore.self_s": (own["complexes.explore"], "s"),
        "complexes.triangle_yield": (
            _ratio(c["elementary.check_triangle.true"], c["elementary.check_triangle.calls"]), "ratio"),
        "complexes.compose_path.self_s": (own["complexes.compose_path"], "s"),
        "codes.compose.calls": (c["codes.compose.calls"], "count"),
        "codes.compose.self_s": (ts["codes.compose"], "s"),
        "codes.normalize.calls": (c["codes.normalize.calls"], "count"),
        "codes.normalize.self_s": (ts["codes.normalize"], "s"),
        "codes.verify_inverse.self_s": (ts["codes.verify_inverse"], "s"),
        "shifts.dfa_builds": (calls["shifts.from_graph"], "count"),
        "shifts.dfa_states": (c["shifts.dfa_states"], "count"),
        "shifts.from_graph.self_s": (own["shifts.from_graph"], "s"),
        "shifts.witness.self_s": (own["shifts.witness"], "s"),
        "refinement.delta.calls": (calls["refinement.delta"], "count"),
        "refinement.star_map_general.calls": (calls["refinement.star_map_general"], "count"),
        "refinement.self_s": (refinement_self, "s"),
        "refinement.in_h_n_ratio": (_ratio(c["refinement.markov"], verdicts), "ratio"),
        "williams.decompose.self_s": (own["williams.decompose"], "s"),
        "williams.steps": (c["williams.steps"], "count"),
        "degenerate.deg_triangulate.self_s": (own["degenerate.deg_triangulate"], "s"),
        "degenerate.normalize_path.self_s": (own["degenerate.normalize_path"], "s"),
        "degenerate.edges_built": (c["degenerate.edge.calls"], "count"),
        "gsft.bar.self_s": (own["gsft.bar"], "s"),
        "gsft.mul_gstar.self_s": (own["gsft.mul_gstar"], "s"),
        "freudenthal.cells.calls": (calls["freudenthal.cells"], "count"),
        "freudenthal.cells.self_s": (own["freudenthal.cells"], "s"),
        "freudenthal.chain_f.self_s": (own["freudenthal.chain_f"], "s"),
        "freudenthal.chain_rho.self_s": (own["freudenthal.chain_rho"], "s"),
        "freudenthal.boundary.self_s": (own["freudenthal.boundary"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
        "sampling.factor_cache_entries": (factor_cache_entries, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
