"""Span tracing from outside the package, and the per-layer metrics.

`Tracer.installed()` replaces public gbei functions under the names their
callers look up (module attributes, one class method) with wrappers that
record a span per call: (span id, parent span id, call id, name, start,
end, info).  Spans stay in memory; `layer_metrics` derives self times
(duration minus the direct children's durations) and counts from them,
and `write_spans` dumps them as JSON lines when the run ends.

The rings layer is not wrapped: its monomial helpers run millions of times
per spec, so their cost is left inside the groebner self times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict


def _entries(table):
    return len(table.entries)


def _faces(grouped):
    return sum(len(group) for group in grouped)


def _rows(report):
    counts = report.counts()
    return (counts["match"], counts["skipped"])


# (module, attribute, span name, info extractor); "Class.method" patches
# the method on the class.
TARGETS = (
    ("gbei.verify", "betti_table", "hochster.betti_table", _entries),
    ("gbei", "betti_table", "hochster.betti_table", _entries),
    ("gbei.hochster", "SimplicialComplex.faces_by_size", "hochster.faces", _faces),
    ("gbei.groebner", "buchberger", "groebner.buchberger", len),
    ("gbei.groebner", "normal_form", "groebner.normal_form", bool),
    ("gbei.verify", "intersect", "groebner.intersect", None),
    ("gbei.verify", "ideals_equal", "groebner.ideals_equal", None),
    ("gbei.verify", "hilbert_series", "hilbert.series", None),
    ("gbei.cli", "hilbert_series", "hilbert.series", None),
    ("gbei.verify", "cut_sets", "graphs.cut_sets", None),
    ("gbei.cli", "cut_sets", "graphs.cut_sets", None),
    ("gbei.verify", "predict", "formulas.predict", None),
    ("gbei.verify", "prime_component", "formulas.prime_component", None),
    ("gbei.verify", "verify", "verify.verify", _rows),
    ("gbei", "verify", "verify.verify", _rows),
    ("gbei.verify", "konig_check", "verify.konig_check", None),
    ("gbei.cli", "sweep", "verify.sweep", None),
    ("gbei.cli", "main", "cli.main", None),
)

_ROOT = "bench.call"


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self.call_id = 0

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                detail = info(result) if info and result is not None else None
                self.spans.append((sid, parent, self.call_id, name, start, end, detail))

        return wrapper

    def call(self, call_id, fn):
        """Run one workload call as a root span; spans inside share call_id."""
        self.call_id = call_id
        return self._wrap(_ROOT, fn, None)()

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, info in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, info))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def layer_metrics(spans):
    """Per-layer self times and counts of one traced pass."""
    name_of = {s[0]: s[3] for s in spans}
    child_time = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        child_time[parent] += end - start
    self_time = defaultdict(float)
    calls = defaultdict(int)
    info_sum = defaultdict(int)
    nf_under_bb = nf_nonzero = 0
    rows_match = rows_skipped = 0
    for sid, parent, _, name, start, end, detail in spans:
        self_time[name] += end - start - child_time[sid]
        calls[name] += 1
        if name == "verify.verify" and detail is not None:
            rows_match += detail[0]
            rows_skipped += detail[1]
        elif detail is not None:
            info_sum[name] += detail
        if name == "groebner.normal_form" and name_of.get(parent) == "groebner.buchberger":
            nf_under_bb += 1
            nf_nonzero += bool(detail)
    return {
        "hochster.betti_table_s": self_time["hochster.betti_table"],
        "hochster.faces_s": self_time["hochster.faces"],
        "hochster.sigma_count": calls["hochster.faces"],
        "hochster.face_count": info_sum["hochster.faces"],
        "hochster.betti_entries": info_sum["hochster.betti_table"],
        "groebner.buchberger_s": self_time["groebner.buchberger"],
        "groebner.buchberger_calls": calls["groebner.buchberger"],
        "groebner.normal_form_s": self_time["groebner.normal_form"],
        "groebner.normal_form_calls": calls["groebner.normal_form"],
        "groebner.useful_reduction_ratio": nf_nonzero / nf_under_bb if nf_under_bb else 0.0,
        "groebner.intersect_s": self_time["groebner.intersect"],
        "groebner.ideals_equal_s": self_time["groebner.ideals_equal"],
        "groebner.basis_elems": info_sum["groebner.buchberger"],
        "hilbert.series_s": self_time["hilbert.series"],
        "hilbert.series_calls": calls["hilbert.series"],
        "graphs.cut_sets_s": self_time["graphs.cut_sets"],
        "graphs.cut_sets_calls": calls["graphs.cut_sets"],
        "formulas.predict_s": self_time["formulas.predict"],
        "formulas.prime_component_s": self_time["formulas.prime_component"],
        "verify.verify_s": self_time["verify.verify"],
        "verify.konig_check_s": self_time["verify.konig_check"],
        "verify.sweep_s": self_time["verify.sweep"],
        "verify.rows_match": rows_match,
        "verify.rows_skipped": rows_skipped,
        "cli.main_s": self_time["cli.main"],
        "bench.glue_s": self_time[_ROOT],
        "trace.span_count": len(spans),
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def write_spans(spans, path):
    """Dump spans as JSON lines, one span per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, call_id, name, start, end, detail in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "call": call_id,
                                 "name": name, "start": start, "end": end,
                                 "info": detail}) + "\n")
