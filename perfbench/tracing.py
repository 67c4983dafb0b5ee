"""Spans around the public functions of acmpts, installed from outside.

``install`` replaces each traced function in every ``acmpts`` module
namespace that holds it (and ``SimplicialComplex.faces`` on its class)
with a wrapper that records a span: name, start, end and the span that
was open when it started.  ``rank_int`` gets one wrapper per caller, so
boundary ranks (through ``reisner_oracle``) and evaluation ranks (through
``hilbert_function``) are separate layers.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "grid_model": ("canonicalize",),
    "star_property": ("is_acm", "check_star", "find_path"),
    "level_structure": ("inclusion_property", "level_sets", "remove_level", "interface_set"),
    "reisner_oracle": ("is_cm", "cm_obstruction", "sr_complex", "link", "homology"),
    "hilbert_function": ("evaluation_rank", "hilbert_table", "delta_table"),
    "constructions": ("verify_layer_hf",),
}
FACES = "reisner_oracle.SimplicialComplex.faces"
RANK_LAYERS = {
    "reisner_oracle": "linalg.rank_int.boundary",
    "hilbert_function": "linalg.rank_int.evaluation",
}
ENTRY_POINTS = (
    "cli.main",
    "reisner_oracle.is_cm",
    "star_property.find_path",
    "hilbert_function.delta_table",
    "constructions.verify_layer_hf",
)
SPAN_NAMES = (
    [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    + [FACES]
    + list(RANK_LAYERS.values())
)


class Tracer:
    """In-memory span recorder.

    A span is ``[name index, start, end, parent span index or -1]``.
    Matrix sizes for the rank layers are counted before the span starts,
    so the counting is not part of the span's time.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        # rows, cols, nonzeros and rows * cols, summed over calls
        self.matrix = {name: [0, 0, 0, 0] for name in RANK_LAYERS.values()}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        self.names.append(name)
        index = len(self.names) - 1
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizes = self.matrix.get(name)  # set only for the rank layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizes is not None:
                m = args[0]
                rows, cols = len(m), len(m[0]) if len(m) else 0
                sizes[0] += rows
                sizes[1] += cols
                sizes[2] += sum(len(row) - row.count(0) for row in m)
                sizes[3] += rows * cols
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k}\t{self.names[name]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the already imported acmpts modules."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "acmpts"]
    for mod_name, fns in TRACED.items():
        owner = sys.modules[f"acmpts.{mod_name}"]
        for fn_name in fns:
            original = getattr(owner, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    cls = sys.modules["acmpts.reisner_oracle"].SimplicialComplex
    cls.faces = tracer.wrap(FACES, cls.faces)
    for mod_name, layer in RANK_LAYERS.items():
        m = sys.modules[f"acmpts.{mod_name}"]
        m.rank_int = tracer.wrap(layer, m.rank_int)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts, self and total times, ratios and span coverage.

    ``wall_s`` is the wall time of the traced operations; coverage is the
    share of it that top-level spans account for.
    """
    names = tracer.names
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child = [0.0] * len(spans)
    top_level = 0.0
    check_star_under_find_path = 0
    for name, start, end, parent in spans:
        duration = end - start
        calls[names[name]] += 1
        total[names[name]] += duration
        if parent < 0:
            top_level += duration
        else:
            child[parent] += duration
            if (
                names[name] == "star_property.check_star"
                and names[spans[parent][0]] == "star_property.find_path"
            ):
                check_star_under_find_path += 1
    self_s: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _) in enumerate(spans):
        self_s[names[name]] += end - start - child[k]

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        if name in ENTRY_POINTS:
            metrics[f"{name}.total_s"] = total[name]
    for name, (rows, cols, nnz, _) in tracer.matrix.items():
        metrics[f"{name}.rows"] = rows
        metrics[f"{name}.cols"] = cols
        metrics[f"{name}.nnz"] = nnz
    metrics["reisner_oracle.homology_per_link"] = _ratio(
        calls["reisner_oracle.homology"], calls["reisner_oracle.link"]
    )
    metrics["star_property.check_star_per_find_path"] = _ratio(
        check_star_under_find_path, calls["star_property.find_path"]
    )
    _, _, nnz, cells = tracer.matrix["linalg.rank_int.boundary"]
    metrics["linalg.rank_int.boundary.density"] = _ratio(nnz, cells)
    metrics["trace.coverage"] = _ratio(top_level, wall_s)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
