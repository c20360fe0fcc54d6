"""Span tracing of ``rsa_exh`` layers, installed from outside the package.

:func:`install` replaces the public entry point of each layer, in every
loaded ``rsa_exh`` module that refers to it, with a wrapper that records a
span: name, tag (model or subcommand), row count, start, end, parent span and
run id.  Spans stay in memory until :meth:`Tracer.dump`.  :func:`layer_metrics`
turns a span list into the per-layer metrics of ``BENCHMARK.json``; a layer's
self time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import bisect
import importlib
import json
import math
import sys
import time

import numpy as np

MODELS = ("base", "wrsa", "bwrsa", "svrsa1", "svrsa2", "free-lu", "exh-lu", "li1", "li2")
SUBCOMMANDS = ("synth", "sweep", "check", "simulate")

#: Calls with more rows than this are throughput-bound ("bulk"); smaller
#: calls are overhead-bound.  Splits ``ns_per_row`` from ``us_per_call``.
BULK_ROWS = 1000

RAISED = "raised"

FIELDS = ("name", "tag", "rows", "start", "end", "parent", "run", "note")
NAME, TAG, ROWS, START, END, PARENT, RUN, NOTE = range(len(FIELDS))


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0

    def wrap(self, name, fn, tag=None, rows=None, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, tag(args, kwargs) if tag else "",
                    rows(args, kwargs) if rows else 0, 0.0, 0.0,
                    stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                stack.pop()
                span[NOTE] = RAISED
                raise
            span[END] = clock()
            stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def _model_tag(args, kwargs):
    return (args[0] if args else kwargs["model"]).value


def _rows(args, kwargs):
    return int(np.size(args[2] if len(args) > 2 else kwargs["p"]))


def _fit_note(result):
    return [result.loglik, bool(result.converged), len(result.at_bounds)]


def _loglik_note(result):
    return result if math.isfinite(result) else None


#: (span name, module, attribute, tag, rows, note) for each layer entry point.
ENTRY_POINTS = (
    ("models.predict_table", "rsa_exh.models", "predict_table", _model_tag, _rows, None),
    ("fitting.compare", "rsa_exh.fitting", "compare", None, None, None),
    ("fitting.fit", "rsa_exh.fitting", "fit", _model_tag, None, _fit_note),
    ("fitting.loglik", "rsa_exh.fitting", "_packed_loglik", _model_tag, None, _loglik_note),
    ("data.synth", "rsa_exh.data", "synth_generate", None, None, None),
    ("data.write", "rsa_exh.data", "write_dataset", None, None, None),
    ("data.parse", "rsa_exh.data", "parse_dataset", None, None, None),
    ("data.preprocess", "rsa_exh.data", "preprocess", None, None, None),
    ("analysis.scan_regions", "rsa_exh.analysis", "scan_regions", None, None, None),
    ("analysis.sweep", "rsa_exh.analysis", "sweep", None, None, None),
    ("analysis.predicate", "rsa_exh.analysis", "_predicate_values", None, None, None),
    ("oracles.oracle_predict_table", "rsa_exh.oracles", "oracle_predict_table",
     _model_tag, None, None),
    ("engine.iterate", "rsa_exh.engine", "iterate", None, None, None),
    ("cli.run", "rsa_exh.cli", "run", lambda a, k: (a[0] if a else k["argv"])[0], None, None),
)


def _rsa_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rsa_exh" or name.startswith("rsa_exh."))]


def patch(original, replacement) -> list:
    """Point every ``rsa_exh`` module reference to ``original`` at
    ``replacement``; returns the (module, attribute) pairs changed."""
    changed = []
    for module in _rsa_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def install(tracer: Tracer):
    """Wrap each layer's entry points; returns a function that undoes it."""
    undo = []
    for name, module_name, attr, tag, rows, note in ENTRY_POINTS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(name, original, tag, rows, note)
        undo.extend((mod, a, original) for mod, a in patch(original, wrapper))
    packed = importlib.import_module("rsa_exh.fitting")._PackedData
    original = packed.__dict__["from_dataset"]
    packed.from_dataset = classmethod(tracer.wrap("fitting.pack", original.__func__))
    undo.append((packed, "from_dataset", original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Span list -> per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def time_in_windows(spans, windows) -> float:
    """Span time (summed self times) of the call trees that started inside
    one of the ``(start, end)`` windows."""
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    inside = []
    total = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span[PARENT] >= 0:
            inside.append(inside[span[PARENT]])
        else:
            i = bisect.bisect_right(starts, span[START]) - 1
            inside.append(i >= 0 and span[END] <= windows[i][1])
        total += own if inside[-1] else 0.0
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _layer_entries(spans):
    """Index of the outermost ancestor in the same layer, for every span."""
    entry = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        same = parent >= 0 and _layer(spans[parent][NAME]) == _layer(span[NAME])
        entry.append(entry[parent] if same else i)
    return entry


def _per_layer():
    per_model = [
        ("models.us_per_call.{}", "us", "lower"),
        ("models.ns_per_row.{}", "ns", "lower"),
        ("fitting.fit_s.{}", "s", "lower"),
        ("fitting.nfev.{}", "count", "lower"),
        ("fitting.loglik.{}", "nats", "higher"),
        ("oracles.oracle_predict_table_s.{}", "s", "lower"),
    ]
    return (
        [("models.predict_table.calls", "count", "lower"),
         ("models.predict_table.rows", "count", "lower"),
         ("models.predict_table.self_s", "s", "lower")]
        + [(pattern.format(m), unit, better) for pattern, unit, better in per_model
           for m in MODELS]
        + [("fitting.loglik_self_s", "s", "lower"),
           ("fitting.optimizer_self_s", "s", "lower"),
           ("fitting.inf_frac", "fraction", "lower"),
           ("fitting.converged_frac", "fraction", "higher"),
           ("fitting.at_bounds_count", "count", "lower"),
           ("fitting.pack_s", "s", "lower"),
           ("data.synth_s", "s", "lower"),
           ("data.write_s", "s", "lower"),
           ("data.parse_s", "s", "lower"),
           ("data.preprocess_s", "s", "lower"),
           ("analysis.scan_regions.calls", "count", "lower"),
           ("analysis.predicate_evals", "count", "lower"),
           ("analysis.scan_self_s", "s", "lower"),
           ("analysis.sweep_self_s", "s", "lower"),
           ("engine.iterate_s", "s", "lower"),
           ("cli.python_startup_s", "s", "lower"),
           ("cli.import_s", "s", "lower")]
        + [(f"cli.cmd_s.{sub}", "s", "lower") for sub in SUBCOMMANDS]
        + [("trace.wall_s", "s", "lower"),
           ("trace.overhead_s", "s", "lower"),
           ("trace.unattributed_s", "s", "lower")]
    )


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _per_layer()

#: Per-layer metrics that count work; they must repeat exactly at one seed.
COUNTS = tuple(
    name for name, unit, _ in PER_LAYER
    if unit == "count" and name != "fitting.at_bounds_count"
) + tuple(f"fitting.loglik.{m}" for m in MODELS)


def layer_metrics(spans, runs):
    """Per-layer metrics of the spans of the given run ids.

    Layers that did not run read 0.  The ``cli.*`` start-up metrics and the
    ``trace.*`` metrics are not span-based; the caller fills them in.
    """
    self_s = self_times(spans)
    entry = _layer_entries(spans)
    m: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}  # unknown keys raise

    small = {name: [0, 0.0] for name in MODELS}
    bulk = {name: [0, 0.0] for name in MODELS}
    fits = []
    nfev = {name: 0 for name in MODELS}
    inf = 0
    for i, span in enumerate(spans):
        if span[RUN] not in runs:
            continue
        name, tag, rows, dur = span[NAME], span[TAG], span[ROWS], span[END] - span[START]
        if name == "models.predict_table":
            m["models.predict_table.calls"] += 1
            m["models.predict_table.rows"] += rows
            m["models.predict_table.self_s"] += self_s[i]
            acc = bulk[tag] if rows > BULK_ROWS else small[tag]
            acc[0] += rows if rows > BULK_ROWS else 1
            acc[1] += self_s[i]
        elif name == "fitting.fit":
            m[f"fitting.fit_s.{tag}"] += dur
            m["fitting.optimizer_self_s"] += self_s[i]
            fits.append(span)
        elif name == "fitting.loglik":
            nfev[tag] += 1
            m["fitting.loglik_self_s"] += self_s[i]
            inf += span[NOTE] is None or span[NOTE] == RAISED
        elif name == "fitting.pack":
            m["fitting.pack_s"] += self_s[i]
        elif name.startswith("data."):
            m[f"{name}_s"] += self_s[i]
        elif name == "analysis.scan_regions":
            m["analysis.scan_regions.calls"] += 1
        elif name == "analysis.predicate":
            m["analysis.predicate_evals"] += 1
        elif name == "oracles.oracle_predict_table":
            m[f"oracles.oracle_predict_table_s.{tag}"] += dur
        elif name == "engine.iterate":
            m["engine.iterate_s"] += self_s[i]
        elif name == "cli.run":
            m[f"cli.cmd_s.{tag}"] += dur
        if name.startswith("analysis."):
            top = spans[entry[i]][NAME]
            if top == "analysis.scan_regions":
                m["analysis.scan_self_s"] += self_s[i]
            elif top == "analysis.sweep":
                m["analysis.sweep_self_s"] += self_s[i]

    for model in MODELS:
        calls, secs = small[model]
        m[f"models.us_per_call.{model}"] = 1e6 * secs / calls if calls else 0.0
        rows, secs = bulk[model]
        m[f"models.ns_per_row.{model}"] = 1e9 * secs / rows if rows else 0.0
        m[f"fitting.nfev.{model}"] = nfev[model]
        done = [s[NOTE][0] for s in fits if s[TAG] == model and s[NOTE] != RAISED]
        if done and math.isfinite(done[-1]):
            m[f"fitting.loglik.{model}"] = done[-1]
    total_nfev = sum(nfev.values())
    m["fitting.inf_frac"] = inf / total_nfev if total_nfev else 0.0
    notes = [s[NOTE] for s in fits if s[NOTE] != RAISED]
    m["fitting.converged_frac"] = sum(n[1] for n in notes) / len(notes) if notes else 0.0
    m["fitting.at_bounds_count"] = sum(n[2] for n in notes)
    return m
