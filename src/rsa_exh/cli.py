"""Command-line front end.

Subcommands: ``sweep`` (prediction tables over a prior grid), ``check``
(anti-exhaustivity region reports), ``simulate`` (raw recursion tables from
the generic engine), ``fit`` / ``compare`` (maximum-likelihood estimation and
AIC ranking), and ``synth`` (synthetic dataset generation).  All results go
to standard output as CSV or JSON; diagnostics go to standard error.  Exit
codes: 0 success, 2 usage error, 1 runtime error.

Command-line text becomes checked values here: argparse checks names and
counts, and a flag overrides a ``--params`` file's value of the same model
parameter before the merged values are validated together, once.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import (Predicate, SWEEP_COLUMNS, bwrsa_antiexh_threshold, require_grid_step,
                       scan_regions, sweep)
from .data import SynthDesign, parse_dataset, read_column_map, synth_generate, write_dataset
from .engine import iterate
from .fitting import FIT_COLUMNS, FitOptions, NoiseParams, compare, fit, fit_result_row
from .models import MissingParameter, ModelId, require_xi
from .oracles import canonical_scenario, oracle_predict_table
from .scenario import MESSAGES, WORLDS, ModelParams

SIMULATE_COLUMNS = ("level", "role", "given", "outcome", "probability")
CHECK_COLUMNS = ("model", "predicate", "interval_lo", "interval_hi", "omega_threshold")
_MODEL_NAMES = [m.value for m in ModelId]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_rows(rows: list[dict], columns, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, default=float) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    return out.getvalue()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to this file")


def _add_model_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, choices=_MODEL_NAMES)
    parser.add_argument("--params", default=None,
                        help="JSON object with numbers for lambda/delta_ab/delta_anb/xi; "
                             "a flag overrides the file's value, and the merged values "
                             "are validated together")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="rationality (positive)")
    parser.add_argument("--cost-ab", type=float, default=None,
                        help="cost of 'A and B' relative to 'A'")
    parser.add_argument("--cost-anb", type=float, default=None,
                        help="cost of 'A and not B' relative to 'A'")
    parser.add_argument("--xi", type=float, default=None,
                        help="extra prior (wonkiness or total-QUD prior)")


def _model_and_params(args, parser: argparse.ArgumentParser) -> tuple[ModelId, ModelParams]:
    """The model and one validated ModelParams from ``--params`` and the flags."""
    model = ModelId(args.model)
    values = {"lambda": None, "delta_ab": 0.0, "delta_anb": 0.0, "xi": None}  # ModelParams' order
    where = f"--params {args.params}: " if args.params else ""
    if args.params:
        text = Path(args.params).read_text(encoding="utf-8")  # OSError: a runtime error
        try:  # every JSON number is a float; "xi": null means no xi
            payload = json.loads(text, parse_int=float)
        except ValueError as exc:
            parser.error(f"{where}not JSON: {exc}")
        if not isinstance(payload, dict):
            parser.error(f"{where}must hold a JSON object")
        unknown = sorted(set(payload) - set(values))
        if unknown:
            parser.error(f"{where}unknown parameter keys: {unknown}")
        for key, value in payload.items():
            if not (isinstance(value, float) or key == "xi" and value is None):
                parser.error(f"{where}{key} must be a number, got {json.dumps(value)}")
        values.update(payload)
    for key, value in zip(values, (args.lam, args.cost_ab, args.cost_anb, args.xi)):
        if value is not None:
            values[key] = value
    if values["lambda"] is None:
        parser.error(f"{where}--lambda is required (directly or via --params)")
    try:
        params = ModelParams(*values.values())
        require_xi(model, params)
    except MissingParameter:
        parser.error(f"{where}{model.value} requires --xi")
    except ValueError as exc:
        parser.error(f"{where}{exc}")
    return model, params


def _load_dataset(args):
    text = Path(args.data).read_text(encoding="utf-8")
    column_map = None
    if getattr(args, "column_map", None):
        column_map = read_column_map(Path(args.column_map).read_text(encoding="utf-8"))
    dataset, errors = parse_dataset(text, column_map)
    for err in errors:
        print(f"warning: line {err.line}: {err.message}", file=sys.stderr)
    return dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsa-exh",
        description="Exhaustivity/anti-exhaustivity predictions, checks, and fits "
                    "for recursive speaker-listener models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="prediction table over a prior grid")
    _add_model_params(p_sweep)
    p_sweep.add_argument("--grid", type=_count, default=99,
                         help="number of evenly spaced interior priors")
    _add_common(p_sweep)

    p_check = sub.add_parser("check", help="anti-exhaustivity region report")
    _add_model_params(p_check)
    p_check.add_argument("--predicate", default=Predicate.LISTENER_ANTI_EXH.value,
                         choices=[pr.value for pr in Predicate])
    p_check.add_argument("--grid-step", type=float, default=0.005)
    _add_common(p_check)

    p_sim = sub.add_parser("simulate", help="raw recursion tables from the engine")
    _add_model_params(p_sim)
    p_sim.add_argument("--p", type=float, required=True,
                       help="conditional prior of the A-and-B world")
    p_sim.add_argument("--depth", type=_count, default=2)
    _add_common(p_sim)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit of one model")
    p_fit.add_argument("--model", required=True, choices=_MODEL_NAMES)
    _add_fit_args(p_fit)

    p_cmp = sub.add_parser("compare", help="fit several models, rank by AIC")
    p_cmp.add_argument("--models", type=_models, default="all",
                       help="'all' or comma-separated model names")
    _add_fit_args(p_cmp)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_model_params(p_synth)
    p_synth.add_argument("--sigma-a", type=float, required=True)
    p_synth.add_argument("--sigma-ab", type=float, required=True)
    p_synth.add_argument("--epsilon", type=float, required=True)
    p_synth.add_argument("--seed", type=_seed, default=0)
    p_synth.add_argument("--levels", type=int, default=SynthDesign.levels)
    p_synth.add_argument("--n-utt-a", type=int, default=SynthDesign.comprehension_a)
    p_synth.add_argument("--n-utt-ab", type=int, default=SynthDesign.comprehension_ab)
    p_synth.add_argument("--n-world-a", type=int, default=SynthDesign.production_a)
    p_synth.add_argument("--n-world-ab", type=int, default=SynthDesign.production_ab)
    p_synth.add_argument("--prior-mean", type=float, default=SynthDesign.prior_mean)
    p_synth.add_argument("--prior-sd", type=float, default=SynthDesign.prior_sd)
    p_synth.add_argument("--out", default=None)
    return parser


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _models(text: str) -> list[ModelId]:
    """``all`` or comma-separated model names."""
    if text.strip() == "all":
        return list(ModelId)
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name not in _MODEL_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown model {name!r}; choose 'all' or from {', '.join(_MODEL_NAMES)}")
    return [ModelId(name) for name in names]


def _add_fit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV")
    parser.add_argument("--column-map", default=None,
                        help="logical=actual column mapping file")
    parser.add_argument("--equal-costs", action="store_true",
                        help="constrain both conjunction costs to one value")
    parser.add_argument("--restarts", type=_count, default=32)
    parser.add_argument("--seed", type=_seed, default=0)
    _add_common(parser)


def _cmd_sweep(args, parser) -> str:
    model, params = _model_and_params(args, parser)
    rows = sweep(model, params, np.arange(1, args.grid + 1) / (args.grid + 1))
    return _write_rows(rows, SWEEP_COLUMNS, args.format)


def _cmd_check(args, parser) -> str:
    model, params = _model_and_params(args, parser)
    predicate = Predicate(args.predicate)
    try:
        require_grid_step(args.grid_step)
    except ValueError as exc:
        parser.error(f"--grid-step: {exc}")
    report = scan_regions(model, params, predicate, args.grid_step)
    threshold = (
        bwrsa_antiexh_threshold(params) if model is ModelId.BWRSA else None
    )
    if args.format == "json":
        payload = {
            "model": model.value,
            "predicate": predicate.value,
            "intervals": [list(iv) for iv in report.intervals],
        }
        if threshold is not None:
            payload["omega_threshold"] = threshold
        return json.dumps(payload, indent=2) + "\n"
    rows = [
        {"model": model.value, "predicate": predicate.value,
         "interval_lo": lo, "interval_hi": hi, "omega_threshold": threshold}
        for lo, hi in report.intervals or [(None, None)]
    ]
    return _write_rows(rows, CHECK_COLUMNS, "csv")


def _cmd_simulate(args, parser) -> str:
    model, params = _model_and_params(args, parser)
    if not 0.0 <= args.p <= 1.0:
        parser.error("--p must be in [0, 1]")
    rows = (
        _simulate_svrsa_rows(model, params, args.p, args.depth, parser)
        if model in (ModelId.SVRSA1, ModelId.SVRSA2)
        else _simulate_iterate_rows(model, params, args.p, args.depth)
    )
    return _write_rows(rows, SIMULATE_COLUMNS, args.format)


def _rows(level: int, role: str, table, givens, outcomes) -> list[dict]:
    """Simulate rows of a (givens, outcomes) probability table."""
    return [{"level": level, "role": role, "given": given, "outcome": outcome,
             "probability": float(table[g, o])}
            for g, given in enumerate(givens) for o, outcome in enumerate(outcomes)]


_WORLD_NAMES = [w.value for w in WORLDS]
_MESSAGE_NAMES = [m.value for m in MESSAGES]


def _simulate_iterate_rows(model, params, p, depth) -> list[dict]:
    scenario, kwargs = canonical_scenario(model, params, p)
    result = iterate(scenario, params.lam, depth, **kwargs)
    contextual = [f"{world}|{ctx}" for ctx in scenario.contexts for world in _WORLD_NAMES]
    rows = _rows(1, "speaker", np.exp(result.log_s1).reshape(len(contextual), -1),
                 contextual, _MESSAGE_NAMES)
    for n in range(1, depth + 1):
        rows += _rows(n, "listener", result.listener(n), _MESSAGE_NAMES, _WORLD_NAMES)
        if n >= 2:
            rows += _rows(n, "speaker", result.speaker(n), _WORLD_NAMES, _MESSAGE_NAMES)
    return rows


def _simulate_svrsa_rows(model, params, p, depth, parser) -> list[dict]:
    if depth > 2:
        parser.error("supervaluationist variants define levels 1 and 2 only")
    table = oracle_predict_table(model, params, p)
    rows = _rows(1, "listener", np.stack([table.post_a, table.post_ab]),
                 _MESSAGE_NAMES[:2], _WORLD_NAMES[1:])
    if depth >= 2:
        rows += _rows(2, "speaker", np.concatenate([table.prod_wa, table.prod_wab]),
                      _WORLD_NAMES, _MESSAGE_NAMES)
    return rows


def _fit_rows(results) -> list[dict]:
    """The serialized rows of ``results``; each fit with a parameter on a
    bound is named on stderr, with those parameters' values."""
    rows = [fit_result_row(result) for result in results]
    for result, row in zip(results, rows):
        if result.at_bounds:
            print(f"note: {result.model.value} fit at bound for: "
                  f"{', '.join(f'{name}={row[name]:g}' for name in result.at_bounds)}",
                  file=sys.stderr)
    return rows


def _cmd_fit(args, parser) -> str:
    options = FitOptions(restarts=args.restarts, seed=args.seed)
    dataset = _load_dataset(args)
    result = fit(ModelId(args.model), dataset, options=options, equal_costs=args.equal_costs)
    return _write_rows(_fit_rows([result]), FIT_COLUMNS, args.format)


def _cmd_compare(args, parser) -> str:
    options = FitOptions(restarts=args.restarts, seed=args.seed)
    dataset = _load_dataset(args)
    results = compare(args.models, dataset, options=options, equal_costs=args.equal_costs)
    return _write_rows(_fit_rows(results), FIT_COLUMNS, args.format)


def _cmd_synth(args, parser) -> str:
    model, params = _model_and_params(args, parser)
    try:
        noise = NoiseParams(args.sigma_a, args.sigma_ab, args.epsilon)
        design = SynthDesign(
            levels=args.levels,
            comprehension_a=args.n_utt_a,
            comprehension_ab=args.n_utt_ab,
            production_a=args.n_world_a,
            production_ab=args.n_world_ab,
            prior_mean=args.prior_mean,
            prior_sd=args.prior_sd,
        )
    except ValueError as exc:
        parser.error(str(exc))
    dataset = synth_generate(model, params, noise, design, seed=args.seed)
    return write_dataset(dataset)


_COMMANDS = {
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")

            def _show(message, category, *unused):
                print(f"warning: {message}", file=sys.stderr)

            warnings.showwarning = _show
            text = _COMMANDS[args.command](args, parser)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
