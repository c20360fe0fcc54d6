"""The benchmark workloads and their output checks.

Every workload is a closed loop with one caller: ``round(k)`` issues the
round's operations one after another and returns only when all have ended.
Inputs come from the seed alone (round ``k`` draws from ``(seed, k)``), so a
round can be re-run on identical inputs.  Only the operations themselves are
timed; the checks run between them, outside the timed regions.  Operations
look the program's functions up on their modules at call time, so the
tracer's wrappers see them; checks call names bound at import, which the
tracer leaves alone, except the engine oracle, whose time is a layer metric.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from rsa_exh import analysis, cli, data, fitting, models, oracles
from rsa_exh.analysis import Predicate, SWEEP_COLUMNS
from rsa_exh.data import SynthDesign, parse_dataset
from rsa_exh.fitting import FitOptions, NoiseParams
from rsa_exh.models import ModelId, XI_MODELS, predict_table
from rsa_exh.scenario import ModelParams

#: Generating point of the fit-compare data.
GEN_PARAMS = ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86)
GEN_NOISE = NoiseParams(sigma_a=0.33, sigma_ab=0.22, epsilon=0.022)

#: Datasets per fit-compare run, fitted in turn.  How many simplex steps a fit
#: takes depends on the data, so one dataset alone makes a noisy figure.
DATASETS = 3

#: Restarts per fit.  With one restart the WRSA fit misses the generating
#: loglik on about one seed in eight; with two it met it on 40 of 40.
RESTARTS = 2

#: Parameter draws span the fitting's initialisation box.
LAM_RANGE = (0.2, 30.0)
COST_RANGE = (0.01, 5.0)
XI_RANGE = (0.05, 0.95)

#: Scan draws per prior-scan round.  Scan time depends on how many region
#: boundaries a draw has, so one round scans many draws, spread over the box.
SCAN_DRAWS = 8
SWEEP_GRID = np.arange(1, 100) / 100
CHECK_GRID = np.arange(1, 200) / 200
ORACLE_TOL = 1e-9
SUM_TOL = 1e-9
CSV_SUM_TOL = 1e-6  # the CLI prints 9 significant digits

#: Contexts of the level-1 speaker in each engine-built model (``simulate``).
SIM_CONTEXTS = {"base": 1, "wrsa": 2, "bwrsa": 2, "free-lu": 3, "exh-lu": 3, "li1": 2, "li2": 2}


@dataclass
class RoundResult:
    """Latencies (s) per operation kind, plus the checks' verdicts."""

    ops: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    windows: list[tuple[float, float]] = field(default_factory=list)  # (start, end)
    busy_s: float = 0.0  # total of the timed operations

    def timed(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.ops.setdefault(kind, []).append(end - start)
            self.windows.append((start, end))
            self.busy_s += end - start

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _draw_params(rng: np.random.Generator, n: int) -> list[tuple[float, ...]]:
    """``n`` parameter draws (lam, delta_ab, delta_anb, xi), log-uniform in lam
    and the costs, stratified as a Latin hypercube so that every batch covers
    the box evenly."""
    cube = (np.argsort(rng.random((4, n)), axis=1) + rng.random((4, n))) / n
    lo = np.array([math.log(LAM_RANGE[0]), *[math.log(COST_RANGE[0])] * 2, XI_RANGE[0]])
    hi = np.array([math.log(LAM_RANGE[1]), *[math.log(COST_RANGE[1])] * 2, XI_RANGE[1]])
    point = lo[:, None] + cube * (hi - lo)[:, None]
    point[:3] = np.exp(point[:3])
    return [tuple(float(v) for v in column) for column in point.T]


def _params_for(model: ModelId, lam, dab, danb, xi) -> ModelParams:
    return ModelParams(lam=lam, delta_ab=dab, delta_anb=danb,
                       xi=xi if model in XI_MODELS else None)


def oracle_error(model: ModelId, params: ModelParams, grid=CHECK_GRID) -> float:
    """Largest absolute gap between the closed forms and the engine oracle."""
    fast = predict_table(model, params, grid)
    slow = oracles.oracle_predict_table(model, params, grid)
    return max(float(np.max(np.abs(getattr(fast, f) - getattr(slow, f))))
               for f in ("post_a", "post_ab", "prod_wa", "prod_wab"))


class FitCompare:
    """``compare`` of all nine models on synthetic WRSA datasets."""

    name = "fit-compare"
    trace_rounds = 1

    def __init__(self, seed: int, toy: bool):
        # No toy size: on fewer rows the simplex needs more evaluations, not fewer.
        self.seed = seed
        self.options = FitOptions(restarts=RESTARTS, seed=0)

    def setup(self) -> None:
        self.datasets = []
        for j in range(DATASETS):
            raw = data.synth_generate(ModelId.WRSA, GEN_PARAMS, GEN_NOISE, SynthDesign(),
                                      seed=DATASETS * self.seed + j)
            parsed, errors = data.parse_dataset(data.write_dataset(raw))
            if errors or len(parsed) != len(raw):
                raise RuntimeError(f"synthetic dataset did not round-trip: {errors[:3]}")
            self.datasets.append(data.preprocess(parsed))

    def prepare_checks(self) -> None:
        self.generating_loglik = [
            fitting.dataset_loglik(ModelId.WRSA, GEN_PARAMS, GEN_NOISE, d) for d in self.datasets]

    def warmup(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitting.fit(ModelId.BASE_RSA, self.datasets[0],
                        options=FitOptions(restarts=1, maxiter=30))

    def round(self, k: int) -> RoundResult:
        """Compare on dataset ``k`` (cyclically)."""
        r = RoundResult()
        j = k % DATASETS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = r.timed("compare", fitting.compare, list(ModelId), self.datasets[j],
                              options=self.options)
        r.attempted += len(results) - 1  # one operation per model fit
        logliks = {res.model.value: res.loglik for res in results}
        for model, loglik in logliks.items():
            if not math.isfinite(loglik):
                r.fail(f"{model}: best loglik is {loglik} on dataset {j}")
        if not logliks["wrsa"] >= self.generating_loglik[j]:
            r.fail(f"wrsa: best loglik {logliks['wrsa']:.6f} on dataset {j} is below the "
                   f"loglik {self.generating_loglik[j]:.6f} at the generating parameters")
        r.values = {"dataset": j, "loglik": logliks, "loglik_total": sum(logliks.values())}
        return r


class PriorScan:
    """Region scans and sweeps over many parameter draws, a large prior grid,
    and the CLI subcommands, for every model."""

    name = "prior-scan"
    trace_rounds = 3  # the CLI commands of three rounds cover all nine models

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.points = 10_000 if toy else 1_000_000

    def setup(self) -> None:
        self.grid = np.arange(1, self.points + 1) / (self.points + 1)

    def prepare_checks(self) -> None:
        pass

    def warmup(self) -> None:
        draw = _draw_params(np.random.default_rng(0), 1)[0]
        params = _params_for(ModelId.WRSA, *draw)
        analysis.scan_regions(ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH)
        analysis.sweep(ModelId.WRSA, params, SWEEP_GRID)
        oracle_error(ModelId.WRSA, params)
        for argv in cli_commands(0, 0, draw):
            run_cli(argv)

    def round(self, k: int) -> RoundResult:
        """``SCAN_DRAWS`` draws scanned and swept for every model (one
        ``scan_pass`` each); the large grid and the oracle check for every
        model, and the four CLI subcommands, on the first draw."""
        r = RoundResult()
        draws = _draw_params(np.random.default_rng([self.seed, k]), SCAN_DRAWS)
        for draw in draws:
            busy = r.busy_s
            self._each_model(r, draw, self._analysis)
            r.ops.setdefault("scan_pass", []).append(r.busy_s - busy)
        self._each_model(r, draws[0], self._grid_and_oracle)
        for argv in cli_commands(self.seed, k, draws[0]):
            code, text = r.timed("cli", run_cli, argv)
            problem = f"exit code {code}" if code else check_cli_output(argv, text)
            if problem:
                r.fail(f"rsa-exh {' '.join(argv[:3])}: {problem}")
        return r

    @staticmethod
    def _each_model(r: RoundResult, draw, step) -> None:
        for model in ModelId:
            params = _params_for(model, *draw)
            try:
                step(r, model, params)
            except Exception as exc:  # record and keep going: it counts as failed
                r.fail(f"{model.value} at {draw}: {type(exc).__name__}: {exc}")

    @staticmethod
    def _analysis(r: RoundResult, model: ModelId, params: ModelParams) -> None:
        for predicate in Predicate:
            r.timed("scan", analysis.scan_regions, model, params, predicate)
        rows = r.timed("sweep", analysis.sweep, model, params, SWEEP_GRID)
        if len(rows) != len(SWEEP_GRID) or tuple(rows[0]) != SWEEP_COLUMNS:
            r.fail(f"{model.value} at lam={params.lam:.6g}: sweep rows do not match SWEEP_COLUMNS")

    def _grid_and_oracle(self, r: RoundResult, model: ModelId, params: ModelParams) -> None:
        where = f"{model.value} at lam={params.lam:.6g}"
        table = r.timed("predict", models.predict_table, model, params, self.grid)
        r.values["predict_rows"] = r.values.get("predict_rows", 0) + len(table.p)
        worst = max(float(np.max(np.abs(table.prod_wa.sum(axis=1) - 1.0))),
                    float(np.max(np.abs(table.prod_wab.sum(axis=1) - 1.0))))
        if not worst <= SUM_TOL:
            r.fail(f"{where}: production rows sum to 1 only within {worst:.3g}")
        del table
        r.attempted += 1
        gap = oracle_error(model, params)
        if not gap <= ORACLE_TOL:
            r.fail(f"{where}: closed form is {gap:.3g} from the oracle")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``rsa_exh.cli.run`` in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def cli_commands(seed: int, k: int, draw) -> list[list[str]]:
    """Round ``k``'s four subcommands; models rotate so that three rounds
    cover all nine."""
    lam, dab, danb, xi = draw
    common = ["--lambda", repr(lam), "--cost-ab", repr(dab), "--cost-anb", repr(danb),
              "--xi", repr(xi)]
    names = [m.value for m in ModelId]
    model = [names[(4 * k + j) % len(names)] for j in range(4)]
    predicate = list(Predicate)[k % len(Predicate)].value
    return [
        ["synth", "--model", model[0], *common, "--sigma-a", "0.33", "--sigma-ab", "0.22",
         "--epsilon", "0.022", "--seed", str(seed + k)],
        ["sweep", "--model", model[1], *common, "--grid", str(len(SWEEP_GRID))],
        ["check", "--model", model[2], *common, "--predicate", predicate],
        ["simulate", "--model", model[3], *common, "--p", "0.7", "--depth", "2"],
    ]


def check_cli_output(argv: list[str], text: str) -> str | None:
    """What is wrong with a subcommand's CSV output, or None."""
    command, model = argv[0], argv[2]
    if command == "synth":
        d = SynthDesign()
        want = d.levels * (d.comprehension_a + d.comprehension_ab
                           + d.production_a + d.production_ab)
        dataset, errors = parse_dataset(text)
        if errors or len(dataset) != want:
            return f"{len(dataset)} rows and {len(errors)} errors, want {want} rows"
        return None
    header, *rows = list(csv.reader(io.StringIO(text)))
    if command == "sweep":
        want_header, want_rows = SWEEP_COLUMNS, len(SWEEP_GRID)
    elif command == "check":
        want_header, want_rows = cli.CHECK_COLUMNS, None
    else:
        want_header = cli.SIMULATE_COLUMNS
        want_rows = 8 if model.startswith("svrsa") else 6 * SIM_CONTEXTS[model] + 18
    if tuple(header) != tuple(want_header):
        return f"header {header} is not {list(want_header)}"
    if want_rows is not None and len(rows) != want_rows:
        return f"{len(rows)} rows, want {want_rows}"
    if command != "simulate" and (not rows or any(row[0] != model for row in rows)):
        return "rows missing or for another model"
    if command == "sweep":
        for row in rows:
            for lo in (7, 10):  # prod_wa_*, prod_wab_*
                if abs(sum(float(x) for x in row[lo:lo + 3]) - 1.0) > CSV_SUM_TOL:
                    return f"production row {row[lo:lo + 3]} does not sum to 1"
    if command == "simulate":
        return _check_simulate(rows, model)
    return None


def _check_simulate(rows, model: str) -> str | None:
    sums: dict[tuple, float] = {}
    for level, role, given, _, prob in rows:
        p = float(prob)
        if not 0.0 <= p <= 1.0:
            return f"probability {p} outside [0, 1]"
        proper = (role == "speaker" and level == "2") or (
            role == "listener" and not model.startswith("svrsa"))
        if proper:
            sums[(level, role, given)] = sums.get((level, role, given), 0.0) + p
    bad = [key for key, total in sums.items() if abs(total - 1.0) > CSV_SUM_TOL]
    return f"distributions {bad} do not sum to 1" if bad else None


WORKLOADS = {w.name: w for w in (FitCompare, PriorScan)}
