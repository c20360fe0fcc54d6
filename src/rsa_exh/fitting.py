"""Joint maximum-likelihood fitting of production and comprehension data.

Comprehension slider responses are scored with a censored-normal (tobit)
likelihood around the model's posterior prediction, with separate noise
scales for the bare-message and conjunction conditions; production
categories are scored with an error-smoothed categorical likelihood.  The
total log-likelihood is maximized by multi-start Nelder-Mead on a
box-transformed parameter space, and models are compared by AIC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, log_ndtr, logit

from .data import (Condition, Dataset, MODEL_MESSAGES, N_CANDIDATE_MESSAGES, Survey, preprocess,
                   smoothed_production_probs)  # noqa: F401 (re-exported)
from .models import ModelId, ModelParams, XI_MODELS, predict_table


class NonfiniteLikelihood(ValueError):
    """An observation has probability zero and no error smoothing."""


class NoConvergence(UserWarning):
    """No restart of the simplex search met the convergence tolerances."""


@dataclass(frozen=True)
class NoiseParams:
    """Observation-noise parameters fitted alongside the model parameters."""

    sigma_a: float
    sigma_ab: float
    epsilon: float

    def __post_init__(self) -> None:
        if self.sigma_a <= 0 or self.sigma_ab <= 0:
            raise ValueError("comprehension noise scales must be positive")
        if self.epsilon < 0:
            raise ValueError("production error rate must be nonnegative")


@dataclass(frozen=True)
class Constraints:
    """Box bounds of the search space."""

    lam_max: float = 1000.0
    delta_max: float = 200.0
    sigma_max: float = 5.0


@dataclass(frozen=True)
class FitOptions:
    """Restart count, RNG seed, and simplex convergence tolerances."""

    restarts: int = 32
    seed: int = 0
    maxiter: int | None = None
    xatol: float = 1e-6
    fatol: float = 1e-9


@dataclass(frozen=True)
class FitResult:
    model: ModelId
    params: ModelParams | None
    noise: NoiseParams | None
    loglik: float
    n_params: int
    aic: float
    converged: bool
    n_restarts_used: int
    at_bounds: tuple[str, ...] = ()
    equal_costs: bool = False


#: Exact column set of serialized fit results.
FIT_COLUMNS = (
    "model", "lambda", "delta_ab", "delta_anb", "xi",
    "sigma_a", "sigma_ab", "epsilon", "loglik", "n_params", "aic", "converged",
)


def production_loglik(pred, observed, epsilon: float) -> float:
    """Log-likelihood of one production category under error smoothing.

    ``pred`` is the model's distribution over the three candidate messages
    and ``observed`` the produced category (a ``ResponseMessage`` or its
    index).  Smoothing mixes the prediction with a uniform error floor:
    (S + eps) / (1 + n*eps).
    """
    pred = np.asarray(pred, dtype=float)
    idx = observed if isinstance(observed, (int, np.integer)) else MODEL_MESSAGES.index(observed)
    numer = pred[idx] + epsilon
    if numer <= 0.0:
        raise NonfiniteLikelihood(
            "observed message has probability 0 and epsilon is 0"
        )
    return float(np.log(numer) - np.log1p(N_CANDIDATE_MESSAGES * epsilon))


def comprehension_loglik(pred: float, observed: float, sigma: float) -> float:
    """Tobit log-likelihood of one slider response.

    Normal noise of scale ``sigma`` around the predicted posterior, censored
    at the slider bounds: responses at exactly 0 or 1 are scored by the
    corresponding normal tail mass, interior responses by the density.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    responses = _SliderResponses.split(np.array([observed]))
    return float(responses.loglik(np.array([pred]), sigma)[0])


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class _SliderResponses:
    """Slider responses split by censoring: the positions of the responses at
    or below 0, at or above 1 and strictly inside, and the inside values."""

    low: np.ndarray
    high: np.ndarray
    inside: np.ndarray
    interior: np.ndarray

    @classmethod
    def split(cls, observed: np.ndarray) -> "_SliderResponses":
        low, high = observed <= 0.0, observed >= 1.0
        inside = np.flatnonzero(~(low | high))
        return cls(np.flatnonzero(low), np.flatnonzero(high), inside, observed[inside])

    def loglik(self, pred: np.ndarray, sigma: float) -> np.ndarray:
        """Per-response tobit log-likelihoods, in response order: each tail
        mass and density is evaluated only where it is the score."""
        out = np.empty(pred.shape)
        out[self.low] = log_ndtr((0.0 - pred[self.low]) / sigma)
        out[self.high] = log_ndtr(-(1.0 - pred[self.high]) / sigma)  # upper tail
        z = (self.interior - pred[self.inside]) / sigma
        out[self.inside] = -0.5 * z * z - _HALF_LOG_2PI - math.log(sigma)
        return out


@dataclass(frozen=True)
class _PackedData:
    """Column-major view of a preprocessed dataset for fast re-scoring.

    ``priors`` holds the raw priors of all rows, grouped by condition in the
    order UTT_A, UTT_AB, WORLD_A, WORLD_AB, so that one ``predict_table``
    call serves every condition.  ``comprehension`` has one entry
    ``(condition, rows, responses)`` per nonempty slider condition: the slice
    of ``priors`` it occupies and its :class:`_SliderResponses`.
    ``production`` has one entry ``(condition, rows, messages, labels)`` per
    nonempty production condition: its positions in ``priors``, the indices
    of the produced messages and the participant label of each row.
    """

    priors: np.ndarray
    comprehension: tuple
    production: tuple

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "_PackedData":
        dataset = preprocess(dataset)
        priors: list[float] = []
        comp, prod = [], []
        for cond in (Condition.UTT_A, Condition.UTT_AB, Condition.WORLD_A, Condition.WORLD_AB):
            rows = [r for r in dataset.rows if r.condition is cond]
            if not rows:
                continue
            start = len(priors)
            priors.extend(r.raw_prior for r in rows)
            if cond in (Condition.UTT_A, Condition.UTT_AB):
                responses = np.array([r.response_posterior for r in rows])
                comp.append(
                    (cond, slice(start, len(priors)), _SliderResponses.split(responses))
                )
            else:
                messages = [MODEL_MESSAGES.index(r.response_message) for r in rows]
                prod.append((
                    cond,
                    np.arange(start, len(priors)),
                    np.array(messages, dtype=int),
                    [r.participant_id for r in rows],
                ))
        return cls(np.array(priors), tuple(comp), tuple(prod))


def _packed_loglik(
    model: ModelId, params: ModelParams, noise: NoiseParams, packed: _PackedData
) -> float:
    table = predict_table(model, params, packed.priors)
    total = 0.0
    for cond, rows, responses in packed.comprehension:
        if cond is Condition.UTT_A:
            pred, sigma = table.post_a[rows], noise.sigma_a
        else:
            pred, sigma = table.post_ab[rows], noise.sigma_ab
        total += float(responses.loglik(pred, sigma).sum())
    for cond, rows, messages, labels in packed.production:
        probs = table.prod_wa if cond is Condition.WORLD_A else table.prod_wab
        picked = probs[rows, messages] + noise.epsilon
        if np.any(picked <= 0.0):
            bad = labels[int(np.argmax(picked <= 0.0))]
            raise NonfiniteLikelihood(
                f"row {bad!r}: observed message has probability 0 and epsilon is 0"
            )
        total += float(
            np.log(picked).sum()
            - rows.size * np.log1p(N_CANDIDATE_MESSAGES * noise.epsilon)
        )
    return total


def dataset_loglik(
    model: ModelId, params: ModelParams, noise: NoiseParams, dataset: Dataset
) -> float:
    """Joint log-likelihood of a dataset (preprocessing applied if missing).

    Comprehension rows are scored against the posterior for their utterance
    condition with the matching noise scale; production rows against the
    error-smoothed production distribution for their world.
    """
    return _packed_loglik(model, params, noise, _PackedData.from_dataset(dataset))


# ---------------------------------------------------------------------------
# Parameter-space transform: every free parameter is a scaled logistic of an
# unconstrained coordinate, so the simplex search never leaves the box.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ParamSpec:
    names: tuple[str, ...]
    highs: np.ndarray
    init_lo: np.ndarray  # initialization ranges, in parameter space
    init_hi: np.ndarray
    log_init: np.ndarray  # bool: space the initial grid logarithmically

    @classmethod
    def build(cls, model: ModelId, equal_costs: bool, constraints: Constraints):
        names: list[str] = ["lambda"]
        highs, lo, hi, log = [constraints.lam_max], [0.2], [30.0], [True]
        cost_names = ["delta"] if equal_costs else ["delta_ab", "delta_anb"]
        for name in cost_names:
            names.append(name)
            highs.append(constraints.delta_max)
            lo.append(0.01)
            hi.append(5.0)
            log.append(True)
        if model in XI_MODELS:
            names.append("xi")
            highs.append(1.0)
            lo.append(0.05)
            hi.append(0.95)
            log.append(False)
        for name in ("sigma_a", "sigma_ab"):
            names.append(name)
            highs.append(constraints.sigma_max)
            lo.append(0.05)
            hi.append(1.0)
            log.append(False)
        names.append("epsilon")
        highs.append(1.0)
        lo.append(0.002)
        hi.append(0.2)
        log.append(True)
        return cls(
            tuple(names), np.array(highs), np.array(lo), np.array(hi), np.array(log)
        )

    def decode(self, t: np.ndarray) -> dict[str, float]:
        values = self.highs * expit(t)
        return dict(zip(self.names, values))

    def encode(self, values: np.ndarray) -> np.ndarray:
        ratio = np.clip(values / self.highs, 1e-12, 1 - 1e-12)
        return logit(ratio)

    def initial_points(self, n: int, seed: int) -> np.ndarray:
        cube = _latin_hypercube(n, len(self.names), seed)
        span_lin = self.init_lo + cube * (self.init_hi - self.init_lo)
        span_log = np.exp(
            np.log(self.init_lo) + cube * (np.log(self.init_hi) - np.log(self.init_lo))
        )
        return np.apply_along_axis(
            self.encode, 1, np.where(self.log_init, span_log, span_lin)
        )


def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """``n`` points of a random Latin hypercube in ``[0, 1)^d`` (McKay et al.
    1979): each axis is cut into ``n`` strata, every stratum holds one point,
    placed uniformly within it.  Draws the same numbers as
    ``scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n)``, without
    importing ``scipy.stats``."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - samples) / n


def _split(values: dict[str, float], model: ModelId, equal_costs: bool):
    if equal_costs:
        dab = danb = values["delta"]
    else:
        dab, danb = values["delta_ab"], values["delta_anb"]
    params = ModelParams(
        lam=values["lambda"],
        delta_ab=dab,
        delta_anb=danb,
        xi=values.get("xi"),
    )
    noise = NoiseParams(values["sigma_a"], values["sigma_ab"], values["epsilon"])
    return params, noise


def fit(
    model: ModelId,
    dataset: Dataset,
    constraints: Constraints | None = None,
    options: FitOptions | None = None,
    equal_costs: bool = False,
) -> FitResult:
    """Maximize the joint likelihood by multi-start Nelder-Mead.

    Starts are a Latin-hypercube over sensible parameter ranges, mapped to an
    unconstrained space by scaled-logit transforms; the best restart wins.
    Results whose rationality or costs land on the box bound are flagged in
    ``at_bounds``.  Free-parameter count: model parameters (rationality, one
    or two costs, the extra prior where the model has one) plus the three
    noise parameters.
    """
    constraints = constraints or Constraints()
    options = options or FitOptions()
    spec = _ParamSpec.build(model, equal_costs, constraints)
    packed = _PackedData.from_dataset(dataset)

    def objective(t: np.ndarray) -> float:
        try:
            params, noise = _split(spec.decode(t), model, equal_costs)
        except ValueError:  # lambda or a noise scale decoded to 0
            return np.inf
        try:
            return -_packed_loglik(model, params, noise, packed)
        except NonfiniteLikelihood:
            return np.inf

    best = None
    any_success = False
    budget = options.maxiter or 600 * len(spec.names)
    for t0 in spec.initial_points(options.restarts, options.seed):
        res = minimize(
            objective,
            t0,
            method="Nelder-Mead",
            options={
                "xatol": options.xatol,
                "fatol": options.fatol,
                "maxiter": budget,
                "maxfev": budget,
            },
        )
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    assert best is not None

    if not any_success:
        warnings.warn(
            NoConvergence(f"{model.value}: no restart met the tolerances")
        )
    values = spec.decode(best.x)
    params, noise = _split(values, model, equal_costs)
    at_bounds = tuple(
        name
        for name, high in zip(spec.names, spec.highs)
        if name in ("lambda", "delta", "delta_ab", "delta_anb")
        and values[name] >= 0.999 * high
    )
    loglik = -float(best.fun)
    k = len(spec.names)
    return FitResult(
        model=model,
        params=params,
        noise=noise,
        loglik=loglik,
        n_params=k,
        aic=2.0 * k - 2.0 * loglik,
        converged=bool(best.success and np.isfinite(loglik)),
        n_restarts_used=options.restarts,
        at_bounds=at_bounds,
        equal_costs=equal_costs,
    )


def compare(
    models,
    dataset: Dataset,
    constraints: Constraints | None = None,
    options: FitOptions | None = None,
    equal_costs: bool = False,
) -> list[FitResult]:
    """Fit each model and rank ascending by AIC; failures become inf-AIC rows."""
    models = list(models)
    if not models:
        raise ValueError("need at least one model to compare")
    results = []
    for model in models:
        try:
            results.append(fit(model, dataset, constraints, options, equal_costs))
        except ValueError as exc:  # per-model failure: record, keep comparing
            warnings.warn(NoConvergence(f"{model.value}: fit failed: {exc}"))
            results.append(
                FitResult(
                    model=model,
                    params=None,
                    noise=None,
                    loglik=-np.inf,
                    n_params=0,
                    aic=np.inf,
                    converged=False,
                    n_restarts_used=0,
                    equal_costs=equal_costs,
                )
            )
    return sorted(results, key=lambda r: (r.aic, models.index(r.model)))


def fit_result_row(result: FitResult) -> dict:
    """Flatten a fit result to the exact serialization column set."""
    params, noise = result.params, result.noise
    return {
        "model": result.model.value,
        "lambda": None if params is None else params.lam,
        "delta_ab": None if params is None else params.delta_ab,
        "delta_anb": None if params is None else params.delta_anb,
        "xi": None if params is None else params.xi,
        "sigma_a": None if noise is None else noise.sigma_a,
        "sigma_ab": None if noise is None else noise.sigma_ab,
        "epsilon": None if noise is None else noise.epsilon,
        "loglik": result.loglik,
        "n_params": result.n_params,
        "aic": result.aic,
        "converged": result.converged,
    }
