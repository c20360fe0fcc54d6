"""Joint maximum-likelihood fitting of production and comprehension data.

Comprehension slider responses are scored with a censored-normal (tobit)
likelihood around the model's posterior prediction, with separate noise
scales for the bare-message and conjunction conditions; production
categories are scored with an error-smoothed categorical likelihood.  The
total log-likelihood is maximized by multi-start Nelder-Mead on a
box-transformed parameter space, and models are compared by AIC.

Each free parameter lies in a box [0, high] and the simplex walks an
unconstrained coordinate t of it: a clipped logit (:meth:`_ParamSpec.decode`),
which keeps the logistic's shape inside the box but reaches each bound at a
finite t, about +-9.9, and holds it beyond.  Best fits often sit on a bound
(a cost of 0, a cost or rationality at its cap), and a map that reaches a
bound only at t = +-inf sends the simplex chasing it; a fit names the
parameters that land on a bound in ``at_bounds``.

The restarts of a fit run in lockstep.  Each restart's simplex search is a
coroutine (:func:`_nelder_mead`) that yields the points it needs and is sent
their values.  Every step stacks the pending points of all unfinished
restarts and scores them together: one parameter-batched table call
(``models._predict``) and one batched tobit and production scoring
(:func:`_packed_logliks`).  Each restart still walks its own simplex, and a
batched score is bit-identical to a single one, so the optima are those of
running the restarts one after another.

A family is the set of models that share a closed form
(``models.FAMILIES``): base, BWRSA, free-LU and exh-LU share the
lexical-uncertainty form, SVRSA1 and SVRSA2 the supervaluationist one, LI1
and LI2 the lexical-intentions one, and WRSA is a family of its own.  The
lockstep runs the restarts of all the models of a family together
(:func:`_restarts`): at each step every model decodes its own searches'
points, and all of them are scored in one batched call, whose sets each take
their own model's constants (see ``models._predict``).  A step's cost is
mostly paid per call, not per point, so a family's lockstep costs little
more than that of its longest-running model.  Each set's score in a mixed
batch has the bits of its own model's single call, so every search, and
every fit, is the one that fitting its model alone gives: :func:`fit` is the
one-model case of the same lockstep.

:func:`compare` fits its models in a pool of worker processes forked for the
call (at most one per usable CPU and per task), and collects the results,
exceptions and warnings in model order.  Each model is a task, except where
the workers are fewer than the models and at most two (``GROUPED_WORKERS``):
there each family is a task, the longest-running first, as a family's
lockstep takes less time than its models' fits one after another but more
than the longest of them.  It runs the tasks in the calling process, in turn,
where only one worker is possible, where that process is a daemon, or where
the platform cannot fork.  Every fit is the same in each case, so the results
are too, bit for bit.

The fits take ``log_ndtr``, ``expit`` and ``logit`` from ``scipy.special``,
which is imported on the first fit or likelihood call (:func:`_special`), not
with this module: the predictions and every subcommand but ``fit`` and
``compare`` run without loading scipy.
"""

from __future__ import annotations

import functools
import math
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Condition, Dataset, MODEL_MESSAGES, N_CANDIDATE_MESSAGES, preprocess
from .models import (FAMILIES, MissingParameter, ModelId, ModelParams, XI_MODELS, _each,
                     _predict, _usable_cpus)
from .scenario import everywhere


class NonfiniteLikelihood(ValueError):
    """An observation has probability zero and no error smoothing."""


class NoConvergence(UserWarning):
    """No restart of the simplex search met the convergence tolerances."""


@dataclass(frozen=True)
class NoiseParams:
    """Observation-noise parameters fitted alongside the model parameters:
    floats, or (K, 1) columns of K parameter sets as in ``ModelParams``."""

    sigma_a: float | np.ndarray
    sigma_ab: float | np.ndarray
    epsilon: float | np.ndarray

    def __post_init__(self) -> None:
        if not (everywhere(self.sigma_a > 0) and everywhere(self.sigma_ab > 0)):
            raise ValueError("comprehension noise scales must be positive")
        if not everywhere(self.epsilon >= 0):
            raise ValueError("production error rate must be nonnegative")


#: Upper bounds of the search box; every lower bound is 0.
LAM_MAX = 1000.0
DELTA_MAX = 200.0
SIGMA_MAX = 5.0

#: Simplex convergence tolerances: on the spread of the vertices in the
#: unconstrained coordinates, and on the spread of their objective values.
XATOL = 1e-6
FATOL = 1e-9
#: Default cap on a restart's iterations and on its objective evaluations,
#: per free parameter (``FitOptions.maxiter`` overrides the product).
EVALS_PER_PARAM = 600

#: Overshoot c of the clipped logit that maps a coordinate t into a box
#: [0, high] (see ``_ParamSpec.decode``): the logistic is stretched by c
#: beyond each bound, r = (1 + 2c) expit(t) - c, and clipped back to [0, 1]
#: with rounded corners, so a bound is reached exactly at a finite t, about
#: +-9.9.  A smaller c keeps more of the logistic's shape near the bounds but
#: puts them farther out; 1e-4 took fewer evaluations than 1e-6 on the
#: benchmark's fit-compare datasets.
OVERSHOOT = 1e-4
#: Half-width of each rounded corner of the clip, on the scale of r.
_CORNER = OVERSHOOT / 2


@dataclass(frozen=True)
class FitOptions:
    """Restart count, RNG seed and evaluation budget of a fit.

    All ``restarts`` run together, in lockstep (see the module docstring);
    ``maxiter`` (default ``EVALS_PER_PARAM`` per free parameter) caps both
    the iterations and the evaluations of each restart.  Both must be >= 1.
    """

    restarts: int = 32
    seed: int = 0
    maxiter: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.maxiter is not None and self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    model: ModelId
    params: ModelParams | None
    noise: NoiseParams | None
    loglik: float
    n_params: int
    aic: float
    converged: bool
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
    responses = _SliderResponses.split(np.array([observed]), np.array([0]), np.array([True]))
    return float(responses.loglik(np.array([pred]), sigma, sigma)[0])


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@functools.cache
def _special():
    """``scipy.special``, imported on the first call and kept, so that its
    import, which also loads ``numpy.f2py``, ``numpy.testing`` and
    ``numpy.ma``, is paid by the fits alone."""
    import scipy.special

    return scipy.special


@dataclass(frozen=True)
class _SliderResponses:
    """Slider responses, reordered by censoring for scoring.

    The order puts the responses at or below 0 and at or above 1 first
    (``n_tails`` of them; ``bound`` is 0 or 1 and ``sign`` +1 or -1, for the
    lower or upper tail), then those strictly inside, whose values are
    ``interior``.  In that order, ``picks`` locates each prediction and
    ``first`` tells which responses take the first of two noise scales;
    ``unorder`` restores the response order.
    """

    picks: np.ndarray
    unorder: np.ndarray
    first: np.ndarray
    n_tails: int
    bound: np.ndarray
    sign: np.ndarray
    interior: np.ndarray

    @classmethod
    def split(cls, observed: np.ndarray, picks: np.ndarray, first: np.ndarray):
        """``observed`` responses whose predictions sit at ``picks`` and
        whose noise scale is the first one where ``first``."""
        low, high = observed <= 0.0, observed >= 1.0
        inside = np.flatnonzero(~(low | high))
        order = np.concatenate([np.flatnonzero(low), np.flatnonzero(high), inside])
        n_tails = order.size - inside.size
        upper = high[order[:n_tails]]
        return cls(picks[order], np.argsort(order), first[order], n_tails,
                   np.where(upper, 1.0, 0.0), np.where(upper, -1.0, 1.0), observed[inside])

    def loglik(self, pred: np.ndarray, sigma_first, sigma_second) -> np.ndarray:
        """Per-response tobit log-likelihoods, in response order, from the
        predictions ``pred`` (along the last axis; one row per parameter set
        for a (K, n) array); each tail mass and density is evaluated only
        where it is the score.  The noise scales are floats or (K, 1)
        columns."""
        x = np.take(pred, self.picks, axis=-1)
        scale = np.where(self.first, sigma_first, sigma_second)
        t = self.n_tails
        out = np.empty(x.shape)
        # (0 - x) / sigma below, -(1 - x) / sigma above: the tail masses
        out[..., :t] = _special().log_ndtr((self.bound - x[..., :t]) * self.sign / scale[..., :t])
        z = (self.interior - x[..., t:]) / scale[..., t:]
        log_scale = np.where(self.first[t:], _each(math.log, sigma_first),
                             _each(math.log, sigma_second))
        out[..., t:] = -0.5 * z * z - _HALF_LOG_2PI - log_scale
        return np.take(out, self.unorder, axis=-1)


@dataclass(frozen=True)
class _PackedData:
    """Column-major view of a preprocessed dataset for fast re-scoring.

    ``priors`` holds the raw priors of all rows, grouped by condition in the
    order UTT_A, UTT_AB, WORLD_A, WORLD_AB, so that one table call serves
    every condition.  ``sliders`` holds the slider responses of
    both comprehension conditions, whose predictions it picks from
    ``post_a`` followed by ``post_ab``; ``choices`` holds the position of
    each produced message in the flattened ``prod_wa`` followed by the
    flattened ``prod_wab``, and ``labels`` the participant label of each
    production row.  ``slider_rows`` and ``choice_rows`` slice out the rows
    of each nonempty condition.
    """

    priors: np.ndarray
    sliders: _SliderResponses
    slider_rows: tuple
    choices: np.ndarray
    choice_rows: tuple
    labels: list

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "_PackedData":
        dataset = preprocess(dataset)
        conds = (Condition.UTT_A, Condition.UTT_AB, Condition.WORLD_A, Condition.WORLD_AB)
        rows = {c: [r for r in dataset.rows if r.condition is c] for c in conds}
        priors = np.array([r.raw_prior for c in conds for r in rows[c]])
        n, start = priors.size, 0
        responses, picks, first, choices, labels = [], [], [], [], []
        slider_rows, choice_rows = [], []
        for cond in conds:
            at = np.arange(start, start + len(rows[cond]))
            start += len(rows[cond])
            if not rows[cond]:
                continue
            if cond in (Condition.UTT_A, Condition.UTT_AB):
                responses.extend(r.response_posterior for r in rows[cond])
                picks.append(at if cond is Condition.UTT_A else n + at)
                first.extend([cond is Condition.UTT_A] * at.size)
                slider_rows.append(slice(len(responses) - at.size, len(responses)))
            else:
                messages = np.array([MODEL_MESSAGES.index(r.response_message) for r in rows[cond]])
                offset = 0 if cond is Condition.WORLD_A else 3 * n
                choices.append(offset + 3 * at + messages)
                labels.extend(r.participant_id for r in rows[cond])
                choice_rows.append(slice(len(labels) - at.size, len(labels)))
        sliders = _SliderResponses.split(np.array(responses, dtype=float),
                                         np.concatenate(picks or [np.zeros(0, int)]),
                                         np.array(first, dtype=bool))
        choices = np.concatenate(choices or [np.zeros(0, int)])
        return cls(priors, sliders, tuple(slider_rows), choices, tuple(choice_rows), labels)


def _packed_logliks(
    model, params: ModelParams, noise: NoiseParams, packed: _PackedData
) -> tuple[np.ndarray, list]:
    """Joint log-likelihoods of K parameter sets, scored together.

    ``params`` and ``noise`` hold floats (K = 1) or (K, 1) columns, and
    ``model`` is one model, or a tuple of one family's models, one per set
    (see ``models._predict``).  Returns the K log-likelihoods and, for
    each set, the label of the first production row it gives probability 0,
    or None; such a set scores -inf.  Set k's score is bit-identical to that
    of a K = 1 call with its floats and its model: the picks are contiguous,
    each condition's rows are summed alone and in row order, and per-set
    scalars are taken as a single call takes them.
    """
    table = _predict(model, params, packed.priors)
    k = np.size(params.lam)
    totals = np.zeros(k)
    # float parameters give 1-d posteriors, K parameter sets (K, N) ones
    posts = np.concatenate((table.post_a, table.post_ab), axis=-1)
    scores = packed.sliders.loglik(posts, noise.sigma_a, noise.sigma_ab)
    for rows in packed.slider_rows:
        totals += scores[..., rows].sum(axis=-1)
    flat = table.prod_wa.shape[:-2] + (-1,)
    probs = np.concatenate((table.prod_wa.reshape(flat), table.prod_wab.reshape(flat)), axis=-1)
    picked = np.take(probs, packed.choices, axis=-1) + noise.epsilon
    zero = picked <= 0.0
    culprits: list = [None] * k
    if zero.any():
        zero = zero.reshape(k, -1)
        for j in np.flatnonzero(zero.any(axis=1)):
            culprits[j] = packed.labels[int(np.argmax(zero[j]))]
        picked[zero.reshape(picked.shape)] = 1.0  # the set scores -inf below
    logs = np.log(picked)
    smoothing = np.log1p(N_CANDIDATE_MESSAGES * noise.epsilon).reshape(-1)
    for rows in packed.choice_rows:
        totals += logs[..., rows].sum(axis=-1) - (rows.stop - rows.start) * smoothing
    if culprits.count(None) < k:
        totals[[c is not None for c in culprits]] = -np.inf
    return totals, culprits


def _packed_loglik(
    model: ModelId, params: ModelParams, noise: NoiseParams, packed: _PackedData
) -> float:
    """Joint log-likelihood of one parameter set (float fields)."""
    (total,), (culprit,) = _packed_logliks(model, params, noise, packed)
    if culprit is not None:
        raise NonfiniteLikelihood(
            f"row {culprit!r}: observed message has probability 0 and epsilon is 0"
        )
    return float(total)


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
# Parameter-space transform: every free parameter is a clipped logistic of an
# unconstrained coordinate (see OVERSHOOT), so the simplex search never leaves
# the box and reaches each of its bounds.
# ---------------------------------------------------------------------------


#: The search space: name -> (upper bound, start range low, high, whether the
#: starts are spaced logarithmically).  "delta" is the one cost of a fit with
#: equal costs.
_PARAMS = {
    "lambda": (LAM_MAX, 0.2, 30.0, True),
    "delta": (DELTA_MAX, 0.01, 5.0, True),
    "delta_ab": (DELTA_MAX, 0.01, 5.0, True),
    "delta_anb": (DELTA_MAX, 0.01, 5.0, True),
    "xi": (1.0, 0.05, 0.95, False),
    "sigma_a": (SIGMA_MAX, 0.05, 1.0, False),
    "sigma_ab": (SIGMA_MAX, 0.05, 1.0, False),
    "epsilon": (1.0, 0.002, 0.2, True),
}


#: Every model's parameters, in the order in which a step of the lockstep
#: decodes the points of all its searches at once (see :func:`_objective`).
_LAYOUT = ("lambda", "delta_ab", "delta_anb", "xi", "sigma_a", "sigma_ab", "epsilon")


@dataclass(frozen=True)
class _ParamSpec:
    """The free parameters of one fit, in order, with their rows of
    ``_PARAMS``; the only code that knows the parameter layout.
    ``columns`` picks the coordinates of a point that hold the parameters of
    ``_LAYOUT`` (one cost's twice where the costs are equal; any one where
    the fit has no xi, whose value then goes unread), or is None where the
    point holds them in that order."""

    names: tuple[str, ...]
    highs: np.ndarray
    init_lo: np.ndarray  # initialization ranges, in parameter space
    init_hi: np.ndarray
    log_init: np.ndarray  # bool: space the initial grid logarithmically
    columns: np.ndarray | None

    @classmethod
    def build(cls, model: ModelId, equal_costs: bool) -> "_ParamSpec":
        costs = ("delta",) if equal_costs else ("delta_ab", "delta_anb")
        extra = ("xi",) if model in XI_MODELS else ()
        return cls.of(("lambda", *costs, *extra, "sigma_a", "sigma_ab", "epsilon"))

    @classmethod
    def of(cls, names: tuple[str, ...]) -> "_ParamSpec":
        highs, lo, hi, log = map(np.array, zip(*(_PARAMS[name] for name in names)))
        alias = {"delta_ab": "delta", "delta_anb": "delta", "xi": "lambda"}
        columns = [names.index(name if name in names else alias[name]) for name in _LAYOUT]
        return cls(names, highs, lo, hi, log,
                   None if names == _LAYOUT else np.array(columns))

    def decode(self, t: np.ndarray) -> dict:
        """Parameter values at a point ``t``, or (K, 1) columns of them at
        each row of a (K, d) stack of points: ``high * _rounded_clip((1 +
        2c) expit(t) - c)`` with c = ``OVERSHOOT``, exactly 0 or ``high``
        wherever the stretched logistic passes a bound by ``_CORNER``."""
        values = self.highs * _rounded_clip((1 + 2 * OVERSHOOT) * _special().expit(t) - OVERSHOOT)
        if values.ndim == 2:
            values = np.ascontiguousarray(values.T)[:, :, None]
        return dict(zip(self.names, values))

    def encode(self, values: np.ndarray) -> np.ndarray:
        """The points of parameter values, element by element: the inverse
        of :meth:`decode` inside the box.  A value on or beyond a bound is
        encoded halfway into the flat stretch past the corner, where
        :meth:`decode` has reached that bound: at the corner's end the two
        maps are inverse only to a few ulps of c, which could decode beside
        the bound."""
        ratio = np.clip(values / self.highs, 0.0, 1.0)
        lower = 2 * np.sqrt(_CORNER * ratio) - _CORNER
        upper = 1 + _CORNER - 2 * np.sqrt(_CORNER * (1 - ratio))
        r = np.where(ratio < _CORNER, lower, np.where(ratio > 1 - _CORNER, upper, ratio))
        r = np.where(ratio == 0.0, -1.5 * _CORNER, np.where(ratio == 1.0, 1 + 1.5 * _CORNER, r))
        return _special().logit((r + OVERSHOOT) / (1 + 2 * OVERSHOOT))

    def split(self, t: np.ndarray) -> tuple[ModelParams, NoiseParams]:
        """Model and noise parameters at a point ``t`` (floats) or at each
        row of a (K, d) stack of points ((K, 1) columns); raises ValueError
        where an entry is out of range."""
        return self.assemble(self.decode(t))

    @staticmethod
    def assemble(values: dict) -> tuple[ModelParams, NoiseParams]:
        """Model and noise parameters from the values of :meth:`decode`,
        floats or (K, 1) columns; raises ValueError as :meth:`split` does."""
        if "delta" in values:
            values["delta_ab"] = values["delta_anb"] = values["delta"]
        params = ModelParams(lam=values["lambda"], delta_ab=values["delta_ab"],
                             delta_anb=values["delta_anb"], xi=values.get("xi"))
        return params, NoiseParams(values["sigma_a"], values["sigma_ab"], values["epsilon"])

    def at_bounds(self, t: np.ndarray) -> tuple[str, ...]:
        """The parameters whose value at a point ``t`` is exactly 0 or their
        upper bound, by their ``FIT_COLUMNS`` names: the one cost of an
        equal-cost fit as both ``delta_ab`` and ``delta_anb``."""
        values = self.decode(t)
        hits = [name for name, high in zip(self.names, self.highs)
                if values[name] == 0.0 or values[name] == high]
        return tuple(column for name in hits
                     for column in (("delta_ab", "delta_anb") if name == "delta" else (name,)))

    def initial_points(self, n: int, seed: int) -> np.ndarray:
        cube = _latin_hypercube(n, len(self.names), seed)
        span_lin = self.init_lo + cube * (self.init_hi - self.init_lo)
        span_log = np.exp(
            np.log(self.init_lo) + cube * (np.log(self.init_hi) - np.log(self.init_lo))
        )
        return self.encode(np.where(self.log_init, span_log, span_lin))


def _rounded_clip(r: np.ndarray) -> np.ndarray:
    """``clip(r, 0, 1)`` with its corners rounded: within ``_CORNER`` of 0
    or 1, the parabola that meets both sides of the corner with their
    slopes.  Exactly 0 below ``-_CORNER`` and 1 above ``1 + _CORNER``.

    The map is continuously differentiable, and so is the objective along a
    coordinate whose best value is on a bound.  A plain clip leaves a kink
    there, at which Nelder-Mead can stall: both restarts of a WRSA fit on
    2 of 300 fit-compare datasets stopped 11-13 nats short of the optimum.
    """
    # np.clip's bounds, without its Python-level wrapper
    below = np.minimum(np.maximum(r + _CORNER, 0.0), 2 * _CORNER)
    above = np.minimum(np.maximum(1 + _CORNER - r, 0.0), 2 * _CORNER)
    return np.where(r < _CORNER, below * below / (4 * _CORNER),
                    np.where(r > 1 - _CORNER, 1 - above * above / (4 * _CORNER), r))


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


def _objective(asked: list, owners: list, layout: _ParamSpec, packed: _PackedData,
               size: int) -> np.ndarray:
    """Negated log-likelihoods at the points that searches ask for, in the
    order of ``asked``: pairs of a search's index i and the (m, d) stack of
    points it asks for, in the coordinates of ``owners[i]``, a (model,
    ``_ParamSpec``) pair.  inf where lambda or a noise scale decodes to 0, or
    where an observation gets probability 0.

    The points are decoded at once, in the parameters of ``_LAYOUT``
    (``layout``), and the live ones scored together, in batched calls of at
    most ``size`` sets, each call on the tuple of its sets' models (see
    ``models._predict``).  A lone set is scored with float parameters, which
    gives the same bits as a batch of one at less cost."""
    runs: list = []  # the (model, spec) and stacks of consecutive searches of one model
    for i, points in asked:
        if runs and runs[-1][0] is owners[i]:
            runs[-1][1].append(points)
        else:
            runs.append((owners[i], [points]))
    parts, models = [], []
    for (model, spec), stacks in runs:
        points = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        parts.append(points if spec.columns is None else points[:, spec.columns])
        models += [model] * len(points)
    values = layout.decode(parts[0] if len(parts) == 1 else np.concatenate(parts))
    # the values that ModelParams and NoiseParams reject at 0; the others may be 0
    live = np.flatnonzero((values["lambda"] > 0) & (values["sigma_a"] > 0)
                          & (values["sigma_ab"] > 0))
    scores = np.full(len(models), np.inf)
    for start in range(0, live.size, size):
        sets = live[start:start + size]
        if sets.size == 1:
            chunk = {name: v[sets[0], 0] for name, v in values.items()}
        else:
            chunk = values if sets.size == len(models) else {
                name: v[sets] for name, v in values.items()}
        of = models if sets.size == len(models) else [models[k] for k in sets.tolist()]
        params, noise = _ParamSpec.assemble(chunk)
        scores[sets] = -_packed_logliks(tuple(of), params, noise, packed)[0]
    return scores


# ---------------------------------------------------------------------------
# Nelder-Mead simplex search as a coroutine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SimplexResult:
    """Best vertex, its value, iterations, evaluations and status (0 met the
    tolerances, 1 ran out of evaluations, 2 of iterations)."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


class _OutOfEvaluations(Exception):
    """The evaluation budget ended before the last point of a request; the
    values obtained are the argument."""


def _nelder_mead(x0, xatol: float, fatol: float, maxiter: int, maxfev: int):
    """Nelder-Mead simplex search (Nelder & Mead 1965) from ``x0``.

    A generator: it yields each (m, d) stack of points it needs evaluated and
    is sent their m values; it returns a :class:`_SimplexResult`.  The initial
    simplex and each shrink are asked for as one stack, every other step as a
    single point.  A transcription of scipy 1.17's ``minimize(method=
    "Nelder-Mead")`` (standard coefficients, no bounds): the same initial
    simplex, steps, sorts and ``maxiter``/``maxfev`` cut-offs, including a
    budget that ends inside the initial simplex or a shrink, so the same
    iterates and result for the same values.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def evaluate(points):
        nonlocal nfev
        m = min(len(points), maxfev - nfev)
        values = (yield points[:m]) if m > 0 else np.empty(0)
        nfev += m
        if m < len(points):
            raise _OutOfEvaluations(values)
        return values

    def sort(sim, fsim):
        ind = fsim.argsort()
        return sim.take(ind, 0), fsim.take(ind, 0)

    try:
        fsim[:] = yield from evaluate(sim)
    except _OutOfEvaluations as out:
        fsim[:len(out.args[0])] = out.args[0]
    sim, fsim = sort(sim, fsim)
    sim, fsim = sort(sim, fsim)
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            (fxr,) = yield from evaluate(xr[None])
            doshrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                (fxe,) = yield from evaluate(xe[None])
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = yield from evaluate(xc[None])
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                (fxcc,) = yield from evaluate(xcc[None])
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                try:
                    fsim[1:] = yield from evaluate(shrunk)
                except _OutOfEvaluations as out:
                    # vertices move up to the first one the budget refused
                    done = len(out.args[0])
                    sim[1:done + 2] = shrunk[:done + 1]
                    fsim[1:done + 1] = out.args[0]
                    raise
                sim[1:] = shrunk
            iterations += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = sort(sim, fsim)
    status = 1 if nfev >= maxfev else 2 if iterations >= maxiter else 0
    return _SimplexResult(sim[0], fsim.min(), iterations, nfev, status)


def _lockstep(objective, starts, budgets) -> list:
    """Nelder-Mead from every start, the searches run together: each step
    passes the points that all unfinished searches ask for to one call of
    ``objective``, as (search index, (m, d) stack) pairs in start order, and
    takes their values back in that order.  Search i stops at ``XATOL`` and
    ``FATOL`` or at ``budgets[i]`` iterations or evaluations.  Returns the
    searches' results in start order."""
    searches = [_nelder_mead(x0, XATOL, FATOL, budget, budget)
                for x0, budget in zip(starts, budgets)]
    results: list = [None] * len(searches)
    pending: dict[int, np.ndarray] = {}

    def advance(i: int, values) -> None:
        try:
            pending[i] = searches[i].send(values)
        except StopIteration as done:
            results[i] = done.value
            pending.pop(i, None)

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        asked = list(pending.items())
        values = objective(asked)
        start = 0
        for i, points in asked:
            advance(i, values[start:start + len(points)])
            start += len(points)
    return results


def _restarts(models, dataset: Dataset, options: FitOptions, equal_costs: bool) -> list:
    """The restarts of each of ``models``, a family's (see ``FAMILIES``),
    searched in one lockstep: for each model, in order, its ``_ParamSpec``
    and its restarts' results in start order."""
    packed = _PackedData.from_dataset(dataset)
    specs = [_ParamSpec.build(model, equal_costs) for model in models]
    layout, owners, starts, budgets = _ParamSpec.of(_LAYOUT), [], [], []
    for model, spec in zip(models, specs):
        points = spec.initial_points(options.restarts, options.seed)
        owners += [(model, spec)] * len(points)
        starts.extend(points)
        budgets += [options.maxiter or EVALS_PER_PARAM * len(spec.names)] * len(points)
    # no call scores more sets than one model's initial simplexes, the
    # largest step of its fit alone, whose memory bounds the family's
    size = options.restarts * max(len(spec.names) + 1 for spec in specs)
    results = _lockstep(lambda asked: _objective(asked, owners, layout, packed, size),
                        starts, budgets)
    n = options.restarts
    return [(spec, results[j * n:(j + 1) * n]) for j, spec in enumerate(specs)]


def _best_fit(model: ModelId, equal_costs: bool, spec: _ParamSpec, results: list) -> FitResult:
    """The fit of ``model`` from its restarts' results: the best restart, the
    first of equals.  Warns ``NoConvergence`` where no restart met the
    tolerances."""
    best = min(results, key=lambda res: res.fun)
    if not any(res.success for res in results):
        warnings.warn(
            NoConvergence(f"{model.value}: no restart met the tolerances")
        )
    params, noise = spec.split(best.x)
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
        at_bounds=spec.at_bounds(best.x),
        equal_costs=equal_costs,
    )


def fit(
    model: ModelId,
    dataset: Dataset,
    options: FitOptions | None = None,
    equal_costs: bool = False,
) -> FitResult:
    """Maximize the joint likelihood by multi-start Nelder-Mead.

    Starts are a Latin-hypercube over sensible parameter ranges, mapped to an
    unconstrained space by clipped-logit transforms onto the box below
    ``LAM_MAX``, ``DELTA_MAX``, ``SIGMA_MAX`` and 1 (xi and epsilon; see
    ``OVERSHOOT``), which reach each bound at a finite point; the best
    restart wins, the first of equals.  ``options`` sets the restart
    count, the seed of the starts and the evaluation budget of a restart.
    The restarts run in lockstep: each step scores the points that all
    unfinished restarts ask for with one batched likelihood call, and each
    restart walks its own simplex down to the tolerances ``XATOL`` and
    ``FATOL``, so the result is that of running them one by one.  This is
    the one-model case of the lockstep in which :func:`compare` fits a
    family of models; the result is the same bit for bit.  Every
    parameter of the result that lies exactly on a bound of the box, 0 or
    its upper bound, is named in ``at_bounds``.  Free-parameter count: model
    parameters (rationality, one or two costs, the extra prior where the
    model has one) plus the three noise parameters.
    """
    ((spec, results),) = _restarts((model,), dataset, options or FitOptions(), equal_costs)
    return _best_fit(model, equal_costs, spec, results)


def compare(
    models,
    dataset: Dataset,
    options: FitOptions | None = None,
    equal_costs: bool = False,
) -> list[FitResult]:
    """Fit each model and rank ascending by AIC; failures become inf-AIC rows.

    Each model gets the fit that :func:`fit` gives it with the same
    ``options`` and ``equal_costs``, bit for bit.  The fits run as tasks in
    a pool of worker processes forked from this one, at most one per usable
    CPU and per task, which is shut down and joined before ``compare``
    returns or raises; the tasks run in this process, one after another,
    where only one worker is possible, where this process is a daemon
    (which may not have children), or where the platform cannot fork.  Each
    distinct model is a task, except where the workers are fewer than the
    distinct models and at most ``GROUPED_WORKERS``.  There each family
    (``models.FAMILIES``: the models that share a closed form) of the
    distinct models is a task, and runs its models' restarts in one
    lockstep: each step scores the points of all of them in one batched
    call, which costs little more than the call of one model.  The families
    with a model that fits xi go first, as their searches run longest, and
    the larger of those first.  Each restart still
    walks its own simplex, and every score in a batch has the bits of a
    score alone, so every fit is the one that :func:`fit` would give.  A
    family's lockstep that raises or warns is run again model by model, so
    each model also gets the outcome and warnings of its own fit.  The
    warnings are re-issued here in model order.

    A fit that fails with a ``ValueError`` becomes an inf-AIC row with a
    ``NoConvergence`` warning.  A missing model parameter is a fault of the
    call, not of the fit, and propagates as it does from ``fit``; so does
    every other exception, the first in model order.  One raised in a worker
    has the worker's traceback chained as its cause.
    """
    import multiprocessing

    models = list(models)
    if not models:
        raise ValueError("need at least one model to compare")
    distinct = list(dict.fromkeys(models))
    workers = min(len(distinct), _usable_cpus())
    if (multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        workers = 1
    tasks = _tasks(distinct, workers)
    place = {model: (t, j) for t, task in enumerate(tasks) for j, model in enumerate(task)}
    run = functools.partial(_task_rows, dataset, options, equal_costs)
    if workers == 1:
        rows = functools.cache(lambda t: run(tasks[t]))
        return _ranked(models, (rows(t)[j] for t, j in map(place.get, models)))
    from concurrent.futures import ProcessPoolExecutor

    # fork: the workers inherit the loaded modules, which a fresh interpreter
    # would take 0.5-0.8 s each to import; scipy.special among them.  No other
    # thread runs here to fork in a bad state: a table call joins its helper
    # threads before it returns.
    _special()
    pool = ProcessPoolExecutor(min(workers, len(tasks)),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(run, task) for task in tasks]
        return _ranked(models, (futures[t].result()[j] for t, j in map(place.get, models)))
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the running fits; joins the workers


# The most workers at which compare fits each family as one task.  A family
# task is slower than its longest model's fit, so grouping pays only while
# the workers are too few to run the model tasks side by side.  Timed on one
# CPU on the six fit-compare datasets of seeds 0 and 9001, and laid out as a
# pool of w workers takes the tasks, the four family tasks against the nine
# model tasks take 0.73-0.92x at 2 restarts and 0.95-1.05x at 32 with w = 2,
# but 0.72-1.06x and 1.03-1.20x with w = 3, and 0.86-2.45x from w = 4 on.
GROUPED_WORKERS = 2


def _tasks(distinct: list, workers: int) -> list[tuple]:
    """The tasks of a compare of the ``distinct`` models on ``workers``
    workers: each model alone, or, where the workers are fewer than the
    models and at most ``GROUPED_WORKERS``, each family of them, the
    longest-running first."""
    if workers >= len(distinct) or workers > GROUPED_WORKERS:
        return [(model,) for model in distinct]
    # a family's lockstep lasts about as long as its longest searches, those
    # of a model with xi (one parameter more), and each step costs more the
    # more models it scores
    families = (tuple(m for m in family if m in distinct) for family in FAMILIES)
    return sorted(filter(None, families), reverse=True,
                  key=lambda task: (any(m in XI_MODELS for m in task), len(task)))


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process,
    which pickling drops; chained as that exception's cause."""


def _task_rows(dataset, options, equal_costs, models) -> list:
    """The outcomes of ``models``, a family's, in order (see
    :func:`_compare_row`): from one lockstep of all their restarts, or from
    each model's :func:`fit` where there is one model, or where the
    lockstep raised or warned (so each model gets what its own fit gives)."""
    if len(models) > 1:
        with warnings.catch_warnings(record=True) as caught:
            try:
                runs = _restarts(models, dataset, options or FitOptions(), equal_costs)
            except Exception:  # refitted model by model below
                runs = None
        if runs is not None and not caught:
            return [_compare_row(model, equal_costs,
                                 functools.partial(_best_fit, model, equal_costs, *run))
                    for model, run in zip(models, runs)]
    return [_compare_row(model, equal_costs,
                         functools.partial(fit, model, dataset, options, equal_costs))
            for model in models]


def _compare_row(model, equal_costs, fitted):
    """One model's outcome in a compare, the warnings raised on the way, and
    the formatted traceback of an exception outcome (else ``None``).

    The outcome is the fit that ``fitted()`` returns, an inf-AIC row where
    that fails with a ``ValueError`` other than ``MissingParameter``, or else
    the exception it raised.  The warnings are those the filters in force
    let through, recorded rather than shown, so that ``compare`` can
    re-issue them, in model order, in the caller's process."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = fitted()
        except MissingParameter as exc:
            outcome = exc
        except ValueError as exc:  # per-model failure: record, keep comparing
            warnings.warn(NoConvergence(f"{model.value}: fit failed: {exc}"))
            outcome = FitResult(
                model=model,
                params=None,
                noise=None,
                loglik=-np.inf,
                n_params=0,
                aic=np.inf,
                converged=False,
                equal_costs=equal_costs,
            )
        except Exception as exc:  # raised by compare, after the models before it
            outcome = exc
    messages = [w.message for w in caught]
    if isinstance(outcome, Exception):
        return outcome, messages, "".join(traceback.format_exception(outcome))
    return outcome, messages, None


def _ranked(models: list, outcomes) -> list[FitResult]:
    """The fits of ``models`` from their outcomes (see :func:`_compare_row`),
    taken in model order: each model's warnings are re-issued, and the first
    exception is raised.  One that has lost its frames on the way back from
    a worker is raised from its formatted traceback.  Ranked by AIC, ties in
    model order."""
    results = []
    for outcome, messages, trace in outcomes:
        for message in messages:
            warnings.warn(message)
        if isinstance(outcome, Exception):
            if outcome.__traceback__ is None:
                raise outcome from _RemoteTraceback(trace)
            raise outcome
        results.append(outcome)
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
