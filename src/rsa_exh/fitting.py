"""Joint maximum-likelihood fitting of production and comprehension data.

Comprehension slider responses are scored with a censored-normal (tobit)
likelihood around the model's posterior prediction, with separate noise
scales for the bare-message and conjunction conditions; production
categories are scored with an error-smoothed categorical likelihood.  The
total log-likelihood is maximized over the model parameters and the three
noise parameters (sigma_a, sigma_ab, epsilon), and models are compared by
AIC, which counts the noise parameters too.

The maximum is found as a profile likelihood (Murphy & van der Vaart 2000).
Given the model parameters theta = (lambda, the costs, xi), the
log-likelihood splits into three terms, one per noise parameter: the
bare-message sliders with sigma_a, the conjunction sliders with sigma_ab, and
the productions with epsilon.  Each term has one maximum over its box: the
tobit term is concave in h = 1/sigma (Olsen 1978), and the production term's
second derivative is <= 0 wherever its first is 0.  So every point theta is
scored at its best noise, which batched, safeguarded Newton solves find
(:func:`_profiled_logliks`), and multi-start Nelder-Mead searches theta alone:
3 or 4 coordinates rather than 6 or 7.  A search over fewer coordinates
takes fewer steps, which more than pays for the solves; from the same start
it may end at another local optimum than a search over all seven would.

Each searched parameter lies in a box [0, high] and the simplex walks an
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
(``models._predict``) and one batched set of noise solves.  Each restart
still walks its own simplex, and a batched score is bit-identical to a
single one, so the optima are those of running the restarts one after
another.  A fit reports its best point's solved noise and the exact joint
log-likelihood there (:func:`_packed_loglik`, as :func:`dataset_loglik`).

The lockstep runs the restarts of several models together, of any of the
families (``models.FAMILIES``, the models that share a closed form, read
off the one registry ``models._FORMS``: base, BWRSA, free-LU and exh-LU
share the lexical-uncertainty form, SVRSA1 and SVRSA2 the
supervaluationist one, LI1 and LI2 the lexical-intentions one, and WRSA is
a family of its own).  At each step every model decodes its own
searches' points (:func:`_objective`), and all of them are scored in one
batched call, cut only where it would pass a cap on sets x priors
(:func:`_sets_per_call`): in it each run of one family's sets fills its rows
of one table, each set with its own model's constants (see
``models._predict``), and one batched solve of each noise parameter scores
them all.  Where steps hold few sets, a step's cost is mostly paid per
call, not per set: a solve takes 4-5 Newton rounds of 20-40 numpy calls
whatever the sets.  On the first dataset of fit-compare seed 8301 at 2
restarts, on one CPU, one lockstep of the nine models made 811 scoring
calls against 1,928 for a lockstep per family (2.9 sets per call), and took
0.68x the time; at 32 restarts, whose steps hold hundreds of sets, 0.87x.
Each set's score in a mixed
batch has the bits of its own model's single call, so every search, and
every fit, is the one that fitting its model alone gives: :func:`fit` is the
one-model case of the same lockstep.

:func:`compare` fits its models in a pool of worker processes forked for the
call (at most one per usable CPU and per task), and collects the results,
exceptions and warnings in model order.  Each model is a task, except where
the workers are fewer than the models and at most two (``GROUPED_WORKERS``):
there the families are dealt into one task per worker, the longest-running
first and back and forth, and each task runs one lockstep, as that takes
less time than its models' fits one after another.  It runs the tasks in
the calling process, in turn, where only one worker is possible (so one
task fits every model), where that process is a daemon, or where the
platform cannot fork.  Every fit is the same in each case, so the results
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
from .models import (BLOCK, FAMILIES, MissingParameter, ModelId, ModelParams, XI_MODELS,
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
#: per searched coordinate (``FitOptions.maxiter`` overrides the product).
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
    ``maxiter`` (default ``EVALS_PER_PARAM`` per searched coordinate: the
    model parameters, as the noise is solved at each point) caps both the
    iterations and the evaluations of each restart.  Both must be >= 1.
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
    responses = _SliderResponses.split(np.array([float(observed)]), np.array([0]),
                                       np.array([True]))
    h = np.array([[1.0 / sigma, 1.0]])
    posts = np.array([[pred]])  # group 0's; group 1 has no response to pick
    return float(responses.loglik(h, responses.residuals(posts, posts)).sum())


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
    """Slider responses of the two noise scales (group 0: UTT_A, group 1:
    UTT_AB), laid out for scoring each group's term at h = 1/sigma.

    The interior responses come first, group by group: their predictions sit
    at ``inner_picks`` and their values are ``inner``; ``n`` counts them per
    group.  The censored ones follow, group by group: ``tail_picks`` locates
    their predictions x, and each one's tail mass is Phi(c h) with c =
    ``tail_shift`` + ``tail_slope`` x (-x below 0, x - 1 above 1);
    ``tail_group`` is each one's group.  Each of the picks is a pair of
    positions, in group 0's predictions (``post_a``) and in group 1's
    (``post_ab``; see :func:`_picked`).  ``inner_runs`` and ``tail_runs``
    hold the start of each nonempty group's run and the groups that have one.
    """

    inner_picks: tuple
    inner: np.ndarray
    n: np.ndarray
    inner_runs: tuple
    tail_picks: tuple
    tail_shift: np.ndarray
    tail_slope: np.ndarray
    tail_group: np.ndarray
    tail_runs: tuple

    @classmethod
    def split(cls, observed: np.ndarray, picks: np.ndarray, first: np.ndarray):
        """``observed`` responses that belong to group 0 where ``first``, and
        whose predictions sit at ``picks`` in their group's predictions."""
        group = np.where(first, 0, 1)
        high = observed >= 1.0
        tail = (observed <= 0.0) | high
        inner = [np.flatnonzero(~tail & (group == g)) for g in (0, 1)]
        tails = [np.flatnonzero(tail & (group == g)) for g in (0, 1)]
        inner_at, tail_at = np.concatenate(inner), np.concatenate(tails)
        upper = high[tail_at]
        return cls(tuple(picks[at] for at in inner), observed[inner_at],
                   np.array([len(i) for i in inner], dtype=float), _runs(inner),
                   tuple(picks[at] for at in tails), np.where(upper, -1.0, 0.0),
                   np.where(upper, 1.0, -1.0), group[tail_at], _runs(tails))

    def residuals(self, post_a: np.ndarray, post_ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (K, 2) summed squared residuals S of each group's interior
        responses and the (K, m) tail scales c, from K rows of predictions of
        each group, ``post_a`` and ``post_ab``."""
        residual = self.inner - _picked((post_a, post_ab), self.inner_picks)
        c = self.tail_shift + self.tail_slope * _picked((post_a, post_ab), self.tail_picks)
        return _group_sums(residual * residual, self.inner_runs), c

    def loglik(self, h: np.ndarray, residuals: tuple) -> np.ndarray:
        """The (K, 2) tobit log-likelihoods of each group at its h = 1/sigma
        (a (K, 2) array), from the :meth:`residuals` (S, c) of K rows of
        predictions: sum log Phi(c h) over the censored responses plus
        n log h - S h^2 / 2 - n log(2 pi) / 2 over the n interior ones."""
        s, c = residuals
        tails = _special().log_ndtr(c * np.take(h, self.tail_group, axis=-1))
        return (_group_sums(tails, self.tail_runs)
                + self.n * np.log(h) - 0.5 * s * h * h - self.n * _HALF_LOG_2PI)


def _picked(rows: tuple, picks: tuple) -> np.ndarray:
    """The entries at ``picks[j]`` of each row of ``rows[j]``, concatenated
    along the last axis in the order of ``rows``: what one pick from the
    concatenated rows would give, without copying them whole."""
    return np.concatenate([np.take(row, at, axis=-1) for row, at in zip(rows, picks)], axis=-1)


def _runs(groups: list) -> tuple:
    """The start of each nonempty group's run in the concatenation of
    ``groups``, and the indices of those groups."""
    sizes = [len(g) for g in groups]
    present = [g for g, size in enumerate(sizes) if size]
    return np.array([sum(sizes[:g]) for g in present], dtype=np.intp), present


def _group_sums(values: np.ndarray, runs: tuple) -> np.ndarray:
    """(K, 2) sums of the rows of ``values`` (K, m) over each group's run
    (see :func:`_runs`), 0 for a group without one."""
    starts, present = runs
    if len(present) == 2:
        return np.add.reduceat(values, starts, axis=-1)
    out = np.zeros(values.shape[:-1] + (2,))
    if present:
        out[..., present] = np.add.reduceat(values, starts, axis=-1)
    return out


@dataclass(frozen=True)
class _PackedData:
    """Column-major view of a preprocessed dataset for fast re-scoring.

    ``priors`` holds the raw priors of all rows, grouped by condition in the
    order UTT_A, UTT_AB, WORLD_A, WORLD_AB, so that one table call serves
    every condition.  ``sliders`` holds the slider responses of both
    comprehension conditions, whose predictions it picks from ``post_a``
    (UTT_A) and ``post_ab`` (UTT_AB); ``choices`` holds the position of each
    produced message in the flattened ``prod_wa`` (WORLD_A rows) and in the
    flattened ``prod_wab`` (WORLD_AB rows), a pair for :func:`_picked`, and
    ``labels`` the participant label of each production row, in that order.
    """

    priors: np.ndarray
    sliders: _SliderResponses
    choices: tuple
    labels: list

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "_PackedData":
        dataset = preprocess(dataset)
        conds = (Condition.UTT_A, Condition.UTT_AB, Condition.WORLD_A, Condition.WORLD_AB)
        rows = {c: [r for r in dataset.rows if r.condition is c] for c in conds}
        priors = np.array([r.raw_prior for c in conds for r in rows[c]])
        start = 0
        responses, picks, first, choices, labels = [], [], [], [], []
        for cond in conds:
            at = np.arange(start, start + len(rows[cond]))
            start += len(rows[cond])
            if cond in (Condition.UTT_A, Condition.UTT_AB):
                responses.extend(r.response_posterior for r in rows[cond])
                picks.append(at)
                first.extend([cond is Condition.UTT_A] * at.size)
            else:
                messages = [MODEL_MESSAGES.index(r.response_message) for r in rows[cond]]
                choices.append(3 * at + np.array(messages, dtype=int))
                labels.extend(r.participant_id for r in rows[cond])
        sliders = _SliderResponses.split(np.array(responses, dtype=float), np.concatenate(picks),
                                         np.array(first, dtype=bool))
        return cls(priors, sliders, tuple(choices), labels)


def _packed_loglik(
    model: ModelId, params: ModelParams, noise: NoiseParams, packed: _PackedData
) -> float:
    """Joint log-likelihood of one parameter set (float fields).  Raises
    ``NonfiniteLikelihood``, naming the row, where a production row gets
    probability 0."""
    table = _predict(model, params, packed.priors)
    picked = _picked((table.prod_wa.reshape(1, -1), table.prod_wab.reshape(1, -1)),
                     packed.choices)
    zero = picked[0] + noise.epsilon <= 0.0
    if zero.any():
        raise NonfiniteLikelihood(
            f"row {packed.labels[int(np.argmax(zero))]!r}: observed message has "
            "probability 0 and epsilon is 0"
        )
    h = np.array([[1.0 / noise.sigma_a, 1.0 / noise.sigma_ab]])
    residuals = packed.sliders.residuals(table.post_a[None], table.post_ab[None])
    total = (packed.sliders.loglik(h, residuals).sum()
             + _production_loglik(picked, np.array([float(noise.epsilon)]))[0])
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
# Profiled likelihood: the noise parameters solved at each model point
# ---------------------------------------------------------------------------


#: A noise solve stops after a Newton step from a point where the quadratic
#: model of its term gains at most ``SOLVE_GAIN`` nats, where it cannot move,
#: or after ``SOLVE_ITERATIONS`` steps.
SOLVE_GAIN = 1e-10
SOLVE_ITERATIONS = 100
#: Where the error-rate solve starts.
EPSILON_START = 0.02


def _profiled_logliks(model, params: ModelParams, packed: _PackedData) -> tuple:
    """Joint log-likelihoods of K parameter sets, each at its own best noise,
    and that noise: the (K,) log-likelihoods, the (K, 2) noise scales
    (sigma_a, sigma_ab) and the (K,) error rates.

    ``params`` hold floats (K = 1) or (K, 1) columns, and ``model`` is one
    model, or a tuple of models of any families, one per set (see
    ``models._predict``); one table call serves them all, and one batched
    solve of each noise parameter.  Given the predictions, the
    log-likelihood splits into three terms, each of one noise parameter (see
    :func:`_tobit_profile` and :func:`_epsilon_profile`), and each term has
    one maximum over its box, which a safeguarded Newton solve finds.  Every
    step of a solve acts on each set's own values, and a set stops at its
    own convergence, so set k gets the same bits as it would in a K = 1
    call.  The solves read the predictions of the observed rows alone,
    picked from each field of the table."""
    table = _predict(model, params, packed.priors)
    k = np.size(params.lam)
    residuals = packed.sliders.residuals(table.post_a.reshape(k, -1), table.post_ab.reshape(k, -1))
    tobit, h = _tobit_profile(residuals, packed.sliders)
    production, epsilon = _epsilon_profile(_picked(
        (table.prod_wa.reshape(k, -1), table.prod_wab.reshape(k, -1)), packed.choices))
    return tobit + production, 1.0 / h, epsilon


def _tobit_profile(residuals: tuple, sliders: _SliderResponses) -> tuple:
    """The slider log-likelihoods of K rows of predictions, from their
    :meth:`_SliderResponses.residuals`, each group at its best h = 1/sigma,
    and those (K, 2) h.

    Each part of a group's term (see :meth:`_SliderResponses.loglik`) is
    concave in h (Olsen 1978), so the term has one maximum on h >=
    1/``SIGMA_MAX``.  Newton's method finds it, from the uncensored maximum
    sqrt(n / S) (1 where n or S is 0), with each step kept within [h/2, 2h]
    and above 1/``SIGMA_MAX``.  A group without responses has a term of 0
    and keeps h = 1."""
    s, c = residuals
    n = sliders.n
    cc = c * c
    log_ndtr = _special().log_ndtr
    h = np.maximum(np.where((n > 0) & (s > 0), np.sqrt(n / np.where(s > 0, s, 1.0)), 1.0),
                   1.0 / SIGMA_MAX)
    active = np.ones(h.shape, dtype=bool)
    for _ in range(SOLVE_ITERATIONS):
        z = c * np.take(h, sliders.tail_group, axis=-1)
        mills = np.exp(-0.5 * z * z - _HALF_LOG_2PI - log_ndtr(z))  # phi(z) / Phi(z)
        slope = _group_sums(c * mills, sliders.tail_runs) + n / h - s * h
        # d/dz of phi/Phi is -mills (z + mills), in (-1, 0); the curvature is
        # 0 only for a group without responses, whose slope is 0 too
        curve = -_group_sums(cc * mills * (z + mills), sliders.tail_runs) - n / (h * h) - s
        step = slope / -np.where(curve < 0, curve, -1.0)
        new = np.maximum(np.minimum(np.maximum(h + step, 0.5 * h), 2.0 * h), 1.0 / SIGMA_MAX)
        done = (0.5 * slope * step <= SOLVE_GAIN) | (new == h)
        h = np.where(active, new, h)
        active &= ~done
        if not active.any():
            break
    return sliders.loglik(h, residuals).sum(axis=-1), h


def _production_loglik(picked: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    """The (K,) production log-likelihoods sum log(S + epsilon) - n log(1 +
    3 epsilon) of K rows of the probabilities S of the n produced messages,
    each at its error rate in ``epsilon``."""
    return (np.log(picked + epsilon[:, None]).sum(axis=-1)
            - picked.shape[-1] * np.log1p(N_CANDIDATE_MESSAGES * epsilon))


def _epsilon_profile(picked: np.ndarray) -> tuple:
    """The production log-likelihoods of K rows of the probabilities S of
    the n produced messages, each at its best error rate epsilon in [0, 1],
    and those (K,) epsilon.

    At a stationary point of the term (see :func:`_production_loglik`), its
    second derivative, 9n/(1 + 3 epsilon)^2 - sum 1/(S + epsilon)^2, is
    <= 0 by Cauchy-Schwarz, so the term has one maximum on [0, 1]: at 0
    where its derivative at 0 is <= 0, at 1 where its derivative at 1 is
    >= 0, and else where the derivative is 0, which a Newton solve kept
    inside a shrinking bracket finds."""
    k, n = picked.shape
    epsilon = np.zeros(k)
    if n:
        floor = 1.0 / (3 * n)  # a smaller S alone makes the derivative at 0 positive
        rising = ((picked.min(axis=-1) < floor)
                  | ((1.0 / np.maximum(picked, floor)).sum(axis=-1) > 3 * n))
        if rising.any():
            epsilon[rising] = _epsilon_root(picked[rising] if not rising.all() else picked)
    return _production_loglik(picked, epsilon), epsilon


def _epsilon_root(picked: np.ndarray) -> np.ndarray:
    """The best epsilon of each row of ``picked`` (see
    :func:`_epsilon_profile`) where the derivative at 0 is positive."""
    three_n = 3.0 * picked.shape[-1]
    at_one = (1.0 / (picked + 1.0)).sum(axis=-1) >= three_n / 4
    lo, hi = np.zeros(len(picked)), np.ones(len(picked))
    epsilon = np.full(len(picked), EPSILON_START)
    active = ~at_one
    for _ in range(SOLVE_ITERATIONS):
        if not active.any():
            break
        inverse = 1.0 / (picked + epsilon[:, None])
        spread = 1.0 + 3.0 * epsilon
        slope = inverse.sum(axis=-1) - three_n / spread
        curve = 3.0 * three_n / (spread * spread) - (inverse * inverse).sum(axis=-1)
        rising = slope > 0
        lo, hi = np.where(rising, epsilon, lo), np.where(rising, hi, epsilon)
        # Newton on epsilon times the slope, which is closer to linear
        # where a tiny S makes the slope about 1/epsilon
        turn = slope + epsilon * curve
        newton = epsilon + epsilon * slope / -np.where(turn < 0, turn, -1.0)
        newton_ok = (turn < 0) & (newton >= lo) & (newton <= hi)
        # the quadratic model's gain slope^2 / (2 |curve|) is small
        done = newton_ok & (slope * slope <= -2.0 * SOLVE_GAIN * curve)
        epsilon = np.where(active, np.where(newton_ok, newton, 0.5 * (lo + hi)), epsilon)
        active &= ~done
    return np.where(at_one, 1.0, epsilon)


# ---------------------------------------------------------------------------
# Parameter-space transform: every searched parameter is a clipped logistic
# of an unconstrained coordinate (see OVERSHOOT), so the simplex search never
# leaves the box and reaches each of its bounds.
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
}

#: The noise parameters, solved at each point rather than searched.  The
#: starts still draw a column for each (see ``_ParamSpec.initial_points``).
NOISE_COLUMNS = ("sigma_a", "sigma_ab", "epsilon")


#: Every model's parameters, in the order in which a step of the lockstep
#: decodes the points of all its searches at once (see :func:`_objective`).
_LAYOUT = ("lambda", "delta_ab", "delta_anb", "xi")


@dataclass(frozen=True)
class _ParamSpec:
    """The searched parameters of one fit, in order, with their rows of
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
        return cls.of(("lambda", *costs, *extra))

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

    def params(self, t: np.ndarray) -> ModelParams:
        """Model parameters at a point ``t`` (floats) or at each row of a
        (K, d) stack of points ((K, 1) columns); raises ValueError where an
        entry is out of range."""
        return self.assemble(self.decode(t))

    @staticmethod
    def assemble(values: dict) -> ModelParams:
        """Model parameters from the values of :meth:`decode`, floats or
        (K, 1) columns; raises ValueError as :meth:`params` does."""
        if "delta" in values:
            values["delta_ab"] = values["delta_anb"] = values["delta"]
        return ModelParams(lam=values["lambda"], delta_ab=values["delta_ab"],
                           delta_anb=values["delta_anb"], xi=values.get("xi"))

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
        """``n`` starts: a Latin hypercube over the start ranges, drawn with
        a column for each of ``NOISE_COLUMNS`` too, which are dropped.  So
        the starts are the model parameters of those of a search over the
        noise as well, whatever the noise is searched or solved."""
        d = len(self.names)
        cube = _latin_hypercube(n, d + len(NOISE_COLUMNS), seed)[:, :d]
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
    ``_ParamSpec``) pair.  inf where lambda decodes to 0.

    The points are decoded at once, in the parameters of ``_LAYOUT``
    (``layout``), and the live ones scored together, in batched calls of at
    most ``size`` sets, each call on the tuple of its sets' models (see
    ``models._predict``), each set at its own best noise (see
    :func:`_profiled_logliks`).  A lone set is scored with float parameters,
    which gives the same bits as a batch of one at less cost."""
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
    # the value that ModelParams rejects at 0; the others may be 0
    live = np.flatnonzero(values["lambda"] > 0)
    scores = np.full(len(models), np.inf)
    for start in range(0, live.size, size):
        sets = live[start:start + size]
        if sets.size == 1:
            chunk = {name: v[sets[0], 0] for name, v in values.items()}
        else:
            chunk = values if sets.size == len(models) else {
                name: v[sets] for name, v in values.items()}
        of = models if sets.size == len(models) else [models[k] for k in sets.tolist()]
        scores[sets] = -_profiled_logliks(tuple(of), _ParamSpec.assemble(chunk), packed)[0]
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
    """The restarts of each of ``models``, of any families (see
    ``FAMILIES``), searched in one lockstep: for each model, in order, its
    ``_ParamSpec``, its restarts' results in start order and the packed
    dataset."""
    packed = _PackedData.from_dataset(dataset)
    specs = [_ParamSpec.build(model, equal_costs) for model in models]
    layout, owners, starts, budgets = _ParamSpec.of(_LAYOUT), [], [], []
    for model, spec in zip(models, specs):
        points = spec.initial_points(options.restarts, options.seed)
        owners += [(model, spec)] * len(points)
        starts.extend(points)
        budgets += [options.maxiter or EVALS_PER_PARAM * len(spec.names)] * len(points)
    size = _sets_per_call(packed.priors.size)
    results = _lockstep(lambda asked: _objective(asked, owners, layout, packed, size),
                        starts, budgets)
    n = options.restarts
    return [(spec, results[j * n:(j + 1) * n], packed) for j, spec in enumerate(specs)]


def _sets_per_call(priors: int) -> int:
    """The most parameter sets that one scoring call of a lockstep takes:
    as many as keep sets x ``priors`` within 16 blocks of a long grid
    (``models.BLOCK``), which bounds a call's table and temporaries however
    many searches a step holds: 546 sets of 480 priors, whose table takes
    17 MB.

    Only a lockstep's first steps, the initial simplexes of all its
    searches, reach it at 32 restarts.  A cap that its later steps reach
    too costs more than the smaller calls save: glibc's malloc then hands
    the memory of each full-sized call back to the system and faults it in
    again on the next, as the largest array it has freed sets its trim
    threshold.  A 32-restart compare of the nine models on 480 priors, in
    one task on one CPU, took 0.2-1.0 million page faults and 2.9-3.4 s of
    CPU with calls of at most 68 sets (2 blocks), against 5-60 thousand and
    2.4-3.2 s with 546 sets or no cap, and 1-5 thousand for the locksteps
    of one family each that scored up to 160 sets a call."""
    return max(1, 16 * BLOCK // max(priors, 1))


def _best_fit(model: ModelId, equal_costs: bool, spec: _ParamSpec, results: list,
              packed: _PackedData) -> FitResult:
    """The fit of ``model`` from its restarts' results: the best restart, the
    first of equals, with its best noise, and the log-likelihood there.
    Warns ``NoConvergence`` where no restart met the tolerances."""
    best = min(results, key=lambda res: res.fun)
    if not any(res.success for res in results):
        warnings.warn(
            NoConvergence(f"{model.value}: no restart met the tolerances")
        )
    params = spec.params(best.x)
    _, (sigma,), (epsilon,) = _profiled_logliks(model, params, packed)
    noise = NoiseParams(float(sigma[0]), float(sigma[1]), float(epsilon))
    loglik = _packed_loglik(model, params, noise, packed)
    noise_hits = [sigma[0] == SIGMA_MAX, sigma[1] == SIGMA_MAX, epsilon in (0.0, 1.0)]
    k = len(spec.names) + len(NOISE_COLUMNS)
    return FitResult(
        model=model,
        params=params,
        noise=noise,
        loglik=loglik,
        n_params=k,
        aic=2.0 * k - 2.0 * loglik,
        converged=bool(best.success and np.isfinite(loglik)),
        at_bounds=spec.at_bounds(best.x) + tuple(
            name for name, hit in zip(NOISE_COLUMNS, noise_hits) if hit),
        equal_costs=equal_costs,
    )


def fit(
    model: ModelId,
    dataset: Dataset,
    options: FitOptions | None = None,
    equal_costs: bool = False,
) -> FitResult:
    """Maximize the joint likelihood by multi-start Nelder-Mead over the
    model parameters, with the noise solved at each point.

    The simplex searches the model parameters alone: rationality, one or two
    costs, and the extra prior xi where the model has one, mapped to an
    unconstrained space by clipped-logit transforms onto the box below
    ``LAM_MAX``, ``DELTA_MAX`` and 1 (see ``OVERSHOOT``), which reach each
    bound at a finite point.  Each point is scored at its best sigma_a,
    sigma_ab in (0, ``SIGMA_MAX``] and epsilon in [0, 1], solved exactly
    (see the module docstring).  A restart's budget is ``EVALS_PER_PARAM``
    evaluations per searched coordinate.  The starts are a Latin hypercube
    over sensible ranges, drawn with a column for each noise parameter as
    well, whose draws are dropped: so each restart starts where a search
    over all the parameters would, at the same model parameters, and the
    starts do not depend on which parameters are solved.  The best restart
    wins, the first of equals, and the result holds its solved noise and
    the joint log-likelihood there, which :func:`dataset_loglik` gives too.

    ``options`` sets the restart count, the seed of the starts and the
    evaluation budget of a restart.  The restarts run in lockstep: each
    step scores the points that all unfinished restarts ask for with one
    batched table call and batched noise solves, and each restart walks its
    own simplex down to the tolerances ``XATOL`` and ``FATOL``, so the
    result is that of running them one by one.  This is the one-model case
    of the lockstep in which :func:`compare` fits the models of a task; the
    result is the same bit for bit.  Every parameter of the result that
    lies exactly on a bound of the box, 0 or its upper bound (epsilon 0 or
    1, a sigma at ``SIGMA_MAX``), is named in ``at_bounds``.  Free-parameter
    count: the model parameters plus the three noise parameters, which are
    estimated, if not searched.
    """
    ((spec, results, packed),) = _restarts((model,), dataset, options or FitOptions(),
                                           equal_costs)
    return _best_fit(model, equal_costs, spec, results, packed)


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
    where they are one task (so always where only one worker is possible),
    where this process is a daemon (which may not have children), or where
    the platform cannot fork.  Each distinct model is a task, except where
    the workers are fewer than the distinct models and at most
    ``GROUPED_WORKERS``.  There the families (``models.FAMILIES``: the
    models that ``models._FORMS`` gives one closed form) of the distinct
    models are dealt into one task per worker, or fewer where there are
    fewer families, so one task on one CPU and up to two on two, and each
    task runs its models' restarts in one lockstep: each step scores the
    points of all of them in one batched call (or more, past the cap of
    :func:`_sets_per_call`), with one table and one batched solve of each
    noise parameter, which, where the steps hold few sets, costs little
    more than the call of one model.  The families are dealt
    longest-running first, back and forth (tasks 0, 1, 1, 0), to even out
    the tasks: those with a model that fits xi first, as their searches run
    longest, and the larger of those first.  Each restart still walks its
    own simplex, and every score in a batch has the bits of a score alone,
    so every fit is the one that :func:`fit` would give.  A task's lockstep
    that raises or warns is run again model by model, so each model also
    gets the outcome and warnings of its own fit.  The warnings are
    re-issued here in model order.

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
    if len(tasks) == 1:
        rows = run(tasks[0])
        return _ranked(models, (rows[j] for _, j in map(place.get, models)))
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


# The most workers at which compare deals the families into one task per
# worker.  A task of several families is slower than its longest model's
# fit, so grouping pays only while the workers are too few to run the model
# tasks side by side.  Timed on one CPU on the six fit-compare datasets of
# seeds 0 and 9001, and laid out as a pool of w workers takes the tasks, the
# w dealt tasks against the nine model tasks take 0.48-0.74x at 2 restarts
# and 0.90-1.05x at 32 with w = 2, but 0.56-0.80x and 0.93-1.24x with w = 3,
# and 0.71-0.90x and 1.21-1.56x with w = 4 (the four families, a task each).
GROUPED_WORKERS = 2


def _tasks(distinct: list, workers: int) -> list[tuple]:
    """The tasks of a compare of the ``distinct`` models on ``workers``
    workers: each model alone, or, where the workers are fewer than the
    models and at most ``GROUPED_WORKERS``, the families of them dealt
    into ``workers`` tasks (or fewer, where there are fewer families),
    longest-running first and back and forth (tasks 0, 1, 1, 0 on two
    workers), each task's models family by family."""
    if workers >= len(distinct) or workers > GROUPED_WORKERS:
        return [(model,) for model in distinct]
    # a family's searches last longest where it has a model with xi (one
    # parameter more), and each step costs more the more models it scores
    families = sorted(filter(None, (tuple(m for m in family if m in distinct)
                                    for family in FAMILIES)),
                      reverse=True, key=lambda f: (any(m in XI_MODELS for m in f), len(f)))
    tasks = [()] * min(workers, len(families))
    for j, family in enumerate(families):
        lap, seat = divmod(j, len(tasks))
        tasks[seat if lap % 2 == 0 else -1 - seat] += family
    return tasks


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process,
    which pickling drops; chained as that exception's cause."""


def _task_rows(dataset, options, equal_costs, models) -> list:
    """The outcomes of ``models``, a task's, in order (see
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
