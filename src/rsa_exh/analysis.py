"""Analytic condition checkers and prior sweeps.

The ``check_*`` functions are the baseline model's level-1 conditions in
closed form (log-odds comparisons); :func:`scan_regions` locates the prior
regions where a prediction-level predicate holds for any model, refining the
boundaries by a batched bisection that ends on the serial bisection's
endpoints, bit for bit; :func:`sweep` tabulates predictions over a prior
grid for external plotting.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import (LOG2, ModelId, ModelParams, PredictionTable, _clip_prior, _expit,
                     _predict, predict_table)

#: Bisection tolerance on region endpoints.
ENDPOINT_TOL = 1e-6


class Predicate(Enum):
    """Prediction-level predicates evaluated along the prior axis."""

    LISTENER_ANTI_EXH = "listener-anti-exh"
    SPEAKER_ANTI_EXH = "speaker-anti-exh"
    PRODUCTION_EXPLICIT_PREFERRED = "explicit-preferred"


@dataclass(frozen=True)
class RegionReport:
    """Disjoint, sorted sub-intervals of [0, 1] where a predicate holds."""

    model: ModelId
    params: ModelParams
    predicate: Predicate
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        last = -1.0
        for lo, hi in self.intervals:
            if not (0.0 <= lo <= hi <= 1.0) or lo <= last:
                raise ValueError("intervals must be disjoint, sorted, within [0, 1]")
            last = hi


def check_listener_antiexh_base(params: ModelParams, p: float) -> bool:
    """Baseline listener-side anti-exhaustivity: the posterior on ``World.AB``
    after the bare message exceeds its prior iff the prior log-odds beat the
    cost disadvantage of the explicit exclusion."""
    _require_interior(p)
    return math.log(p) - math.log1p(-p) > params.delta_anb - params.delta_ab


def check_speaker_antiexh_base(params: ModelParams, p: float) -> bool:
    """Baseline speaker-side anti-exhaustivity: in ``World.AB`` the level-1
    speaker prefers the bare message over the conjunction iff the conjunction's
    information gain is not worth its cost."""
    _require_interior(p)
    return -math.log(p) < params.delta_ab


def check_explicit_preferred(params: ModelParams, p: float) -> bool:
    """Baseline production effect: in ``World.A`` the level-1 speaker prefers
    the explicit ``A_AND_NOT_B`` over the bare message iff the informativity
    gain exceeds its cost."""
    _require_interior(p)
    return -math.log1p(-p) > params.delta_anb


def _require_interior(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"checker requires p in (0, 1), got {p}")


def bwrsa_antiexh_threshold(params: ModelParams) -> float:
    """Wonkiness-prior threshold below which the Bayesian wonky variant shows
    listener-side anti-exhaustivity for some prior.

    The condition is monotone in the prior, so it reduces to the high-prior
    limit; values above 1 mean anti-exhaustivity at every wonkiness prior.
    """
    lam, dab, danb = params.lam, params.delta_ab, params.delta_anb
    f = lambda x: _expit(lam * x)  # noqa: E731
    return f(dab) / (f(dab) - f(dab - LOG2) + f(danb - LOG2))


#: The one field of a table that each predicate reads (see
#: :func:`_predicate_values`), as the ``field`` of ``models._predict``.
PREDICATE_FIELDS = {
    Predicate.LISTENER_ANTI_EXH: "post_a",
    Predicate.SPEAKER_ANTI_EXH: "prod_wab",
    Predicate.PRODUCTION_EXPLICIT_PREFERRED: "prod_wa",
}


def _predicate_values(table: PredictionTable, predicate: Predicate) -> np.ndarray:
    """Evaluate the predicate at each prior of ``table``, which must hold
    the field that the predicate reads (:data:`PREDICATE_FIELDS`): the
    listener predicate reads ``post_a``, the speaker predicate the row of
    ``World.AB`` (``prod_wab``) and the explicit-message predicate that of
    ``World.A`` (``prod_wa``).

    The table is taken at priors under the models' interior clamp, which
    are also the comparand, so the exact endpoints p in {0, 1} are judged by
    their continuity limits rather than by the degenerate prior itself.

    The listener comparison ``post_a > p`` is exact for the variants that
    update the measured prior by Bayes' rule (baseline, Bayesian wonky,
    lexical uncertainty, lexical intentions): their posterior after ``A`` is
    order-exact against the clamped prior, i.e. above, on or below it
    exactly when the exact posterior is, even where ``post - p`` is far below
    float64 resolution (see :mod:`rsa_exh.models`, also for the limit of the
    mixtures).  It is never rounded onto the prior when the exact posterior
    differs from it, so scans find no spurious sign changes.  That holds
    whenever the table holds ``post_a``, alone (a scan's one-field table,
    see ``models._predict``) or with the others: the correction near the
    prior that makes it order-exact runs for it.
    """
    if predicate is Predicate.LISTENER_ANTI_EXH:
        return table.post_a > table.p
    if predicate is Predicate.SPEAKER_ANTI_EXH:
        return table.prod_wab[:, 0] > table.prod_wab[:, 1]
    return table.prod_wa[:, 2] > table.prod_wa[:, 0]


#: Levels of bisection that :func:`scan_regions` replays per
#: table call (see :func:`_bisect`): a call evaluates up to
#: ``2**BISECT_LEVELS - 1`` midpoints per open bracket, and a bracket of the
#: default grid step needs 13 levels, so 7 levels take two calls.  On a
#: 2-vCPU Xeon VM, the 648 scans of three prior-scan benchmark rounds (seed
#: 1601) took, in the median of 15 interleaved repeats, 0.50-0.51 of the
#: serial loop's time (0.77 -> 0.39 s) with this constant and with 5 levels,
#: 0.52-0.56 with 4, 6 and 8, and 0.64 with 9: more levels per call save
#: calls, fewer save midpoints that no walk reaches.
BISECT_LEVELS = 7


def _midpoints(lo: float, hi: float) -> dict[int, float]:
    """The midpoints of the next ``BISECT_LEVELS`` levels of bisection of
    ``[lo, hi]``, of the brackets wider than ``ENDPOINT_TOL``, by the
    brackets' index in heap order: the halves of bracket ``i`` are ``2i + 1``
    (below its midpoint) and ``2i + 2`` (above it)."""
    mids = {}
    brackets = [(0, lo, hi)]
    for i, lo, hi in brackets:
        if hi - lo > ENDPOINT_TOL:
            mids[i] = mid = 0.5 * (lo + hi)
            if 2 * i + 2 < 2 ** BISECT_LEVELS - 1:
                brackets += [(2 * i + 1, lo, mid), (2 * i + 2, mid, hi)]
    return mids


def _bisect(model: ModelId, params: ModelParams, predicate: Predicate,
            brackets: list[tuple[float, float, bool]]) -> list[float]:
    """The endpoints that serial bisection finds in the brackets ``(lo, hi,
    lo_value)``, where the predicate is ``lo_value`` at ``lo`` and not at ``hi``.

    The serial loop halves a bracket at ``mid = 0.5 * (lo + hi)`` while ``hi
    - lo > ENDPOINT_TOL``, keeps the half whose ends differ and returns the
    last midpoint.  Here each table call evaluates the midpoints
    of the next ``BISECT_LEVELS`` levels of every open bracket (see
    :func:`_midpoints`), and each bracket walks its tree with the values.
    Every table entry depends on its own prior alone, so the walks end on
    the serial endpoints, bit for bit.
    """
    brackets = list(brackets)
    while True:
        trees = [(b, _midpoints(lo, hi)) for b, (lo, hi, _) in enumerate(brackets)
                 if hi - lo > ENDPOINT_TOL]
        if not trees:
            return [0.5 * (lo + hi) for lo, hi, _ in brackets]
        priors = _clip_prior([mid for _, mids in trees for mid in mids.values()])
        table = _predict(model, params, priors, PREDICATE_FIELDS[predicate])
        values = iter(_predicate_values(table, predicate).tolist())
        for b, mids in trees:
            value = dict(zip(mids, values))
            lo, hi, lo_value = brackets[b]
            i = 0
            while i in mids:
                if value[i] == lo_value:
                    lo, i = mids[i], 2 * i + 2
                else:
                    hi, i = mids[i], 2 * i + 1
            brackets[b] = (lo, hi, lo_value)


@functools.lru_cache(maxsize=8)
def _scan_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n + 1`` equally spaced priors of a scan's grid on [0, 1],
    endpoints included, and the same priors under the models' interior clamp;
    both read-only, since each is shared by every scan with ``n`` steps.
    Building them took about 6 us per scan (0.17 ms of the benchmark's pass
    of 27 scans on a 2-vCPU AMD EPYC VM)."""
    grid = np.linspace(0.0, 1.0, n + 1)
    inner = _clip_prior(grid)
    grid.flags.writeable = inner.flags.writeable = False
    return grid, inner


def require_grid_step(grid_step: float) -> None:
    """Raise ``ValueError`` unless ``grid_step`` is a scan's grid step, in
    ``[ENDPOINT_TOL, 0.01]``.  A grid finer than the bisection's tolerance
    refines nothing that the bisection does not, and the floor caps a scan's
    grid at about 1e6 priors (8 MB per array)."""
    if not ENDPOINT_TOL <= grid_step <= 0.01:
        raise ValueError(f"grid step must be in [{ENDPOINT_TOL:g}, 0.01], got {grid_step!r}")


def scan_regions(
    model: ModelId,
    params: ModelParams,
    predicate: Predicate,
    grid_step: float = 0.005,
) -> RegionReport:
    """Locate the prior intervals on [0, 1] where the predicate holds.

    The predicate is evaluated on a regular grid (endpoints included, using
    the models' continuity conventions there), and every sign change is
    refined by bisection to within ``ENDPOINT_TOL``: all of them together,
    ``BISECT_LEVELS`` levels per table call, with the serial bisection's
    endpoints (see :func:`_bisect`).  Each call computes only the field that
    the predicate reads (:data:`PREDICATE_FIELDS`).  ``grid_step`` must pass
    :func:`require_grid_step`.
    """
    require_grid_step(grid_step)
    grid, inner = _scan_grid(int(round(1.0 / grid_step)))
    table = _predict(model, params, inner, PREDICATE_FIELDS[predicate])
    values = _predicate_values(table, predicate)
    # the ends of the runs of True, in order: a run's start is refined from
    # the False before it, its end from the False after it
    points = grid.tolist()
    ends = [points[0]] if values[0] else []
    ends += _bisect(model, params, predicate,
                    [(points[i], points[i + 1], bool(values[i]))
                     for i in np.flatnonzero(values[1:] != values[:-1])])
    if values[-1]:
        ends.append(points[-1])
    return RegionReport(model, params, predicate, tuple(zip(ends[::2], ends[1::2])))


#: Column order for sweep rows (CSV header).
SWEEP_COLUMNS = (
    "model", "p",
    "listener_anti_exh", "speaker_anti_exh", "explicit_preferred",
    "post_A", "post_AB",
    "prod_wa_A", "prod_wa_AB", "prod_wa_AnB",
    "prod_wab_A", "prod_wab_AB", "prod_wab_AnB",
)


def sweep(model: ModelId, params: ModelParams, grid) -> list[dict]:
    """Predictions plus predicate values over a grid of priors, as rows keyed
    in ``SWEEP_COLUMNS`` order."""
    p = np.asarray(list(grid), dtype=float)
    if p.size == 0:
        raise ValueError("grid must be nonempty")
    table = predict_table(model, params, p)
    inner = _clip_prior(p)
    # the clamp changes only a grid that holds 0, 1 or priors beyond it
    clamped = table if np.array_equal(inner, p) else predict_table(model, params, inner)
    columns = (p, *(_predicate_values(clamped, pred) for pred in Predicate),
               table.post_a, table.post_ab, *table.prod_wa.T, *table.prod_wab.T)
    return [dict(zip(SWEEP_COLUMNS, row))
            for row in zip(itertools.repeat(model.value), *(column.tolist() for column in columns))]
