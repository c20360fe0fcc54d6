"""Analytic condition checkers and prior sweeps.

The ``check_*`` functions are the baseline model's level-1 conditions in
closed form (log-odds comparisons); :func:`scan_regions` locates the prior
regions where a prediction-level predicate holds for any model, refining the
boundaries by bisection; :func:`sweep` tabulates predictions over a prior
grid for external plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .models import LOG2, ModelId, ModelParams, P_EPS, predict_table

#: Bisection tolerance on region endpoints.
ENDPOINT_TOL = 1e-6


class Predicate(Enum):
    """Prediction-level predicates evaluated along the prior axis."""

    LISTENER_ANTI_EXH = "listener-anti-exh"
    SPEAKER_ANTI_EXH = "speaker-anti-exh"
    PRODUCTION_EXPLICIT_PREFERRED = "explicit-preferred"

    @classmethod
    def from_name(cls, name: str) -> "Predicate":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(
            f"unknown predicate {name!r}; choose from "
            f"{', '.join(m.value for m in cls)}"
        )


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
    f = lambda x: expit(lam * x)  # noqa: E731
    return f(dab) / (f(dab) - f(dab - LOG2) + f(danb - LOG2))


def _predicate_values(
    model: ModelId, params: ModelParams, predicate: Predicate, p: np.ndarray
) -> np.ndarray:
    """Evaluate the predicate at each prior.

    Both the predictions and the comparand use the models' interior clamp, so
    the exact endpoints p in {0, 1} are judged by their continuity limits
    rather than by the degenerate prior itself.

    The listener comparison ``post_a > pc`` is exact for the variants that
    update the measured prior by Bayes' rule (baseline, Bayesian wonky,
    lexical uncertainty, lexical intentions): their posterior after ``A`` is
    order-exact against the clamped prior, i.e. above, on or below it
    exactly when the exact posterior is, even where ``post - p`` is far below
    float64 resolution (see :mod:`rsa_exh.models`, also for the limit of the
    mixtures).  It is never rounded onto the prior when the exact posterior
    differs from it, so scans find no spurious sign changes.
    """
    pc = np.clip(p, P_EPS, 1.0 - P_EPS)
    table = predict_table(model, params, pc)
    if predicate is Predicate.LISTENER_ANTI_EXH:
        return table.post_a > pc
    if predicate is Predicate.SPEAKER_ANTI_EXH:
        return table.prod_wab[:, 0] > table.prod_wab[:, 1]
    return table.prod_wa[:, 2] > table.prod_wa[:, 0]


def scan_regions(
    model: ModelId,
    params: ModelParams,
    predicate: Predicate,
    grid_step: float = 0.005,
) -> RegionReport:
    """Locate the prior intervals on [0, 1] where the predicate holds.

    The predicate is evaluated on a regular grid (endpoints included, using
    the models' continuity conventions there), and every sign change is
    refined by bisection to within ``ENDPOINT_TOL``.
    """
    if not 0.0 < grid_step <= 0.01:
        raise ValueError("grid_step must be in (0, 0.01]")
    n = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, n + 1)
    values = _predicate_values(model, params, predicate, grid)

    def refine(lo: float, hi: float, lo_value: bool) -> float:
        while hi - lo > ENDPOINT_TOL:
            mid = 0.5 * (lo + hi)
            if bool(_predicate_values(model, params, predicate, np.array([mid]))[0]) == lo_value:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    intervals: list[tuple[float, float]] = []
    i = 0
    while i <= n:
        if not values[i]:
            i += 1
            continue
        j = i
        while j + 1 <= n and values[j + 1]:
            j += 1
        lo = grid[i] if i == 0 else refine(grid[i - 1], grid[i], lo_value=False)
        hi = grid[j] if j == n else refine(grid[j], grid[j + 1], lo_value=True)
        intervals.append((float(lo), float(hi)))
        i = j + 1
    return RegionReport(model, params, predicate, tuple(intervals))


def sweep(model: ModelId, params: ModelParams, grid) -> list[dict]:
    """Predictions plus predicate values over a grid of priors, as rows."""
    p = np.asarray(list(grid), dtype=float)
    if p.size == 0:
        raise ValueError("grid must be nonempty")
    table = predict_table(model, params, p)
    flags = {
        pred: _predicate_values(model, params, pred, p) for pred in Predicate
    }
    rows = []
    for i, pi in enumerate(p):
        row = {
            "model": model.value,
            "p": float(pi),
            "listener_anti_exh": bool(flags[Predicate.LISTENER_ANTI_EXH][i]),
            "speaker_anti_exh": bool(flags[Predicate.SPEAKER_ANTI_EXH][i]),
            "explicit_preferred": bool(
                flags[Predicate.PRODUCTION_EXPLICIT_PREFERRED][i]
            ),
        }
        pred_row = table.at(i).as_row(model, float(pi))
        del pred_row["model"], pred_row["p"]
        row.update(pred_row)
        rows.append(row)
    return rows


#: Column order for sweep rows (CSV header).
SWEEP_COLUMNS = (
    "model", "p",
    "listener_anti_exh", "speaker_anti_exh", "explicit_preferred",
    "post_A", "post_AB",
    "prod_wa_A", "prod_wa_AB", "prod_wa_AnB",
    "prod_wab_A", "prod_wab_AB", "prod_wab_AnB",
)
