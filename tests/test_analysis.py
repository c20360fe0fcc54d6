import itertools
import math

import numpy as np
import pytest

from rsa_exh import analysis
from rsa_exh.analysis import (
    ENDPOINT_TOL,
    PREDICATE_FIELDS,
    Predicate,
    RegionReport,
    SWEEP_COLUMNS,
    bwrsa_antiexh_threshold,
    check_explicit_preferred,
    check_listener_antiexh_base,
    check_speaker_antiexh_base,
    scan_regions,
    sweep,
)
from rsa_exh.engine import iterate
from rsa_exh.models import P_EPS, XI_MODELS, ModelId, _clip_prior, _predict, predict_table
from rsa_exh.oracles import canonical_scenario
from rsa_exh.scenario import ModelParams


def base_s1_rows(params: ModelParams, p: float) -> np.ndarray:
    """Direct level-1 speaker evaluation by the reference recursion."""
    scenario, _ = canonical_scenario(ModelId.BASE_RSA, params, p)
    return iterate(scenario, params.lam, depth=1).speaker(1)  # rows w_a, w_ab


# ---------------------------------------------------------------------------
# closed-form checkers: worked examples
# ---------------------------------------------------------------------------


def test_listener_checker_examples():
    assert check_listener_antiexh_base(
        ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0), 0.9
    )  # log-odds 2.197 > 0.5
    assert not check_listener_antiexh_base(
        ModelParams(lam=3.0, delta_ab=0.7, delta_anb=0.7), 0.5
    )  # 0 > 0 fails


def test_speaker_checker_examples():
    assert check_speaker_antiexh_base(ModelParams(lam=1.0, delta_ab=0.5), 0.9)
    assert not check_speaker_antiexh_base(ModelParams(lam=1.0, delta_ab=0.0), 0.97)


def test_explicit_checker_examples():
    assert check_explicit_preferred(ModelParams(lam=1.0, delta_anb=1.0), 0.9)
    assert check_explicit_preferred(ModelParams(lam=1.0, delta_anb=0.0), 0.3)
    assert not check_explicit_preferred(ModelParams(lam=1.0, delta_anb=1.0), 0.5)


def test_explicit_checker_takes_log1p_of_small_priors():
    # -log1p(-p) = 2.300000002645e-09 at p = 2.3e-9, above delta_anb;
    # -log(1 - p) rounds 1 - p first and comes out below it
    params = ModelParams(lam=92.0, delta_anb=2.299999986774124e-09)
    assert check_explicit_preferred(params, 2.3e-9)


def test_checkers_require_interior_prior():
    params = ModelParams(lam=1.0)
    for checker in (
        check_listener_antiexh_base,
        check_speaker_antiexh_base,
        check_explicit_preferred,
    ):
        with pytest.raises(ValueError):
            checker(params, 0.0)


# ---------------------------------------------------------------------------
# checkers vs direct level-1 evaluation
# ---------------------------------------------------------------------------


def test_checkers_agree_with_direct_evaluation_on_grid():
    params = ModelParams(lam=2.4, delta_ab=0.6, delta_anb=1.1)
    for p in np.arange(0.05, 1.0, 0.05):
        p = float(p)
        s1 = base_s1_rows(params, p)
        assert check_speaker_antiexh_base(params, p) == (s1[1, 0] > s1[1, 1])
        assert check_explicit_preferred(params, p) == (s1[0, 2] > s1[0, 0])
        assert check_listener_antiexh_base(params, p) == (
            predict_table(ModelId.BASE_RSA, params, p).post_a[0] > p
        )


def test_listener_and_speaker_conditions_equivalent():
    # anti-exhaustive listener iff the bare message is likelier in w_ab
    rng = np.random.default_rng(21)
    for _ in range(200):
        params = ModelParams(
            lam=float(np.exp(rng.uniform(np.log(0.2), np.log(20)))),
            delta_ab=float(rng.uniform(0, 2)),
            delta_anb=float(rng.uniform(0, 2)),
        )
        p = float(rng.uniform(0.01, 0.99))
        s1 = base_s1_rows(params, p)
        post_a = predict_table(ModelId.BASE_RSA, params, p).post_a[0]
        assert (post_a > p) == (s1[1, 0] > s1[0, 0])


# ---------------------------------------------------------------------------
# wonkiness threshold
# ---------------------------------------------------------------------------


def test_bwrsa_threshold_reference_point():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.5)
    threshold = bwrsa_antiexh_threshold(params)
    assert threshold > 0.9
    assert threshold == pytest.approx(0.9003, abs=5e-4)


def test_bwrsa_threshold_equal_costs_is_one():
    params = ModelParams(lam=2.0, delta_ab=0.8, delta_anb=0.8, xi=0.5)
    assert bwrsa_antiexh_threshold(params) == pytest.approx(1.0, abs=1e-12)


def test_bwrsa_threshold_exceeds_one_when_conjunction_costlier():
    params = ModelParams(lam=2.0, delta_ab=1.0, delta_anb=0.4, xi=0.5)
    assert bwrsa_antiexh_threshold(params) > 1.0


def test_bwrsa_threshold_separates_scan_outcomes():
    base = dict(lam=3.0, delta_ab=1.0, delta_anb=1.2)
    threshold = bwrsa_antiexh_threshold(ModelParams(xi=0.5, **base))
    below = scan_regions(
        ModelId.BWRSA,
        ModelParams(xi=threshold - 0.02, **base),
        Predicate.LISTENER_ANTI_EXH,
    )
    above = scan_regions(
        ModelId.BWRSA,
        ModelParams(xi=threshold + 0.02, **base),
        Predicate.LISTENER_ANTI_EXH,
    )
    assert below.intervals and not above.intervals


# ---------------------------------------------------------------------------
# region scanning
# ---------------------------------------------------------------------------


def test_scan_rejects_bad_step(monkeypatch):
    # a step finer than ENDPOINT_TOL is refused before its grid is built,
    # which at 1e-9 would hold 1e9 + 1 priors
    def no_grid(n):
        raise AssertionError(f"a grid of {n} steps was built")

    monkeypatch.setattr(analysis, "_scan_grid", no_grid)
    params = ModelParams(lam=1.0)
    for step in (0.05, 0.0, -0.005, ENDPOINT_TOL / 10, math.nan):
        with pytest.raises(ValueError, match="grid step"):
            scan_regions(ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH, step)


def test_scan_base_single_upper_interval():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    report = scan_regions(ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH)
    assert len(report.intervals) == 1
    lo, hi = report.intervals[0]
    assert lo == pytest.approx(math.exp(0.5) / (1 + math.exp(0.5)), abs=1e-5)
    assert hi == 1.0


def test_scan_base_upper_interval_or_empty():
    rng = np.random.default_rng(8)
    for _ in range(10):
        params = ModelParams(
            lam=float(rng.uniform(0.5, 6)),
            delta_ab=float(rng.uniform(0, 2)),
            delta_anb=float(rng.uniform(0, 2)),
        )
        report = scan_regions(ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH)
        assert len(report.intervals) <= 1
        if report.intervals:
            assert report.intervals[0][1] == 1.0


@pytest.mark.parametrize(
    "lam, dab, danb", [(100.0, 3.0, 3.1), (30.0, 2.0, 2.5), (1e3, 5.0, 5.1)]
)
def test_scan_base_listener_region_at_high_rationality(lam, dab, danb):
    # Here post - p falls far below float64 resolution over much of the prior
    # axis (at lam = 1e3 it underflows to 0 between p = 0.015 and 0.98); the
    # region must still be the analytic one, prior log-odds above
    # delta_anb - delta_ab, with no spurious intervals below it.
    params = ModelParams(lam=lam, delta_ab=dab, delta_anb=danb)
    report = scan_regions(ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH)
    assert len(report.intervals) == 1, report.intervals
    lo, hi = report.intervals[0]
    assert abs(lo - 1 / (1 + math.exp(-(danb - dab)))) <= ENDPOINT_TOL
    assert hi == 1.0


def test_scan_svrsa_listener_region_empty():
    params = ModelParams(lam=2.0, delta_ab=0.5, delta_anb=1.0, xi=0.6)
    report = scan_regions(ModelId.SVRSA1, params, Predicate.LISTENER_ANTI_EXH)
    assert report.intervals == ()


def test_scan_wrsa_reference_regions():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.1)
    report = scan_regions(ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH)
    assert len(report.intervals) == 2
    (lo1, hi1), (lo2, hi2) = report.intervals
    assert lo1 == 0.0
    assert hi1 == pytest.approx(0.039, abs=2e-3)
    assert lo2 == pytest.approx(0.566, abs=2e-3)
    assert hi2 == pytest.approx(0.954, abs=2e-3)


def test_scan_stable_under_halving_step():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.1)
    coarse = scan_regions(ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH, 0.008)
    fine = scan_regions(ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH, 0.004)
    assert len(coarse.intervals) == len(fine.intervals)
    for (a, b), (c, d) in zip(coarse.intervals, fine.intervals):
        assert abs(a - c) < 2 * 0.008
        assert abs(b - d) < 2 * 0.008


def serial_intervals(model, params, predicate, grid_step):
    """scan_regions' intervals by the serial bisection, one prior per call."""
    grid = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    holds = lambda p: analysis._predicate_values(  # noqa: E731
        predict_table(model, params, _clip_prior(p)), predicate)
    values = holds(grid)
    ends = [grid[0]] if values[0] else []
    for i in np.flatnonzero(values[1:] != values[:-1]):
        lo, hi = grid[i], grid[i + 1]
        while hi - lo > ENDPOINT_TOL:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if holds(mid)[0] == values[i] else (lo, mid)
        ends.append(0.5 * (lo + hi))
    ends += [grid[-1]] if values[-1] else []
    return tuple((float(lo), float(hi)) for lo, hi in zip(ends[::2], ends[1::2]))


#: (lam, delta_ab, delta_anb, xi): a band-heavy point, a WRSA listener with
#: three boundaries, an SVRSA point with two and three, and two baseline
#: listener boundaries within 1e-6 of the grid points 0.5 and 0.7 (prior
#: log-odds delta_anb - delta_ab), above and below them.
SCAN_DRAWS = [
    (25.0, 2.0, 2.2, 0.5),
    (3.0, 1.0, 1.2, 0.1),
    (7.5193761532135355, 0.030211931899707684, 0.03394124881615758, 0.3897138099727988),
    (3.0, 0.0, math.log((0.5 + 3e-7) / (0.5 - 3e-7)), 0.5),
    (3.0, 0.0, math.log((0.7 - 4e-7) / (0.3 + 4e-7)), 0.5),
]


@pytest.mark.parametrize("model", list(ModelId))
def test_scan_refines_boundaries_as_the_serial_bisection(model, monkeypatch):
    # the batched replay ends each boundary on the serial loop's endpoint,
    # bit for bit, in at most 1 + ceil(13 / BISECT_LEVELS) calls per scan,
    # each of which asks for the one field that the predicate reads: a
    # bracket of either grid step takes 13 halvings, and at the step 0.008
    # the last one is 0.98 ENDPOINT_TOL wide
    calls = []

    def counted(model, params, p, field=None):
        calls.append(field)
        return _predict(model, params, p, field)

    for lam, dab, danb, xi in SCAN_DRAWS:
        params = ModelParams(lam, dab, danb, xi if model in XI_MODELS else None)
        for predicate, grid_step in itertools.product(Predicate, (0.005, 0.008)):
            expected = serial_intervals(model, params, predicate, grid_step)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_predict", counted)
                calls.clear()
                report = scan_regions(model, params, predicate, grid_step)
            assert report.intervals == expected, (params, predicate, grid_step)
            assert len(calls) <= 1 + math.ceil(13 / analysis.BISECT_LEVELS)
            assert set(calls) == {PREDICATE_FIELDS[predicate]}
    if model is ModelId.BASE_RSA:
        # the near-grid cases are what they say
        ends = [scan_regions(model, ModelParams(*draw[:3]), Predicate.LISTENER_ANTI_EXH)
                .intervals[0][0] for draw in SCAN_DRAWS[3:]]
        assert 0 < ends[0] - 0.5 < ENDPOINT_TOL and 0 < 0.7 - ends[1] < ENDPOINT_TOL


@pytest.mark.parametrize("model", list(ModelId))
def test_each_predicate_reads_only_its_field(model):
    # a table of the one field that a predicate reads gives the values of
    # the full table, also on the band-heavy draws, where post_a is formed
    # near the prior, and at the ends of the clamp
    priors = _clip_prior(np.concatenate([[0.0, 1e-9], np.linspace(0.0, 1.0, 401), [1.0]]))
    for lam, dab, danb in ((25.0, 2.0, 2.2), (100.0, 3.0, 3.1), (1e3, 2.0, 2.1), (3.0, 1.0, 1.2)):
        params = ModelParams(lam, dab, danb, 0.5 if model in XI_MODELS else None)
        full = predict_table(model, params, priors)
        for predicate in Predicate:
            one = _predict(model, params, priors, PREDICATE_FIELDS[predicate])
            expected = analysis._predicate_values(full, predicate)
            assert analysis._predicate_values(one, predicate).tolist() == expected.tolist()


def test_scan_grid_is_built_once_per_step_and_cannot_be_written():
    grid, inner = analysis._scan_grid(200)
    assert analysis._scan_grid(200)[0] is grid
    assert grid.tolist() == np.linspace(0.0, 1.0, 201).tolist()
    assert inner.tolist() == _clip_prior(np.linspace(0.0, 1.0, 201)).tolist()
    for array in (grid, inner):
        with pytest.raises(ValueError):
            array[1] = 0.5
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.1)
    first = scan_regions(ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH)
    assert scan_regions(ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH) == first
    assert first.intervals == serial_intervals(ModelId.WRSA, params,
                                               Predicate.LISTENER_ANTI_EXH, 0.005)


def test_region_report_validates_intervals():
    params = ModelParams(lam=1.0)
    with pytest.raises(ValueError):
        RegionReport(
            ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH,
            ((0.5, 0.4),),
        )
    with pytest.raises(ValueError):
        RegionReport(
            ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH,
            ((0.1, 0.5), (0.4, 0.9)),
        )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(ModelId.BASE_RSA, ModelParams(lam=1.0), [])


def test_sweep_rows_and_reference_curve():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    grid = np.arange(1, 100) / 100
    rows = sweep(ModelId.BASE_RSA, params, grid)
    assert len(rows) == 99
    assert [r["p"] for r in rows] == sorted(r["p"] for r in rows)
    assert set(rows[0]) == set(SWEEP_COLUMNS)
    # the anti-exhaustive stretch: posterior above the identity line for
    # priors beyond the log-odds threshold (~0.6225)
    for row in rows:
        expected = row["p"] > math.exp(0.5) / (1 + math.exp(0.5))
        assert row["listener_anti_exh"] == expected
        assert (row["post_A"] > row["p"]) == expected


def test_sweep_reads_its_predicates_off_one_table(monkeypatch):
    # one table for the rows, and one at the clamped grid for all three
    # predicates only where the clamp moves a prior
    calls = []

    def counted(*args):
        calls.append(args)
        return predict_table(*args)

    monkeypatch.setattr(analysis, "predict_table", counted)
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0, xi=0.3)
    for grid, tables in (([0.0, 0.25, 1.0], 2), ([1e-13, 0.25, 1 - 1e-13], 2),
                         ([P_EPS, 0.25, 0.5, 1 - P_EPS], 1)):
        calls.clear()
        rows = sweep(ModelId.WRSA, params, grid)
        assert len(rows) == len(grid) and len(calls) == tables, grid


@pytest.mark.parametrize("model", list(ModelId))
def test_sweep_rows_are_the_table_columns(model):
    # rows keyed in SWEEP_COLUMNS order, holding the table at the grid and
    # the predicates at the clamped grid, as str, float and bool; on a grid
    # with the ends 0 and 1 and on one that the clamp leaves as it is
    params = ModelParams(lam=3.9, delta_ab=0.37, delta_anb=2.0,
                         xi=0.35 if model in XI_MODELS else None)
    for grid in (np.linspace(0.0, 1.0, 41), np.arange(1, 100) / 100):
        rows = sweep(model, params, grid)
        table = predict_table(model, params, grid)
        clamped = predict_table(model, params, np.clip(grid, P_EPS, 1 - P_EPS))
        flags = [analysis._predicate_values(clamped, pred) for pred in Predicate]
        assert len(rows) == grid.size
        for i, row in enumerate(rows):
            assert tuple(row) == SWEEP_COLUMNS
            expected = (model.value, grid[i], *(f[i] for f in flags), table.post_a[i],
                        table.post_ab[i], *table.prod_wa[i], *table.prod_wab[i])
            assert [type(v) for v in row.values()] == [str, float] + [bool] * 3 + [float] * 8
            assert list(row.values()) == list(expected)


def test_sweep_symmetric_point():
    params = ModelParams(lam=2.0, delta_ab=0.7, delta_anb=0.7)
    row = sweep(ModelId.BASE_RSA, params, [0.5])[0]
    assert row["post_A"] == pytest.approx(0.5, abs=1e-12)
