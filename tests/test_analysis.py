import math

import numpy as np
import pytest

from rsa_exh.analysis import (
    ENDPOINT_TOL,
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
from rsa_exh.engine import DegenerateMessage, literal_listener, softmax_speaker, utility
from rsa_exh.models import ModelId, base_rsa_l1
from rsa_exh.oracles import canonical_scenario
from rsa_exh.scenario import ModelParams


def base_s1_rows(params: ModelParams, p: float) -> np.ndarray:
    """Direct level-1 speaker evaluation through the engine primitives."""
    scenario, _ = canonical_scenario(ModelId.BASE_RSA, params, p)
    rows = []
    for w in scenario.worlds:
        utilities = []
        for m_idx, m in enumerate(scenario.messages):
            try:
                dist = literal_listener(scenario, m)
                utilities.append(utility(dist, w, float(scenario.costs[m_idx])))
            except DegenerateMessage:
                utilities.append(-math.inf)
        rows.append(softmax_speaker(utilities, params.lam).probs)
    return np.array(rows)  # (worlds, messages): rows w_a, w_ab


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
            base_rsa_l1(params, p) > p
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
        assert (base_rsa_l1(params, p) > p) == (s1[1, 0] > s1[0, 0])


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


def test_scan_rejects_bad_step():
    params = ModelParams(lam=1.0)
    with pytest.raises(ValueError):
        scan_regions(ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH, 0.05)


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


def test_sweep_symmetric_point():
    params = ModelParams(lam=2.0, delta_ab=0.7, delta_anb=0.7)
    row = sweep(ModelId.BASE_RSA, params, [0.5])[0]
    assert row["post_A"] == pytest.approx(0.5, abs=1e-12)
