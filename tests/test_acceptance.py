"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL line per criterion (run with ``-s`` to see
them).  Criterion 10 needs the experimental dataset on disk and is skipped,
not failed, when the file is absent.
"""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from rsa_exh.analysis import Predicate, bwrsa_antiexh_threshold, scan_regions
from rsa_exh.data import parse_dataset, read_column_map, smoothed_production_probs, synth_generate
from rsa_exh.engine import iterate
from rsa_exh.fitting import FitOptions, NoiseParams, compare, comprehension_loglik, fit
from rsa_exh.models import (
    ModelId,
    XI_MODELS,
    lu_predict,
    predict_table,
)
from rsa_exh.oracles import canonical_scenario, oracle_predict_table
from rsa_exh.scenario import ModelParams

P_GRID = np.arange(1, 100) / 100
LAM_GRID = (0.5, 1.0, 3.0, 10.0)
DELTA_GRID = (0.0, 0.5, 1.0, 2.0)
XI_GRID = (0.0, 0.1, 0.5, 0.9, 1.0)

#: Reference fitted values used as the recovery target (criterion 9).
WRSA_REFERENCE = ModelParams(lam=3.9, delta_ab=0.0, delta_anb=0.37, xi=0.86)
WRSA_REFERENCE_NOISE = NoiseParams(sigma_a=0.33, sigma_ab=0.22, epsilon=0.022)

DATASET_PATH = Path(os.environ.get("RSA_EXH_DATASET", "data/experiment.csv"))


def criterion(number: int, description: str):
    """Print one PASS/FAIL/SKIP line per criterion as the test resolves."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                word = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"[criterion {number:2d}] {word}  {description}")
                raise
            print(f"[criterion {number:2d}] PASS  {description}")

        return wrapper

    return decorate


def _table_gap(a, b) -> float:
    return max(
        np.abs(a.post_a - b.post_a).max(),
        np.abs(a.post_ab - b.post_ab).max(),
        np.abs(a.prod_wa - b.prod_wa).max(),
        np.abs(a.prod_wab - b.prod_wab).max(),
    )


@criterion(1, "closed forms match the generic engine within 1e-9 on the full grid")
def test_oracle_equivalence_full_grid():
    started = time.perf_counter()
    for model in ModelId:
        worst = 0.0
        xis = XI_GRID if model in XI_MODELS else (None,)
        for lam in LAM_GRID:
            for dab in DELTA_GRID:
                for danb in DELTA_GRID:
                    for xi in xis:
                        params = ModelParams(
                            lam=lam, delta_ab=dab, delta_anb=danb, xi=xi
                        )
                        gap = _table_gap(
                            predict_table(model, params, P_GRID),
                            oracle_predict_table(model, params, P_GRID),
                        )
                        worst = max(worst, gap)
        assert worst < 1e-9, f"{model.value}: worst deviation {worst:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


@criterion(2, "analytic condition checkers agree with direct evaluation on 1e4 draws")
def test_checkers_match_direct_evaluation():
    from rsa_exh.analysis import (
        check_explicit_preferred,
        check_listener_antiexh_base,
        check_speaker_antiexh_base,
    )

    rng = np.random.default_rng(2024)
    n = 10_000
    disagreements = 0
    for _ in range(n):
        params = ModelParams(
            lam=float(np.exp(rng.uniform(np.log(0.1), np.log(100)))),
            delta_ab=float(rng.uniform(0, 3)),
            delta_anb=float(rng.uniform(0, 3)),
        )
        p = float(rng.uniform(1e-3, 1 - 1e-3))
        scenario, _ = canonical_scenario(ModelId.BASE_RSA, params, p)
        s1 = iterate(scenario, params.lam, depth=1).speaker(1)  # worlds x messages
        ok = (
            check_speaker_antiexh_base(params, p) == (s1[1, 0] > s1[1, 1])
            and check_explicit_preferred(params, p) == (s1[0, 2] > s1[0, 0])
            and check_listener_antiexh_base(params, p)
            == (predict_table(ModelId.BASE_RSA, params, p).post_a[0] > p)
        )
        disagreements += not ok
    assert disagreements == 0, f"{disagreements}/{n} draws disagreed"


@criterion(3, "wonky-prior anti-exhaustivity regions are [0,.04] and [.57,.95] (+-.01)")
def test_wrsa_reference_regions():
    params = ModelParams(lam=3.0, delta_ab=1.0, delta_anb=1.2, xi=0.1)
    report = scan_regions(
        ModelId.WRSA, params, Predicate.LISTENER_ANTI_EXH, grid_step=0.002
    )
    assert len(report.intervals) == 2, f"intervals: {report.intervals}"
    (lo1, hi1), (lo2, hi2) = report.intervals
    assert abs(lo1 - 0.0) <= 0.01
    assert abs(hi1 - 0.04) <= 0.01
    assert abs(lo2 - 0.57) <= 0.01
    assert abs(hi2 - 0.95) <= 0.01


@criterion(4, "Bayesian wonky threshold > 0.9 and separates scan outcomes at +-0.02")
def test_bwrsa_threshold_and_scans():
    base_kwargs = dict(lam=3.0, delta_ab=1.0, delta_anb=1.2)
    threshold = bwrsa_antiexh_threshold(ModelParams(xi=0.5, **base_kwargs))
    assert threshold > 0.9
    below = scan_regions(
        ModelId.BWRSA,
        ModelParams(xi=threshold - 0.02, **base_kwargs),
        Predicate.LISTENER_ANTI_EXH,
    )
    above = scan_regions(
        ModelId.BWRSA,
        ModelParams(xi=threshold + 0.02, **base_kwargs),
        Predicate.LISTENER_ANTI_EXH,
    )
    assert below.intervals, "expected an anti-exhaustivity region below threshold"
    assert not above.intervals, f"unexpected region above threshold: {above.intervals}"


@criterion(5, "supervaluationist posterior never exceeds the prior (1e4 draws, strict)")
def test_svrsa_posterior_below_prior():
    rng = np.random.default_rng(5)
    n = 10_000
    violations = 0
    for _ in range(n):
        params = ModelParams(
            lam=float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
            delta_ab=float(rng.uniform(0, 2)),
            delta_anb=float(rng.uniform(0, 2)),
            xi=float(rng.uniform(0.01, 0.99)),
        )
        p = float(rng.uniform(0.01, 0.99))
        variant = 1 if rng.random() < 0.5 else 2
        table = predict_table(ModelId.SVRSA1 if variant == 1 else ModelId.SVRSA2, params, p)
        violations += not (table.post_a[0] < p)
    assert violations == 0, f"{violations}/{n} draws violated strict inequality"


def _row_gaps(a, b) -> np.ndarray:
    """Largest absolute deviation per prior, over every table field."""
    return np.max(
        [
            np.abs(a.post_a - b.post_a),
            np.abs(a.post_ab - b.post_ab),
            np.abs(a.prod_wa - b.prod_wa).max(axis=1),
            np.abs(a.prod_wab - b.prod_wab).max(axis=1),
        ],
        axis=0,
    )


@criterion(6, "grammatical LU and intentions-v2 agree at zero costs, high rationality")
def test_exh_lu_equals_li2_in_categorical_regime():
    # The equivalence is a high-rationality limit at zero costs.  Both
    # listeners leave a residual posterior on w_ab after "A": about
    # 2 p^(lam+1) / (1 - p) for EXH_LU (A ~ p^lam / 2, B ~ 1/4) and
    # 1.5 p^(lam+1) / (1 - p) for LI2 (A ~ p^lam / 2, B ~ 1/3), a ratio of
    # 4/3 and a difference of p^(lam+1) / (2 (1 - p)).  The level-2 speaker in
    # w_a scores "A" by sigma(lam log(1 - post)) ~ 1/2 - lam post / 4, which
    # amplifies that difference by lam / 4: the leading-order gap, in prod_wa,
    # is lam p^(lam+1) / (8 (1 - p)).  Where it is negligible the limit has
    # converged and the two models must agree to 1e-9; elsewhere (on this grid
    # only lam = 3e3, p = 0.99, where lam |log p| is 30 and the gap is
    # 2.987e-9, as a 200-digit evaluation of both models confirms) the
    # measured gap must follow the leading-order rate.
    spot = ModelParams(lam=1e3)
    gap = _table_gap(
        predict_table(ModelId.EXH_LU, spot, np.array([0.3])),
        predict_table(ModelId.RSA_LI2, spot, np.array([0.3])),
    )
    assert gap < 1e-9, f"spot check gap {gap:.3e}"
    for lam in (3e3, 1e4, 1e5):
        params = ModelParams(lam=lam)
        gaps = _row_gaps(
            predict_table(ModelId.EXH_LU, params, P_GRID),
            predict_table(ModelId.RSA_LI2, params, P_GRID),
        )
        leading = lam * P_GRID ** (lam + 1) / (8 * (1 - P_GRID))
        converged = leading < 1e-10
        worst = gaps[converged].max()
        assert worst < 1e-9, f"lam={lam}: gap {worst:.3e}"
        for p, gap, lead in zip(P_GRID[~converged], gaps[~converged], leading[~converged]):
            assert abs(gap - lead) <= 1e-3 * lead, (
                f"lam={lam}, p={p}: gap {gap:.6e}, leading order {lead:.6e}"
            )


@criterion(7, "baseline sweep crosses the identity line at p = 0.6225 +- 0.005")
def test_base_identity_crossing():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    report = scan_regions(ModelId.BASE_RSA, params, Predicate.LISTENER_ANTI_EXH)
    assert len(report.intervals) == 1
    lo, hi = report.intervals[0]
    assert abs(lo - 0.6224593) <= 0.005
    assert hi == 1.0
    table = predict_table(ModelId.BASE_RSA, params, P_GRID)
    above = table.post_a > P_GRID
    np.testing.assert_array_equal(above, P_GRID > lo)


@criterion(8, "degenerate settings reproduce the baseline pointwise (1e-12)")
def test_degenerate_model_identities():
    base = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    base_table = predict_table(ModelId.BASE_RSA, base, P_GRID)

    wonky_off = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0, xi=0.0)
    gap = _table_gap(predict_table(ModelId.WRSA, wonky_off, P_GRID), base_table)
    assert gap <= 1e-12, f"zero-wonkiness gap {gap:.3e}"

    worst = _table_gap(lu_predict(base, P_GRID, (1.0, 0.0, 0.0)), base_table)
    assert worst <= 1e-12, f"literal-only LU gap {worst:.3e}"


@criterion(9, "synthetic-data refits recover lam/xi/epsilon (medians over 20 seeds)")
def test_wrsa_parameter_recovery():
    started = time.perf_counter()
    lam_rel, xi_abs, eps_abs = [], [], []
    for seed in range(20):
        ds = synth_generate(
            ModelId.WRSA, WRSA_REFERENCE, WRSA_REFERENCE_NOISE, seed=seed
        )
        comp = sum(r.survey.value == "comprehension" for r in ds.rows)
        assert comp == 240 and len(ds) == 480
        result = fit(ModelId.WRSA, ds, options=FitOptions(restarts=10, seed=seed))
        lam_rel.append(abs(result.params.lam - WRSA_REFERENCE.lam) / WRSA_REFERENCE.lam)
        xi_abs.append(abs(result.params.xi - WRSA_REFERENCE.xi))
        eps_abs.append(abs(result.noise.epsilon - WRSA_REFERENCE_NOISE.epsilon))
    elapsed = time.perf_counter() - started
    assert np.median(lam_rel) <= 0.20, f"median lam error {np.median(lam_rel):.3f}"
    assert np.median(xi_abs) <= 0.10, f"median xi error {np.median(xi_abs):.3f}"
    assert np.median(eps_abs) <= 0.02, f"median eps error {np.median(eps_abs):.4f}"
    assert elapsed < 600.0, f"recovery took {elapsed:.0f}s"


@criterion(10, "published dataset reproduces the AIC ordering head and tail")
def test_published_dataset_orderings():
    if not DATASET_PATH.exists():
        pytest.skip(f"experimental dataset not present at {DATASET_PATH}")
    column_map = None
    map_path = os.environ.get("RSA_EXH_COLUMN_MAP")
    if map_path:
        column_map = read_column_map(Path(map_path).read_text(encoding="utf-8"))
    dataset, errors = parse_dataset(
        DATASET_PATH.read_text(encoding="utf-8"), column_map
    )
    assert len(dataset) > 0, f"no usable rows ({len(errors)} row errors)"

    options = FitOptions(restarts=16, seed=0)
    free = compare(list(ModelId), dataset, options=options)
    top_two = {free[0].model, free[1].model}
    assert top_two == {ModelId.WRSA, ModelId.SVRSA1}, f"head: {top_two}"
    assert free[-1].model is ModelId.BASE_RSA, f"tail: {free[-1].model}"

    tied = compare(list(ModelId), dataset, options=options, equal_costs=True)
    assert tied[0].model is ModelId.SVRSA1, f"equal-costs head: {tied[0].model}"


@criterion(11, "tobit density integrates to 1; smoothed production sums to 1")
def test_likelihood_sanity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pred = float(rng.uniform(0, 1))
        sigma = float(rng.uniform(0.05, 5))
        interior, _ = quad(
            lambda y: math.exp(comprehension_loglik(pred, y, sigma)),
            1e-12, 1 - 1e-12, limit=200,
        )
        total = (
            interior
            + math.exp(comprehension_loglik(pred, 0.0, sigma))
            + math.exp(comprehension_loglik(pred, 1.0, sigma))
        )
        assert abs(total - 1.0) <= 1e-6, f"pred={pred}, sigma={sigma}: {total}"
    for _ in range(100):
        probs = rng.dirichlet(np.ones(3))
        eps = float(rng.uniform(0, 1))
        total = math.fsum(smoothed_production_probs(probs, eps))
        assert abs(total - 1.0) <= 1e-15
