import itertools
import math

import numpy as np
import pytest

from rsa_exh.engine import (
    GenericScenario,
    iterate,
    log_joint_listener_table,
    log_literal_listener_table,
    log_softmax,
    log_speaker_table,
    logsumexp,
)
from rsa_exh.models import ModelId, predict_table
from rsa_exh.oracles import canonical_scenario
from rsa_exh.scenario import ModelParams


def reference_l0(truth, world_prior):
    """Literal listener (contexts, messages, worlds), entry by entry in plain
    floats."""
    l0 = np.zeros(truth.shape)
    for c, m in np.ndindex(truth.shape[:2]):
        total = math.fsum(world_prior[c, w] for w in np.flatnonzero(truth[c, m]))
        for w in np.flatnonzero(truth[c, m]):
            l0[c, m, w] = world_prior[c, w] / total
    return l0


def reference_s1(truth, world_prior, costs, lam):
    """Level-1 speaker (contexts, worlds, messages), entry by entry in plain
    floats: exp(lam * (log literal posterior - cost)) normalized over the
    messages.  Every world needs a true message of positive posterior."""
    l0 = reference_l0(truth, world_prior)
    n_c, n_m, n_w = truth.shape
    s1 = np.zeros((n_c, n_w, n_m))
    for c, w in np.ndindex(n_c, n_w):
        weights = [math.exp(lam * (math.log(l0[c, m, w]) - costs[m])) if l0[c, m, w] > 0
                   else 0.0 for m in range(n_m)]
        s1[c, w] = [x / math.fsum(weights) for x in weights]
    return s1


# ---------------------------------------------------------------------------
# literal listener table
# ---------------------------------------------------------------------------


def literal(prior, truth):
    return np.exp(log_literal_listener_table(np.array([truth]), np.array([prior])))[0]


def test_literal_listener_tautology_uniform():
    np.testing.assert_allclose(literal([0.5, 0.5], [[True, True]]), [[0.5, 0.5]])


def test_literal_listener_singleton():
    np.testing.assert_allclose(literal([0.3, 0.7], [[False, True]]), [[0.0, 1.0]])


def test_literal_listener_tautology_preserves_prior():
    np.testing.assert_allclose(literal([0.25, 0.75], [[True, True]]), [[0.25, 0.75]])


def test_literal_listener_degenerate_message_row_is_neg_inf():
    # m0 is true only in a world of prior 0; m1 keeps its posterior
    log_l0 = log_literal_listener_table(
        np.array([[[True, False], [True, True]]]), np.array([[0.0, 1.0]])
    )
    assert np.all(np.isneginf(log_l0[0, 0]))
    np.testing.assert_allclose(np.exp(log_l0[0, 1]), [0.0, 1.0])


# ---------------------------------------------------------------------------
# utilities and the softmax speaker
# ---------------------------------------------------------------------------


def test_speaker_utilities_are_log_posterior_minus_cost():
    # m0 names w1 for sure, m1 is a coin flip at cost 0.5: in w1 the weights
    # are exp(log 1 - 0) and exp(log 0.5 - 0.5); in w2 m0 has utility -inf
    with np.errstate(divide="ignore"):
        listener = np.log([[1.0, 0.0], [0.5, 0.5]])
    probs = np.exp(log_speaker_table(listener, np.array([0.0, 0.5]), 1.0))
    w1 = [1.0, 0.5 * math.exp(-0.5)]
    np.testing.assert_allclose(probs[0], [x / sum(w1) for x in w1], atol=1e-15)
    assert probs[1].tolist() == [0.0, 1.0]


def test_softmax_symmetry():
    np.testing.assert_allclose(np.exp(log_softmax(3.0 * np.zeros(2))), [0.5, 0.5])


def test_softmax_unique_usable():
    assert np.exp(log_softmax(np.array([0.0, -math.inf]))).tolist() == [1.0, 0.0]


def test_softmax_exp_normalize_by_hand():
    # independent arithmetic: weights exp(lam*u), normalized
    u = (math.log(0.5), -0.5)
    w = [math.exp(x) for x in u]
    expected = [wi / sum(w) for wi in w]
    np.testing.assert_allclose(np.exp(log_softmax(np.array(u))), expected, atol=1e-15)
    np.testing.assert_allclose(expected, [0.4518628, 0.5481372], atol=1e-7)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.normal(size=4)
        lam = float(rng.uniform(0.2, 50))
        shift = float(rng.uniform(-100, 100))
        np.testing.assert_allclose(
            np.exp(log_softmax(lam * u)), np.exp(log_softmax(lam * (u + shift))), atol=1e-12
        )


def test_softmax_all_unusable_row_is_neg_inf():
    log_s = log_softmax(np.array([[-math.inf, -math.inf], [0.0, -math.inf]]))
    assert np.all(np.isneginf(log_s[0]))
    assert np.exp(log_s[1]).tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# pragmatic listener table
# ---------------------------------------------------------------------------


def pragmatic(prior, speaker):
    """Level-1 listener (messages, worlds) of one context from a speaker
    table (worlds, messages) given as probabilities."""
    with np.errstate(divide="ignore"):
        log_s = np.log(np.array([speaker], dtype=float))
    return log_joint_listener_table(log_s, np.array([prior]))[:, 0]


def test_pragmatic_listener_deterministic_speaker():
    l1 = pragmatic([0.4, 0.6], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(np.exp(l1[0]), [1.0, 0.0])


def test_pragmatic_listener_uninformative_speaker_returns_prior():
    l1 = pragmatic([0.3, 0.7], [[0.5, 0.5], [0.5, 0.5]])
    # machine precision: "exactly" up to one rounding of the normalization
    np.testing.assert_allclose(np.exp(l1[1]), [0.3, 0.7], rtol=0, atol=1e-15)


def test_pragmatic_listener_bayes_by_hand():
    l1 = pragmatic([0.5, 0.5], [[0.2, 0.8], [0.6, 0.4]])
    np.testing.assert_allclose(np.exp(l1[0]), [0.25, 0.75])


def test_pragmatic_listener_unreachable_row_is_neg_inf():
    l1 = pragmatic([0.5, 0.5], [[0.0, 1.0], [0.0, 1.0]])
    assert np.all(np.isneginf(l1[0]))
    np.testing.assert_allclose(np.exp(l1[1]), [0.5, 0.5])


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------


def test_iterate_depth_one_is_manual_composition():
    params = ModelParams(lam=2.0, delta_ab=0.4, delta_anb=0.9)
    sc, kwargs = canonical_scenario(ModelId.BASE_RSA, params, 0.6)
    result = iterate(sc, params.lam, depth=1, **kwargs)

    # manual: literal listener -> utilities -> softmax -> Bayes
    s1 = reference_s1(sc.truth, sc.world_prior, sc.costs, params.lam)[0]
    np.testing.assert_allclose(np.exp(result.log_s1[0]), s1, atol=1e-12)

    prior = sc.world_prior[0]
    for m_idx, m in enumerate(sc.messages):
        expected = prior * s1[:, m_idx]
        expected = expected / expected.sum()
        np.testing.assert_allclose(result.listener(1)[m_idx], expected, atol=1e-12)


def test_iterate_high_rationality_picks_most_informative_true_message():
    params = ModelParams(lam=200.0)
    sc, kwargs = canonical_scenario(ModelId.BASE_RSA, params, 0.5)
    result = iterate(sc, params.lam, depth=1, **kwargs)
    s1 = result.speaker(1)
    # w_a -> the explicit exclusion; w_ab -> the conjunction
    assert s1[0, 2] > 1 - 1e-6
    assert s1[1, 1] > 1 - 1e-6


def test_iterate_matches_closed_form_listener():
    params = ModelParams(lam=3.0, delta_ab=0.5, delta_anb=1.0)
    priors = np.arange(0.01, 1.0, 0.01)
    closed = predict_table(ModelId.BASE_RSA, params, priors).post_a
    for p, post_a in zip(priors, closed):
        sc, kwargs = canonical_scenario(ModelId.BASE_RSA, params, float(p))
        result = iterate(sc, params.lam, depth=1, **kwargs)
        assert result.listener(1)[0, 1] == pytest.approx(post_a, abs=1e-9)


def test_iterate_distributions_normalized():
    params = ModelParams(lam=5.0, delta_ab=0.3, delta_anb=0.7, xi=0.2)
    for model in (ModelId.BASE_RSA, ModelId.WRSA, ModelId.RSA_LI1):
        sc, kwargs = canonical_scenario(model, params, 0.37)
        result = iterate(sc, params.lam, depth=3, **kwargs)
        for n in (1, 2, 3):
            np.testing.assert_allclose(
                result.listener(n).sum(axis=1), 1.0, atol=1e-12
            )
        for n in (2, 3):
            np.testing.assert_allclose(
                result.speaker(n).sum(axis=1), 1.0, atol=1e-12
            )


PLAIN_RECURSION_MODELS = [m for m in ModelId if m not in (ModelId.SVRSA1, ModelId.SVRSA2)]


@pytest.mark.parametrize("model", PLAIN_RECURSION_MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize(
    "params",
    [
        ModelParams(lam=3.9, delta_ab=0.37, delta_anb=2.0, xi=0.3),
        ModelParams(lam=1e3, delta_ab=0.0, delta_anb=200.0, xi=0.9),
    ],
)
def test_iterate_batched_over_priors_matches_single_prior_calls(model, params):
    # one call on an array of priors gives, entry for entry, the bits of a
    # loop of single-prior calls: the joint speaker of the lexical-intentions
    # variants and the listener prior of the Bayesian wonky variant included
    priors = np.array([0.0, 1e-12, 1e-9, 0.2, 0.5, 0.83, 1 - 1e-9, 1.0])
    sc, kwargs = canonical_scenario(model, params, priors)
    batched = iterate(sc, params.lam, depth=3, **kwargs)

    def tables(result):
        return [result.log_s1, result.log_s1_marginal, *result.log_listeners,
                *result.log_speakers]

    for i, p in enumerate(priors):
        sc_1, kwargs_1 = canonical_scenario(model, params, float(p))
        single = iterate(sc_1, params.lam, depth=3, **kwargs_1)
        for b, one in zip(tables(batched), tables(single), strict=True):
            if one is None:
                assert b is None
                continue
            assert b[i].shape == one.shape
            assert b[i].tobytes() == one.tobytes(), f"p={p}"


def test_scenario_validates_batched_world_prior_along_its_last_axes():
    truth = np.ones((2, 1, 2), dtype=bool)  # two contexts

    def scenario(world_prior):
        return GenericScenario(worlds=("w1", "w2"), messages=("m0",), costs=[0.0],
                               truth=truth, world_prior=world_prior)

    # three contexts' rows where the truth table has two
    with pytest.raises(ValueError):
        scenario(np.full((4, 3, 2), 1.0 / 3.0))
    with pytest.raises(ValueError):
        scenario(np.full((4, 2, 2), 0.4))
    # each row sums to 1 over worlds, whatever the sums over contexts
    batched = scenario(np.array([[[0.2, 0.8], [0.3, 0.7]]] * 3))
    assert batched.world_prior.shape == (3, 2, 2)


# ---------------------------------------------------------------------------
# batched tables agree with a per-entry reference
# ---------------------------------------------------------------------------


def test_batched_tables_match_per_entry_reference():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_w, n_m, n_c = 3, 4, 2
        truth = rng.random((n_c, n_m, n_w)) < 0.7
        truth[:, 0, :] = True  # keep one tautology so nothing is globally false
        prior = rng.dirichlet(np.ones(n_w), size=n_c)
        costs = rng.uniform(0, 2, size=n_m)
        lam = float(rng.uniform(0.3, 8))
        context_prior = rng.dirichlet(np.ones(n_c))
        log_l0 = log_literal_listener_table(truth, prior)
        log_s1 = np.stack(
            [log_speaker_table(log_l0[c], costs, lam) for c in range(n_c)]
        )
        joint_prior = context_prior[:, None] * prior
        log_l1 = log_joint_listener_table(log_s1, joint_prior)

        np.testing.assert_allclose(np.exp(log_l0), reference_l0(truth, prior), atol=1e-12)
        s1 = reference_s1(truth, prior, costs, lam)
        np.testing.assert_allclose(np.exp(log_s1), s1, atol=1e-12)
        for m in range(n_m):
            weights = joint_prior * s1[:, :, m]
            np.testing.assert_allclose(
                np.exp(log_l1[m]), weights / math.fsum(weights.ravel()), atol=1e-12
            )


def _logsumexp_inputs(rng):
    """Float arrays of one to four axes: random scales, ties, slices that are
    all -inf, +inf and nan entries, and strided and transposed views."""
    for trial in range(400):
        shape = tuple(rng.integers(1, 5, rng.integers(1, 5)))
        a = rng.standard_normal(shape) * rng.choice([1.0, 30.0, 1e3])
        if trial % 2:
            a = np.round(a)  # ties at the max
        if trial % 3 == 0:
            a[..., : max(1, shape[-1] // 2)] = -np.inf  # slices all -inf across the other axes
        if trial % 7 == 0:
            a.flat[rng.integers(a.size)] = np.inf
        if trial % 11 == 0:
            a.flat[rng.integers(a.size)] = np.nan
        if trial % 4 == 1 and a.ndim > 1:
            a = np.moveaxis(a, 0, -1)
        if trial % 5 == 2:
            a = a[..., ::2]
        yield a
    yield np.full((3, 4), -np.inf)


def test_logsumexp_is_scipys_bit_for_bit():
    # the one log-sum-exp of the engine and oracles, which keeps the
    # oracle references and simulate's output byte for byte
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(4)
    for a in _logsumexp_inputs(rng):
        axes = [None, *range(-a.ndim, a.ndim),
                *(axes for r in range(1, a.ndim + 1)
                  for axes in itertools.combinations(range(a.ndim), r))]
        for axis in axes:
            for keepdims in (False, True):
                ours = logsumexp(a, axis=axis, keepdims=keepdims)
                ref = special.logsumexp(a, axis=axis, keepdims=keepdims)
                assert type(ours) is type(ref) and np.shape(ours) == np.shape(ref)
                assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes(), (a, axis)
