import math

import numpy as np
import pytest

from rsa_exh.engine import (
    AllMessagesUnusable,
    DegenerateMessage,
    Distribution,
    GenericScenario,
    UnreachableMessage,
    expected_utility_over_interpretations,
    iterate,
    literal_listener,
    log_joint_listener_table,
    log_literal_listener_table,
    log_speaker_table,
    marginal_world,
    pragmatic_listener,
    softmax_speaker,
    utility,
)
from rsa_exh.models import ModelId, predict_table
from rsa_exh.oracles import canonical_scenario
from rsa_exh.scenario import Interpretation, Message, ModelParams, Qud, World


def two_world_scenario(prior, truth, costs=None):
    truth = np.asarray(truth, dtype=bool)
    if costs is None:
        costs = np.zeros(truth.shape[0])
    return GenericScenario(
        worlds=("w1", "w2"),
        messages=tuple(f"m{i}" for i in range(truth.shape[0])),
        costs=np.asarray(costs, dtype=float),
        truth=truth,
        world_prior=np.asarray(prior, dtype=float),
    )


# ---------------------------------------------------------------------------
# Distribution
# ---------------------------------------------------------------------------


def test_distribution_validates_sum():
    with pytest.raises(ValueError):
        Distribution(("a", "b"), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Distribution(("a", "b"), np.array([1.2, -0.2]))
    dist = Distribution(("a", "b"), np.array([0.25, 0.75]))
    assert dist.prob("b") == 0.75


# ---------------------------------------------------------------------------
# literal_listener
# ---------------------------------------------------------------------------


def test_literal_listener_tautology_uniform():
    sc = two_world_scenario([0.5, 0.5], [[True, True]])
    np.testing.assert_allclose(literal_listener(sc, "m0").probs, [0.5, 0.5])


def test_literal_listener_singleton():
    sc = two_world_scenario([0.3, 0.7], [[False, True]])
    np.testing.assert_allclose(literal_listener(sc, "m0").probs, [0.0, 1.0])


def test_literal_listener_tautology_preserves_prior():
    sc = two_world_scenario([0.25, 0.75], [[True, True]])
    np.testing.assert_allclose(literal_listener(sc, "m0").probs, [0.25, 0.75])


def test_literal_listener_degenerate_message():
    sc = two_world_scenario([0.0, 1.0], [[True, False], [True, True]])
    with pytest.raises(DegenerateMessage):
        literal_listener(sc, "m0")


# ---------------------------------------------------------------------------
# utility / softmax_speaker
# ---------------------------------------------------------------------------


def test_utility_values():
    d10 = Distribution(("w1", "w2"), np.array([1.0, 0.0]))
    assert utility(d10, "w1", 0.0) == 0.0
    d55 = Distribution(("w1", "w2"), np.array([0.5, 0.5]))
    assert utility(d55, "w1", 0.5) == pytest.approx(math.log(0.5) - 0.5)
    assert utility(d10, "w2", 3.0) == -math.inf


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax_speaker([0.0, 0.0], lam=3.0).probs, [0.5, 0.5])


def test_softmax_unique_usable():
    np.testing.assert_allclose(
        softmax_speaker([0.0, -math.inf], lam=1.0).probs, [1.0, 0.0]
    )


def test_softmax_exp_normalize_by_hand():
    # independent arithmetic: weights exp(lam*u), normalized
    u = (math.log(0.5), -0.5)
    w = [math.exp(x) for x in u]
    expected = [wi / sum(w) for wi in w]
    np.testing.assert_allclose(
        softmax_speaker(u, lam=1.0).probs, expected, atol=1e-15
    )
    np.testing.assert_allclose(expected, [0.4518628, 0.5481372], atol=1e-7)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = rng.normal(size=4)
        lam = float(rng.uniform(0.2, 50))
        shift = float(rng.uniform(-100, 100))
        np.testing.assert_allclose(
            softmax_speaker(u, lam).probs,
            softmax_speaker(u + shift, lam).probs,
            atol=1e-12,
        )


def test_softmax_all_unusable():
    with pytest.raises(AllMessagesUnusable):
        softmax_speaker([-math.inf, -math.inf], lam=1.0)


# ---------------------------------------------------------------------------
# pragmatic_listener
# ---------------------------------------------------------------------------


def _log_speaker(table):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(table, dtype=float))


def test_pragmatic_listener_deterministic_speaker():
    sc = two_world_scenario([0.4, 0.6], [[True, True], [True, True]])
    log_s = _log_speaker([[[1.0, 0.0], [0.0, 1.0]]])  # (context, world, message)
    joint = pragmatic_listener(sc, log_s, "m0")
    np.testing.assert_allclose(marginal_world(joint, sc.worlds).probs, [1.0, 0.0])


def test_pragmatic_listener_uninformative_speaker_returns_prior():
    sc = two_world_scenario([0.3, 0.7], [[True, True], [True, True]])
    log_s = _log_speaker([[[0.5, 0.5], [0.5, 0.5]]])
    joint = pragmatic_listener(sc, log_s, "m1")
    # machine precision: "exactly" up to one rounding of the normalization
    np.testing.assert_allclose(
        marginal_world(joint, sc.worlds).probs, [0.3, 0.7], rtol=0, atol=1e-15
    )


def test_pragmatic_listener_bayes_by_hand():
    sc = two_world_scenario([0.5, 0.5], [[True, True], [True, True]])
    log_s = _log_speaker([[[0.2, 0.8], [0.6, 0.4]]])
    joint = pragmatic_listener(sc, log_s, "m0")
    np.testing.assert_allclose(marginal_world(joint, sc.worlds).probs, [0.25, 0.75])


def test_pragmatic_listener_unreachable():
    sc = two_world_scenario([0.5, 0.5], [[True, True], [True, True]])
    log_s = _log_speaker([[[0.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(UnreachableMessage):
        pragmatic_listener(sc, log_s, "m0")


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------


def test_iterate_depth_one_is_manual_composition():
    params = ModelParams(lam=2.0, delta_ab=0.4, delta_anb=0.9)
    sc, kwargs = canonical_scenario(ModelId.BASE_RSA, params, 0.6)
    result = iterate(sc, params.lam, depth=1, **kwargs)

    # manual: literal listener -> utilities -> softmax -> Bayes
    s1_rows = []
    for w in sc.worlds:
        utilities = []
        for m_idx, m in enumerate(sc.messages):
            try:
                dist = literal_listener(sc, m)
                utilities.append(utility(dist, w, float(sc.costs[m_idx])))
            except DegenerateMessage:
                utilities.append(-math.inf)
        s1_rows.append(softmax_speaker(utilities, params.lam).probs)
    s1 = np.array(s1_rows)
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
# expected utility over interpretations
# ---------------------------------------------------------------------------


def _interp_scenario(p, chi=0.5):
    from rsa_exh.oracles import _truth_table

    return GenericScenario(
        worlds=(World.A, World.AB),
        messages=(Message.A, Message.A_AND_B, Message.A_AND_NOT_B),
        costs=np.zeros(3),
        truth=_truth_table([Interpretation.LITERAL, Interpretation.EXHAUSTIVE]),
        world_prior=np.array([1 - p, p]),
        context_prior=np.array([1 - chi, chi]),
        contexts=("literal", "exhaustive"),
    )


def test_expected_utility_constant_average():
    # identical posteriors under every interpretation: the average collapses
    sc = _interp_scenario(0.5)
    cells = [tuple(cell) for cell in Qud.TOTAL.cells]
    eu = expected_utility_over_interpretations(sc, Message.A_AND_B, World.AB, cells)
    assert eu == pytest.approx(0.0)  # log 1 - 0


def test_expected_utility_ambiguous_message_blocked():
    sc = _interp_scenario(0.5)
    cells = [tuple(cell) for cell in Qud.TOTAL.cells]
    assert expected_utility_over_interpretations(sc, Message.A, World.AB, cells) == -math.inf


def test_expected_utility_term_by_term():
    sc = _interp_scenario(0.5)
    cells = [tuple(cell) for cell in Qud.TOTAL.cells]
    eu = expected_utility_over_interpretations(sc, Message.A, World.A, cells)
    assert eu == pytest.approx(0.5 * math.log(0.5) + 0.5 * math.log(1.0))


def test_expected_utility_rejects_bad_prior():
    sc = _interp_scenario(0.5)
    cells = [tuple(cell) for cell in Qud.TOTAL.cells]
    with pytest.raises(ValueError):
        expected_utility_over_interpretations(
            sc, Message.A, World.A, cells, interp_prior=[0.7, 0.7]
        )


# ---------------------------------------------------------------------------
# batched tables agree with the scalar operations
# ---------------------------------------------------------------------------


def test_batched_tables_match_scalar_ops():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_w, n_m, n_c = 3, 4, 2
        truth = rng.random((n_c, n_m, n_w)) < 0.7
        truth[:, 0, :] = True  # keep one tautology so nothing is globally false
        prior = rng.dirichlet(np.ones(n_w), size=n_c)
        costs = rng.uniform(0, 2, size=n_m)
        lam = float(rng.uniform(0.3, 8))
        sc = GenericScenario(
            worlds=tuple(range(n_w)), messages=tuple(range(n_m)),
            costs=costs, truth=truth, world_prior=prior,
            context_prior=rng.dirichlet(np.ones(n_c)),
        )
        log_l0 = log_literal_listener_table(sc.truth, sc.world_prior)
        log_s1 = np.stack(
            [log_speaker_table(log_l0[c], costs, lam) for c in range(n_c)]
        )
        for c in range(n_c):
            for m in range(n_m):
                if truth[c, m].any():
                    np.testing.assert_allclose(
                        np.exp(log_l0[c, m]),
                        literal_listener(sc, m, c).probs,
                        atol=1e-12,
                    )
            for w in range(n_w):
                utilities = []
                for m in range(n_m):
                    lp = log_l0[c, m, w]
                    utilities.append(lp - costs[m])
                if np.all(np.isneginf(utilities)):
                    continue
                np.testing.assert_allclose(
                    np.exp(log_s1[c, w]),
                    softmax_speaker(utilities, lam).probs,
                    atol=1e-12,
                )
        joint_prior = sc.context_prior[:, None] * sc.world_prior
        log_l1 = log_joint_listener_table(log_s1, joint_prior)
        for m in range(n_m):
            try:
                joint = pragmatic_listener(sc, log_s1, m)
            except UnreachableMessage:
                assert np.all(np.isneginf(log_l1[m]))
                continue
            np.testing.assert_allclose(
                np.exp(log_l1[m]).reshape(-1), joint.probs, atol=1e-12
            )
