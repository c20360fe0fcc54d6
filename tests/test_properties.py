"""Property tests of the prediction surface over the fitting box.

Rationality up to 1e3, costs up to 200, the extra prior anywhere in [0, 1]
and priors anywhere in [0, 1], the endpoints always among them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rsa_exh.models import P_EPS, ModelId, XI_MODELS, predict_table
from rsa_exh.scenario import ModelParams

#: Bayesian listeners whose posterior after "A" is exactly the prior at p in
#: {0, 1}, and those that reach it from the clamped prior.
EXACT_ENDPOINTS = {ModelId.BASE_RSA, ModelId.BWRSA}
NEAR_ENDPOINTS = {ModelId.FREE_LU, ModelId.EXH_LU, ModelId.RSA_LI1, ModelId.RSA_LI2}
# WRSA's coupled (world, background) prior has other limits; SVRSA's error at
# the endpoints grows like P_EPS / (1 - xi), 2.3e-9 at xi = 0.9994.

box = dict(
    lam=st.floats(min_value=1e-3, max_value=1e3),
    dab=st.floats(min_value=0.0, max_value=200.0),
    danb=st.floats(min_value=0.0, max_value=200.0),
    xi=st.floats(min_value=0.0, max_value=1.0),
    priors=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
@settings(derandomize=True, deadline=None)
@given(**box)
# at high rationality SVRSA's post_ab product rounds to 1 + 2^-52 here, uncapped
@example(lam=200.0, dab=1.0, danb=1.0, xi=0.1, priors=[0.7])
def test_prediction_table_properties(model, lam, dab, danb, xi, priors):
    params = ModelParams(lam=lam, delta_ab=dab, delta_anb=danb,
                         xi=xi if model in XI_MODELS else None)
    p = np.array([0.0, 1.0, *priors])
    table = predict_table(model, params, p)

    for values in (table.post_a, table.post_ab, table.prod_wa, table.prod_wab):
        assert np.all(np.isfinite(values))
        assert np.all((values >= 0.0) & (values <= 1.0))
    for rows in (table.prod_wa, table.prod_wab):
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    if model in (ModelId.SVRSA1, ModelId.SVRSA2):
        assert np.all(table.post_a <= np.clip(p, P_EPS, 1 - P_EPS))
    if model in EXACT_ENDPOINTS:
        assert table.post_a[0] == 0.0 and table.post_a[1] == 1.0
    if model in NEAR_ENDPOINTS:
        np.testing.assert_allclose(table.post_a[:2], [0.0, 1.0], rtol=0, atol=1e-10)
