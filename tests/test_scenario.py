import math

import numpy as np
import pytest

from rsa_exh.scenario import (
    INTERPRETATIONS,
    MESSAGES,
    WORLDS,
    Interpretation,
    Message,
    ModelParams,
    Qud,
    World,
    truth_value,
)


def test_truth_table_bare_message():
    assert truth_value(Message.A, World.AB, Interpretation.LITERAL) is True
    assert truth_value(Message.A, World.A, Interpretation.LITERAL) is True
    assert truth_value(Message.A, World.AB, Interpretation.EXHAUSTIVE) is False
    assert truth_value(Message.A, World.A, Interpretation.ANTI_EXHAUSTIVE) is False
    assert truth_value(Message.A, World.AB, Interpretation.ANTI_EXHAUSTIVE) is True


def test_conjunctions_are_unambiguous():
    assert truth_value(Message.A_AND_NOT_B, World.AB, Interpretation.ANTI_EXHAUSTIVE) is False
    for interp in INTERPRETATIONS:
        assert truth_value(Message.A_AND_B, World.AB, interp) is True
        assert truth_value(Message.A_AND_B, World.A, interp) is False
        assert truth_value(Message.A_AND_NOT_B, World.A, interp) is True
        assert truth_value(Message.A_AND_NOT_B, World.AB, interp) is False


def test_bare_message_is_tautology_under_literal():
    assert all(truth_value(Message.A, w, Interpretation.LITERAL) for w in WORLDS)


def test_qud_cells_partition_worlds():
    for qud in Qud:
        members = [w for cell in qud.cells for w in cell]
        assert sorted(m.value for m in members) == sorted(w.value for w in WORLDS)
    assert Qud.TOTAL.cell_of(World.A) != Qud.TOTAL.cell_of(World.AB)
    assert Qud.PARTIAL.cell_of(World.A) == Qud.PARTIAL.cell_of(World.AB)


def test_canonical_orderings():
    assert len(WORLDS) == 2 and len(MESSAGES) == 3 and len(INTERPRETATIONS) == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 0.0},
        {"lam": -1.0},
        {"lam": 1.0, "delta_ab": -0.1},
        {"lam": 1.0, "xi": 1.5},
        {"lam": math.nan},
        {"lam": 1.0, "delta_ab": math.nan},
        {"lam": 1.0, "delta_anb": math.nan},
        {"lam": 1.0, "xi": math.nan},
        {"lam": np.ones((2, 1)), "delta_anb": np.array([[0.5], [math.nan]])},
        {"lam": math.inf},
        {"lam": 1.0, "delta_ab": math.inf},
        {"lam": 1.0, "delta_anb": math.inf},
        {"lam": np.array([[1.0], [math.inf]])},
        {"lam": np.ones((2, 1)), "delta_ab": np.array([[0.5], [math.inf]])},
    ],
)
def test_model_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)
