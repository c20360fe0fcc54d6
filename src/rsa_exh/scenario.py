"""Discrete semantic universe for the two-world / three-message setting.

Worlds, messages, interpretation functions and questions under discussion
(QUDs) are closed enumerations: every model in this package is specialized
to the scenario where a bare message "A" competes with the two explicit
conjunctions "A and B" / "A and not B" over the worlds w_a ("A true, B
false") and w_ab ("A and B both true").  The generic recursion engine
(:mod:`rsa_exh.engine`) accepts arbitrary finite scenarios built from
index-based tables; this module pins down the canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class World(Enum):
    """The two world states: A-only, or A-and-B."""

    A = "w_a"
    AB = "w_ab"


class Message(Enum):
    """The three candidate utterances."""

    A = "A"
    A_AND_B = "A_AND_B"
    A_AND_NOT_B = "A_AND_NOT_B"


class Interpretation(Enum):
    """Candidate meanings for the ambiguous message ``A``.

    LITERAL leaves ``A`` true in both worlds, EXHAUSTIVE strengthens it to
    "A and not B" (true only in ``World.A``), ANTI_EXHAUSTIVE strengthens it
    to "A and B" (true only in ``World.AB``).  The two conjunctive messages
    are unambiguous: their truth values do not depend on the interpretation.
    """

    LITERAL = "literal"
    EXHAUSTIVE = "exhaustive"
    ANTI_EXHAUSTIVE = "anti_exhaustive"


class Qud(Enum):
    """Questions under discussion, viewed as partitions of the world set."""

    PARTIAL = "partial"
    TOTAL = "total"

    @property
    def cells(self) -> tuple[frozenset[World], ...]:
        if self is Qud.PARTIAL:
            return (frozenset({World.A, World.AB}),)
        return (frozenset({World.A}), frozenset({World.AB}))

    def cell_of(self, world: World) -> frozenset[World]:
        for cell in self.cells:
            if world in cell:
                return cell
        raise ValueError(f"{world} not covered by {self}")


#: Canonical orderings used for probability vectors throughout the package.
WORLDS: tuple[World, ...] = (World.A, World.AB)
MESSAGES: tuple[Message, ...] = (Message.A, Message.A_AND_B, Message.A_AND_NOT_B)
INTERPRETATIONS: tuple[Interpretation, ...] = (
    Interpretation.LITERAL,
    Interpretation.EXHAUSTIVE,
    Interpretation.ANTI_EXHAUSTIVE,
)

_A_TRUE_IN = {
    Interpretation.LITERAL: {World.A, World.AB},
    Interpretation.EXHAUSTIVE: {World.A},
    Interpretation.ANTI_EXHAUSTIVE: {World.AB},
}


def truth_value(message: Message, world: World, interpretation: Interpretation) -> bool:
    """Truth table of the scenario.

    ``A_AND_B`` is true exactly in ``World.AB`` and ``A_AND_NOT_B`` exactly in
    ``World.A`` under every interpretation; only the bare ``A`` is
    interpretation-sensitive.
    """
    if message is Message.A_AND_B:
        return world is World.AB
    if message is Message.A_AND_NOT_B:
        return world is World.A
    return world in _A_TRUE_IN[interpretation]


def everywhere(check) -> bool:
    """Whether a comparison holds, of floats or at every entry of arrays.

    Counts the true entries: for the few entries of a parameter column that
    costs a third of ``check.all()``, whose Python-level wrapper dominates."""
    if isinstance(check, np.ndarray):
        return np.count_nonzero(check) == check.size
    return bool(check)


def somewhere(check) -> bool:
    """Whether a comparison holds, of floats or at some entry of arrays
    (counted as in :func:`everywhere`)."""
    if isinstance(check, np.ndarray):
        return np.count_nonzero(check) > 0
    return bool(check)


@dataclass(frozen=True)
class ModelParams:
    """Fit-free knobs shared by every model variant.

    Each of ``lam``, ``delta_ab``, ``delta_anb`` and ``xi`` is a float or an
    array of shape (K, 1): a column of K parameter sets, one per row.  A
    batch broadcasts against the priors, so that ``predict_table`` returns
    tables of shape (K, N) and (K, N, 3) for N priors, row k being the table
    of parameter set k (see :func:`rsa_exh.models.predict_table`).
    Validation holds for every entry.

    Attributes
    ----------
    lam : float or (K, 1) array
        Rationality (inverse softmax temperature); must be positive and
        finite.
    delta_ab : float or (K, 1) array
        Cost of ``A_AND_B`` relative to the bare ``A`` (whose cost is 0).
    delta_anb : float or (K, 1) array
        Cost of ``A_AND_NOT_B`` relative to ``A``.  Both costs must be
        nonnegative and finite.
    xi : float, (K, 1) array or None
        Extra prior in [0, 1] used by some models: the wonkiness prior of the
        wonky-prior variants, or the total-QUD prior of the supervaluationist
        variants.  ``None`` for models without it.
    """

    lam: float | np.ndarray
    delta_ab: float | np.ndarray = 0.0
    delta_anb: float | np.ndarray = 0.0
    xi: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if not everywhere((self.lam > 0) & (self.lam < np.inf)):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not everywhere((self.delta_ab >= 0) & (self.delta_ab < np.inf)
                          & (self.delta_anb >= 0) & (self.delta_anb < np.inf)):
            raise ValueError("costs must be nonnegative and finite")
        if self.xi is not None and not everywhere((0.0 <= self.xi) & (self.xi <= 1.0)):
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")
