"""Experimental data ingestion, preprocessing, and synthetic generation.

The CSV schema has one row per participant: an elicited conditional prior
(slider value scaled to [0, 1]), the condition they saw, and either a slider
posterior (comprehension survey) or a pre-coded message category (production
survey).  Free-text coding into categories is a human step upstream of this
module.  ``preprocess`` applies the standard preparation: priors compressed
into [.005, .995], rare bare-"B"/"not B" responses merged into the
corresponding conjunctions, and uncodable production responses dropped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .models import ModelId, ModelParams, predict_table


class SchemaError(ValueError):
    """The CSV header does not carry the required columns."""


@dataclass(frozen=True)
class RowError:
    """A per-row validation failure (1-based line number in the source)."""

    line: int
    message: str


class Survey(Enum):
    COMPREHENSION = "comprehension"
    PRODUCTION = "production"


class Condition(Enum):
    UTT_A = "utt_a"
    UTT_AB = "utt_ab"
    WORLD_A = "world_a"
    WORLD_AB = "world_ab"


class ResponseMessage(Enum):
    A = "A"
    A_AND_B = "A_AND_B"
    A_AND_NOT_B = "A_AND_NOT_B"
    B = "B"
    NOT_B = "NOT_B"
    OTHER_NA = "OTHER_NA"


#: Messages a model assigns probability to (post-merge categories).
MODEL_MESSAGES = (ResponseMessage.A, ResponseMessage.A_AND_B, ResponseMessage.A_AND_NOT_B)

#: Number of candidate messages after merging (smoothing denominator).
N_CANDIDATE_MESSAGES = len(MODEL_MESSAGES)


def smoothed_production_probs(pred, epsilon: float) -> np.ndarray:
    """The full error-smoothed distribution ``(S + eps) / (1 + n eps)`` over
    the ``n`` candidate messages; sums to 1 for any epsilon >= 0."""
    pred = np.asarray(pred, dtype=float)
    smoothed = (pred + epsilon) / (1.0 + N_CANDIDATE_MESSAGES * epsilon)
    return smoothed / smoothed.sum(axis=-1, keepdims=True)


_SURVEY_ALIASES = {
    "comprehension": Survey.COMPREHENSION,
    "interpretation": Survey.COMPREHENSION,
    "production": Survey.PRODUCTION,
}
_CONDITION_ALIASES = {
    "utt_a": Condition.UTT_A,
    "utt_ab": Condition.UTT_AB,
    "world_a": Condition.WORLD_A,
    "world_ab": Condition.WORLD_AB,
    "a": Condition.UTT_A,
    "ab": Condition.UTT_AB,
    "w_a": Condition.WORLD_A,
    "w_ab": Condition.WORLD_AB,
}
_MESSAGE_ALIASES = {
    "a": ResponseMessage.A,
    "a_and_b": ResponseMessage.A_AND_B,
    "a&b": ResponseMessage.A_AND_B,
    "ab": ResponseMessage.A_AND_B,
    "a_and_not_b": ResponseMessage.A_AND_NOT_B,
    "a&~b": ResponseMessage.A_AND_NOT_B,
    "a&-b": ResponseMessage.A_AND_NOT_B,
    "anb": ResponseMessage.A_AND_NOT_B,
    "b": ResponseMessage.B,
    "not_b": ResponseMessage.NOT_B,
    "~b": ResponseMessage.NOT_B,
    "-b": ResponseMessage.NOT_B,
    "other_na": ResponseMessage.OTHER_NA,
    "other": ResponseMessage.OTHER_NA,
    "na": ResponseMessage.OTHER_NA,
    "other/na": ResponseMessage.OTHER_NA,
}

#: Logical column names of the native CSV layout.
COLUMNS = ("participant_id", "survey", "prior", "condition", "posterior", "message", "length")


@dataclass(frozen=True)
class ObservationRow:
    """One participant's prior, condition, and response."""

    participant_id: str
    survey: Survey
    raw_prior: float
    condition: Condition
    response_posterior: float | None = None
    response_message: ResponseMessage | None = None
    response_length: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.raw_prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {self.raw_prior}")
        if self.survey is Survey.COMPREHENSION:
            if self.condition not in (Condition.UTT_A, Condition.UTT_AB):
                raise ValueError("comprehension rows need an utterance condition")
            if self.response_posterior is None:
                raise ValueError("comprehension rows need a posterior response")
            if not 0.0 <= self.response_posterior <= 1.0:
                raise ValueError("posterior must be in [0, 1]")
            if self.response_message is not None:
                raise ValueError("comprehension rows must not carry a message")
        else:
            if self.condition not in (Condition.WORLD_A, Condition.WORLD_AB):
                raise ValueError("production rows need a world condition")
            if self.response_message is None:
                raise ValueError("production rows need a message response")
            if self.response_posterior is not None:
                raise ValueError("production rows must not carry a posterior")


@dataclass(frozen=True)
class Dataset:
    """Observation rows plus a flag recording whether :func:`preprocess` ran."""

    rows: tuple[ObservationRow, ...]
    preprocessed: bool = False

    def __len__(self) -> int:
        return len(self.rows)


def read_column_map(text: str) -> dict[str, str]:
    """Parse a ``logical=actual`` column-mapping config (one pair per line)."""
    mapping: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"column map line {i}: expected 'logical=actual'")
        logical, actual = (part.strip() for part in line.split("=", 1))
        if logical not in COLUMNS:
            raise ValueError(f"column map line {i}: unknown logical column {logical!r}")
        mapping[logical] = actual
    return mapping


def _lookup(aliases: dict, value: str, what: str):
    key = value.strip().lower()
    if key not in aliases:
        raise ValueError(f"unrecognized {what} {value!r}")
    return aliases[key]


def parse_dataset(
    text: str, column_map: dict[str, str] | None = None
) -> tuple[Dataset, list[RowError]]:
    """Parse a CSV document; malformed rows are collected, not fatal.

    Returns the dataset of valid rows and the list of per-row errors with
    their source line numbers.  Raises :class:`SchemaError` when required
    columns are missing from the header.
    """
    column_map = column_map or {}
    names = {logical: column_map.get(logical, logical) for logical in COLUMNS}
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise SchemaError("empty document: no header row")
    missing = [
        names[logical]
        for logical in ("participant_id", "survey", "prior", "condition")
        if names[logical] not in reader.fieldnames
    ]
    if missing:
        raise SchemaError(f"missing required columns: {', '.join(missing)}")

    rows: list[ObservationRow] = []
    errors: list[RowError] = []
    for line, record in enumerate(reader, start=2):
        try:
            rows.append(_parse_row(record, names))
        except (ValueError, KeyError) as exc:
            errors.append(RowError(line, str(exc)))
    return Dataset(tuple(rows)), errors


def _get(record: dict, names: dict, logical: str) -> str:
    value = record.get(names[logical])
    return "" if value is None else value.strip()


def _parse_row(record: dict, names: dict) -> ObservationRow:
    survey = _lookup(_SURVEY_ALIASES, _get(record, names, "survey"), "survey")
    condition = _lookup(_CONDITION_ALIASES, _get(record, names, "condition"), "condition")
    posterior_text = _get(record, names, "posterior")
    message_text = _get(record, names, "message")
    length_text = _get(record, names, "length")
    return ObservationRow(
        participant_id=_get(record, names, "participant_id"),
        survey=survey,
        raw_prior=float(_get(record, names, "prior")),
        condition=condition,
        response_posterior=float(posterior_text) if posterior_text else None,
        response_message=(
            _lookup(_MESSAGE_ALIASES, message_text, "message") if message_text else None
        ),
        response_length=int(length_text) if length_text else None,
    )


def compress_prior(x):
    """Affine map of [0, 1] onto [.005, .995], avoiding degenerate likelihoods."""
    return 0.005 + 0.99 * np.asarray(x, dtype=float)


_MERGES = {
    ResponseMessage.B: ResponseMessage.A_AND_B,
    ResponseMessage.NOT_B: ResponseMessage.A_AND_NOT_B,
}


def preprocess(dataset: Dataset) -> Dataset:
    """Apply the standard preparation; idempotent.

    Compresses priors into [.005, .995], merges the rare bare responses into
    their conjunctive categories, and drops uncodable production rows.
    """
    if dataset.preprocessed:
        return dataset
    rows = []
    for r in dataset.rows:
        if r.response_message is ResponseMessage.OTHER_NA:
            continue
        r = replace(r, raw_prior=float(compress_prior(r.raw_prior)))
        if r.response_message in _MERGES:
            r = replace(r, response_message=_MERGES[r.response_message])
        rows.append(r)
    return Dataset(tuple(rows), preprocessed=True)


def write_dataset(dataset: Dataset) -> str:
    """Serialize to the native CSV layout (UTF-8, comma, header row).

    Raises ValueError for a preprocessed dataset: its priors are compressed,
    and the layout has no column to say so, so a file read back would be
    compressed a second time."""
    if dataset.preprocessed:
        raise ValueError("cannot write a preprocessed dataset: the raw prior column "
                         "would hold compressed priors; write the dataset before preprocess")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in dataset.rows:
        writer.writerow(
            [
                r.participant_id,
                r.survey.value,
                repr(r.raw_prior),
                r.condition.value,
                "" if r.response_posterior is None else repr(r.response_posterior),
                "" if r.response_message is None else r.response_message.value,
                "" if r.response_length is None else r.response_length,
            ]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Synthetic data for parameter-recovery checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthDesign:
    """Counts per price level and the prior-eliciting distribution moments.

    The default mirrors the experimental design: eight price levels; per
    level, 20 participants each for the bare-utterance comprehension and
    A-world production conditions, 10 each for the conjunction/both-world
    conditions; priors spread with mean .70 and sd .27.
    """

    levels: int = 8
    comprehension_a: int = 20
    comprehension_ab: int = 10
    production_a: int = 20
    production_ab: int = 10
    prior_mean: float = 0.70
    prior_sd: float = 0.27

    def __post_init__(self) -> None:
        counts = (self.comprehension_a, self.comprehension_ab,
                  self.production_a, self.production_ab)
        if not self.levels >= 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if not (all(n >= 0 for n in counts) and any(n > 0 for n in counts)):
            raise ValueError("condition counts must be nonnegative, at least one positive")
        if not 0 < self.prior_sd**2 < self.prior_mean * (1 - self.prior_mean):
            raise ValueError("prior_sd incompatible with a Beta distribution")

    def beta_shape(self) -> tuple[float, float]:
        """Moment-matched Beta parameters for the prior distribution."""
        m, v = self.prior_mean, self.prior_sd**2
        nu = m * (1 - m) / v - 1.0
        return m * nu, (1 - m) * nu


def synth_generate(
    model: ModelId,
    params: ModelParams,
    noise,
    design: SynthDesign | None = None,
    seed: int = 0,
) -> Dataset:
    """Simulate a full two-survey dataset from a model; deterministic per seed.

    Raw priors are Beta draws; responses are generated from the model's
    predictions at the *compressed* prior (matching how fitting scores rows):
    censored-normal slider responses for comprehension, error-smoothed
    categorical draws for production.  The returned dataset is raw
    (uncompressed priors, no merging applied), ready for ``preprocess``.
    """
    design = design or SynthDesign()
    alpha, beta = design.beta_shape()
    rng = np.random.default_rng(seed)
    rows: list[ObservationRow] = []

    plan = [
        (Survey.COMPREHENSION, Condition.UTT_A, design.comprehension_a),
        (Survey.COMPREHENSION, Condition.UTT_AB, design.comprehension_ab),
        (Survey.PRODUCTION, Condition.WORLD_A, design.production_a),
        (Survey.PRODUCTION, Condition.WORLD_AB, design.production_ab),
    ]
    for survey, condition, per_level in plan:
        priors = rng.beta(alpha, beta, size=design.levels * per_level)
        table = predict_table(model, params, compress_prior(priors))
        if survey is Survey.COMPREHENSION:
            pred = table.post_a if condition is Condition.UTT_A else table.post_ab
            sigma = noise.sigma_a if condition is Condition.UTT_A else noise.sigma_ab
            answer = "response_posterior"
            responses = np.clip(rng.normal(pred, sigma), 0.0, 1.0).tolist()
        else:
            probs = table.prod_wa if condition is Condition.WORLD_A else table.prod_wab
            smoothed = smoothed_production_probs(probs, noise.epsilon)
            answer = "response_message"
            responses = [MODEL_MESSAGES[rng.choice(N_CANDIDATE_MESSAGES, p=row)]
                         for row in smoothed]
        for raw_p, response in zip(priors.tolist(), responses):
            rows.append(ObservationRow(participant_id=f"s{len(rows) + 1:04d}", survey=survey,
                                       raw_prior=raw_p, condition=condition,
                                       **{answer: response}))
    return Dataset(tuple(rows))
