"""RSA model variants for exhaustivity/anti-exhaustivity.

A library and CLI covering: closed-form predictions of nine recursive
speaker/listener model variants behind one surface (``predict_table``), a
generic brute-force recursion engine (``iterate``, batched over priors) that
they are verified against, analytic anti-exhaustivity condition checkers and
prior sweeps, and a joint maximum-likelihood fitting/AIC-comparison pipeline
for combined production and comprehension data.
"""

from .analysis import (
    Predicate,
    RegionReport,
    bwrsa_antiexh_threshold,
    check_explicit_preferred,
    check_listener_antiexh_base,
    check_speaker_antiexh_base,
    scan_regions,
    sweep,
)
from .data import (
    Condition,
    Dataset,
    ObservationRow,
    ResponseMessage,
    RowError,
    SchemaError,
    Survey,
    SynthDesign,
    parse_dataset,
    preprocess,
    synth_generate,
    write_dataset,
)
from .engine import (
    AllMessagesUnusable,
    DegenerateMessage,
    Distribution,
    GenericScenario,
    UnreachableMessage,
    expected_utility_over_interpretations,
    iterate,
    literal_listener,
    pragmatic_listener,
    softmax_speaker,
    utility,
)
from .fitting import (
    Constraints,
    FitOptions,
    FitResult,
    NoiseParams,
    NonfiniteLikelihood,
    compare,
    comprehension_loglik,
    dataset_loglik,
    fit,
    production_loglik,
)
from .models import (
    MissingParameter,
    ModelId,
    Predictions,
    base_rsa_l1,
    bwrsa_l1,
    lu_predict,
    predict,
    predict_table,
    wrsa_l1,
)
from .scenario import (
    Interpretation,
    Message,
    ModelParams,
    Qud,
    World,
    truth_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
