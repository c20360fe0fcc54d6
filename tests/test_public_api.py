import rsa_exh

# The package's public surface. A change to it is a deliberate edit here.
PUBLIC_NAMES = [
    "AllMessagesUnusable", "Condition", "Dataset", "DegenerateMessage", "Distribution",
    "FitOptions", "FitResult", "GenericScenario", "Interpretation", "Message",
    "MissingParameter", "ModelId", "ModelParams", "NoiseParams", "NonfiniteLikelihood",
    "ObservationRow", "Predicate", "Qud", "RegionReport", "ResponseMessage", "RowError",
    "SchemaError", "Survey", "SynthDesign", "UnreachableMessage", "World",
    "analysis", "bwrsa_antiexh_threshold", "check_explicit_preferred",
    "check_listener_antiexh_base", "check_speaker_antiexh_base", "compare",
    "comprehension_loglik", "data", "dataset_loglik", "engine",
    "expected_utility_over_interpretations", "fit", "fitting", "iterate",
    "literal_listener", "lu_predict", "models", "parse_dataset", "pragmatic_listener",
    "predict_table", "preprocess", "production_loglik", "scan_regions", "scenario",
    "softmax_speaker", "sweep", "synth_generate", "truth_value", "utility",
    "write_dataset",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert rsa_exh.__all__ == PUBLIC_NAMES
