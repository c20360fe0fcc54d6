import rsa_exh

# The package's public surface. A change to it is a deliberate edit here.
PUBLIC_NAMES = [
    "Condition", "Dataset", "FitOptions", "FitResult", "GenericScenario", "Interpretation",
    "Message", "MissingParameter", "ModelId", "ModelParams", "NoiseParams",
    "NonfiniteLikelihood", "ObservationRow", "Predicate", "Qud", "RegionReport",
    "ResponseMessage", "RowError", "SchemaError", "Survey", "SynthDesign", "World",
    "bwrsa_antiexh_threshold", "check_explicit_preferred", "check_listener_antiexh_base",
    "check_speaker_antiexh_base", "compare", "comprehension_loglik", "dataset_loglik",
    "fit", "iterate", "lu_predict", "parse_dataset", "predict_table", "preprocess",
    "production_loglik", "scan_regions", "sweep", "synth_generate", "truth_value",
    "write_dataset",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert rsa_exh.__all__ == PUBLIC_NAMES
