"""Sleep stage classification from heart rate and wrist actigraphy.

The package turns per-night CSV recordings into 30-second epoch features
(mean inter-beat interval, low-frequency cosine-transform stacks, and
triaxial movement cepstra over a sliding frame of epochs), augments them
with distances to a k-means codebook, normalizes, and classifies each
epoch with a recurrent network (peephole LSTM, bidirectional LSTM, or a
plain feed-forward baseline) trained by gradient descent under Gaussian
weight noise. Evaluation is subject-independent cross-validation with
frequency-weighted precision, recall, and F1. Everything is deterministic
given the seeds; a synthetic cohort generator provides self-contained
test data.
"""

from .config import ConfigError, RunConfig, load_config
from .evaluate import (
    CvReport,
    FoldResult,
    confusion_matrix,
    cross_validate,
    fit_model,
    kfold_split,
    per_class_metrics,
    summary_document,
    weighted_metrics,
    write_cv_csv,
    write_cv_summary,
)
from .features_low import (
    FrameConfig,
    frame_indices,
    recording_low_features,
)
from .features_mid import (
    Dictionary,
    NormStats,
    assemble_final,
    bow_encode,
    kmeans_fit,
    zscore_apply,
    zscore_fit,
)
from .ingest import (
    ActigraphySeries,
    DataValidationError,
    HeartRateSeries,
    Recording,
    SleepStage,
    class_names,
    epoch_actigraphy,
    epoch_rr,
    impute_empty_rr,
    load_cohort,
    load_recording,
    map_to_four_class,
    merge_scorer_labels,
    save_recording,
    stages_to_indices,
)
from .modelio import load_dictionary, load_model, save_dictionary, save_model
from .network import (
    NetSpec,
    Network,
    loss,
    network_backward,
    network_forward,
    predict_stages,
)
from .pipeline import (
    FittedModel,
    FittedPipeline,
    fit_pipeline,
    make_sequences,
)
from .synth import SynthConfig, context_only_config, generate_cohort
from .training import (
    TrainConfig,
    finite_difference_gradients,
    gradient_check,
    init_params,
    train,
)
from .transforms import dct2, real_cepstrum

__version__ = "0.1.0"

__all__ = [
    "ActigraphySeries",
    "ConfigError",
    "CvReport",
    "DataValidationError",
    "Dictionary",
    "FittedModel",
    "FittedPipeline",
    "FoldResult",
    "FrameConfig",
    "HeartRateSeries",
    "NetSpec",
    "Network",
    "NormStats",
    "Recording",
    "RunConfig",
    "SleepStage",
    "SynthConfig",
    "TrainConfig",
    "assemble_final",
    "bow_encode",
    "class_names",
    "confusion_matrix",
    "context_only_config",
    "cross_validate",
    "dct2",
    "epoch_actigraphy",
    "epoch_rr",
    "finite_difference_gradients",
    "fit_model",
    "fit_pipeline",
    "frame_indices",
    "generate_cohort",
    "gradient_check",
    "impute_empty_rr",
    "init_params",
    "kfold_split",
    "kmeans_fit",
    "load_cohort",
    "load_config",
    "load_dictionary",
    "load_model",
    "load_recording",
    "loss",
    "make_sequences",
    "map_to_four_class",
    "merge_scorer_labels",
    "network_backward",
    "network_forward",
    "per_class_metrics",
    "predict_stages",
    "real_cepstrum",
    "recording_low_features",
    "save_dictionary",
    "save_model",
    "save_recording",
    "stages_to_indices",
    "summary_document",
    "train",
    "weighted_metrics",
    "write_cv_csv",
    "write_cv_summary",
    "zscore_apply",
    "zscore_fit",
]
