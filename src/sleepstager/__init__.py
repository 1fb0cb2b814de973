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

The package root exports the names README's "Library use" section
imports; everything else is imported from its module.
"""

from .evaluate import cross_validate, fit_model
from .features_low import FrameConfig
from .modelio import load_model, save_model
from .synth import SynthConfig, generate_cohort
from .training import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "FrameConfig",
    "SynthConfig",
    "TrainConfig",
    "cross_validate",
    "fit_model",
    "generate_cohort",
    "load_model",
    "save_model",
]
