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
imports, each loaded from its module on first use, so that importing the
package loads no numpy: ``cli`` can still choose the BLAS threads before
numpy starts them. Everything else is imported from its module.
"""

import importlib

__version__ = "0.1.0"

# each exported name, by the module that defines it
_EXPORTS = {
    "FrameConfig": "features_low",
    "SynthConfig": "synth",
    "TrainConfig": "training",
    "cross_validate": "evaluate",
    "fit_model": "evaluate",
    "generate_cohort": "synth",
    "load_model": "modelio",
    "save_model": "modelio",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
