"""Glue between feature extraction, the codebook, and the network.

The fitted state of a pipeline is exactly three things: the k-means
dictionary, the z-score statistics, and the network parameters. The first
two must be fitted on training recordings only; this module keeps that
split explicit so evaluation code cannot leak test data into the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataValidationError, NumericError
from .features_low import FrameConfig, recording_low_features
from .features_mid import (
    Dictionary,
    NormStats,
    assemble_final,
    bow_encode,
    kmeans_fit,
    zscore_apply,
    zscore_fit,
)
from .ingest import Recording
from .network import Network


@dataclass(frozen=True)
class FittedPipeline:
    """Feature transform learned from a training split."""

    dictionary: Dictionary
    stats: NormStats

    def transform(self, low: np.ndarray) -> np.ndarray:
        """Low-level rows (T, d) to normalized final rows (T, d + K), all
        finite: a row that overflows is a ``NumericError``."""
        final = assemble_final(low, bow_encode(low, self.dictionary))
        out = zscore_apply(final, self.stats)
        if not np.isfinite(out).all():
            raise NumericError("features overflow float64 in the codebook distances or z-score")
        return out

    @property
    def final_dim(self) -> int:
        return self.stats.mean.shape[0]


def check_num_words(num_words: int, epochs: int) -> None:
    """A codebook of ``num_words`` words is fitted to at least as many epochs."""
    if num_words > epochs:
        raise ConfigError(f"num_words={num_words} exceeds the training split's {epochs} epochs")


def fit_pipeline(train_lows: list[np.ndarray], num_words: int, seed: int) -> FittedPipeline:
    """Fit dictionary and normalization from training recordings' low features.

    The dictionary is clustered on raw low-level rows; z-score statistics
    are taken over the concatenated (low | distances) rows afterwards.
    """
    if not train_lows:
        raise ValueError("need at least one training recording")
    stacked = np.concatenate(train_lows, axis=0)
    check_num_words(num_words, len(stacked))
    if len(stacked) < 2:
        raise DataValidationError("the training split has 1 epoch; z-score statistics need 2")
    dictionary = kmeans_fit(stacked, num_words, seed=seed)
    final = assemble_final(stacked, bow_encode(stacked, dictionary))
    stats = zscore_fit(final)
    return FittedPipeline(dictionary=dictionary, stats=stats)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes)[np.asarray(indices, dtype=np.int64)]


def make_sequences(
    lows: list[np.ndarray],
    labels: list[np.ndarray],
    pipeline: FittedPipeline,
    num_classes: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(features, one-hot labels) pairs ready for the network."""
    return [
        (pipeline.transform(low), one_hot(y, num_classes))
        for low, y in zip(lows, labels)
    ]


@dataclass
class FittedModel:
    """Everything needed to score a new recording."""

    frame: FrameConfig
    num_classes: int
    pipeline: FittedPipeline
    net: Network

    def features_for(self, rec: Recording) -> np.ndarray:
        return self.pipeline.transform(recording_low_features(rec, self.frame))
