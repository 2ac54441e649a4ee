"""Channel pruning, epoch segmentation, and feature-vector construction.

The pipeline order is: drop channels with too many NaN samples (interpolating
the stray NaNs that remain elsewhere), band-pass filter, optionally ICA-clean,
then cut one epoch per stimulus event and concatenate its rows into a flat
feature vector.  With the default 14-channel montage and a 20% corrupted FC5,
13 channels survive and a 65-sample window yields 845 features per epoch.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp, ica, lda
from .core import DEFAULT_RATE, ChannelSet, EegRecord, set_readonly

DEFAULT_NAN_THRESHOLD = 0.05


@dataclass(frozen=True)
class EpochWindow:
    """Epoch extent relative to stimulus onset, in samples (endpoint included)."""

    start_offset: int = field(default=0, metadata={"flag": "window_start"})
    length: int = field(default=65, metadata={"flag": "window_length"})

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("window length must be at least 1")


@dataclass(frozen=True)
class PipelineConfig:
    """Feature-pipeline knobs shared by training and online use, and the one
    check of their values; each field is one flag and one model-file key."""

    window: EpochWindow = EpochWindow()
    nan_threshold: float = DEFAULT_NAN_THRESHOLD
    shrinkage: float = lda.DEFAULT_SHRINKAGE
    use_ica: bool = field(default=False, metadata={
        "flag": "ica", "help": "enable ICA artifact cleaning"})

    def __post_init__(self) -> None:
        for name in ("nan_threshold", "shrinkage"):
            if not 0 <= getattr(self, name) <= 1:  # NaN fails too
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with target labels, per-epoch provenance, and the
    channels and window that its feature size is always checked against."""

    vectors: np.ndarray                    # [n_epochs x feature_size]
    labels: np.ndarray                     # boolean, target flag per epoch
    provenance: np.ndarray                 # [n_epochs x 3] (run, session, image_id)
    channels: ChannelSet
    window: EpochWindow

    def __post_init__(self) -> None:
        vectors = set_readonly(self, "vectors", self.vectors)
        labels = set_readonly(self, "labels", self.labels, bool)
        provenance = set_readonly(self, "provenance",
                                  np.reshape(self.provenance, (-1, 3)), np.int64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D matrix")
        if labels.shape != (vectors.shape[0],):
            raise ValueError("one label per epoch required")
        if len(provenance) != vectors.shape[0]:
            raise ValueError("one provenance row per epoch required")
        if vectors.shape[1] != len(self.channels) * self.window.length:
            raise ValueError(
                f"feature size {vectors.shape[1]} != "
                f"{len(self.channels)} channels x {self.window.length} samples")

    @functools.cached_property
    def statistics(self) -> lda.ClassStatistics:
        """Read-only class statistics, shared by training and validation."""
        stats = lda.ClassStatistics.of(self.vectors, self.labels)
        stats.means.flags.writeable = stats.scatter.flags.writeable = False
        return stats

    @property
    def n_epochs(self) -> int:
        return self.vectors.shape[0]

    @property
    def feature_size(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_targets(self) -> int:
        return int(self.labels.sum())


def prune_channels(record: EegRecord,
                   nan_threshold: float = DEFAULT_NAN_THRESHOLD):
    """Drop channels whose NaN fraction exceeds the threshold, and those all
    NaN whatever the threshold: no value is left to interpolate from.

    Surviving channels keep their order; their residual isolated NaNs are
    linearly interpolated from the nearest valid neighbours.  Returns
    (pruned record, list of dropped labels).
    """
    nan_fraction = np.isnan(record.samples).mean(axis=1)
    keep = (nan_fraction <= nan_threshold) & (nan_fraction < 1)
    if not keep.any():
        raise ValueError("all channels exceed the NaN threshold")
    dropped = [lab for lab, k in zip(record.channels, keep) if not k]
    samples = record.samples[keep]  # a new, writable array
    for row in samples:
        bad = np.isnan(row)
        if bad.any():
            idx = np.arange(row.shape[0])
            row[bad] = np.interp(idx[bad], idx[~bad], row[~bad])
    channels = ChannelSet(tuple(lab for lab, k in zip(record.channels, keep) if k))
    return EegRecord(channels, record.rate, samples, record.markers), dropped


def segment(record: EegRecord,
            window: EpochWindow = EpochWindow()) -> np.ndarray:
    """[n_markers x channels x length] epochs, one per marker, in order."""
    starts = record.markers.onset + window.start_offset
    outside = (starts < 0) | (starts + window.length > record.n_samples)
    if outside.any():
        first = int(np.argmax(outside))
        ev, start = record.markers[first], int(starts[first])
        raise IndexError(
            f"epoch for image {ev.image_id} (session {ev.session_index}, "
            f"run {ev.run_index}) at samples [{start}, "
            f"{start + window.length}) exceeds the record")
    windows = sliding_window_view(record.samples, window.length, axis=1)
    return windows.transpose(1, 0, 2)[starts]


def epoch_features(record: EegRecord,
                   pipeline: PipelineConfig = PipelineConfig()):
    """Prune, filter, optionally ICA-clean, segment, and vectorize a recording.

    A record not at `DEFAULT_RATE`, the one rate its band-pass and window
    hold at, is refused with ValueError before it is pruned.  Returns
    ([n_markers x feature_size] vectors, surviving channels), one row per
    marker of the record; no target flag is read.
    """
    if record.rate != DEFAULT_RATE:
        raise ValueError(f"record at {record.rate:g} Hz: the pipeline runs "
                         f"at {DEFAULT_RATE:g} Hz")
    if not len(record.markers):
        raise ValueError("no stimulus events to segment")
    pruned, _ = prune_channels(record, pipeline.nan_threshold)
    coeffs = dsp.design_bandpass(dsp.FilterSpec())
    filtered = dsp.filter_apply(coeffs, pruned)

    if pipeline.use_ica:
        model, sources = ica.fit(filtered.samples)
        mask = ica.classify_components(model, sources, filtered.channels)
        cleaned = ica.reconstruct(model, filtered.samples, mask)
        filtered = filtered.with_samples(cleaned)

    epochs = segment(filtered, pipeline.window)
    return epochs.reshape(len(epochs), -1), filtered.channels


def dataset_from_scenario(record: EegRecord,
                          pipeline: PipelineConfig = PipelineConfig(),
                          ) -> LabeledDataset:
    """The `epoch_features` of a recording, labelled by its markers, every
    one of which must carry a target flag."""
    if (record.markers.target < 0).any():
        raise ValueError("events must carry target labels")
    vectors, channels = epoch_features(record, pipeline)
    return LabeledDataset(vectors, record.markers.target == 1,
                          record.markers.provenance, channels, pipeline.window)
