"""Channel pruning, epoch segmentation, and feature-vector construction.

The pipeline order is: drop channels with too many NaN samples (interpolating
the stray NaNs that remain elsewhere), band-pass filter, optionally ICA-clean,
then cut one epoch per stimulus event and concatenate its rows into a flat
feature vector.  With the default 14-channel montage and a 20% corrupted FC5,
13 channels survive and a 65-sample window yields 845 features per epoch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, ica, lda
from .core import ChannelSet, EegRecord, StimulusEvent, slice_window
from .scheduler import ScenarioSchedule

DEFAULT_NAN_THRESHOLD = 0.05


@dataclass(frozen=True)
class EpochWindow:
    """Epoch extent relative to stimulus onset, in samples (endpoint included)."""

    start_offset: int = 0
    length: int = 65

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("window length must be at least 1")


@dataclass(frozen=True)
class PipelineConfig:
    """Feature-pipeline knobs shared by training and online use."""

    window: EpochWindow = EpochWindow()
    nan_threshold: float = DEFAULT_NAN_THRESHOLD
    shrinkage: float = lda.DEFAULT_SHRINKAGE
    use_ica: bool = False


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with target labels and per-epoch provenance."""

    vectors: np.ndarray                    # [n_epochs x feature_size]
    labels: np.ndarray                     # boolean, target flag per epoch
    provenance: tuple                      # (run, session, image_id) per epoch
    channels: ChannelSet | None = None
    window: EpochWindow | None = None

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=bool, copy=True)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D matrix")
        if labels.shape != (vectors.shape[0],):
            raise ValueError("one label per epoch required")
        if len(self.provenance) != vectors.shape[0]:
            raise ValueError("one provenance tuple per epoch required")
        if self.channels is not None and self.window is not None:
            expected = len(self.channels) * self.window.length
            if vectors.shape[1] != expected:
                raise ValueError(
                    f"feature size {vectors.shape[1]} != "
                    f"{len(self.channels)} channels x {self.window.length} samples")
        vectors.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "provenance", tuple(self.provenance))

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
    """Drop channels whose NaN fraction exceeds the threshold.

    Surviving channels keep their order; their residual isolated NaNs are
    linearly interpolated from the nearest valid neighbours.  Returns
    (pruned record, list of dropped labels).
    """
    nan_fraction = np.isnan(record.samples).mean(axis=1)
    keep = nan_fraction <= nan_threshold
    if not keep.any():
        raise ValueError("all channels exceed the NaN threshold")
    dropped = [lab for lab, k in zip(record.channels, keep) if not k]
    samples = np.array(record.samples[keep], copy=True)
    for row in samples:
        bad = np.isnan(row)
        if bad.any():
            idx = np.arange(row.shape[0])
            row[bad] = np.interp(idx[bad], idx[~bad], row[~bad])
    channels = ChannelSet(tuple(lab for lab, k in zip(record.channels, keep) if k))
    return EegRecord(channels, record.rate, samples, record.markers), dropped


def segment(record: EegRecord, events=None,
            window: EpochWindow = EpochWindow()):
    """One (epoch matrix, event) pair per stimulus event."""
    if events is None:
        events = record.markers
    epochs = []
    for ev in events:
        start = ev.onset_sample + window.start_offset
        try:
            epoch = slice_window(record, start, window.length)
        except IndexError:
            raise IndexError(
                f"epoch for image {ev.image_id} (session {ev.session_index}, "
                f"run {ev.run_index}) at samples [{start}, "
                f"{start + window.length}) exceeds the record") from None
        epochs.append((epoch, ev))
    return epochs


def build_feature_vector(epoch: np.ndarray) -> np.ndarray:
    """Concatenate channel rows in order: channel 0's samples, then channel 1's."""
    epoch = np.asarray(epoch)
    if epoch.ndim != 2:
        raise ValueError("epoch must be a 2-D matrix")
    return epoch.reshape(-1).copy()


def epoch_from_vector(vector: np.ndarray, n_channels: int) -> np.ndarray:
    """Inverse of build_feature_vector."""
    vector = np.asarray(vector)
    if vector.size % n_channels:
        raise ValueError("vector length is not a multiple of the channel count")
    return vector.reshape(n_channels, -1)


def dataset_from_scenario(record: EegRecord,
                          schedule: ScenarioSchedule | None = None,
                          pipeline: PipelineConfig = PipelineConfig(),
                          ica_rng: np.random.Generator | None = None,
                          ) -> LabeledDataset:
    """Prune, filter, optionally ICA-clean, segment, and vectorize a recording.

    Events come from the schedule when given, otherwise from the record's own
    markers; every event must carry a target flag.
    """
    events = schedule.events if schedule is not None else record.markers
    if not events:
        raise ValueError("no stimulus events to segment")
    for ev in events:
        if ev.is_target is None:
            raise ValueError("events must carry target labels")

    pruned, _ = prune_channels(record, pipeline.nan_threshold)
    coeffs = dsp.design_bandpass(dsp.FilterSpec(rate=pruned.rate))
    filtered = dsp.filter_apply(coeffs, pruned)

    if pipeline.use_ica:
        model, sources = ica.fit(filtered.samples, rng=ica_rng, strict=False)
        mask = ica.classify_components(model, sources, filtered.channels)
        cleaned = ica.reconstruct(model, filtered.samples, mask)
        filtered = filtered.with_samples(cleaned)

    epochs = segment(filtered, events, pipeline.window)
    vectors = np.vstack([build_feature_vector(ep)[None, :] for ep, _ in epochs])
    labels = np.array([bool(ev.is_target) for _, ev in epochs])
    provenance = tuple((ev.run_index, ev.session_index, ev.image_id)
                       for _, ev in epochs)
    return LabeledDataset(vectors=vectors, labels=labels, provenance=provenance,
                          channels=filtered.channels, window=pipeline.window)
