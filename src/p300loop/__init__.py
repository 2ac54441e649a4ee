"""Closed-loop P300 selection engine with a simulated subject.

The package covers the full loop: block-random stimulus scheduling, synthetic
EEG with embedded evoked responses and artifacts, band-pass filtering, ICA
artifact removal, epoch feature extraction, a shrinkage-regularized linear
discriminant, a binary wire protocol for streaming, and a two-phase
evaluation harness that retrains the classifier from its own online logs.
"""
from .acquisition import (
    EndFrame,
    FormatError,
    FrameReader,
    HeaderFrame,
    IncompleteFrame,
    MarkerFrame,
    ModelFile,
    ProtocolError,
    SamplesFrame,
    VersionError,
    WireFrame,
    decode_frame,
    encode_frame,
    load_model,
    load_record,
    reassemble,
    save_model,
    save_record,
    stream_record,
)
from .core import (
    DEFAULT_CHANNEL_LABELS,
    DEFAULT_RATE,
    N_IMAGES,
    ChannelSet,
    EegRecord,
    StimulusEvent,
    slice_window,
    time_to_sample,
)
from .dsp import (
    FilterCoefficients,
    FilterSpec,
    ScalingParams,
    design_bandpass,
    filter_apply,
    frequency_response,
    minmax_apply,
    minmax_fit,
)
from .features import (
    EpochWindow,
    LabeledDataset,
    PipelineConfig,
    build_feature_vector,
    dataset_from_scenario,
    epoch_from_vector,
    prune_channels,
    segment,
)
from .ica import ConvergenceError, IcaModel, RankError, classify_components
from .ica import fit as ica_fit
from .ica import reconstruct, whiten
from .lda import LdaModel, fisher_criterion
from .lda import score as lda_score
from .lda import train as lda_train
from .scheduler import (
    ScenarioSchedule,
    TimingConfig,
    build_online_trial_schedule,
    build_scenario_schedule,
    durations,
    event_table,
    generate_run_sequence,
)
from .session import (
    EvaluationPhase,
    ObjectCatalog,
    SelectionResult,
    cross_validated_auc,
    majority_vote,
    retrain_from_online,
    run_full_evaluation,
    run_offline_training,
    run_online_selection,
    train_on_dataset,
    trial_winner,
)
from .subject import (
    SubjectParams,
    corrupt_nan_channel,
    default_topography,
    generate_background,
    inject_blinks,
    inject_p300,
    simulate_subject,
    with_targets,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet", "ConvergenceError", "DEFAULT_CHANNEL_LABELS", "DEFAULT_RATE",
    "EegRecord", "EndFrame", "EpochWindow", "EvaluationPhase",
    "FilterCoefficients", "FilterSpec", "FormatError", "FrameReader",
    "HeaderFrame", "IcaModel", "IncompleteFrame", "LabeledDataset", "LdaModel",
    "MarkerFrame", "ModelFile", "N_IMAGES", "ObjectCatalog", "PipelineConfig",
    "ProtocolError", "RankError", "SamplesFrame", "ScalingParams",
    "ScenarioSchedule", "SelectionResult", "StimulusEvent", "SubjectParams",
    "TimingConfig", "VersionError", "WireFrame", "build_feature_vector",
    "build_online_trial_schedule", "build_scenario_schedule",
    "classify_components", "corrupt_nan_channel", "cross_validated_auc",
    "dataset_from_scenario", "decode_frame", "default_topography",
    "design_bandpass", "durations", "encode_frame", "epoch_from_vector",
    "event_table", "filter_apply", "fisher_criterion", "frequency_response",
    "generate_background", "generate_run_sequence", "ica_fit", "inject_blinks",
    "inject_p300", "lda_score", "lda_train", "load_model", "load_record",
    "majority_vote", "minmax_apply", "minmax_fit", "prune_channels",
    "reassemble", "retrain_from_online", "run_full_evaluation",
    "run_offline_training", "run_online_selection", "save_model",
    "save_record", "segment", "simulate_subject", "slice_window",
    "stream_record", "time_to_sample", "train_on_dataset", "trial_winner",
    "whiten", "with_targets",
]
