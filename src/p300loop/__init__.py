"""Closed-loop P300 selection engine with a simulated subject.

The package covers the full loop: block-random stimulus scheduling, synthetic
EEG with embedded evoked responses and artifacts, band-pass filtering, ICA
artifact removal, epoch feature extraction, a shrinkage-regularized linear
discriminant, a binary wire protocol for streaming, and a two-phase
evaluation harness that retrains the classifier from its own online logs.
Import the submodules (`from p300loop import session`); the package itself
exports only `__version__`.
"""

__version__ = "0.1.0"
