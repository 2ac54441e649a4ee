"""Shared fixtures: one seeded training scenario reused across test modules.

Simulating the full 317 s scenario and segmenting it is the expensive part of
the suite, so a single seed-0 instance is built once per session and shared by
every module that only reads from it.
"""
import numpy as np
import pytest

from p300loop import features, scheduler, subject

# one line per acceptance criterion, echoed after the run (see
# tests/test_acceptance.py)
ACCEPTANCE_LINES = []


def attended_images(markers):
    """Each flagged session's attended image, in session order, read from
    the flash table's target column; () when no flash is flagged.  Fails
    unless a flagged session flags flashes of exactly one image."""
    flagged = markers.target == 1
    sessions, images = markers.session[flagged], markers.image[flagged]
    attended = []
    for sess in np.unique(sessions).tolist():
        shown = np.unique(images[sessions == sess]).tolist()
        assert len(shown) == 1, f"session {sess} attends images {shown}"
        attended.append(shown[0])
    return tuple(attended)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_timing():
    return scheduler.TimingConfig()


@pytest.fixture(scope="session")
def training_schedule(default_timing):
    rng = np.random.default_rng(0)
    return scheduler.build_scenario_schedule(default_timing, rng=rng)


@pytest.fixture(scope="session")
def training_record(training_schedule):
    params = subject.SubjectParams(seed=0)
    return subject.simulate_subject(training_schedule, params)


@pytest.fixture(scope="session")
def training_dataset(training_record):
    return features.dataset_from_scenario(training_record)
