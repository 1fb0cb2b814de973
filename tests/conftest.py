"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's name rather than drawn at random, and no
per-example deadline applies, so a slow or busy machine neither changes
nor fails a run.

``one_process`` pins cross-validation to the calling process, for tests
that record calls in this process: calls made in a forked worker are lost.
"""

import pytest
from hypothesis import settings

from sleepstager import evaluate

settings.register_profile("sleepstager", derandomize=True, deadline=None, database=None)
settings.load_profile("sleepstager")


@pytest.fixture
def one_process(monkeypatch):
    monkeypatch.setattr(evaluate, "_process_count", lambda: 1)
