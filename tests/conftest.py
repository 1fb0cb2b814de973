"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's name rather than drawn at random, and no
per-example deadline applies, so a slow or busy machine neither changes
nor fails a run.
"""

from hypothesis import settings

settings.register_profile("sleepstager", derandomize=True, deadline=None, database=None)
settings.load_profile("sleepstager")
