"""Shared test configuration.

Every Hypothesis property in the suite runs derandomized and without a
deadline, so a run is reproducible and a slow shared host cannot fail it.
Each test still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
