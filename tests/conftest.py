"""Hypothesis settings: HYPOTHESIS_PROFILE=ci makes the property tests
derandomized and free of deadlines, so a CI run is reproducible; local
runs keep hypothesis's default profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
