"""Hypothesis profiles shared by the test suite.

CI sets HYPOTHESIS_PROFILE=ci: derandomized runs draw the same examples
every time, so a failure in CI replays locally under the same profile.
Without the variable the default profile stays in force.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
