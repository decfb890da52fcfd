"""Hypothesis profiles.  Under CI (the ``CI`` environment variable set, as
GitHub Actions does) property tests run derandomized, so a failure there
reproduces on rerun; local runs keep hypothesis's default profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("CI"):
    settings.load_profile("ci")
