"""Test-wide settings: hypothesis draws the same examples on every run and
has no per-example deadline, so a slow host neither changes nor fails a test."""

from hypothesis import settings

settings.register_profile("gadentropy", derandomize=True, deadline=None)
settings.load_profile("gadentropy")
