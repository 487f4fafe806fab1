"""Test-wide settings: hypothesis runs a fixed, replayable set of examples."""

from hypothesis import settings

settings.register_profile("starcoal", derandomize=True, deadline=None, database=None)
settings.load_profile("starcoal")
