"""Shared test settings: one deterministic hypothesis profile for the suite."""

from hypothesis import settings

# Derandomized examples and no deadline: the suite cannot flake on a
# slow host, and a failure reproduces on every run.
settings.register_profile(
    "relcalc", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("relcalc")
