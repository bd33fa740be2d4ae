"""One hypothesis profile for the whole suite: every `@given` test draws the same examples on every
run and machine, and keeps no example database, so a run's outcome depends on the code alone."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
