"""Every tier-1 run draws the same hypothesis examples and writes no
example database."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
