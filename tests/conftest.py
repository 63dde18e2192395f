"""Every test run draws the same hypothesis examples.

The "tier1" profile derandomizes hypothesis, seeding each test's draws from
the test itself (and so using no example database): a property that passes
once passes on every run, and one that fails, fails on every run.  The
tests' own ``@settings`` keep their example counts and deadlines.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
