"""One hypothesis profile for every test: no per-example deadline.

A loaded machine can stall a single example past any fixed deadline, and
hypothesis then reports a FlakyFailure that says nothing about the code
under test.  Each test still states its own example count and assertions.
"""

from hypothesis import settings

settings.register_profile("modcurve", deadline=None)
settings.load_profile("modcurve")
