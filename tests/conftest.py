"""Shared test configuration: a fixed, derandomized hypothesis profile, so
every run of the property suites draws the same examples."""

try:
    from hypothesis import settings
except ImportError:  # the property suites skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "efgtp", derandomize=True, max_examples=150, deadline=None, database=None
    )
    settings.load_profile("efgtp")
