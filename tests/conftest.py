try:
    from hypothesis import settings
except ImportError:  # only the property-test modules need hypothesis
    pass
else:
    # Property tests draw the same examples on every run and keep no example
    # database, so Tier-1 stays deterministic.
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
    settings.load_profile("tier1")
