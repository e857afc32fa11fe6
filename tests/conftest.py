"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

# derandomized and without an example database, so a run is reproducible and
# leaves no files; few examples keep the property tests to about a second
settings.register_profile("wadro", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.load_profile("wadro")
