"""Test-suite configuration: Hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("spectralbvp", derandomize=True)
settings.load_profile("spectralbvp")
