"""Shared fixtures, and the hypothesis profile that CI loads."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from titlematch.ingest import Dataset
from titlematch.synth import planted_dataset
from titlematch.textprep import UnitLexicon

from helpers import make_ablation_dataset

# Shared runners are slow and uneven: no per-example deadline, and a failure
# prints the blob that reproduces it with @reproduce_failure.
settings.register_profile("ci", deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def units() -> UnitLexicon:
    return UnitLexicon.default()


@pytest.fixture(scope="session")
def fixture_200() -> Dataset:
    """~200-listing planted corpus used across acceptance checks."""
    return planted_dataset(n_clusters=36, n_vendors=10, seed=42)


@pytest.fixture()
def ablation_dataset() -> Dataset:
    return make_ablation_dataset()
