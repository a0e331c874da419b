from __future__ import annotations

from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


def label_map(tree):
    """Label -> id for every labeled point of an arena."""
    return {tree.labels[p]: p for p in tree.points() if tree.labels[p]}
