"""Fixtures shared by the test modules."""

import pytest

from quadproto import measure


@pytest.fixture
def keep_every_branch(monkeypatch):
    """Drop only the outcome branches of probability exactly 0.0."""
    monkeypatch.setattr(measure, "DROP_TOL", 0.0)
