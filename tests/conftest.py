"""Shared fixtures."""

from __future__ import annotations

import pytest

from janossy_kit import janossy


@pytest.fixture
def complement_builds(monkeypatch) -> list:
    """Arguments of every ``build_tables`` call the janossy module makes.

    Only complement tables are built there; an ensemble's own tables are
    built in ``chain_ensemble`` and are not recorded.
    """
    builds = []
    build = janossy.build_tables

    def recording(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(janossy, "build_tables", recording)
    return builds
