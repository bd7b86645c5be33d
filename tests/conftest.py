"""Shared fixtures."""

import pytest

import repro.obs as obs
from repro.db import Database
from repro.workflow import PropagationManager, WorkflowEngine


@pytest.fixture
def db():
    """A fresh empty database."""
    return Database("test")


@pytest.fixture
def engine(db):
    """A workflow engine (installs the core schema)."""
    return WorkflowEngine(db)


@pytest.fixture
def propagation(engine):
    """A propagation manager attached to the engine."""
    return PropagationManager(engine)


@pytest.fixture
def traced():
    """Observability on for one test, from a clean slate and back to it."""
    obs.disable()
    obs.reset()
    obs.enable()
    yield obs
    obs.disable()
    obs.reset()
