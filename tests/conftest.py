import pathlib

import pytest

from lifeguard.messages import load_trace
from lifeguard.rules import load_spec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def trace_fixed():
    return load_trace(FIXTURES / "trace_fixed.trace")


@pytest.fixture(scope="session")
def trace_buggy():
    return load_trace(FIXTURES / "trace_buggy.trace")


@pytest.fixture(scope="session")
def spec_run():
    return load_spec(FIXTURES / "spec_run.ls")


@pytest.fixture(scope="session")
def spec_lifecycle():
    return load_spec(FIXTURES / "spec_lifecycle.ls")


@pytest.fixture(scope="session")
def spec_top():
    return load_spec(FIXTURES / "spec_top.ls")


@pytest.fixture(scope="session")
def spec_run_noenable():
    return load_spec(FIXTURES / "spec_run_noenable.ls")


@pytest.fixture(scope="session")
def spec_run_until():
    return load_spec(FIXTURES / "spec_run_until.ls")


@pytest.fixture(scope="session")
def spec_run_redundant():
    return load_spec(FIXTURES / "spec_run_redundant.ls")
