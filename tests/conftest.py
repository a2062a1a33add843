from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

import ora_bob as ob
from ora_bob import oracles, rng
from ora_bob.core import Instance
from ora_bob.oracles import OracleReport
from ora_bob.simplex import SimplexResult, solve_lp

settings.register_profile(
    "tier1",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# The same with ten times the examples, for a test that takes no
# max_examples of its own; select it with --hypothesis-profile=ci.
settings.register_profile("ci", settings.get_profile("tier1"), max_examples=500)
settings.load_profile("tier1")

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _ACCEPTANCE_LINES.append(f"[{status}] {name}{suffix}")


@pytest.fixture
def criterion():
    """Record one acceptance-criterion outcome and assert it."""

    def _check(name: str, passed: bool, detail: str = ""):
        record_criterion(name, passed, detail)
        assert passed, f"{name} failed: {detail}"

    return _check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class LpSolve(NamedTuple):
    """One opt_lp_relax call: its instance and report, and the arguments
    and result of the solve_lp call it made."""

    instance: Instance
    report: OracleReport
    args: tuple
    kwargs: dict
    result: SimplexResult


def _solve_recorded(instance) -> LpSolve:
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, solve_lp(*args, **kwargs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "solve_lp", spy)
        report = oracles.opt_lp_relax(instance)
    (call,) = calls
    return LpSolve(instance, report, *call)


@pytest.fixture(scope="session")
def lp_solve_recorded():
    """opt_lp_relax of an instance, as an LpSolve."""
    return _solve_recorded


@pytest.fixture(scope="session")
def c08_lp_solves():
    """Acceptance criterion 08's 50 all-distinct instances, each with its
    opt_lp_relax solved once per session for every test that reads it."""
    return tuple(
        _solve_recorded(ob.random_instance(
            rng.derive_seed(0x88, s), T=400, K=3, m=1, n=1, feasibility_margin=0.2
        ))
        for s in range(50)
    )
