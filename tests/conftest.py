import pytest
from hypothesis import HealthCheck, settings

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
