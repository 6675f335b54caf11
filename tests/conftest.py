import pytest
from hypothesis import HealthCheck, settings

from flexnum.concretize import DEFAULT_EPS0S, Concretization

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(params=DEFAULT_EPS0S, ids=lambda e: f"eps0={e}")
def conc(request) -> Concretization:
    return Concretization(eps0=request.param, seed=20240)


@pytest.fixture
def conc_coarse() -> Concretization:
    return Concretization(eps0=1e-3, seed=20240)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
