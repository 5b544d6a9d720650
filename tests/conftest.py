# memvisco first, ahead of helpers' numpy: the tests run with the CLI's BLAS threads
import memvisco  # noqa: F401
from hypothesis import HealthCheck, settings

import helpers

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_terminal_summary(terminalreporter):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
