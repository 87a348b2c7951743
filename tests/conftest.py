import contextlib
import io
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

import loccdist as L
from loccdist.cli import main

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

#: criterion number -> status line, filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        status, desc = ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(f"criterion {num} ({desc}): {status}")


class _Tee(io.StringIO):
    """A stream that also copies what it is written to ``mixed``."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, text):
        self.mixed.write(text)
        return super().write(text)


def run_cli(args):
    """Run the CLI in process on ``args`` (``str`` of each).  Returns its
    ``exit_code``, its ``stdout`` and ``stderr``, their interleaved ``output``
    and the ``exception`` that escaped it, if any besides ``SystemExit``
    (an escaped exception exits 1, as the interpreter would)."""
    mixed = io.StringIO()
    out, err = _Tee(mixed), _Tee(mixed)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code, exception = 1, exc
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                           output=mixed.getvalue(), exception=exception)


@pytest.fixture
def bell2():
    return L.canned_example("bell2")


@pytest.fixture
def bell3():
    return L.canned_example("bell3")


@pytest.fixture
def bell4():
    return L.canned_example("bell4")


@pytest.fixture
def six4x4():
    return L.canned_example("six4x4")


@pytest.fixture
def domino9():
    return L.canned_example("domino9")
