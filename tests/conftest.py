"""Records the lines of the ``signreg`` package that the test run executes,
for the line gate in ``test_line_gate.py``.

The tracer (``sys.settrace``, and ``threading.settrace`` so that the
transform's worker threads count) starts when pytest loads this file,
before any test module imports the package, so import-time lines count
too. It stops tracing a code object once every line of it has run. Runs
in subprocesses (``test_scripts.py``, perfbench) are not counted.

Only a full run checks the gate: every ``tests/test_*.py`` file collected
and no test deselected. Any other run (one file, ``-k``, ``--lf``) stops
the tracer once collection ends, and the gate skips.
"""

import importlib.util
import os
import sys
import threading

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
GATE = "test_line_gate.py"
FULL_RUN = pytest.StashKey[bool]()


class LineTracer:
    """The (file, line) pairs of the package's code run since ``start``."""

    def __init__(self, package_dir: str):
        self.files = {os.path.join(package_dir, name): name[:-3]
                      for name in sorted(os.listdir(package_dir)) if name.endswith(".py")}
        self.ran: set[tuple[str, int]] = set()
        self.imported_before = False
        files, ran = self.files, self.ran
        pending: dict[int, set[int]] = {}  # id(code) -> its lines not yet run
        codes = []  # holds every traced code object, so no id is reused

        def on_line(frame, event, arg):
            if event == "line":
                todo = pending[id(frame.f_code)]
                if frame.f_lineno in todo:
                    todo.discard(frame.f_lineno)
                    ran.add((frame.f_code.co_filename, frame.f_lineno))
                    if not todo:
                        return None
            return on_line

        def on_call(frame, event, arg):
            code = frame.f_code
            if code.co_filename not in files:
                return None
            todo = pending.get(id(code))
            if todo is None:
                codes.append(code)
                todo = pending[id(code)] = self.lines_of(code)
            # a call starts on the def line (a resumed generator on its
            # yield), which raises no line event of its own
            todo.discard(frame.f_lineno)
            ran.add((code.co_filename, frame.f_lineno))
            return on_line if todo else None

        self._on_call = on_call

    @staticmethod
    def lines_of(code) -> set[int]:
        """The line numbers that ``code``'s own instructions carry."""
        return {line for _, _, line in code.co_lines() if line is not None}

    def start(self):
        self.imported_before = "signreg" in sys.modules
        sys.settrace(self._on_call)
        threading.settrace(self._on_call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


TRACER = LineTracer(importlib.util.find_spec("signreg").submodule_search_locations[0])
TRACER.start()
_deselected = []


def pytest_deselected(items):
    _deselected.extend(items)


def pytest_collection_modifyitems(session, config, items):
    # the gate runs last, after every test that can reach a line
    items.sort(key=lambda item: item.path.name == GATE)


def pytest_collection_finish(session):
    collected = {item.path.name for item in session.items}
    files = {name for name in os.listdir(TESTS) if name.startswith("test_") and name.endswith(".py")}
    session.config.stash[FULL_RUN] = files <= collected and not _deselected
    if not session.config.stash[FULL_RUN]:
        TRACER.stop()


@pytest.fixture
def line_tracer(request):
    """The session's tracer; skips the test unless this is a full run with
    no failure so far."""
    if not request.config.stash.get(FULL_RUN, False):
        pytest.skip("not a full run: the gate needs every test file and no deselection")
    if TRACER.imported_before:
        pytest.skip("signreg was imported before the tracer started")
    if request.session.testsfailed:
        pytest.skip("an earlier test failed, so lines it would have run may not have")
    return TRACER
