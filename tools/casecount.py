"""pytest plugin: count the distinct refusal cases a test suite checks.

Run from the root of a checkout as

    PYTHONPATH=src:tools python -m pytest -q -p casecount tests

A case is one (call, error type, message): the outermost ddce function on
the stack when a ddce error is built, during a test that is not a
hypothesis property (whose inputs are drawn at random).  An error built
inside tests/helpers.py's rule_message is the expected value of a routing
test, not a case, and is not counted.  Temporary paths and object addresses
are masked.  The count is printed at the end of the run, and the cases are
written one a line to $CASECOUNT_DUMP if it is set.  Needs Python 3.11 or
later (it names functions by co_qualname).
"""

import os
import re
import sys

import pytest

from ddce import errors

SRC = os.path.dirname(os.path.abspath(errors.__file__))
CASES, ACTIVE = set(), [False]


def _outer():
    """The outermost ddce function of the innermost run of ddce frames on
    the stack, or None while rule_message is on it."""
    frame, outer, in_run = sys._getframe(2), None, True
    while frame is not None:
        code = frame.f_code
        if code.co_name == "rule_message" and code.co_filename.endswith("helpers.py"):
            return None
        if in_run and code.co_filename.startswith(SRC):
            outer = code.co_qualname
        elif code.co_filename != "<string>" and outer is not None:
            in_run = False
        frame = frame.f_back
    return outer


def _counted(cls):
    base = cls.__init__

    def init(self, *args):
        if ACTIVE[0] and args:
            outer = _outer()
            if outer is not None:
                msg = re.sub(r"/tmp/[^'\"\s]*", "<tmp>", str(args[0]))
                CASES.add((outer, cls.__name__, re.sub(r"0x[0-9a-f]+", "0x?", msg)))
        base(self, *args)

    cls.__init__ = init


for _cls in (errors.ContractViolationError, errors.ConfigError, errors.ProfileError,
             errors.SupportError):
    _counted(_cls)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    ACTIVE[0] = not getattr(item.obj, "is_hypothesis_test", False)


def pytest_runtest_teardown(item):
    ACTIVE[0] = False


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"casecount: {len(CASES)} distinct refusal cases")
    if os.environ.get("CASECOUNT_DUMP"):
        with open(os.environ["CASECOUNT_DUMP"], "w", encoding="utf-8") as fh:
            for case in sorted(CASES, key=repr):
                fh.write(repr(case) + "\n")
