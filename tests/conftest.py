from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from corpus import APPEND_TEXT, REMARK_TEXT, append_signature, remark_signature  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def recursion_limit():
    """Restore the recursion limit after each test.  A `Solver` raises it for
    the whole process, so without this a test's verdict on deep input could
    depend on which search ran before it."""
    limit = sys.getrecursionlimit()
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="session")
def append_sig():
    return append_signature()


@pytest.fixture(scope="session")
def remark_sig():
    return remark_signature()


@pytest.fixture(scope="session")
def append_text():
    return APPEND_TEXT


@pytest.fixture(scope="session")
def remark_text():
    return REMARK_TEXT


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN
