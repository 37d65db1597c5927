from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from corpus import APPEND_TEXT, REMARK_TEXT, append_signature, remark_signature  # noqa: E402

from lfhh.cli import _limits, build_parser  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def cli_limits():
    """`depth -> Limits` for a search of that depth, made as a command with
    `--depth` makes them, which raises the recursion limit for it; the limit
    found is put back after the test."""
    limit = sys.getrecursionlimit()
    yield lambda depth: _limits(build_parser().parse_args(["bench", f"--depth={depth}"]))
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
