"""Shared test configuration.

The Hurwitz cache is pointed at a throwaway directory before anything in
qrel is imported, and filled once per session up to the largest argument
any test needs, so individual tests never pay the bulk-fill cost.
"""

import os
import tempfile

_CACHE_DIR = tempfile.mkdtemp(prefix="qrel-test-cache-")
os.environ["QREL_CACHE_DIR"] = _CACHE_DIR

import pytest  # noqa: E402

from qrel.arith import hurwitz_cache  # noqa: E402

SESSION_HURWITZ_MAX = 8000


@pytest.fixture(scope="session", autouse=True)
def warm_hurwitz_cache():
    hurwitz_cache().ensure(SESSION_HURWITZ_MAX)
    yield
