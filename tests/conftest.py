"""Warning policy of the test suite: a warning raised in a test fails
it.  The engine and acceptance tests expect the thin provider's
UserWarning beyond its validity range (size parameter x > 0.3), so in
those two files only a RuntimeWarning fails a test.  The policy holds
for the items of this folder only, whatever else one run collects, so
the benchmark harness's tests keep pytest's default."""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUNTIME_WARNINGS_ONLY = ("test_engine.py", "test_acceptance.py")


def pytest_collection_modifyitems(items):
    for item in items:
        path = Path(item.path).resolve()
        if HERE not in path.parents:
            continue
        policy = ("error::RuntimeWarning"
                  if path.name in RUNTIME_WARNINGS_ONLY else "error")
        # first, so that a test's own filterwarnings mark overrides it
        item.add_marker(pytest.mark.filterwarnings(policy), append=False)
