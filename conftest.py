"""Root test configuration: give each pytest session private state files.

The experiment engine's default cache (``.repro_cache/``) persists
across runs — the right default for interactive figure reproduction,
but wrong for the test suite: a simulator change made without a
``SPEC_VERSION`` bump would let tests assert against stale cached
results from a previous run.  Unless the caller explicitly configured
the cache (``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``), point it at a
session-private temp directory: caching and the engine path stay fully
exercised (figures share identical points within the run) with no
cross-run staleness.
"""

import os
import tempfile


def pytest_configure(config):
    if not (os.environ.get("REPRO_CACHE_DIR") or os.environ.get("REPRO_NO_CACHE")):
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-cache-")
