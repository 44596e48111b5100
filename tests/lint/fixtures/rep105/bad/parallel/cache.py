"""REP105 bad fixture: no module but cli.py reads the environment (the
result cache that once did is gone)."""

import os


def cache_root() -> str:
    return os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
