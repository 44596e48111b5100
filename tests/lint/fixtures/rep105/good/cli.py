"""REP105 good fixture: cli.py is the configuration boundary."""

import os


def default_jobs() -> int:
    return int(os.environ.get("REPRO_JOBS", "1"))
