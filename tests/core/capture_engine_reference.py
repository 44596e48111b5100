"""Record ``fixtures/engine_reference.json`` from the generator engines.

Run once with ``PYTHONPATH`` on a checkout of the parent of the PR that
deleted them (the last tree that has a ``core/blast.py``)::

    git clone -q . /root/scratch/parent && git -C /root/scratch/parent checkout 9b936fa
    PYTHONPATH=/root/scratch/parent/src python tests/core/capture_engine_reference.py

The live tree cannot re-record it: there the classes are drivers over
``service/machines.py`` and the fixture is what they are checked against.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import engine_grid  # noqa: E402
import repro.core  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "engine_reference.json")


def main() -> None:
    if not os.path.exists(os.path.join(os.path.dirname(repro.core.__file__),
                                       "blast.py")):
        raise SystemExit("this tree has no generator engines to record; "
                         "point PYTHONPATH at the parent checkout")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    sections = [
        f' "{name}": {{\n' + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(cells.items())) + "\n }"
        for name, cells in sorted(engine_grid.record().items())]
    with open(FIXTURE, "w") as handle:  # one cell per line
        handle.write("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
