"""Golden-report fixture: a direct REP113 finding (no chain)."""

import random


def noisy(base: int) -> int:
    return base + random.Random(1234).randrange(4)
