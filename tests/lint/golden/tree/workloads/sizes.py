"""Golden-report fixture: a REP113 finding."""

import random


def noisy(base: int) -> int:
    return base + random.Random(1234).randrange(4)
