"""REP113 bad fixture: two ways a seed fails to flow from the caller."""

import random


def constant_rng() -> int:
    rng = random.Random(1234)
    return rng.randrange(10)


def shuffle_with(samples, rng):
    rng.shuffle(samples)
    return samples


def module_passthrough(samples):
    return shuffle_with(samples, random)
