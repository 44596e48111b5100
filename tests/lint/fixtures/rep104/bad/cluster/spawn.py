"""REP104 bad fixture: worker processes whose target cannot pickle.

Both processes are joined; the ``spawn`` start method still has to
pickle the target by reference.
"""

import multiprocessing
from multiprocessing import Process


def lambda_target(spec):
    proc = multiprocessing.Process(target=lambda: spec)
    proc.start()
    proc.join()


def nested_target(spec):
    def entry():
        return spec

    proc = Process(target=entry)
    proc.start()
    proc.join()
