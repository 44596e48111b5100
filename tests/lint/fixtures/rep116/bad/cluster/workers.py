"""REP116 bad fixture: leaked worker processes."""

import multiprocessing
import subprocess


def module_worker(spec):
    return spec


def fire_and_forget(spec):
    # Constructed and discarded: no reference survives, so the child
    # can never be joined and its exit code is lost.
    multiprocessing.Process(target=module_worker, args=(spec,)).start()


def spawn_unjoined(spec):
    proc = multiprocessing.Process(target=module_worker, args=(spec,))
    proc.start()
    # proc is neither joined nor handed anywhere that outlives us.


def popen_leak(spec):
    child = subprocess.Popen(spec.argv)
    child.poll()
    # never wait()ed: a zombie on most platforms.

