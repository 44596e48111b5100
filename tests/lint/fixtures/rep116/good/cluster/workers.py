"""REP116 good fixture: every process is joined or handed to a handle."""

import multiprocessing
import subprocess


def shard_worker(spec):
    return spec


class Handle:
    def __init__(self, process):
        self.process = process


def spawn(spec):
    # Escapes into a handle the caller joins — the coordinator pattern.
    process = multiprocessing.Process(target=shard_worker, args=(spec,))
    process.start()
    return Handle(process)


def run(specs):
    handles = [spawn(spec) for spec in specs]
    for handle in handles:
        handle.process.join()
    return handles


def run_one(spec):
    process = multiprocessing.Process(target=shard_worker, args=(spec,))
    process.start()
    process.join()
    return spec


def run_tool(argv):
    # Constructed-and-waited inline is a join, not a leak.
    subprocess.Popen(argv).wait()
    child = subprocess.Popen(argv)
    try:
        child.wait(timeout=5.0)
    finally:
        child.kill()
