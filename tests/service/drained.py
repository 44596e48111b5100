"""``ServiceCore.drain_sends`` read as frames, for tests that follow one."""

from repro.core.frames import DataFrame


def frames_of(runs):
    """``[(DataFrame, client), ...]``: every packet the runs carry, each
    run's in order, runs in the order drained — the frames ``poll``
    would have built for them."""
    return [(DataFrame(stream, seq, total, payload, reply, stream_id=stream),
             client)
            for client, stream, total, seqs, payloads, wants in runs
            for seq, payload, reply in zip(seqs, payloads, wants)]


def drained(core, now, max_frames):
    """``frames_of(core.drain_sends(now, max_frames))``."""
    return frames_of(core.drain_sends(now, max_frames))
