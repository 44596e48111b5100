"""REP109 good fixture: blocking calls outside service/ are in scope of
other policies, not this rule (single-transfer endpoints may block)."""

import time


def backoff(retry_s: float) -> None:
    time.sleep(retry_s)


def pull(sock):
    return sock.recv(2048)
