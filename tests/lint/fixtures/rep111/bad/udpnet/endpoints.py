"""REP111 bad fixture: the blocking endpoints go through the batch
layer too — a raw call here skips the fault plan just the same."""


def push(sock, payload, address) -> None:
    sock.sendto(payload, address)


def pull_into(sock, buffer):
    return sock.recvfrom_into(buffer)
