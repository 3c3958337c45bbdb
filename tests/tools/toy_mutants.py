"""A toy module for the mutation census's own test: one site per operator."""


def clamp(x, lo, hi):
    if x < lo:
        return lo
    return min(x, hi)


def is_ready(flags):
    return not flags.get("busy", False)


def countdown(n):
    while n > 0:
        n -= 1
    return n


def unchecked(log):
    log.append("seen")
    return len(log)
