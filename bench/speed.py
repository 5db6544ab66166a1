"""Host speed, measured with a fixed reference kernel next to each operation.

Other tenants of a shared machine slow every process on it, by up to 2x, in
stretches from milliseconds to minutes (see README.md), so raw wall times of
the same code differ between runs by more than any bound worth setting. The
bench therefore times a fixed pure-Python kernel (tokenise, nest and render
an s-expression, the kind of work the program does) before every operation,
for about a tenth of the operation's time, and scales the user-time share of
each operation's wall time by REF_S over the kernel's mean time next to it:
the operation's time on a machine where the kernel takes exactly REF_S.
REF_S is about the kernel's time on a quiet 2-vCPU 2.1 GHz host, so on such
a host the scaled times read as wall times.

The kernel is the bench's own code and never calls the program under test,
so a change to the program changes the operations' times and not the
kernel's: a slower program still reads slower.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

REF_S = 1e-3     # the kernel's time that scaled times are expressed at
BUDGET = 0.1     # kernel time before an operation, as a share of its latency
MOST = 50        # kernel samples before one operation at most

_TEXT = " ".join(f'(n{i} (s (s {i})) (f x{i % 7} "w"))' for i in range(240))


def _render(x) -> str:
    return "(" + " ".join(_render(y) for y in x) + ")" if isinstance(x, tuple) else x


def _kernel() -> int:
    stack: List[list] = [[]]
    for tok in _TEXT.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(tuple(done))
        else:
            stack[-1].append(tok)
    return len(_render(tuple(stack[0])))


_EXPECT = _kernel()


def sample() -> float:
    """Wall time of one run of the reference kernel."""
    t = time.perf_counter()
    n = _kernel()
    elapsed = time.perf_counter() - t
    assert n == _EXPECT
    return elapsed


def samples(latency: float) -> List[float]:
    """Kernel samples to take before an operation of about this latency:
    BUDGET of its time, at least one."""
    n = max(1, min(MOST, round(BUDGET * latency / REF_S)))
    return [sample() for _ in range(n)]


def scale(passes) -> List[List[float]]:
    """Each latency of each pass at reference speed.

    A pass holds lat[i], the wall time of operation i; ref[i] and ref[i + 1],
    the kernel samples just before and just after it; and cpu[i], its user
    and system CPU time. The host's speed at operation i is the mean of the
    samples next to it. Only the user-time share of the wall time is scaled:
    system time (mostly page faults on fresh memory) does not follow the
    kernel's slowdown. Each operation's user share is taken over all passes,
    because the split of a few milliseconds between user and system time
    moves in whole clock ticks.
    """
    user = [sum(c[0] for c in cs) for cs in zip(*(p["cpu"] for p in passes))]
    both = [sum(c[0] + c[1] for c in cs) for cs in zip(*(p["cpu"] for p in passes))]
    share = [u / b if b else 1.0 for u, b in zip(user, both)]
    out = []
    for p in passes:
        assert len(p["ref"]) == len(p["lat"]) + 1
        out.append([t * (f * REF_S / statistics.fmean(p["ref"][i] + p["ref"][i + 1]) + 1 - f)
                    for i, (t, f) in enumerate(zip(p["lat"], share))])
    return out


def scaled(seconds: float, ref: Sequence[float], user_share: float) -> float:
    """One wall time at reference speed, given kernel samples taken around it
    and its user-time share (see scale)."""
    return seconds * (user_share * REF_S / statistics.fmean(ref) + 1 - user_share)
