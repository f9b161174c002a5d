"""Reference workload that measures how fast the machine runs Python right now.

Usage: python3 perfbench/calibrate.py

A fixed pure-Python computation, independent of scdforge and of the same kind
as its work: bracket-match every subset of [16] (bit operations and a small
stack), index the results in a dict of 2^16 entries, then take one step up the
Greene-Kleitman chain of each subset, a lookup far from the previous one, so
that it depends on the memory system as the program does.  It prints
a checksum, CHECKSUM.  run.py runs it in a fresh process before every command
and scales the commands' CPU times by NOMINAL_S over the reference's median
CPU time in the run: a host that slows every process down, as a shared virtual
machine does when its neighbours are busy, slows the reference too, and the
scaled figure moves much less than the raw one (not every command slows by
the same share).  A change to scdforge does not touch the reference.
"""

from __future__ import annotations

N = 16
CHECKSUM = 77712
# About the median CPU seconds of one reference process on the machine where
# the benchmark was defined (a 2-vCPU Xeon VM on a shared host, CPython
# 3.11.7): scaled times read as seconds on that machine.
NOMINAL_S = 0.30


def reference_work(n: int = N) -> int:
    # the bracket matching of every subset, kept in a dict of 2^n entries ...
    full = (1 << n) - 1
    table = {}
    for a in range(1 << n):
        stack = []
        members = partners = 0
        for i in range(n):
            bit = 1 << i
            if a & bit:
                if stack:
                    partners |= stack.pop()
                    members |= bit
            else:
                stack.append(bit)
        table[a] = (members, partners)
    # ... then one step up each chain: a lookup far from the last one
    total = 0
    for a in range(1 << n):
        members, partners = table[a]
        free = full & ~(members | partners | a)
        if free:
            total += table[a | (free & -free)][0] & 7
    return total


if __name__ == "__main__":
    print(reference_work())
