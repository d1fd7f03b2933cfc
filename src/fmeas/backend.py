"""The pure-Python tuple walk, kept as the tests' enumeration oracle.

The engine counts translate tuples by P. Hall's closed form (see
SubextLattice.hall_counts) and never calls walk_product; the tests run it
over a layered step table to count the same tuples one by one.
BACKEND names the walk implementation for benchmark records and is
always "pure".
"""

from __future__ import annotations

from typing import MutableSequence, Sequence

BACKEND = "pure"


def walk_product(
    steps: Sequence[int],
    n: int,
    n_states: int,
    b: int,
    start_state: int,
    begin: int,
    end: int,
    counts: MutableSequence[int],
) -> None:
    """Accumulate final-state counts for tuple indices in [begin, end).

    steps is a flat table: steps[(k * n_states + s) * b + t] is the
    state after feeding digit t at level k in state s.  Tuple indices
    encode digits big-endian, so index 0 is the all-zero tuple and the
    last digit varies fastest.  counts[s] is incremented once per tuple
    whose final state is s; entries are added to, never reset.
    """
    if begin >= end:
        return
    digits = [0] * n
    rem = begin
    for k in range(n - 1, -1, -1):
        rem, digits[k] = divmod(rem, b)
    stack = [start_state] * (n + 1)
    for k in range(n):
        stack[k + 1] = steps[(k * n_states + stack[k]) * b + digits[k]]
    idx = begin
    last = n - 1
    while True:
        counts[stack[n]] += 1
        idx += 1
        if idx >= end:
            return
        k = last
        while digits[k] == b - 1:
            digits[k] = 0
            k -= 1
        digits[k] += 1
        for j in range(k, n):
            stack[j + 1] = steps[(j * n_states + stack[j]) * b + digits[j]]
