"""Measures on subextension lattices.

Every measure takes the SubextLattice it lives on, built once by the
caller, and returns a MeasureVector on it; measure_event sums any such
vector over a set of members.  Every measure works from two integer
vectors per lattice: f[j], the number of translate tuples landing
inside member j, and g[j], the number generating exactly member j, both
from P. Hall's Eulerian-function inversion over the member poset rather
than by enumerating the tuples.
The lattice computes them once, with its containment lists below[j]
(SubextLattice.hall_counts); each call here holds its rows to its cap
first, from the sizes |H n N| alone.
No measure reads a lift of sigma: for a valid lift coordinate l in
H n sigma N, the translates l(H n N) are exactly H n sigma N, so every
valid lift yields the same tuples and the same counts.  A step of the
chain sends mass v[i] / f[i] from each member i to each member j inside
it, weighted by g[j]; iterated measures take such steps on integer
numerators from the point mass at the base; the limit is a point mass
if one member is maximal, else one pass from the base down over the
base's row of the fundamental matrix, as integers over one common
denominator.  The Fraction transition matrix is built only by
transition_matrix.  pushforward_check takes the upper lattice of a
tower and the epimorphism pi onto the lower group, and derives the
lower level as the image of the upper one.  Every value is exact; no
floating point enters the engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .groups import CapExceeded, GroupError, GroupHom, Subgroup
from .lattice import GaloisSetup, SubextLattice

# default bound on |H n N|^n per row: a policy on the inputs accepted,
# not a work bound, since the closed form never enumerates the tuples
TUPLE_CAP = 10_000_000
# bound on i * bit_length(f(K)) in mu_i, the size of the common
# denominator f(K)^i that bounds every value's numerator and denominator:
# a policy on the result size, well inside CPython's default limit of
# 4,300 digits for printing an int (14,000 bits is at most 4,215 digits)
STEP_BITS_CAP = 14_000
# CPython prints an int of at most 4,300 digits by default, so a tuple
# count of PRINTABLE or more is named as a power |H n N|^n instead
PRINTABLE = 10**4300


def format_rational(value) -> str:
    """Serialize an exact rational as "p/q" in lowest terms with q >= 1."""
    f = Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator)


class MeasureVector:
    """An exact probability distribution over the members of one lattice."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: SubextLattice, values: Sequence[Fraction]):
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if len(vals) != len(lattice.members):
            raise GroupError(
                "measure has %d values for %d members" % (len(vals), len(lattice.members))
            )
        # on integers: a value is negative iff its numerator is, and the
        # values sum to 1 iff their numerators over the common denominator
        # sum to it
        if any(v.numerator < 0 for v in vals):
            raise GroupError("measure values must be nonnegative")
        den = lcm(*(v.denominator for v in vals))
        if sum(v.numerator * (den // v.denominator) for v in vals) != den:
            raise GroupError("measure values must sum to exactly 1")
        self.lattice = lattice
        self.values = vals

    def __eq__(self, other) -> bool:
        # same member sets over the same group, same values; the setups
        # may differ (alternative constant subgroups are still equal)
        return (
            isinstance(other, MeasureVector)
            and self.lattice.setup.group is other.lattice.setup.group
            and tuple(H.mask for H in self.lattice.members)
            == tuple(H.mask for H in other.lattice.members)
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self) -> str:
        return "MeasureVector(%s)" % ", ".join(format_rational(v) for v in self.values)


class TransitionMatrix:
    """Member-to-member step probabilities in the canonical order.

    Rows of maximal members are unit vectors, so the matrix splits into
    an identity block of size n_maximal followed by the transient rows.
    """

    __slots__ = ("lattice", "rows", "n_maximal")

    def __init__(self, lattice: SubextLattice, rows: Sequence[Sequence[Fraction]]):
        m = len(lattice.members)
        clean = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len(clean) != m or any(len(row) != m for row in clean):
            raise GroupError("transition matrix must be %d x %d" % (m, m))
        for i, row in enumerate(clean):
            if any(v < 0 for v in row):
                raise GroupError("row %d has a negative entry" % i)
            if sum(row) != 1:
                raise GroupError("row %d does not sum to 1" % i)
            if lattice.is_maximal(i) and row[i] != 1:
                raise GroupError("maximal member %d is not absorbing" % i)
            for j, v in enumerate(row):
                if v and not lattice.leq(i, j):
                    raise GroupError(
                        "row %d puts mass on member %d, which does not extend it" % (i, j)
                    )
        self.lattice = lattice
        self.rows = clean
        self.n_maximal = lattice.n_maximal

    def __repr__(self) -> str:
        return "TransitionMatrix(%d members, %d maximal)" % (
            len(self.rows),
            self.n_maximal,
        )


class PushforwardReport:
    """Comparison of pushed upper measures with lower measures, step by step.

    entries holds (label, pushed, lower, equal) with label "0", "1", ...
    up to the configured depth and then "inf"; both measures live on the
    lower lattice.  holds is True when every entry is equal.
    """

    __slots__ = ("pi", "upper_lattice", "lower_lattice", "entries", "holds")

    def __init__(self, pi, upper_lattice, lower_lattice, entries):
        self.pi = pi
        self.upper_lattice = upper_lattice
        self.lower_lattice = lower_lattice
        self.entries = tuple(entries)
        self.holds = all(equal for _, _, _, equal in self.entries)

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        return "PushforwardReport(holds=%r, steps=%d)" % (self.holds, len(self.entries))


def _tuples_over(size: int, n: int, cap: int) -> Optional[str]:
    """The tuple count size^n as printed, if it exceeds cap; else None.

    The count is at least 2^(n (bit_length(size) - 1)).  Past PRINTABLE
    by that bound, it exceeds any cap below PRINTABLE and is named as
    the power, unbuilt; short of it, it has at most twice those bits.
    """
    if n * (size.bit_length() - 1) >= PRINTABLE.bit_length() and cap < PRINTABLE:
        return "%d^%d" % (size, n)
    count = size**n
    if count <= cap:
        return None
    return "%d" % count if count < PRINTABLE else "%d^%d" % (size, n)


def _hall_counts(
    lattice: SubextLattice, cap: int, rows: Iterable[int]
) -> tuple[Sequence[int], Sequence[int], Sequence[Sequence[int]]]:
    """The lattice's (f, g, below), with each of the given rows held to cap tuples.

    The rows include the base, and every f[j] = |H_j n N|^n divides the
    base's f(K), so the rows are held from their sizes |H_j n N| before
    any count is built, and only if f(K) is over the cap; the first
    over-cap row in row order names itself.  The counts are computed
    once per lattice (SubextLattice.hall_counts); the cap is a policy
    of each call.
    """
    n, n_mask = lattice.setup.n, lattice.setup.n_sub.mask

    def over(i: int) -> Optional[str]:
        return _tuples_over((lattice.members[i].mask & n_mask).bit_count(), n, cap)

    if over(len(lattice.members) - 1) is not None:
        for i in rows:
            count = over(i)
            if count is not None:
                raise CapExceeded("member %d needs %s tuples, over the cap of %d" % (i, count, cap))
    f, g = lattice.hall_counts()
    return f, g, lattice.below


def _row(
    f: Sequence[int], g: Sequence[int], below: Sequence[Sequence[int]], i: int
) -> list[Fraction]:
    """mu1 rebased at member i: g[j] / f[i] on every member j inside member i."""
    row = [Fraction(0)] * len(f)
    for j in below[i]:
        row[j] = Fraction(g[j], f[i])
    row[i] = Fraction(g[i], f[i])
    return row


def _step(
    counts: Sequence[int], f: Sequence[int], g: Sequence[int], below: Sequence[Sequence[int]]
) -> list[int]:
    """One chain step on integer numerators over a common denominator.

    out[j] = g[j] times the sum of v[i] / f[i] over the members i that
    contain member j.  Every f[i] divides f[-1], since H_i n N is a
    subgroup of K n N, so numerators over D come back over D * f[-1].
    """
    top = f[-1]
    acc = [0] * len(counts)
    for i, c in enumerate(counts):
        if c:
            w = c * (top // f[i])
            acc[i] += w
            for j in below[i]:
                acc[j] += w
    return [a * gj for a, gj in zip(acc, g)]


def _point_mass(lattice: SubextLattice) -> list[int]:
    return [0] * (len(lattice.members) - 1) + [1]


def _over(counts: Sequence[int], denominator: int) -> list[Fraction]:
    return [Fraction(c, denominator) for c in counts]


def mu1(lat: SubextLattice, *, cap: int = TUPLE_CAP) -> MeasureVector:
    """One-step distribution from the lattice's base K.

    Each translate tuple contributes 1/|K n N|^n to the member its
    translated lift generates; the counts come from _hall_counts.  It
    takes no lift: for any valid lift coordinate l, the translates
    l(K n N) are exactly K n sigma N, so every valid lift gives the same
    tuples.  cap bounds the number of tuples |K n N|^n and is enforced
    loudly.
    """
    base = len(lat.members) - 1
    f, g, below = _hall_counts(lat, cap, (base,))
    return MeasureVector(lat, _row(f, g, below, base))


def transition_matrix(lat: SubextLattice, *, cap: int = TUPLE_CAP) -> TransitionMatrix:
    """Row i is mu1 rebased at member i, as an explicit Fraction matrix.

    The measures never build it; it serves callers that want the rows.
    """
    m = len(lat.members)
    f, g, below = _hall_counts(lat, cap, range(m))
    return TransitionMatrix(lat, [_row(f, g, below, i) for i in range(m)])


def _hold_step_bits(i: int, f: Sequence[int]) -> None:
    """Hold i steps from the base, over the denominator f[-1]^i, to STEP_BITS_CAP."""
    bits = i * f[-1].bit_length()
    if bits > STEP_BITS_CAP:
        raise CapExceeded(
            "%d steps over %d tuples need denominators of up to %d bits, over the cap of %d"
            % (i, f[-1], bits, STEP_BITS_CAP)
        )


def mu_i(lat: SubextLattice, i: int, *, cap: int = TUPLE_CAP) -> MeasureVector:
    """The point mass at K propagated i steps along the chain.

    The values share the denominator f(K)^i, so i * bit_length(f(K)) is
    held to STEP_BITS_CAP before the first step.
    """
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise GroupError("step count must be a nonnegative integer")
    counts = _point_mass(lat)
    denominator = 1
    if i > 0:
        f, g, below = _hall_counts(lat, cap, range(len(lat.members)))
        _hold_step_bits(i, f)
        for _ in range(i):
            counts = _step(counts, f, g, below)
        denominator = f[-1] ** i
    return MeasureVector(lat, _over(counts, denominator))


def mu_infinity(lat: SubextLattice, *, cap: int = TUPLE_CAP) -> MeasureVector:
    """Exact limit distribution: the absorbing-chain solve, never iteration.

    With one maximal member, as whenever N = G, the limit is the point
    mass on it, once every row is held to the cap: an absorbing chain
    with one absorbing state ends there (Kemeny and Snell, 1960).
    Otherwise only the base's row of the fundamental matrix is needed,
    one pass from the base down.  A transient member k moves on, with
    probability 1 - g[k] / f[k] per step, to each proper sub-member j in
    proportion to g[j].  So u(K) = 1 / (f(K) - g(K)) at the base and,
    for each other transient i, u(i) = g[i] S(i) / (f[i] - g[i]), where
    S(i) sums u(k) over the transient k properly containing i; the
    limit on a maximal member m is g[m] S(m).  Each u is an integer over
    D, the product of the transient pivots f[i] - g[i], and each
    division is exact, since u(i)'s denominator divides the pivots of
    the members containing i.  The limit is reduced by one gcd; it
    vanishes off the maximal members and is positive on each of them.
    """
    m = len(lat.members)
    f, g, below = _hall_counts(lat, cap, range(m))
    ell = lat.n_maximal
    if ell == 1:
        return MeasureVector(lat, [Fraction(1)] + [Fraction(0)] * (m - 1))
    D = prod(f[i] - g[i] for i in range(ell, m))
    if D == 0:
        raise RuntimeError("internal error: zero pivot in the absorbing solve")
    # acc[j] = D S(j): the base, which contains every member, seeds each
    # entry, and the pass runs down, so S(i) is whole when i is reached
    acc = [D // (f[-1] - g[-1])] * m
    for i in range(m - 2, ell - 1, -1):
        u = g[i] * acc[i] // (f[i] - g[i])
        if u:
            for j in below[i]:
                acc[j] += u
    nums = [gj * a for gj, a in zip(g[:ell], acc)]
    if not all(nums):
        raise RuntimeError("internal error: limit measure vanishes on a maximal member")
    common = gcd(D, *nums)
    values = [Fraction(x // common, D // common) for x in nums]
    return MeasureVector(lat, values + [Fraction(0)] * (m - ell))


def measure_event(vector: MeasureVector, X: Iterable[Union[Subgroup, int]]) -> Fraction:
    """The mass of a set of members under a measure vector.

    X holds members of the vector's lattice or their indices; each
    member counts once.
    """
    lat = vector.lattice
    indices = set()
    for x in X:
        if isinstance(x, Subgroup):
            indices.add(lat.member_index(x))
        elif isinstance(x, int) and not isinstance(x, bool):
            if not 0 <= x < len(lat.members):
                raise GroupError("member index %d is out of range" % x)
            indices.add(x)
        else:
            raise GroupError("event entries must be members or member indices")
    return sum((vector.values[i] for i in sorted(indices)), Fraction(0))


def pushforward_check(
    lattice: SubextLattice,
    pi: GroupHom,
    *,
    max_i: int = 8,
    cap: int = TUPLE_CAP,
) -> PushforwardReport:
    """Compare pushed upper measures with lower measures at each step.

    The lower level is the image of the upper one under the epimorphism
    pi: its N is pi(N), its lifts pi(sigma) and its base pi(K), each an
    image and so closed.  Members push along H -> pi(H), which always
    lands in the lower lattice.  Steps 0..max_i and the limit are
    compared exactly, each lattice's steps held to STEP_BITS_CAP as in
    mu_i once its rows are held to the cap.  Equality is guaranteed when
    ker(pi) lies inside the upper N (the levels then share one constant
    quotient); the report states the outcome either way.
    """
    up = lattice.setup
    if pi.source is not up.group:
        raise GroupError("pi must map the upper group to the lower group")
    if not pi.is_surjective:
        raise GroupError("pi is not surjective")
    if not isinstance(max_i, int) or isinstance(max_i, bool) or max_i < 0:
        raise GroupError("max_i must be a nonnegative integer")
    low_group = pi.target
    low = GaloisSetup(
        low_group,
        Subgroup._of_mask(low_group, pi.image_mask(up.n_sub.mask)),
        tuple(pi.image_of[s] for s in up.sigma_prime),
    )
    low_lat = SubextLattice(low, Subgroup._of_mask(low_group, pi.image_mask(lattice.base.mask)))
    image_index = []
    for H in lattice.members:
        j = low_lat.index_of.get(pi.image_mask(H.mask))
        if j is None:
            raise RuntimeError("internal error: pushed member missing from the lower lattice")
        image_index.append(j)

    def pushed_vector(up_values: Sequence[Fraction]) -> MeasureVector:
        out = [Fraction(0)] * len(low_lat.members)
        for v, j in zip(up_values, image_index):
            if v:
                out[j] += v
        return MeasureVector(low_lat, out)

    up_f, up_g, up_below = _hall_counts(lattice, cap, range(len(lattice.members)))
    low_f, low_g, low_below = _hall_counts(low_lat, cap, range(len(low_lat.members)))
    for f in (up_f, low_f):
        _hold_step_bits(max_i, f)
    entries = []
    c_up = _point_mass(lattice)
    c_low = _point_mass(low_lat)
    for i in range(max_i + 1):
        pushed = pushed_vector(_over(c_up, up_f[-1] ** i))
        lower_vec = MeasureVector(low_lat, _over(c_low, low_f[-1] ** i))
        entries.append(("%d" % i, pushed, lower_vec, pushed.values == lower_vec.values))
        if i < max_i:
            c_up = _step(c_up, up_f, up_g, up_below)
            c_low = _step(c_low, low_f, low_g, low_below)
    inf_up = mu_infinity(lattice, cap=cap)
    inf_low = mu_infinity(low_lat, cap=cap)
    pushed_inf = pushed_vector(inf_up.values)
    entries.append(("inf", pushed_inf, inf_low, pushed_inf.values == inf_low.values))
    return PushforwardReport(pi, lattice, low_lat, entries)
