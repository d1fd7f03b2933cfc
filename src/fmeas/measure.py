"""Measures on subextension lattices.

mu1 and the transition rows count translate tuples by the member they
generate, through P. Hall's Eulerian-function inversion over the member
poset rather than by enumerating the tuples; iterated measures push a
point mass through the transition matrix; the limit measure solves the
absorbing chain equations by forward substitution.  Every value is an
exact Fraction; no floating point enters the engine.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .groups import CapExceeded, GroupError, GroupHom, Subgroup
from .lattice import GaloisSetup, SubextLattice

# default bound on |H n N|^n per row: a policy on the inputs accepted,
# not a work bound, since the closed form never enumerates the tuples
TUPLE_CAP = 10_000_000


def format_rational(value) -> str:
    """Serialize an exact rational as "p/q" in lowest terms with q >= 1."""
    f = Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator)


def _thread_count(threads: Optional[int]) -> int:
    """Validated thread count, from the argument or FMEAS_THREADS.

    Nothing in the engine runs on threads, so the count changes neither
    speed nor output; it is still checked, so a bad value stays an
    error.
    """
    if threads is None:
        env = os.environ.get("FMEAS_THREADS", "").strip()
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise GroupError("FMEAS_THREADS must be an integer, not %r" % env) from None
    if threads < 1:
        raise GroupError("thread count must be at least 1")
    return threads


class MeasureVector:
    """An exact probability distribution over the members of one lattice."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: SubextLattice, values: Sequence[Fraction]):
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != len(lattice.members):
            raise GroupError(
                "measure has %d values for %d members" % (len(vals), len(lattice.members))
            )
        if any(v < 0 for v in vals):
            raise GroupError("measure values must be nonnegative")
        if sum(vals) != 1:
            raise GroupError("measure values must sum to exactly 1")
        self.lattice = lattice
        self.values = vals

    def of(self, member: Union[Subgroup, int]) -> Fraction:
        """Value at a member, given as a Subgroup or a canonical index."""
        if isinstance(member, Subgroup):
            return self.values[self.lattice.member_index(member)]
        return self.values[member]

    def as_dict(self) -> dict[Subgroup, Fraction]:
        return dict(zip(self.lattice.members, self.values))

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


class TowerSetup:
    """Two setups joined by a surjection matching N and the lifts."""

    __slots__ = ("upper", "lower", "pi")

    def __init__(self, upper: GaloisSetup, lower: GaloisSetup, pi: GroupHom):
        if pi.source is not upper.group or pi.target is not lower.group:
            raise GroupError("pi must map the upper group to the lower group")
        if not pi.is_surjective:
            raise GroupError("pi is not surjective")
        if pi.image_mask(upper.n_sub.mask) != lower.n_sub.mask:
            raise GroupError("pi does not map the upper N onto the lower N")
        if upper.n != lower.n:
            raise GroupError("the two lift tuples have different lengths")
        for a, b in zip(upper.sigma_prime, lower.sigma_prime):
            if pi.image_of[a] != b:
                raise GroupError("pi does not match the lift tuples coordinatewise")
        self.upper = upper
        self.lower = lower
        self.pi = pi

    def __repr__(self) -> str:
        return "TowerSetup(|G|=%d -> |G|=%d)" % (
            self.upper.group.order,
            self.lower.group.order,
        )


class PushforwardReport:
    """Comparison of pushed upper measures with lower measures, step by step.

    entries holds (label, pushed, lower, equal) with label "0", "1", ...
    up to the configured depth and then "inf"; both measures live on the
    lower lattice.  holds is True when every entry is equal.
    """

    __slots__ = ("tower", "upper_lattice", "lower_lattice", "entries", "holds")

    def __init__(self, tower, upper_lattice, lower_lattice, entries):
        self.tower = tower
        self.upper_lattice = upper_lattice
        self.lower_lattice = lower_lattice
        self.entries = tuple(entries)
        self.holds = all(equal for _, _, _, equal in self.entries)

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        return "PushforwardReport(holds=%r, steps=%d)" % (self.holds, len(self.entries))


def _resolve_lattice(
    setup: GaloisSetup, K_subgroup: Subgroup, lattice: Optional[SubextLattice]
) -> SubextLattice:
    if lattice is None:
        return SubextLattice(setup, K_subgroup)
    if lattice.setup is not setup or lattice.base.mask != K_subgroup.mask:
        raise GroupError("provided lattice does not match the setup and base")
    return lattice


def _check_lift(setup: GaloisSetup, H: Subgroup, lift: tuple[int, ...]) -> None:
    if len(lift) != setup.n:
        raise GroupError("lift must have %d coordinates" % setup.n)
    r_img = setup.r.image_of
    for x, s in zip(lift, setup.sigma_prime):
        if not isinstance(x, int) or not 0 <= x < setup.group.order:
            raise GroupError("lift entry %r is out of range" % (x,))
        if not H.mask >> x & 1:
            raise GroupError("lift entry %d is outside the base subgroup" % x)
        if r_img[x] != r_img[s]:
            raise GroupError("lift entry %d is in the wrong coset" % x)


def _hall_counts(
    lattice: SubextLattice, cap: int, rows: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Exact tuple counts per member, with no enumeration (P. Hall, 1936).

    A member H maps onto Q, so it meets each lift coordinate's coset of
    N in exactly |H n N| translates, whichever valid lift is used: f[j]
    = |H_j n N|^n translate tuples land inside H_j.  The tuples landing
    exactly on H_j number g[j] = f[j] minus g over the proper
    sub-members of H_j, which all come earlier in the canonical order.
    g does not depend on the row's base, so one pass serves every row.
    Each of the given rows must have at most cap tuples.
    """
    setup = lattice.setup
    n_mask = setup.n_sub.mask
    masks = [H.mask for H in lattice.members]
    f = [bin(m & n_mask).count("1") ** setup.n for m in masks]
    for i in rows:
        if f[i] > cap:
            raise CapExceeded("member %d needs %d tuples, over the cap of %d" % (i, f[i], cap))
    g: list[int] = []
    for j, mj in enumerate(masks):
        gj = f[j] - sum(g[k] for k in range(j) if masks[k] & mj == masks[k])
        if gj < 0:
            raise RuntimeError("internal error: member %d has a negative exact count" % j)
        g.append(gj)
    return f, g


def _row(lattice: SubextLattice, f: Sequence[int], g: Sequence[int], i: int) -> list[Fraction]:
    """mu1 rebased at member i: g[j] / f[i] on every member j inside member i."""
    mi = lattice.members[i].mask
    total = f[i]
    zero = Fraction(0)
    return [
        Fraction(gj, total) if H.mask & mi == H.mask else zero
        for H, gj in zip(lattice.members, g)
    ]


def mu1(
    setup: GaloisSetup,
    K_subgroup: Subgroup,
    *,
    lift: Optional[Sequence[int]] = None,
    cap: int = TUPLE_CAP,
    threads: Optional[int] = None,
    lattice: Optional[SubextLattice] = None,
) -> MeasureVector:
    """One-step distribution over the lattice of K_subgroup.

    Each translate tuple contributes 1/|H_K n N|^n to the member its
    translated lift generates; the counts come from _hall_counts.  lift
    is validated but cannot change the result, which is the same for
    every valid lift; cap bounds the number of tuples |H_K n N|^n and is
    enforced loudly.
    """
    lat = _resolve_lattice(setup, K_subgroup, lattice)
    _thread_count(threads)
    base = len(lat.members) - 1
    f, g = _hall_counts(lat, cap, (base,))
    if lift is not None:
        _check_lift(setup, lat.members[base], tuple(lift))
    return MeasureVector(lat, _row(lat, f, g, base))


def transition_matrix(
    setup: GaloisSetup,
    K_subgroup: Subgroup,
    *,
    cap: int = TUPLE_CAP,
    threads: Optional[int] = None,
    lattice: Optional[SubextLattice] = None,
) -> TransitionMatrix:
    """Row i is mu1 rebased at member i; every row shares one count vector."""
    lat = _resolve_lattice(setup, K_subgroup, lattice)
    _thread_count(threads)
    m = len(lat.members)
    f, g = _hall_counts(lat, cap, range(m))
    return TransitionMatrix(lat, [_row(lat, f, g, i) for i in range(m)])


def _step(values: Sequence[Fraction], rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    out = [Fraction(0)] * len(values)
    for i, vi in enumerate(values):
        if vi:
            for j, p in enumerate(rows[i]):
                if p:
                    out[j] += vi * p
    return out


def _point_mass(lattice: SubextLattice) -> list[Fraction]:
    vals = [Fraction(0)] * len(lattice.members)
    vals[-1] = Fraction(1)
    return vals


def mu_i(
    setup: GaloisSetup,
    K_subgroup: Subgroup,
    i: int,
    *,
    cap: int = TUPLE_CAP,
    threads: Optional[int] = None,
    lattice: Optional[SubextLattice] = None,
) -> MeasureVector:
    """The point mass at K propagated i steps through the transition matrix."""
    if not isinstance(i, int) or i < 0:
        raise GroupError("step count must be a nonnegative integer")
    lat = _resolve_lattice(setup, K_subgroup, lattice)
    values = _point_mass(lat)
    if i > 0:
        matrix = transition_matrix(setup, K_subgroup, cap=cap, threads=threads, lattice=lat)
        for _ in range(i):
            values = _step(values, matrix.rows)
    return MeasureVector(lat, values)


def mu_infinity(
    setup: GaloisSetup,
    K_subgroup: Subgroup,
    *,
    cap: int = TUPLE_CAP,
    threads: Optional[int] = None,
    lattice: Optional[SubextLattice] = None,
) -> MeasureVector:
    """Exact limit distribution: the absorbing-chain solve, never iteration.

    With maximal members first, the transient block is lower triangular,
    so (I - Q)B = R is solved by forward substitution with exact pivots.
    The result vanishes off the maximal members and is strictly positive
    on each of them.
    """
    lat = _resolve_lattice(setup, K_subgroup, lattice)
    matrix = transition_matrix(setup, K_subgroup, cap=cap, threads=threads, lattice=lat)
    m = len(lat.members)
    ell = lat.n_maximal
    if ell == m:
        # single-member lattice: the base is already maximal
        return MeasureVector(lat, [Fraction(1)])
    # absorb[t][a] = probability of ending at maximal a from member ell+t
    absorb: list[list[Fraction]] = []
    for t in range(m - ell):
        row = matrix.rows[ell + t]
        pivot = 1 - row[ell + t]
        if pivot == 0:
            raise RuntimeError("internal error: zero pivot in the absorbing solve")
        here = []
        for a in range(ell):
            acc = row[a]
            for s in range(t):
                q = row[ell + s]
                if q:
                    acc += q * absorb[s][a]
            here.append(acc / pivot)
        absorb.append(here)
    values = list(absorb[-1]) + [Fraction(0)] * (m - ell)
    if any(v == 0 for v in absorb[-1]):
        raise RuntimeError("internal error: limit measure vanishes on a maximal member")
    return MeasureVector(lat, values)


def measure_event(
    setup: GaloisSetup,
    K_subgroup: Subgroup,
    X: Iterable[Union[Subgroup, int]],
    *,
    cap: int = TUPLE_CAP,
    threads: Optional[int] = None,
    lattice: Optional[SubextLattice] = None,
) -> Fraction:
    """Limit measure of an event: the mu_infinity mass summed over X."""
    lat = _resolve_lattice(setup, K_subgroup, lattice)
    indices = set()
    for x in X:
        if isinstance(x, Subgroup):
            indices.add(lat.member_index(x))
        elif isinstance(x, int):
            if not 0 <= x < len(lat.members):
                raise GroupError("member index %d is out of range" % x)
            indices.add(x)
        else:
            raise GroupError("event entries must be members or member indices")
    inf = mu_infinity(setup, K_subgroup, cap=cap, threads=threads, lattice=lat)
    return sum((inf.values[i] for i in sorted(indices)), Fraction(0))


def pushforward_check(
    tower: TowerSetup,
    K_subgroup_upper: Subgroup,
    *,
    max_i: int = 8,
    cap: int = TUPLE_CAP,
    threads: Optional[int] = None,
) -> PushforwardReport:
    """Compare pushed upper measures with lower measures at each step.

    The upper base maps to pi(K); members push along H -> pi(H), which
    always lands in the lower lattice.  Steps 0..max_i and the limit are
    compared exactly.  Equality is guaranteed when ker(pi) lies inside
    the upper N (the levels then share one constant quotient); the
    report states the outcome either way.
    """
    if not isinstance(max_i, int) or max_i < 0:
        raise GroupError("max_i must be a nonnegative integer")
    up, low, pi = tower.upper, tower.lower, tower.pi
    up_lat = SubextLattice(up, K_subgroup_upper)
    low_base = Subgroup(low.group, low.group.elems_of_mask(pi.image_mask(K_subgroup_upper.mask)))
    low_lat = SubextLattice(low, low_base)
    image_index = []
    for H in up_lat.members:
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

    up_matrix = transition_matrix(up, K_subgroup_upper, cap=cap, threads=threads, lattice=up_lat)
    low_matrix = transition_matrix(low, low_base, cap=cap, threads=threads, lattice=low_lat)
    entries = []
    v_up = _point_mass(up_lat)
    v_low = _point_mass(low_lat)
    for i in range(max_i + 1):
        pushed = pushed_vector(v_up)
        lower_vec = MeasureVector(low_lat, v_low)
        entries.append(("%d" % i, pushed, lower_vec, pushed.values == lower_vec.values))
        if i < max_i:
            v_up = _step(v_up, up_matrix.rows)
            v_low = _step(v_low, low_matrix.rows)
    inf_up = mu_infinity(up, K_subgroup_upper, cap=cap, threads=threads, lattice=up_lat)
    inf_low = mu_infinity(low, low_base, cap=cap, threads=threads, lattice=low_lat)
    pushed_inf = pushed_vector(inf_up.values)
    entries.append(("inf", pushed_inf, inf_low, pushed_inf.values == inf_low.values))
    return PushforwardReport(tower, up_lat, low_lat, entries)
