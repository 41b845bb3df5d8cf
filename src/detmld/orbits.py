"""Arithmetic on arc-space orbits of determinantal varieties.

An extended partition lam of length m labels the orbit of the diagonal arc
diag(t**lam_1, ..., t**lam_m) under the two-sided action of invertible
matrices on arcs.  Everything here is pure integer arithmetic on the
partition entries: membership predicates, contact orders along the
determinantal subvarieties, and orbit codimensions.

Indices follow the 1-based conventions of the underlying geometry; the
docstrings state them explicitly.

Each formula lives in one private body that assumes the orbit lies in the jet
space and its index is in range; the public function checks that and then
calls the body.  The oracle's objective checks each orbit once and calls the
bodies directly.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .core import INF, DeterminantalPair, ExtendedPartition, PreconditionError, _check_int


def _check_lengths(lam: ExtendedPartition, pair: DeterminantalPair) -> None:
    if len(lam) != pair.m:
        raise PreconditionError(
            f"partition has length {len(lam)}, expected m={pair.m}"
        )


def _require_in_jet_space(lam: ExtendedPartition, pair: DeterminantalPair) -> None:
    if not orbit_in_jet_space(lam, pair):
        raise PreconditionError(
            f"orbit {lam.entries} does not lie in the jet space for k={pair.k}: "
            f"the first m-k={pair.m - pair.k} entries must be INF"
        )


def orbit_in_jet_space(lam: ExtendedPartition, pair: DeterminantalPair) -> bool:
    """True iff the orbit lies in the arc space of the rank <= k locus.

    This happens exactly when lam_1 = ... = lam_{m-k} = INF (vacuous for k = m).
    """
    _check_lengths(lam, pair)
    return all(e is INF for e in lam.entries[:pair.m - pair.k])


def orbit_has_finite_codim(lam: ExtendedPartition, pair: DeterminantalPair) -> bool:
    """True iff the orbit has finite codimension, i.e. lam_{m-k+1} < INF."""
    _require_in_jet_space(lam, pair)
    return lam.entries[pair.m - pair.k] is not INF


def _meets_point_fiber(lam: ExtendedPartition, pair: DeterminantalPair, q: int) -> bool:
    cut = pair.m - q
    entries = lam.entries
    return all(e > 0 for e in entries[:cut]) and all(e == 0 for e in entries[cut:])


def orbit_meets_point_fiber(lam: ExtendedPartition, pair: DeterminantalPair, q: int) -> bool:
    """True iff the orbit meets the arcs through a fixed rank-q base point.

    Requires lam_1, ..., lam_{m-q} > 0 and lam_{m-q+1} = ... = lam_m = 0.
    """
    _require_in_jet_space(lam, pair)
    _check_int("q", q, 0, pair.k)
    return _meets_point_fiber(lam, pair, q)


def _contact_orders(lam: ExtendedPartition, pair: DeterminantalPair) -> tuple:
    # w_i = lam_{m-k+i} + ... + lam_m for i = 1..k: one running sum from the right
    return tuple(accumulate(reversed(lam.entries[pair.m - pair.k:])))[::-1]


def contact_order_subvariety(lam: ExtendedPartition, pair: DeterminantalPair, i: int):
    """Contact order of the orbit along the rank <= k-i sublocus, for 1 <= i <= k.

    Equals lam_{m-k+i} + ... + lam_m, the t-adic order of the size-(k-i+1)
    minors along the diagonal arc (INF-absorbing sum).
    """
    _require_in_jet_space(lam, pair)
    _check_int("i", i, 1, pair.k)
    return _contact_orders(lam, pair)[i - 1]


def _nash_contact_order(lam: ExtendedPartition, pair: DeterminantalPair):
    if pair.k == pair.m:
        return 0
    return (pair.m - pair.k) * sum(lam.entries[pair.m - pair.k:])


def nash_contact_order(lam: ExtendedPartition, pair: DeterminantalPair):
    """Contact order along the Nash ideal: (m-k) * (lam_{m-k+1} + ... + lam_m).

    The Nash ideal has the same contact loci as the (m-k)-th power of the
    ideal of maximal allowed minors; for k = m it is the unit ideal, so the
    order is 0.
    """
    _require_in_jet_space(lam, pair)
    return _nash_contact_order(lam, pair)


def _require_finite_codim(lam: ExtendedPartition, pair: DeterminantalPair) -> None:
    if not orbit_has_finite_codim(lam, pair):
        raise PreconditionError(
            f"orbit {lam.entries} has infinite codimension for k={pair.k}"
        )


def _codim(lam: ExtendedPartition, pair: DeterminantalPair) -> int:
    # (2i - 1) * lam_i for i = m-k+1..m
    m, k = pair.m, pair.k
    return sum(map(mul, range(2 * (m - k) + 1, 2 * m, 2), lam.entries[m - k:]))


def orbit_codim(lam: ExtendedPartition, pair: DeterminantalPair) -> int:
    """Codimension of the orbit inside the arc space of the rank <= k locus.

    Equals sum over i = m-k+1, ..., m of (2i - 1) * lam_i; requires finite
    codimension.
    """
    _require_finite_codim(lam, pair)
    return _codim(lam, pair)


def _codim_point(lam: ExtendedPartition, pair: DeterminantalPair, q: int) -> int:
    return q * (2 * pair.m - q) + _codim(lam, pair)


def orbit_codim_point(lam: ExtendedPartition, pair: DeterminantalPair, q: int) -> int:
    """Codimension of the orbit intersected with the arcs through a rank-q point.

    Equals q(2m - q) + orbit_codim(lam); the correction term is the dimension
    of the rank-q matrix locus swept out by the group action.
    """
    if not orbit_meets_point_fiber(lam, pair, q):
        raise PreconditionError(
            f"orbit {lam.entries} misses the fiber over a rank-{q} point"
        )
    _require_finite_codim(lam, pair)
    return _codim_point(lam, pair, q)
