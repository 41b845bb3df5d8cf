"""Closed-form minimal log discrepancies and log-canonicity criteria.

For the pair (rank <= k locus, sum alpha_i * (rank <= k-i locus)) of m x m
matrices, the minimal log discrepancy admits closed formulas at a point of
given rank and along a determinantal sublocus.  The formulas reduce to
linear expressions in the coefficients alpha, gated by finitely many linear
inequalities (the log-canonicity criterion).  Both are linear in the prefix
sums alpha_1 + ... + alpha_j, so they run in integers over the pair's common
denominator D (see DeterminantalPair) and make a Fraction only for a value
they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Optional

from .core import DeterminantalPair, MldValue, PreconditionError


@dataclass(frozen=True)
class BetaVector:
    """Coefficients beta_j = (m-k) + (2j-1) - (alpha_1 + ... + alpha_j).

    beta_j is the coefficient of the j-th free partition entry in the
    linearized discrepancy objective; all beta_j >= 0 is the log-canonicity
    criterion.
    """

    betas: tuple

    def __len__(self) -> int:
        return len(self.betas)

    def __getitem__(self, i):
        return self.betas[i]

    def __iter__(self):
        return iter(self.betas)

    def prefix_sums(self) -> tuple:
        """beta_1 + ... + beta_j for j = 1, ..., len, summed in integers over
        the lcm of the beta denominators."""
        denominator = lcm(*(b.denominator for b in self.betas))
        scaled = (b.numerator * (denominator // b.denominator) for b in self.betas)
        return tuple(Fraction(s, denominator) for s in accumulate(scaled))


def beta_coefficients(pair: DeterminantalPair, count: int) -> BetaVector:
    """The first `count` beta coefficients of the pair, 0 <= count <= k."""
    if not 0 <= count <= pair.k:
        raise PreconditionError(f"need 0 <= count <= k={pair.k}, got {count}")
    base, denominator, prefix = pair.m - pair.k, pair._denominator, pair._scaled_prefix
    return BetaVector(
        tuple(
            Fraction((base + 2 * j - 1) * denominator - prefix[j], denominator)
            for j in range(1, count + 1)
        )
    )


def first_lc_violation(pair: DeterminantalPair, count: int) -> Optional[tuple]:
    """First j <= count with alpha_1 + ... + alpha_j > m - k + (2j - 1), if any.

    Returns (j, lhs, rhs) for the violated inequality, else None.
    """
    if not 0 <= count <= pair.k:
        raise PreconditionError(f"need 0 <= count <= k={pair.k}, got {count}")
    base, denominator, prefix = pair.m - pair.k, pair._denominator, pair._scaled_prefix
    for j in range(1, count + 1):
        if prefix[j] > (base + 2 * j - 1) * denominator:
            return (j, Fraction(prefix[j], denominator), Fraction(base + 2 * j - 1))
    return None


def is_lc_at_rank(pair: DeterminantalPair, q: int) -> bool:
    """Log canonicity at a matrix of rank q <= k.

    Holds exactly when alpha_1 + ... + alpha_j <= m - k + (2j - 1) for every
    j = 1, ..., k - q; vacuously true when q = k.
    """
    if not 0 <= q <= pair.k:
        raise PreconditionError(f"need 0 <= q <= k={pair.k}, got q={q}")
    return first_lc_violation(pair, pair.k - q) is None


def mld_at_rank(pair: DeterminantalPair, q: int) -> MldValue:
    """Minimal log discrepancy at a matrix of rank q <= k.

    Negative infinity when not log canonical there; otherwise
    q(m-k) + km - sum_{i=1}^{k-q} (k - q - i + 1) * alpha_i.
    """
    if not is_lc_at_rank(pair, q):
        return MldValue.NEG_INFINITY
    m, k, denominator = pair.m, pair.k, pair._denominator
    # sum_{i <= k-q} (k - q - i + 1) * alpha_i is the sum of the first k - q prefix sums
    correction = sum(pair._scaled_prefix[:k - q + 1])
    return MldValue.finite(Fraction((q * (m - k) + k * m) * denominator - correction, denominator))


def is_lc_along(pair: DeterminantalPair, j: int) -> bool:
    """Log canonicity along the rank <= k-j sublocus, 1 <= j <= k.

    The criterion ranges over all prefix lengths: alpha_1 + ... + alpha_l
    <= m - k + (2l - 1) for every l = 1, ..., k, independent of j.
    """
    if not 1 <= j <= pair.k:
        raise PreconditionError(f"need 1 <= j <= k={pair.k}, got j={j}")
    return first_lc_violation(pair, pair.k) is None


def mld_along(pair: DeterminantalPair, j: int) -> MldValue:
    """Minimal log discrepancy along the rank <= k-j sublocus.

    Negative infinity when not log canonical; otherwise
    j(m - k + j) - sum_{i=1}^{j} (j - i + 1) * alpha_i.
    """
    if not is_lc_along(pair, j):
        return MldValue.NEG_INFINITY
    m, k, denominator = pair.m, pair.k, pair._denominator
    # sum_{i <= j} (j - i + 1) * alpha_i is the sum of the first j prefix sums
    correction = sum(pair._scaled_prefix[:j + 1])
    return MldValue.finite(Fraction(j * (m - k + j) * denominator - correction, denominator))


def is_terminal(m: int, k: int) -> bool:
    """Whether the rank <= k locus of m x m matrices has terminal singularities.

    True when k = m (the locus is smooth) and otherwise when the mld along
    the singular locus exceeds 1, i.e. m - k + 1 > 1.
    """
    if not isinstance(m, int) or not isinstance(k, int) or not 1 <= k <= m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if k == m:
        return True
    pair = DeterminantalPair(m, k, (Fraction(0),) * k)
    return mld_along(pair, 1) > MldValue.finite(1)


def semicontinuity_profile(pair: DeterminantalPair) -> list:
    """The mld at rank q for q = 0, ..., k, requiring nonnegative coefficients.

    Wherever two consecutive values are finite, the profile increases by
    exactly (m - k) + alpha_1 + ... + alpha_{k-q+1} from rank q-1 to rank q.
    Equal to mld_at_rank at every q.
    """
    denominator, numerators = scaled_semicontinuity_profile(pair)
    return [
        MldValue.NEG_INFINITY if n is None else MldValue.finite(Fraction(n, denominator))
        for n in numerators
    ]


def scaled_semicontinuity_profile(pair: DeterminantalPair) -> tuple:
    """(D, numerators): D is the lcm of the alpha denominators, and the mld at
    rank q is numerators[q] / D, or negative infinity where numerators[q] is
    None.  Nonnegative coefficients are required, as in semicontinuity_profile.
    """
    denominator = lcm(*(a.denominator for a in pair.alphas))
    scaled = [a.numerator * (denominator // a.denominator) for a in pair.alphas]
    if any(a < 0 for a in scaled):
        raise PreconditionError("semicontinuity profile requires nonnegative coefficients")
    m, k = pair.m, pair.k
    # Log canonical at rank q exactly when r = k - q is below the first
    # violated prefix (alpha_1 + ... + alpha_r > m - k + 2r - 1); the
    # correction at r is the sum of the first r prefix sums, so one running
    # sum serves every rank.
    corrections = [0]
    prefix = 0
    for r, a in enumerate(scaled, start=1):
        prefix += a
        if prefix > (m - k + 2 * r - 1) * denominator:
            break
        corrections.append(corrections[-1] + prefix)
    lc_limit = len(corrections) - 1
    return denominator, [
        (q * (m - k) + k * m) * denominator - corrections[k - q] if k - q <= lc_limit else None
        for q in range(k + 1)
    ]
