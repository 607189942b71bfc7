"""Renyi entropies and the entropic uncertainty principles tied to the
Fourier operator norm: the weighted inequality on its validity regions, its
explicit failure (violators) outside them, the unweighted group inequality,
and support-size bounds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .groups import COMPACT, EXHAUSTIVE_CAP, GroupSpec, describe_group
from .norms import (
    CONSTANT, DELTA, R1, R1P, R2, R2P, _power, classify, log_lp_norm, lp_norm, recip,
)
from .transform import MeasuredFunction, TIME, forward
from .witnesses import EXTREMALS

#: Relative threshold deciding "nonzero" for support counting.
SUPPORT_RTOL = 1e-12

#: How far a wavefunction's squared L2 norm may be from 1.
MASS_TOL = 1e-10

#: The largest group parameter n that ``weighted_up_violator`` tries.
MAX_PARAM = 10**6

#: How far below 0 an uncertainty margin may read, from roundoff, and the
#: inequality still hold.
MARGIN_TOL = 1e-9


def _on_support(values: np.ndarray) -> np.ndarray:
    """Where |values| is above ``SUPPORT_RTOL`` times its peak: nowhere for
    the zero function."""
    mags = np.abs(values)
    return mags > SUPPORT_RTOL * mags.max()


def _support_count(values: np.ndarray) -> int:
    return int(np.count_nonzero(_on_support(values)))


def _unit_l2(psi: MeasuredFunction):
    # inf, not OverflowError, where the squared mass is past the float range
    total = _power(lp_norm(psi, 2.0), 2.0)
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"psi must have unit L2 norm; got squared mass {total}")


def renyi_entropy(psi: MeasuredFunction, order: float) -> float:
    """The Renyi entropy of the density |psi|^2 of a unit-L2 psi,
    (1/(1-order)) log sum |psi|^(2 order) atom, which is
    2 log ||psi||_(2 order) / (1/order - 1).

    Order 0 is the log support measure, with the support counted as
    ``donoho_stark_check`` counts it, and order 1 Shannon's entropy, the
    limits of that formula.  Every order below 1 takes the same support:
    entries at or below ``SUPPORT_RTOL`` times the peak, where an FFT leaves
    roundoff in place of exact zeros, count as 0.  That moves the entropy of
    an N-point psi by at most log(1 + (N-1) 10^(-24 order)) / (1 - order).
    Every order other than 0 and 1, infinity (-log max |psi|^2) included,
    goes through ``log_lp_norm``, so no order overflows or underflows.  A
    negative or NaN order raises ValueError, and so does a psi whose squared
    L2 norm is more than ``MASS_TOL`` from 1.
    """
    _unit_l2(psi)
    if order == 0.0:
        return math.log(_support_count(psi.values) * psi.atom)
    if order == 1.0:
        density = np.abs(psi.values) ** 2
        positive = density[density > 0.0]
        return float(-np.sum(positive * np.log(positive)) * psi.atom)
    if order < 1.0:
        kept = np.where(_on_support(psi.values), psi.values, 0.0)
        psi = MeasuredFunction(psi.spec, psi.side, kept)
    return 2.0 * log_lp_norm(psi, 2.0 * order) / (recip(order) - 1.0)


@dataclass(frozen=True)
class UPReport:
    """An uncertainty inequality lhs >= rhs as measured: its ``margin`` is
    lhs - rhs, and it is ``satisfied`` where that is at least -``MARGIN_TOL``."""

    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return self.margin >= -MARGIN_TOL


def weighted_entropy_sum(psi: MeasuredFunction, p: float, q: float) -> float:
    """(1/p - 1/2) h_{p/2}(|psi|^2) + (1/2 - 1/q) h_{q/2}(|psihat|^2) for a
    unit-L2 psi.

    The two terms are log ||psi||_p and -log ||psihat||_q, so the sum is
    -log of the norm ratio ||psihat||_q / ||psi||_p.  It is taken as a
    difference of ``log_lp_norm``s, finite even where a norm is past the
    float range."""
    _unit_l2(psi)
    return log_lp_norm(psi, p) - log_lp_norm(forward(psi), q)


def in_weighted_region(view: str, u: float, v: float) -> bool:
    """U_C (compact: R1 with u > 1/2) or U_D (discrete: R2' with v < 1/2),
    each a finite region of ``classify`` cut by one half-plane."""
    label = classify(view, u, v).label
    return (label == R1 and u > 0.5) or (label == R2P and v < 0.5)


def in_violation_region(view: str, u: float, v: float) -> bool:
    """U_CN (compact: R2 with v <= 1/2) or U_DN (discrete: R1' with u >= 1/2),
    each an infinite region of ``classify`` cut by one half-plane."""
    label = classify(view, u, v).label
    return (label == R2 and v <= 0.5) or (label == R1P and u >= 0.5)


def weighted_up_margin(psi: MeasuredFunction, p: float, q: float) -> UPReport:
    """The weighted uncertainty inequality at a point of its validity region:
    weighted entropy sum >= -log C_{p,q}.

    U_C lies inside R1 and U_D inside R2' (``in_weighted_region`` reads
    ``classify``), so C_{p,q} there is the closed form mass^(1-u-v), and
    -log C_{p,q} is taken as (u + v - 1) log(mass):
    finite at every mass, where the power itself can leave the float range."""
    u, v = recip(p), recip(q)
    if not in_weighted_region(psi.spec.view, u, v):
        raise ValueError(
            f"(1/p, 1/q) = ({u}, {v}) is outside the weighted validity region "
            f"for the {psi.spec.view} view"
        )
    lhs = weighted_entropy_sum(psi, p, q)
    rhs = (u + v - 1.0) * math.log(psi.spec.mass)
    return UPReport(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class ViolatorResult:
    """A violator's weighted entropy sum; it has ``achieved`` where value <= target."""

    side: str
    family: str
    param_n: int
    group_descr: str
    value: float
    target: float
    psi: MeasuredFunction | None  # materialized only up to the exhaustive cap

    @property
    def achieved(self) -> bool:
        return self.value <= self.target


def weighted_up_violator(target: float, p: float, q: float, side: str) -> ViolatorResult:
    """A unit-L2 function whose weighted entropy sum drops below ``target``.

    The ``witnesses.EXTREMALS`` function scaled to unit L2.  Compact side: the
    delta on (Z/2)^n, weighted sum exactly (1 - 1/p - 1/q) n log 2.  Discrete
    side: the constant on Z/2^n, weighted sum (1/p + 1/q - 1) n log 2.  The
    parameter is the least n, up to ``MAX_PARAM``, at which that value
    slope * n is at or below the target, found by one bisection; the witness
    is materialized when the group fits under the exhaustive cap and
    described symbolically otherwise.  A non-finite ``target`` raises
    ValueError.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    u, v = recip(p), recip(q)
    if not in_violation_region(side, u, v):
        raise ValueError(
            f"(1/p, 1/q) = ({u}, {v}) is outside the violation region for {side}"
        )
    slope = (1.0 - u - v) * math.log(2.0) if side == COMPACT else (u + v - 1.0) * math.log(2.0)
    # slope < 0 in both violation regions.  Compact: the region has
    # fl(u+v) > 1 and v <= 1/2, so u > 1/2; 1 - u is exact for u <= 2 and
    # below -1 past it, so 1 - u - v < 0.  Discrete: the region has
    # fl(u+v) < 1.  So slope * k <= target is False, then True, as k grows,
    # and n is the least n >= 1 where it holds, capped at MAX_PARAM.
    n = 1 + bisect.bisect_left(range(1, MAX_PARAM), True, key=lambda k: slope * k <= target)
    size = 2**n
    if side == COMPACT:
        family, extremal, orders = "subgroup_indicator", DELTA, (2,) * n
    else:
        family, extremal, orders = "full_orbit", CONSTANT, (size,)
    psi = None
    if size <= EXHAUSTIVE_CAP:
        f = EXTREMALS[extremal](GroupSpec(orders=orders, view=side, mass=1.0))
        psi = MeasuredFunction(f.spec, TIME, f.values / lp_norm(f, 2.0))
    return ViolatorResult(
        side=side,
        family=family,
        param_n=n,
        group_descr=describe_group(orders, side, 1.0),
        value=slope * n,
        target=target,
        psi=psi,
    )


def unweighted_up_margin(psi: MeasuredFunction, p: float, q: float) -> UPReport:
    """h_{p/2}(|psi|^2) + h_{q/2}(|psihat|^2) >= 0 whenever 1/p + 1/q >= 1."""
    u, v = recip(p), recip(q)
    if u + v < 1.0:
        raise ValueError("the unweighted inequality needs 1/p + 1/q >= 1")
    lhs = renyi_entropy(psi, p / 2.0) + renyi_entropy(forward(psi), q / 2.0)
    return UPReport(lhs=lhs, rhs=0.0)


def support_measure(spec: GroupSpec, n_t: int, n_w: int) -> float:
    """alpha(supp psi) * alphahat(supp psihat) on spec from the support counts
    N_t and N_w: each count times its side's Haar atom."""
    return n_t * spec.primal_atom * n_w * spec.dual_atom


def support_product(psi: MeasuredFunction) -> float:
    """alpha(supp psi) * alphahat(supp psihat); at least 1 for psi != 0."""
    n_t, n_w, _ = donoho_stark_check(psi)
    return support_measure(psi.spec, n_t, n_w)


def donoho_stark_check(psi: MeasuredFunction) -> tuple[int, int, int]:
    """Support counts (N_t, N_w, N_t * N_w); the product is at least N.

    The counts are normalization-free, so this matches the self-dual
    convention with both Haar atoms equal to 1/sqrt(N)."""
    if psi.side != TIME:
        raise ValueError("donoho_stark_check expects a time-side function")
    n_t = _support_count(psi.values)
    if n_t == 0:
        raise ValueError("undefined for the zero function")
    n_w = _support_count(forward(psi).values)
    return n_t, n_w, n_t * n_w
