"""Renyi entropies and the entropic uncertainty principles tied to the
Fourier operator norm: the weighted inequality on its validity regions, its
explicit failure (violators) outside them, the unweighted group inequality,
and support-size bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import COMPACT, DISCRETE, EXHAUSTIVE_CAP, GroupSpec, describe_group
from .norms import CONSTANT, DELTA, closed_form_cpq, log_lp_norm, lp_norm, recip
from .transform import MeasuredFunction, TIME, forward
from .witnesses import EXTREMALS

#: Relative threshold deciding "nonzero" for support counting.
SUPPORT_RTOL = 1e-12

#: How far a density's mass, or a wavefunction's squared L2 norm, may be from 1.
MASS_TOL = 1e-10


@dataclass
class Density:
    """A probability density: nonnegative values integrating to 1."""

    base: MeasuredFunction

    def __post_init__(self):
        vals = self.base.values
        if np.any(vals.imag != 0.0) or np.any(vals.real < 0.0):
            raise ValueError("density values must be nonnegative reals")
        total = lp_norm(self.base, 1.0)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {total} is not 1 within {MASS_TOL}")

    @property
    def values(self) -> np.ndarray:
        return self.base.values.real

    @property
    def atom(self) -> float:
        return self.base.atom

    @classmethod
    def from_wavefunction(cls, psi: MeasuredFunction) -> "Density":
        vals = np.abs(psi.values) ** 2
        return cls(MeasuredFunction(psi.spec, psi.side, vals.astype(np.complex128)))


def _support_count(values: np.ndarray) -> int:
    mags = np.abs(values)
    peak = mags.max()
    if peak == 0.0:
        return 0
    return int(np.count_nonzero(mags > SUPPORT_RTOL * peak))


def renyi_entropy(density: Density, order: float) -> float:
    """(1/(1-order)) log sum f^order atom, which is log ||f||_order / (1/order - 1).

    Order 0 is the log support measure and order 1 Shannon's entropy, the
    limits of that formula.  Every other order, infinity (-log max f)
    included, goes through ``log_lp_norm``, so no order overflows or
    underflows.  A negative or NaN order raises ValueError.
    """
    vals = density.values
    if order == 0.0:
        return math.log(_support_count(vals) * density.atom)
    if order == 1.0:
        positive = vals[vals > 0.0]
        return float(-np.sum(positive * np.log(positive)) * density.atom)
    return log_lp_norm(density.base, order) / (recip(order) - 1.0)


@dataclass(frozen=True)
class UPReport:
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


def _unit_l2(psi: MeasuredFunction):
    total = lp_norm(psi, 2.0) ** 2
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"psi must have unit L2 norm; got squared mass {total}")


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
    """U_C (compact: u+v <= 1, u > 1/2) or U_D (discrete: u+v >= 1, v < 1/2)."""
    if view == COMPACT:
        return u + v <= 1.0 and u > 0.5
    if view == DISCRETE:
        return u + v >= 1.0 and v < 0.5
    raise ValueError(f"unknown view {view!r}")


def in_violation_region(view: str, u: float, v: float) -> bool:
    """U_CN (compact: u+v > 1, v <= 1/2) or U_DN (discrete: u+v < 1, u >= 1/2)."""
    if view == COMPACT:
        return u + v > 1.0 and v <= 0.5
    if view == DISCRETE:
        return u + v < 1.0 and u >= 0.5
    raise ValueError(f"unknown view {view!r}")


def weighted_up_margin(psi: MeasuredFunction, p: float, q: float) -> UPReport:
    """The weighted uncertainty inequality at a point of its validity region:
    weighted entropy sum >= -log C_{p,q}."""
    u, v = recip(p), recip(q)
    if not in_weighted_region(psi.spec.view, u, v):
        raise ValueError(
            f"(1/p, 1/q) = ({u}, {v}) is outside the weighted validity region "
            f"for the {psi.spec.view} view"
        )
    lhs = weighted_entropy_sum(psi, p, q)
    rhs = -math.log(closed_form_cpq(psi.spec, p, q))
    margin = lhs - rhs
    return UPReport(lhs=lhs, rhs=rhs, margin=margin, satisfied=margin >= -1e-9)


@dataclass(frozen=True)
class ViolatorResult:
    side: str
    family: str
    param_n: int
    group_descr: str
    value: float
    target: float
    achieved: bool
    psi: MeasuredFunction | None  # materialized only up to the exhaustive cap


def weighted_up_violator(
    target: float, p: float, q: float, side: str, max_param: int = 10**6
) -> ViolatorResult:
    """A unit-L2 function whose weighted entropy sum drops below ``target``.

    The ``witnesses.EXTREMALS`` function scaled to unit L2.  Compact side: the
    delta on (Z/2)^n, weighted sum exactly (1 - 1/p - 1/q) n log 2.  Discrete
    side: the constant on Z/2^n, weighted sum (1/p + 1/q - 1) n log 2.  The
    parameter is the least n at which the closed-form value passes the
    target; the witness is materialized when the group fits under the
    exhaustive cap and described symbolically otherwise.  A non-finite
    ``target`` raises ValueError.
    """
    if not math.isfinite(target):
        raise ValueError("target must be finite")
    u, v = recip(p), recip(q)
    if not in_violation_region(side, u, v):
        raise ValueError(
            f"(1/p, 1/q) = ({u}, {v}) is outside the violation region for {side}"
        )
    slope = (1.0 - u - v) * math.log(2.0) if side == COMPACT else (u + v - 1.0) * math.log(2.0)
    # slope < 0 in both violation regions, except on the boundary u+v=1 which
    # both region definitions exclude.  n is the least n >= 1 with
    # slope * n <= target, capped at max_param.
    n = 1
    if slope > target:
        bound = target / slope if slope < 0.0 else math.inf
        n = max_param if bound >= max_param else math.ceil(bound)
        while n > 1 and slope * (n - 1) <= target:
            n -= 1
        while n < max_param and slope * n > target:
            n += 1
    value = slope * n
    achieved = value <= target
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
        value=value,
        target=target,
        achieved=achieved,
        psi=psi,
    )


def unweighted_up_margin(psi: MeasuredFunction, p: float, q: float) -> UPReport:
    """h_{p/2}(|psi|^2) + h_{q/2}(|psihat|^2) >= 0 whenever 1/p + 1/q >= 1."""
    _unit_l2(psi)
    u, v = recip(p), recip(q)
    if u + v < 1.0:
        raise ValueError("the unweighted inequality needs 1/p + 1/q >= 1")
    dens_time = Density.from_wavefunction(psi)
    dens_freq = Density.from_wavefunction(forward(psi))
    lhs = renyi_entropy(dens_time, p / 2.0) + renyi_entropy(dens_freq, q / 2.0)
    margin = lhs - 0.0
    return UPReport(lhs=lhs, rhs=0.0, margin=margin, satisfied=margin >= -1e-9)


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
