"""L^p quasi-norms, the finiteness regions in the (1/p, 1/q) plane, the
closed-form operator norm on each finite region, and the exact norm on every
finite group.

Exponents are carried as reciprocals u = 1/p in [0, inf), so p = infinity is
the exact point u = 0 and the region geometry lives in the same plane the
classification is stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import COMPACT, DISCRETE, GroupSpec
from .transform import TIME, MeasuredFunction, forward, inverse

INF = math.inf

# Region labels.  R1 (compact) and R2' (discrete) are the finite ones;
# R3'ext records that the third discrete region is classified by the stronger
# claim (all 1/p < 1/2) rather than by its printed [0,1]^2 statement.
R1, R2, R3 = "R1", "R2", "R3"
R1P, R2P, R3PEXT = "R1'", "R2'", "R3'ext"

FINITE_LABELS = {R1, R2P}


def recip(p: float) -> float:
    """1/p with p = inf mapping to exactly 0; rejects p <= 0, and a p so
    small (a subnormal such as 1e-320) that 1/p is past the float range."""
    if p == INF:
        return 0.0
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"exponent must be in (0, inf], got {p}")
    u = 1.0 / p
    if not math.isfinite(u):
        raise ValueError(f"exponent {p} is too small: its reciprocal is past the float range")
    return u


def _power(base: float, e: float) -> float:
    """base ** e for base > 0, inf when it is past the float range."""
    try:
        return base**e
    except OverflowError:
        return INF


def _scaled_power_sum(f: MeasuredFunction, p: float) -> tuple[float, float]:
    """(max |f|, sum (|f| / max |f|)^p atom), the sum 1 at p = inf or f = 0.
    Over |f| / max |f|, a large p neither underflows nor overflows the sum."""
    mags = np.abs(f.values)
    top = float(mags.max()) if mags.size else 0.0
    if p == INF or top == 0.0:
        return top, 1.0
    mags /= top
    mags **= p
    return top, float(np.sum(mags) * f.atom)


def lp_norm(f: MeasuredFunction, p: float) -> float:
    """(sum |f|^p atom)^(1/p) for finite p; max |f| for p = inf.

    For 0 < p < 1 this is the usual quasi-norm; it is absolutely homogeneous
    but not subadditive.  The sum is ``_scaled_power_sum``'s; its power 1/p
    can be past the float range at a small p, and the norm is then inf.
    """
    u = recip(p)
    top, total = _scaled_power_sum(f, p)
    return top * _power(total, u)


def parseval_defect(f: MeasuredFunction) -> float:
    """| ||f||_2 - ||fhat||_2 |, which is ~0 under matched Haar measures."""
    other = forward(f) if f.side == TIME else inverse(f)
    return abs(lp_norm(f, 2.0) - lp_norm(other, 2.0))


def log_lp_norm(f: MeasuredFunction, p: float) -> float:
    """log ||f||_p = log max |f| + log(sum) / p from the same sum as
    ``lp_norm``, so it is finite for every f != 0 at every p, even where the
    norm itself is past the float range; -inf for f = 0."""
    u = recip(p)
    top, total = _scaled_power_sum(f, p)
    return math.log(top) + u * math.log(total) if top else -INF


def ratio(f: MeasuredFunction, p: float, q: float) -> float:
    """The unsmoothed objective ||fhat||_q / ||f||_p."""
    nf = lp_norm(f, p)
    if nf == 0.0:
        return 0.0
    return lp_norm(forward(f), q) / nf


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of a point (1/p, 1/q) for one measure view."""

    side: str
    label: str
    finite: bool


def classify(side: str, u: float, v: float) -> RegionVerdict:
    """Total partition of the quadrant [0, inf)^2 into the norm regions.

    Compact: finite exactly on {u + v <= 1, v <= 1/2}; every point with
    u + v > 1 is infinite, and so is the remaining strip v > 1/2.
    Discrete: finite exactly on {u + v >= 1, u >= 1/2}; infinite on
    {u + v < 1, v < 1/2} and on the whole remaining region u < 1/2.

    The norm at a finite point is ``finite_cpq_at``'s value there.
    """
    if not (u >= 0 and v >= 0 and math.isfinite(u) and math.isfinite(v)):
        raise ValueError("reciprocal exponents must be finite and >= 0")
    if side == COMPACT:
        if u + v <= 1 and v <= 0.5:
            return RegionVerdict(side, R1, True)
        return RegionVerdict(side, R2 if u + v > 1 else R3, False)
    if side == DISCRETE:
        if u + v >= 1 and u >= 0.5:
            return RegionVerdict(side, R2P, True)
        return RegionVerdict(side, R1P if u + v < 1 and v < 0.5 else R3PEXT, False)
    raise ValueError(f"unknown side {side!r}")


#: The extremal families of the finite-group norm, in tie-break order.
CONSTANT, DELTA, BI_UNIMODULAR = "constant", "delta", "bi_unimodular"
EXTREMAL_FAMILIES = (CONSTANT, DELTA, BI_UNIMODULAR)


def family_exponents(side: str, u: float, v: float) -> tuple[float, float, float]:
    """The power e of N in the ratio mass^(1-u-v) * N^e of each extremal
    family on an N-point group, in ``EXTREMAL_FAMILIES`` order (the constant,
    the delta at the identity, a bi-unimodular function): (0, u+v-1, v-1/2)
    on the compact view and (1-u-v, 0, 1/2-u) on the discrete view."""
    if not (u >= 0 and v >= 0 and math.isfinite(u) and math.isfinite(v)):
        raise ValueError("reciprocal exponents must be finite and >= 0")
    s = u + v
    if side == COMPACT:
        return 0.0, s - 1.0, v - 0.5
    if side == DISCRETE:
        return 1.0 - s, 0.0, 0.5 - u
    raise ValueError(f"unknown side {side!r}")


def finite_exponent(side: str, u: float, v: float) -> tuple[float, str]:
    """The largest of ``family_exponents``, which is the norm's power of N
    (Gilbert and Rzeszotnik), and its family; ties go to the earlier family.
    It is 0 exactly where ``classify`` gives a finite label: both compare the
    same float u + v with 1, and v (compact) or u (discrete) with 1/2."""
    exps = family_exponents(side, u, v)
    e = max(exps)
    return e, EXTREMAL_FAMILIES[exps.index(e)]


def _family_value(spec: GroupSpec, e: float, u: float, v: float) -> float:
    """mass^(1-u-v) * N^e on spec.  Where e is 0 it is one power of the mass
    with the same float u + v that ``classify`` compares with 1; elsewhere
    it is one power of 2, so it is inf only past the float range and an
    exact power such as 64 is exact."""
    s = u + v
    if e == 0.0:
        return _power(spec.mass, 1.0 - s)
    return _power(2.0, (1.0 - s) * math.log2(spec.mass) + e * math.log2(spec.size))


def family_ratio(spec: GroupSpec, family: str, p: float, q: float) -> float:
    """The exact ratio ||fhat||_q / ||f||_p of ``family``'s function on spec.

    Analytic (``_family_value`` at the family's power of N), so it answers
    past the exhaustive cap."""
    u, v = recip(p), recip(q)
    e = family_exponents(spec.view, u, v)[EXTREMAL_FAMILIES.index(family)]
    return _family_value(spec, e, u, v)


def family_norms(spec: GroupSpec, family: str, p: float, q: float) -> tuple[float, float]:
    """(||f||_p, ||fhat||_q) of ``witnesses.EXTREMALS[family]`` on spec: with
    T the primal total and A the primal atom, (T^u, T^(1-v)) for the
    constant, (A^u, A^(1-v)) for the delta and (T^u, A^(1-v) N^(1/2)) for the
    bi-unimodular function.  Analytic, like ``family_ratio``; each power has
    one base, so it is inf only past the float range."""
    u, w = recip(p), 1.0 - recip(q)
    total, atom = spec.primal_total, spec.primal_atom
    f_base, fhat_base, fhat_scale = {
        CONSTANT: (total, total, 1.0),
        DELTA: (atom, atom, 1.0),
        BI_UNIMODULAR: (total, atom, math.sqrt(spec.size)),
    }[family]
    return _power(f_base, u), fhat_scale * _power(fhat_base, w)


def finite_cpq_at(spec: GroupSpec, u: float, v: float) -> tuple[float, str, float]:
    """``finite_cpq`` at the reciprocal exponents (u, v) = (1/p, 1/q), and
    ``closed_form_cpq`` there: the same float where the norm's power of N is
    0, which is exactly the finite region of spec's view (see
    ``finite_exponent``), and inf elsewhere."""
    e, family = finite_exponent(spec.view, u, v)
    value = _family_value(spec, e, u, v)
    return value, family, value if e == 0.0 else INF


def finite_cpq(spec: GroupSpec, p: float, q: float) -> tuple[float, str]:
    """The exact operator norm on spec's N points, the ``family_ratio`` of the
    ``finite_exponent`` winner, and that family."""
    value, family, _ = finite_cpq_at(spec, recip(p), recip(q))
    return value, family


def closed_form_cpq(spec: GroupSpec, p: float, q: float) -> float:
    """The operator norm on the finite region of spec's view; inf elsewhere.

    Compact view: alpha(X)^(1 - 1/p - 1/q) on R1.  Discrete view:
    dual total mass^(1/p + 1/q - 1) on R2'.  On those regions the norm on
    the finite group does not grow with N, and this is ``finite_cpq``'s
    value, bit for bit.
    """
    return finite_cpq_at(spec, recip(p), recip(q))[2]
