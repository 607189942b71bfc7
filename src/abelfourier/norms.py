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


def _scaled_power_sums(f: MeasuredFunction, ps) -> tuple[float, list[float]]:
    """(max |f|, [sum (|f| / max |f|)^p atom for p in ps]), each sum 1 at
    p = inf or f = 0.  Over |f| / max |f|, a large p neither underflows nor
    overflows a sum.  |f| and its max are taken once for all of ps; every
    power but the last goes into a new array, the last into |f|'s own."""
    mags = np.abs(f.values)
    top = float(mags.max()) if mags.size else 0.0
    finite = [i for i, p in enumerate(ps) if p != INF]
    sums = [1.0] * len(ps)
    if top == 0.0 or not finite:
        return top, sums
    mags /= top
    for i in finite[:-1]:
        sums[i] = float(np.sum(mags ** ps[i]) * f.atom)
    mags **= ps[finite[-1]]
    sums[finite[-1]] = float(np.sum(mags) * f.atom)
    return top, sums


def lp_norms(f: MeasuredFunction, *ps: float) -> tuple[float, ...]:
    """``lp_norm`` of f at each of ps, bit for bit, from one |f| and one
    max |f| (see ``_scaled_power_sums``)."""
    us = [recip(p) for p in ps]
    top, totals = _scaled_power_sums(f, ps)
    return tuple(top * _power(total, u) for total, u in zip(totals, us))


def lp_norm(f: MeasuredFunction, p: float) -> float:
    """(sum |f|^p atom)^(1/p) for finite p; max |f| for p = inf.

    For 0 < p < 1 this is the usual quasi-norm; it is absolutely homogeneous
    but not subadditive.  The sum is ``_scaled_power_sums``'s; its power 1/p
    can be past the float range at a small p, and the norm is then inf.
    """
    return lp_norms(f, p)[0]


def parseval_defect(f: MeasuredFunction) -> float:
    """| ||f||_2 - ||fhat||_2 |, which is ~0 under matched Haar measures."""
    other = forward(f) if f.side == TIME else inverse(f)
    return abs(lp_norm(f, 2.0) - lp_norm(other, 2.0))


def log_lp_norm(f: MeasuredFunction, p: float) -> float:
    """log ||f||_p = log max |f| + log(sum) / p from the same sum as
    ``lp_norm``, so it is finite for every f != 0 at every p, even where the
    norm itself is past the float range; -inf for f = 0."""
    u = recip(p)
    top, (total,) = _scaled_power_sums(f, (p,))
    return math.log(top) + u * math.log(total) if top else -INF


def ratio(f: MeasuredFunction, p: float, q: float) -> float:
    """The unsmoothed objective ||fhat||_q / ||f||_p."""
    nf = lp_norm(f, p)
    if nf == 0.0:
        return 0.0
    return lp_norm(forward(f), q) / nf


#: The extremal families of the finite-group norm, in tie-break order.
CONSTANT, DELTA, BI_UNIMODULAR = "constant", "delta", "bi_unimodular"
EXTREMAL_FAMILIES = (CONSTANT, DELTA, BI_UNIMODULAR)


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of a point (1/p, 1/q) for one measure view: its region,
    whether the norm is finite there, the norm's power of N on a finite group
    of that view, and the earliest extremal family attaining it."""

    side: str
    label: str
    finite: bool
    exponent: float
    extremal: str


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


def classify(side: str, u: float, v: float) -> RegionVerdict:
    """Total partition of the quadrant [0, inf)^2 into the norm regions.

    The norm's power of N is the largest of ``family_exponents`` (Gilbert
    and Rzeszotnik), and the point is finite exactly where it is 0.
    Compact: finite exactly on {u + v <= 1, v <= 1/2}; every point with
    u + v > 1 (the delta's power is positive) is R2, and the remaining strip
    v > 1/2 is R3.  Discrete: finite exactly on {u + v >= 1, u >= 1/2};
    infinite on R1' = {u + v < 1, v < 1/2} (the constant's power is
    positive) and on the whole remaining region u < 1/2, R3'ext.

    The norm at a finite point is ``finite_cpq_at``'s value there.
    """
    exps = family_exponents(side, u, v)
    e = max(exps)
    extremal = EXTREMAL_FAMILIES[exps.index(e)]
    if e == 0.0:
        return RegionVerdict(side, R1 if side == COMPACT else R2P, True, e, extremal)
    if side == COMPACT:
        label = R2 if exps[1] > 0.0 else R3
    else:
        label = R1P if exps[0] > 0.0 and v < 0.5 else R3PEXT
    return RegionVerdict(side, label, False, e, extremal)


def _family_value(spec: GroupSpec, family: str, e: float, u: float, v: float) -> float:
    """mass^(1-u-v) * N^e on spec, ``family``'s ratio where e is its power of
    N.  Where e is 0 it is one power of the mass; elsewhere it is one power
    of 2, so it is inf only past the float range and an exact power such as
    64 is exact.  That power's exponent is nan where its two terms overflow
    with opposite signs, or one is inf times 0 (u + v near the float max);
    the value is then ``_opposed_limit``."""
    s = u + v
    if e == 0.0:
        return _power(spec.mass, 1.0 - s)
    log_value = (1.0 - s) * math.log2(spec.mass) + e * math.log2(spec.size)
    if math.isnan(log_value):
        return _opposed_limit(spec, family, u, v)
    return _power(2.0, log_value)


def _opposed_limit(spec: GroupSpec, family: str, u: float, v: float) -> float:
    """``family``'s mass^(1-u-v) * N^e where one power is 0 and the other inf.

    Each family whose e is not 0 is a power of one base B, N/mass on the
    compact view and 1/(N mass) on the discrete one, times a rest:
    B^(u+v-1) for the compact delta and the discrete constant, and
    B^v mass^(1-u) N^(-1/2) (compact) or B^u mass^(1-v) N^(1/2) (discrete)
    for the bi-unimodular function.  B is compared with 1 exactly, from the
    mass's integer ratio (fl(1/3) * 3 rounds to 1, but B is not 1).  The
    delta's and the constant's value is inf, 1.0 or 0.0 as B is above, at or
    below 1.  The bi-unimodular value is mass^(1/2-u) (compact) or
    mass^(1/2-v) (discrete) at B = 1, and elsewhere 2 to its log summed
    scaled by 2^-64, which keeps every term in range, and scaled back; log B
    is taken from the integers, so a B one float from 1 keeps its sign."""
    mass, n = spec.mass, spec.size
    top, bottom = mass.as_integer_ratio()
    compact = spec.view == COMPACT
    num, den = (n * bottom, top) if compact else (bottom, n * top)
    if family != BI_UNIMODULAR:
        return 1.0 if num == den else INF if num > den else 0.0
    t, w, half = (v, u, -0.5) if compact else (u, v, 0.5)
    if num == den:
        return _power(mass, 0.5 - w)
    d = num - den
    log2_base = math.log1p(d / den) / math.log(2.0) if 2 * abs(d) < den else (
        math.log2(num) - math.log2(den))
    k = 2.0**-64
    scaled = (t * k) * log2_base + (k - w * k) * math.log2(mass) + (half * k) * math.log2(n)
    return _power(2.0, scaled / k)


def family_ratio(spec: GroupSpec, family: str, p: float, q: float) -> float:
    """The exact ratio ||fhat||_q / ||f||_p of ``family``'s function on spec.

    Analytic (``_family_value`` at the family's power of N), so it answers
    past the exhaustive cap."""
    u, v = recip(p), recip(q)
    e = family_exponents(spec.view, u, v)[EXTREMAL_FAMILIES.index(family)]
    return _family_value(spec, family, e, u, v)


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


def finite_cpq_at(spec: GroupSpec, u: float, v: float) -> tuple[float, RegionVerdict]:
    """The exact operator norm on spec's N points at the reciprocal exponents
    (u, v) = (1/p, 1/q), and ``classify``'s verdict there.  The norm is the
    ``family_ratio`` of the verdict's extremal family.  Where the verdict is
    finite the value is also ``closed_form_cpq``'s."""
    verdict = classify(spec.view, u, v)
    return _family_value(spec, verdict.extremal, verdict.exponent, u, v), verdict


def closed_form_cpq(spec: GroupSpec, p: float, q: float) -> float:
    """The operator norm on the finite region of spec's view; inf elsewhere.

    Compact view: alpha(X)^(1 - 1/p - 1/q) on R1.  Discrete view:
    dual total mass^(1/p + 1/q - 1) on R2'.  On those regions the norm on
    the finite group does not grow with N, and this is ``finite_cpq_at``'s
    value, bit for bit.
    """
    value, verdict = finite_cpq_at(spec, recip(p), recip(q))
    return value if verdict.finite else INF
