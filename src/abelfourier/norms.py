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
from .transform import MeasuredFunction, forward

INF = math.inf

# Region labels.  R1 (compact) and R2' (discrete) are the finite ones;
# R3'ext records that the third discrete region is classified by the stronger
# claim (all 1/p < 1/2) rather than by its printed [0,1]^2 statement.
R1, R2, R3 = "R1", "R2", "R3"
R1P, R2P, R3PEXT = "R1'", "R2'", "R3'ext"

FINITE_LABELS = {R1, R2P}


def recip(p: float) -> float:
    """1/p with p = inf mapping to exactly 0; rejects p <= 0."""
    if p == INF:
        return 0.0
    if not (p > 0 and math.isfinite(p)):
        raise ValueError(f"exponent must be in (0, inf], got {p}")
    return 1.0 / p


def exponent_value(u: float) -> float:
    if u < 0 or not math.isfinite(u):
        raise ValueError(f"reciprocal exponent must be in [0, inf), got {u}")
    return INF if u == 0 else 1.0 / u


def holder_conjugate(p: float) -> float:
    """p' with 1/p + 1/p' = 1, for p in [1, inf]."""
    u = recip(p)
    if u > 1:
        raise ValueError("Holder conjugate needs p >= 1")
    return exponent_value(1.0 - u)


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
    value: float | None = None


def classify(side: str, u: float, v: float, spec: GroupSpec | None = None) -> RegionVerdict:
    """Total partition of the quadrant [0, inf)^2 into the norm regions.

    Compact: finite exactly on {u + v <= 1, v <= 1/2}; every point with
    u + v > 1 is infinite, and so is the remaining strip v > 1/2.
    Discrete: finite exactly on {u + v >= 1, u >= 1/2}; infinite on
    {u + v < 1, v < 1/2} and on the whole remaining region u < 1/2.

    When ``spec`` is given (its view must match ``side``), the closed-form
    value is filled in for finite points.
    """
    if not (u >= 0 and v >= 0 and math.isfinite(u) and math.isfinite(v)):
        raise ValueError("reciprocal exponents must be finite and >= 0")
    if side == COMPACT:
        if u + v <= 1 and v <= 0.5:
            label, finite = R1, True
        elif u + v > 1:
            label, finite = R2, False
        else:
            label, finite = R3, False
    elif side == DISCRETE:
        if u + v >= 1 and u >= 0.5:
            label, finite = R2P, True
        elif u + v < 1 and v < 0.5:
            label, finite = R1P, False
        else:
            label, finite = R3PEXT, False
    else:
        raise ValueError(f"unknown side {side!r}")

    value = None
    if finite and spec is not None:
        if spec.view != side:
            raise ValueError(f"spec view {spec.view!r} does not match side {side!r}")
        if side == COMPACT:
            value = spec.primal_total ** (1.0 - u - v)
        else:
            value = spec.dual_total ** (u + v - 1.0)
    return RegionVerdict(side=side, label=label, finite=finite, value=value)


def closed_form_cpq(spec: GroupSpec, p: float, q: float) -> float:
    """The operator norm on the finite region of spec's view; inf elsewhere.

    Compact view: alpha(X)^(1 - 1/p - 1/q) on R1.  Discrete view:
    dual total mass^(1/p + 1/q - 1) on R2'.
    """
    verdict = classify(spec.view, recip(p), recip(q), spec=spec)
    return verdict.value if verdict.finite else INF


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


def family_ratio(spec: GroupSpec, family: str, p: float, q: float) -> float:
    """The exact ratio ||fhat||_q / ||f||_p of ``family``'s function on spec.

    Analytic, so it answers past the exhaustive cap; one power of 2, so it is
    inf only past the float range and an exact power such as 64 is exact."""
    u, v = recip(p), recip(q)
    e = family_exponents(spec.view, u, v)[EXTREMAL_FAMILIES.index(family)]
    return _power(2.0, (1.0 - (u + v)) * math.log2(spec.mass) + e * math.log2(spec.size))


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


def finite_cpq(spec: GroupSpec, p: float, q: float) -> tuple[float, str]:
    """The exact operator norm on spec's N points, the ``family_ratio`` of the
    ``finite_exponent`` winner, and that family."""
    _, family = finite_exponent(spec.view, recip(p), recip(q))
    return family_ratio(spec, family, p, q), family


def hausdorff_young_check(f: MeasuredFunction, p: float) -> float:
    """Margin ||f||_p - ||fhat||_p' for 1 <= p <= 2 on a compact mass-1 group.

    Nonnegative up to roundoff since the sharp constant on this segment is 1.
    """
    if f.spec.view != COMPACT or abs(f.spec.mass - 1.0) > 1e-12:
        raise ValueError("Hausdorff-Young check needs the compact view with mass 1")
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must lie in [1, 2]")
    return lp_norm(f, p) - lp_norm(forward(f), holder_conjugate(p))
