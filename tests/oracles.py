"""Reference helpers that only the tests call.

They check the library's results against facts of the paper: the transform
applied twice is the reflection x -> -x, Hausdorff-Young holds with constant
1 on the compact mass-1 view, a witness family's ratio grows like a power of
the group size, and log K(1/p, 1/q) is convex along segments (Riesz-Thorin).
No command reaches them, so they live beside the tests, not in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from abelfourier.groups import COMPACT, DISCRETE, GroupSpec
from abelfourier.norms import INF, lp_norm, recip
from abelfourier.transform import FREQUENCY, TIME, MeasuredFunction, SideError, forward


def exponent_value(u: float) -> float:
    """p from its reciprocal u = 1/p, with u = 0 giving p = inf."""
    if u < 0 or not math.isfinite(u):
        raise ValueError(f"reciprocal exponent must be in [0, inf), got {u}")
    return INF if u == 0 else 1.0 / u


def holder_conjugate(p: float) -> float:
    """p' with 1/p + 1/p' = 1, for p in [1, inf]."""
    u = recip(p)
    if u > 1:
        raise ValueError("Holder conjugate needs p >= 1")
    return exponent_value(1.0 - u)


def hausdorff_young_check(f: MeasuredFunction, p: float) -> float:
    """Margin ||f||_p - ||fhat||_p' for 1 <= p <= 2 on a compact mass-1 group.

    Nonnegative up to roundoff since the sharp constant on this segment is 1.
    """
    if f.spec.view != COMPACT or abs(f.spec.mass - 1.0) > 1e-12:
        raise ValueError("Hausdorff-Young check needs the compact view with mass 1")
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must lie in [1, 2]")
    return lp_norm(f, p) - lp_norm(forward(f), holder_conjugate(p))


def reflect(f: MeasuredFunction) -> MeasuredFunction:
    """Index-reversal oracle: g(x) = f(-x)."""
    grid = f.grid()
    for axis in range(grid.ndim):
        grid = np.roll(np.flip(grid, axis=axis), 1, axis=axis)
    return MeasuredFunction(f.spec, f.side, grid.ravel())


def dual_group(spec: GroupSpec) -> GroupSpec:
    """The dual of spec as a group of its own: the same orders, the other
    view and mass 1/mass, so its primal atom is spec's dual atom (up to
    the rounding of 1/mass)."""
    return GroupSpec(spec.orders, DISCRETE if spec.view == COMPACT else COMPACT, 1.0 / spec.mass)


def dual_forward(F: MeasuredFunction) -> MeasuredFunction:
    """The transform of a frequency-side function back onto the group:
    ``forward`` on the dual group."""
    if F.side != FREQUENCY:
        raise SideError("dual_forward expects a frequency-side function")
    on_dual = MeasuredFunction(dual_group(F.spec), TIME, F.values)
    return MeasuredFunction(F.spec, TIME, forward(on_dual).values)


def double_transform(f: MeasuredFunction) -> MeasuredFunction:
    """The transform applied twice, once on each group; equals x -> f(-x)."""
    return dual_forward(forward(f))


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    r_squared: float


def fit_growth(points, use_tail: bool = True) -> GrowthFit:
    """Least-squares slope of log ratio against log group size.

    With ``use_tail`` the first third of the points is dropped to suppress
    small-parameter transients; exact families are affine so either setting
    recovers the closed-form exponent."""
    if len(points) < 3:
        raise ValueError("need at least 3 witness points")
    sizes = [pt.group_size for pt in points]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("group sizes must be strictly increasing")
    if use_tail:
        start = len(points) // 3
        pts = points[start:] if len(points) - start >= 3 else points
    else:
        pts = points
    xs = np.log([pt.group_size for pt in pts])
    ys = np.log([pt.ratio for pt in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return GrowthFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def log_convexity_check(points) -> float:
    """Max midpoint convexity defect along a collinear set of exponent points.

    ``points`` are (u, v, log_value) triples on one line in the (1/p, 1/q)
    plane.  For each interior point the defect is log K there minus the
    linear interpolation of its neighbors; convexity of log K makes every
    defect nonpositive up to numerical error.
    """
    pts = []
    for u, v, logval in points:
        if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(logval)):
            raise ValueError("points must be finite")
        pts.append((float(u), float(v), float(logval)))
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    # Deduplicate identical exponent points (defect 0 by convention).
    unique = {}
    for u, v, logval in pts:
        unique[(u, v)] = logval
    pts = [(u, v, val) for (u, v), val in unique.items()]
    if len(pts) < 3:
        return 0.0
    u0, v0, _ = pts[0]
    du = max(pts, key=lambda t: (t[0] - u0) ** 2 + (t[1] - v0) ** 2)
    dx, dy = du[0] - u0, du[1] - v0
    scale = math.hypot(dx, dy)
    if scale == 0.0:
        return 0.0
    dx, dy = dx / scale, dy / scale
    for u, v, _ in pts:
        cross = (u - u0) * dy - (v - v0) * dx
        if abs(cross) > 1e-9:
            raise ValueError("exponent points are not collinear")
    param = sorted(((u - u0) * dx + (v - v0) * dy, val) for u, v, val in pts)
    worst = 0.0
    for (tl, yl), (tm, ym), (tr, yr) in zip(param, param[1:], param[2:]):
        lam = (tm - tl) / (tr - tl)
        defect = ym - ((1.0 - lam) * yl + lam * yr)
        worst = max(worst, defect)
    return worst
