"""Witness families: the concrete extremal functions whose norm ratios grow
without bound in the infinite regions, realized at finite scale.

Each constructor returns a :class:`WitnessPoint` carrying the norms, the
ratio, and the predicted value for the ratio -- exact for the families of
``EXTREMALS`` (subgroup indicator = N times the delta, full orbit = the
constant, chirp = the bi-unimodular function), whose prediction is
``norms.family_ratio``; a proven lower bound otherwise.  Truncation choices
(torus modeled by Z/m, the integers modeled by a sparse support with circle
quadrature) follow the adequacy rules noted on each constructor.

The three exact families build no function and run no transform: their
norms are the closed forms ``norms.family_norms``, which the tests check
against the full FFT on small groups.  The CLT comb's transform is a sum of
one-coordinate functions, built by outer sums with no transform either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import COMPACT, DISCRETE, CapacityError, EXHAUSTIVE_CAP, MAX_SIZE, GroupSpec
from .norms import BI_UNIMODULAR, CONSTANT, DELTA, INF, family_norms, family_ratio, lp_norm, recip
from .transform import FREQUENCY, MeasuredFunction, TIME, delta, forward, inverse


@dataclass(frozen=True)
class WitnessPoint:
    family: str
    param_n: int
    group_descr: str
    p: float
    q: float
    norm_f: float
    norm_fhat: float
    ratio: float
    prediction: float | None = None
    prediction_kind: str | None = None  # "exact" | "lower_bound"

    @property
    def group_size(self) -> int:
        return GroupSpec.parse(self.group_descr).size


@dataclass(frozen=True)
class TrigPolynomial:
    """A sparse trigonometric polynomial sum_k coef_k e^{i freq_k theta}."""

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        freqs = [f for f, _ in self.terms]
        if len(set(freqs)) != len(freqs):
            raise ValueError("frequencies must be distinct")

    @property
    def max_frequency(self) -> int:
        return max((abs(f) for f, _ in self.terms), default=0)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        out = np.zeros_like(theta, dtype=np.complex128)
        for freq, coef in self.terms:
            out = out + coef * np.exp(1j * freq * theta)
        return out

    def grid_values(self, points: int) -> MeasuredFunction:
        """The polynomial at the M = ``points`` grid angles 2 pi x / M, as a
        time-side function on compact Z/M with mass 1 (the circle's
        probability measure, sampled).

        It is one ``inverse`` transform: the dual atom is 1, so putting each
        coefficient at bin freq mod M gives the polynomial's exact value at
        every grid point, aliased frequencies included."""
        spec = _capped_spec(points, COMPACT)
        coefs = np.zeros(points, dtype=np.complex128)
        for freq, coef in self.terms:
            coefs[freq % points] += coef
        return inverse(MeasuredFunction(spec, FREQUENCY, coefs))

    def quadrature_lq(self, q: float, points: int) -> float:
        """L^q norm on the circle with probability measure, by an M-point
        uniform Riemann sum: ``lp_norm`` of ``grid_values``.  Exact for
        trig-polynomial moments of degree below M, so oversampling past the
        max frequency controls aliasing."""
        return lp_norm(self.grid_values(points), q)


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class CltWitness(WitnessPoint):
    """A CLT delta comb's ``WitnessPoint`` plus the finite-scale tail bound:
    the share of dual points with Re fhat >= threshold."""

    tail_probability: float = field(kw_only=True)
    threshold: float = field(kw_only=True)
    sigma_sq: float = field(kw_only=True)


def _is_prime(r: int) -> bool:
    if r < 2:
        return False
    f = 2
    while f * f <= r:
        if r % f == 0:
            return False
        f += 1
    return True


def bi_unimodular_values(orders) -> np.ndarray:
    """A function with |f| = 1 and |fhat| constant on Z/m_1 x ... x Z/m_k, in
    canonical order: the tensor product over the factors of the Zadoff-Chu
    sequence exp(pi i k (k + m mod 2) / m) on Z/m."""
    values = np.ones(1, dtype=np.complex128)
    for m in orders:
        k = np.arange(m, dtype=np.int64)
        phase = (k * (k + m % 2)) % (2 * m)  # exact: the angle is pi * phase / m
        values = np.multiply.outer(values, np.exp(1j * np.pi * phase / m)).ravel()
    return values


#: The function of each extremal family of ``norms.finite_cpq`` on a group.
EXTREMALS = {
    CONSTANT: lambda spec: MeasuredFunction(spec, TIME, np.ones(spec.size, dtype=np.complex128)),
    DELTA: delta,
    BI_UNIMODULAR: lambda spec: MeasuredFunction(spec, TIME, bi_unimodular_values(spec.orders)),
}


def _capped_spec(order: int, view: str, power: int = 1, materialized: bool = True) -> GroupSpec:
    """The mass-1 group (Z/order)^power in ``view``, the one capacity gate of
    the witness families.  It raises CapacityError past the exhaustive cap
    when ``materialized``, else past the 2^62 points that ``GroupSpec``
    accepts.  The exact families build nothing; they use the first form to
    keep the README's exit codes, on r or on the full orbit's group.

    Its point count is multiplied out in Python ints, stopping once past the
    cap, so the check allocates nothing however large the power.  An order
    past 64 bits (a discrete lacunary grid of 8 * 2^n points) is named by its
    bit length, so the message stays short."""
    if materialized:
        cap, name = EXHAUSTIVE_CAP, "the exhaustive cap"
    else:
        cap, name = MAX_SIZE, "the largest group size"
    size = 1
    for _ in range(power):
        size *= order
        if size > cap:
            bits = order.bit_length()
            group = f"(Z/{order})^{power}" if bits <= 64 else f"(Z/m)^{power}, m of {bits} bits,"
            raise CapacityError(f"group {group} has more than {cap} elements, {name}")
    return GroupSpec(orders=(order,) * power, view=view, mass=1.0)


def _measured_point(
    family, param_n, spec, norm_f, norm_fhat, p, q, prediction=None, kind=None,
    point=WitnessPoint, **extra,
) -> WitnessPoint:
    """The ``point`` (``WitnessPoint`` or a subclass taking ``extra``) on spec
    with the norms that the family measured.  The ratio is inf when norm_f
    underflows to 0."""
    return point(
        family=family,
        param_n=param_n,
        group_descr=spec.describe(),
        p=p,
        q=q,
        norm_f=norm_f,
        norm_fhat=norm_fhat,
        ratio=norm_fhat / norm_f if norm_f else INF,
        prediction=prediction,
        prediction_kind=kind,
        **extra,
    )


def _exact_point(name, param_n, spec, extremal, p, q, scale=1.0) -> WitnessPoint:
    """The point of ``scale`` times the ``EXTREMALS[extremal]`` function on
    spec.  Its norms are ``family_norms`` times ``scale``, so no function is
    built and no transform runs, and its ratio is ``family_ratio`` up to
    rounding."""
    norm_f, norm_fhat = family_norms(spec, extremal, p, q)
    prediction = family_ratio(spec, extremal, p, q)
    return _measured_point(
        name, param_n, spec, scale * norm_f, scale * norm_fhat, p, q, prediction, "exact"
    )


def arc_indicator_witness(k: int, m: int, p: float, q: float) -> WitnessPoint:
    """Normalized indicator of the arc preimage {x : angle(x/m) < pi/(3k)}
    under the order-m character on Z/m with probability mass.

    The ratio is bounded below by (3^(1/p-1)/2) * k^(1/p+1/q-1); the bound
    needs the arc to resolve on the grid, hence the adequacy rule m >= 100k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 100 * k:
        raise ValueError(f"m={m} too small: need m >= 100k = {100 * k}")
    spec = _capped_spec(m, COMPACT)
    x = np.arange(m)
    dist = np.minimum(x, m - x)
    indicator = (dist * 6 * k < m).astype(np.complex128)
    prob = indicator.real.sum() / m
    f = MeasuredFunction(spec, TIME, indicator / prob)
    u, v = recip(p), recip(q)
    prediction = (3.0 ** (u - 1.0) / 2.0) * k ** (u + v - 1.0)
    return _measured_point(
        "arc_indicator", k, spec, lp_norm(f, p), lp_norm(forward(f), q), p, q,
        prediction, "lower_bound",
    )


def subgroup_indicator_witness(r: int, n: int, p: float, q: float) -> WitnessPoint:
    """Scaled point mass N*delta_0 on (Z/r)^n with probability mass: the
    trivial-subgroup member of the subgroup-indicator family.  Its transform
    is identically 1, so the ratio is exactly N^(1/p+1/q-1).

    Its norms are closed forms, so only r (not N) is held to the exhaustive
    cap; N may go up to 2^62."""
    _capped_spec(r, COMPACT)
    if not _is_prime(r):
        raise ValueError(f"r={r} must be prime")
    spec = _capped_spec(r, COMPACT, n, materialized=False)
    return _exact_point("subgroup_indicator", n, spec, DELTA, p, q, scale=spec.size)


def full_orbit_witness(m: int, p: float, q: float) -> WitnessPoint:
    """The all-ones function (sum of deltas over a full generator orbit) on
    discrete Z/m with unit atoms; ratio exactly m^(1-1/p-1/q)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return _exact_point("full_orbit", m, _capped_spec(m, DISCRETE), CONSTANT, p, q)


def chirp_witness(r: int, n: int, q: float, p: float = 1.0) -> WitnessPoint:
    """The bi-unimodular function on (Z/r)^2n with probability mass: the
    tensor product of Zadoff-Chu sequences (``bi_unimodular_values``).

    |f| = 1 everywhere (so every L^p norm is 1) while |fhat| = r^-n
    everywhere, giving ratio exactly r^(n(2-q)/q).  Its norms are closed
    forms, so only r (not r^2n) is held to the exhaustive cap; r^2n may go up
    to 2^62."""
    _capped_spec(r, COMPACT)
    if not _is_prime(r):
        raise ValueError(f"r={r} must be prime")
    spec = _capped_spec(r, COMPACT, 2 * n, materialized=False)
    return _exact_point("chirp", n, spec, BI_UNIMODULAR, p, q)


def lacunary_coefficients(count: int, beta: float, c: float) -> np.ndarray:
    """Coefficients a_n = e^{i c n log n} / (n^(1/2) (log n)^beta), n = 2..count.

    beta > 1 is required: it is what makes the series converge uniformly
    while its coefficient l^q sums still diverge for every q < 2."""
    if count < 3:
        raise ValueError("need at least indices 2..3")
    if not beta > 1:
        raise ValueError("beta must be > 1")
    if not c > 0:
        raise ValueError("c must be positive")
    n = np.arange(2, count + 1, dtype=np.float64)
    return np.exp(1j * c * n * np.log(n)) / (np.sqrt(n) * np.log(n) ** beta)


def lacunary_compact_witness(
    m: int, p: float, q: float, beta: float = 1.5, c: float = 1.0
) -> WitnessPoint:
    """Partial sum f = sum_{k=2}^{m-1} a_k chi^k on Z/m with probability
    mass, a_k the lacunary coefficients.  fhat is the coefficient vector F
    itself (unit dual atoms), so ||fhat||_q is ``lp_norm`` of F with no
    forward transform.  It is also the coefficient l^q sum, the stored
    prediction: a lower bound on ||fhat||_q (met with equality here) that
    diverges for q < 2 while ||f||_p stays bounded."""
    if m < 4:
        raise ValueError("m must be >= 4")
    spec = _capped_spec(m, COMPACT)
    coeffs = lacunary_coefficients(m - 1, beta, c)
    freq = np.zeros(m, dtype=np.complex128)
    freq[2:m] = coeffs
    fhat = MeasuredFunction(spec, FREQUENCY, freq)
    norm_fhat = lp_norm(fhat, q)
    return _measured_point(
        "lacunary_compact", m, spec, lp_norm(inverse(fhat), p), norm_fhat, p, q,
        norm_fhat, "lower_bound",
    )


def _comb_norm(n: int, p: float) -> float:
    """||f||_p of sum_{k=1}^{n} k^(-1/2) delta_{x_k}, x_k distinct, on unit
    atoms; a zero pads n = 1 (a group has 2 points)."""
    atoms = np.zeros(max(n, 2), dtype=np.complex128)
    atoms[:n] = 1.0 / np.sqrt(np.arange(1, n + 1))
    return lp_norm(MeasuredFunction(GroupSpec((atoms.size,), DISCRETE), TIME, atoms), p)


def lacunary_trig_polynomial(n: int) -> TrigPolynomial:
    """sum_{k=1}^{n} (1/sqrt(k)) e^{i 2^k theta}: the transform of the sparse
    geometric-support function on the integers."""
    return TrigPolynomial(
        terms=tuple((2**k, complex(1.0 / math.sqrt(k))) for k in range(1, n + 1))
    )


@dataclass(frozen=True)
class LacunaryDiscreteWitness:
    """Witness on the integers: f = sum (1/sqrt k) delta_{-2^k} with unit
    atoms; the transform lives on the circle and is evaluated by quadrature."""

    param_n: int
    p: float
    q: float
    norm_f: float
    norm_fhat: float
    norm_fhat_l2: float
    parseval_l2: float
    polynomial: TrigPolynomial

    @property
    def ratio(self) -> float:
        return self.norm_fhat / self.norm_f


def lacunary_discrete_witness(
    n: int, p: float, q: float, grid_points: int | None = None
) -> LacunaryDiscreteWitness:
    """The integers' witness at scale n, its transform's L^q and L^2 norms
    taken by ``lp_norm`` on one set of quadrature values: the polynomial's
    ``grid_values`` on at least 8 * 2^n points (default exactly that), one
    inverse transform.  The L^2 norm must match Parseval to 1e-6."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not p > 2:
        raise ValueError("p must be > 2 (the time norms are summable only there)")
    min_grid = 8 * 2**n
    if grid_points is None:
        grid_points = min_grid
    if grid_points < min_grid:
        raise ValueError(f"grid too coarse: need at least {min_grid} points")
    _capped_spec(grid_points, COMPACT)  # so a large n fails before its n terms are built
    poly = lacunary_trig_polynomial(n)
    fhat = poly.grid_values(grid_points)
    norm_fhat, l2 = lp_norm(fhat, q), lp_norm(fhat, 2.0)
    parseval = float(math.sqrt(np.sum(1.0 / np.arange(1, n + 1))))
    if abs(l2 - parseval) > 1e-6:
        raise ArithmeticError(
            f"quadrature L2 {l2} disagrees with Parseval value {parseval}"
        )
    return LacunaryDiscreteWitness(
        param_n=n,
        p=p,
        q=q,
        norm_f=_comb_norm(n, p),
        norm_fhat=norm_fhat,
        norm_fhat_l2=l2,
        parseval_l2=parseval,
        polynomial=poly,
    )


def clt_delta_witness(r: int, n: int, p: float, q: float) -> CltWitness:
    """f = sum_k (1/sqrt k) delta_{-e_k} on discrete (Z/r)^n with unit atoms.

    The transform is enumerated exactly over all r^n dual points; the tail
    probability P(Re fhat >= h(n)) with h(n)^2 = sigma^2 sum 1/k is the
    finite-scale version of the central-limit lower bound (asymptotically
    P(N(0,1) >= 1) ~ 0.1587).

    No forward transform runs: fhat(chi) = sum_k a_k w^chi_k with w the
    r-th root e^(2 pi i / r), a sum of one-coordinate functions, so it is
    built by one outer sum per coordinate.  ||f||_p is ``_comb_norm``, so f
    itself is never built; fhat is, so the group keeps the exhaustive cap."""
    spec = _capped_spec(r, DISCRETE, n)
    if not _is_prime(r):
        raise ValueError(f"r={r} must be prime")
    coefs = 1.0 / np.sqrt(np.arange(1, n + 1))
    roots = np.exp(2j * np.pi * np.arange(r) / r)
    values = np.zeros(1, dtype=np.complex128)
    for a in coefs:  # canonical order: the last coordinate runs fastest
        values = np.add.outer(values, a * roots).ravel()
    fhat = MeasuredFunction(spec, FREQUENCY, values)
    # Var(cos(2 pi U/r)) over a uniform r-th root: 1 for r=2, 1/2 for odd prime r.
    sigma_sq = 1.0 if r == 2 else 0.5
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    threshold = math.sqrt(sigma_sq * harmonic)
    tail = float(np.count_nonzero(values.real >= threshold)) / spec.size
    return _measured_point(
        "clt_delta", n, spec, _comb_norm(n, p), lp_norm(fhat, q), p, q, point=CltWitness,
        tail_probability=tail, threshold=threshold, sigma_sq=sigma_sq,
    )


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
