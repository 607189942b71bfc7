"""Witness families: the concrete extremal functions whose norm ratios grow
without bound in the infinite regions, realized at finite scale.

Each constructor returns a :class:`WitnessPoint` carrying the norms, the
ratio, and the predicted value for the ratio -- exact for the families of
``EXTREMALS`` (subgroup indicator = N times the delta, full orbit = the
constant, chirp = the bi-unimodular function), whose prediction is
``norms.family_ratio``; a proven lower bound otherwise.  Truncation choices
(torus modeled by Z/m, the integers modeled by a sparse support with circle
quadrature) follow the adequacy rules noted on each constructor.

The three exact families and the arc indicator build no function and run no
transform: the exact families' norms are the closed forms
``norms.family_norms``, and the arc's come from its Dirichlet kernel; the
tests check both against the full FFT on small groups.  The CLT comb's
transform is a sum of one-coordinate functions, built by outer sums with no
transform either; it puts each coordinate in front of those built so far,
so its outer sums run long inner loops.  The lacunary series still run one
inverse transform each, of a frequency vector on compact Z/M: the compact
one on its group, the discrete one on one period of its quadrature values,
M/2 of the M grid points (all M for an odd grid), since every frequency 2^k
is even.  Neither reads its vector after the transform, so the transform
runs in the vector's own buffer (``inverse(..., overwrite=True)``).  The
compact series' coefficients a_n depend on n alone, so each is computed once
per process into a read-only table that only grows (at most the exhaustive
cap's 2^20 entries, 16 MB), and each point transforms a fresh copy of its
first m entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import COMPACT, DISCRETE, CapacityError, EXHAUSTIVE_CAP, MAX_SIZE, GroupSpec
from .norms import (
    BI_UNIMODULAR, CONSTANT, DELTA, INF, _power, family_norms, family_ratio, lp_norm, recip,
)
from .transform import FREQUENCY, MeasuredFunction, TIME, delta, inverse


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


def _check_prime_r_and_n(r: int, n: int) -> None:
    """The checks that a family on (Z/r)^n with a prime r makes after the
    cap on r: r is prime, then n >= 1."""
    if not _is_prime(r):
        raise ValueError(f"r={r} must be prime")
    if n < 1:
        raise ValueError("n must be >= 1")


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


def _dirichlet_magnitudes(n: int, m: int) -> np.ndarray:
    """|D(xi)| for xi = 1..floor(m/2), where D is the normalized Dirichlet
    kernel of n points on Z/m, D(xi) = sin(pi n xi / m) / (n sin(pi xi / m)).

    n xi is reduced mod m in integers and folded into [0, m/2], so each sine
    is taken at an angle in [0, pi/2], and |D| is exactly 0 where m | n xi.
    Numerator and denominator are then both sin(pi j / m), j = 0..floor(m/2),
    so one table of those sines serves both."""
    xi = np.arange(1, m // 2 + 1, dtype=np.int64)
    r = n * xi % m
    sines = np.sin(np.pi * np.arange(m // 2 + 1) / m)
    return sines[np.minimum(r, m - r)] / (n * sines[xi])


def arc_indicator_witness(k: int, m: int, p: float, q: float) -> WitnessPoint:
    """Normalized indicator of the arc preimage {x : angle(x/m) < pi/(3k)}
    under the order-m character on Z/m with probability mass.

    The ratio is bounded below by (3^(1/p-1)/2) * k^(1/p+1/q-1); the bound
    needs the arc to resolve on the grid, hence the adequacy rule m >= 100k.

    The arc is {|x| <= L}, L = ceil(m/(6k)) - 1, of n = 2L+1 points, so f is
    m/n on it and ||f||_p = (m/n)^(1-1/p).  Its transform is the real, even
    Dirichlet kernel D(xi) = sin(pi n xi / m) / (n sin(pi xi / m)), D(0) = 1
    its maximum, on unit dual atoms: ||fhat||_inf = 1 and ||fhat||_q^q is
    1 + 2 sum_{xi=1}^{floor((m-1)/2)} |D(xi)|^q, plus |D(m/2)|^q for even m.
    So no function is built and no transform runs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 100 * k:
        raise ValueError(f"m={m} too small: need m >= 100k = {100 * k}")
    spec = _capped_spec(m, COMPACT)
    n = 2 * ((m - 1) // (6 * k)) + 1
    u, v = recip(p), recip(q)
    norm_fhat = 1.0
    if v:
        powers = _dirichlet_magnitudes(n, m) ** q
        total = 1.0 + 2.0 * float(np.sum(powers))
        if m % 2 == 0:
            total -= float(powers[-1])  # xi = m/2 is its own negative
        norm_fhat = _power(total, v)
    prediction = (_power(3.0, u - 1.0) / 2.0) * _power(k, u + v - 1.0)
    return _measured_point(
        "arc_indicator", k, spec, _power(m / n, 1.0 - u), norm_fhat, p, q,
        prediction, "lower_bound",
    )


def subgroup_indicator_witness(r: int, n: int, p: float, q: float) -> WitnessPoint:
    """Scaled point mass N*delta_0 on (Z/r)^n with probability mass: the
    trivial-subgroup member of the subgroup-indicator family.  Its transform
    is identically 1, so the ratio is exactly N^(1/p+1/q-1).

    Its norms are closed forms, so only r (not N) is held to the exhaustive
    cap; N may go up to 2^62."""
    _capped_spec(r, COMPACT)
    _check_prime_r_and_n(r, n)
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
    _check_prime_r_and_n(r, n)
    spec = _capped_spec(r, COMPACT, 2 * n, materialized=False)
    return _exact_point("chirp", n, spec, BI_UNIMODULAR, p, q)


#: The compact lacunary series' coefficient exponents: beta > 1 makes the
#: series converge uniformly while its coefficient l^q sums still diverge
#: for every q < 2, and c > 0 scales its phases.
LACUNARY_BETA = 1.5
LACUNARY_C = 1.0


#: a_n at bin n for every n below its length, read-only; bins 0 and 1 hold 0.
#: It only grows, up to ``EXHAUSTIVE_CAP`` entries (16 MB), and a grown table
#: replaces it whole, so a reader never sees one half built.
_lacunary_table = np.zeros(2, dtype=np.complex128)
_lacunary_table.flags.writeable = False


def lacunary_coefficients(m: int) -> np.ndarray:
    """The compact lacunary series' frequency vector on Z/m, 4 <= m <= the
    exhaustive cap: zero at bins 0 and 1, and
    a_n = e^{i c n log n} / (n^(1/2) (log n)^beta) at bin n = 2..m-1, with
    beta = ``LACUNARY_BETA`` and c = ``LACUNARY_C``.

    a_n depends on n alone, so each is computed once per process into a
    kept read-only table (``_lacunary_table``); the result is a fresh,
    writable copy of its first m entries, bitwise the same whichever sizes
    came before."""
    global _lacunary_table
    if m < 4:
        raise ValueError("m must be >= 4")
    _capped_spec(m, COMPACT)
    table = _lacunary_table
    if table.size < m:
        # The old entries are copied and only the new bins computed.  Every
        # step after n writes in place, so the only other arrays are n, log n
        # and the phase, over the new bins.
        old, table = table, np.empty(m, dtype=np.complex128)
        start = old.size
        table[:start] = old
        n = np.arange(start, m, dtype=np.float64)
        log_n = np.log(n)
        phase = LACUNARY_C * n
        phase *= log_n
        np.cos(phase, out=table.real[start:])
        np.sin(phase, out=table.imag[start:])
        log_n **= LACUNARY_BETA
        log_n *= np.sqrt(n, out=n)
        table[start:] /= log_n
        table.flags.writeable = False
        _lacunary_table = table
    return table[:m].copy()


def lacunary_compact_witness(m: int, p: float, q: float) -> WitnessPoint:
    """Partial sum f = sum_{k=2}^{m-1} a_k chi^k on Z/m with probability
    mass, a_k the lacunary coefficients.  fhat is the coefficient vector F
    itself (unit dual atoms), so ||fhat||_q is ``lp_norm`` of F with no
    forward transform.  It is also the coefficient l^q sum, the stored
    prediction: a lower bound on ||fhat||_q (met with equality here) that
    diverges for q < 2 while ||f||_p stays bounded."""
    if m < 4:
        raise ValueError("m must be >= 4")
    spec = _capped_spec(m, COMPACT)
    fhat = MeasuredFunction(spec, FREQUENCY, lacunary_coefficients(m))
    norm_fhat = lp_norm(fhat, q)
    f = inverse(fhat, overwrite=True)  # fhat is not read again
    return _measured_point(
        "lacunary_compact", m, spec, lp_norm(f, p), norm_fhat, p, q, norm_fhat, "lower_bound",
    )


def _comb_weights(n: int) -> np.ndarray:
    """The comb weights k^(-1/2), k = 1..n."""
    return 1.0 / np.sqrt(np.arange(1, n + 1))


def _comb_norm(n: int, p: float) -> float:
    """||f||_p of sum_{k=1}^{n} k^(-1/2) delta_{x_k}, x_k distinct, on unit
    atoms; a zero pads n = 1 (a group has 2 points)."""
    atoms = np.zeros(max(n, 2), dtype=np.complex128)
    atoms[:n] = _comb_weights(n)
    return lp_norm(MeasuredFunction(GroupSpec((atoms.size,), DISCRETE), TIME, atoms), p)


@dataclass(frozen=True)
class LacunaryDiscreteWitness:
    """Witness on the integers: f = sum (1/sqrt k) delta_{-2^k} with unit
    atoms; the transform lives on the circle and is evaluated by quadrature.

    Its fields are the ``witness`` command's payload.  Like a
    ``WitnessPoint`` it has a ``group_size``, 2^n, the reach of f's support,
    and no prediction."""

    family: str
    param_n: int
    p: float
    q: float
    norm_f: float
    norm_fhat: float
    ratio: float
    norm_fhat_l2: float
    parseval_l2: float

    prediction = None
    prediction_kind = None

    @property
    def group_size(self) -> int:
        return 2**self.param_n


def lacunary_discrete_witness(
    n: int, p: float, q: float, grid_points: int | None = None
) -> LacunaryDiscreteWitness:
    """The integers' witness at scale n, its transform's L^q and L^2 norms
    taken by ``lp_norm`` on one set of quadrature values: the values of
    P(theta) = sum_{k=1}^{n} k^(-1/2) e^{i 2^k theta} on a grid of
    M >= 8 * 2^n points (default exactly that), from one inverse transform
    of a frequency vector on compact Z/M (unit dual atoms), k^(-1/2) at bin
    2^k.  The L^2 norm must match Parseval to 1e-6.

    Every frequency 2^k is even, so for even M the grid values repeat with
    period M/2: they are the inverse transform of k^(-1/2) at bin 2^(k-1)
    on M/2 points, twice over, and the uniform mean of |P|^q over one period
    is the mean over all M.  So an even M takes both norms from those M/2
    points, and an odd M from all M.  The capacity gate stays on M."""
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
    fold = 2 - grid_points % 2  # the number of periods on the grid
    freq = np.zeros(grid_points // fold, dtype=np.complex128)
    freq[2 ** np.arange(1, n + 1) // fold] = _comb_weights(n)
    fhat = inverse(MeasuredFunction(GroupSpec((freq.size,)), FREQUENCY, freq), overwrite=True)
    norm_fhat, l2 = lp_norm(fhat, q), lp_norm(fhat, 2.0)
    parseval = float(math.sqrt(np.sum(1.0 / np.arange(1, n + 1))))
    if abs(l2 - parseval) > 1e-6:
        raise ArithmeticError(
            f"quadrature L2 {l2} disagrees with Parseval value {parseval}"
        )
    norm_f = _comb_norm(n, p)
    return LacunaryDiscreteWitness(
        family="lacunary_discrete",
        param_n=n,
        p=p,
        q=q,
        norm_f=norm_f,
        norm_fhat=norm_fhat,
        ratio=norm_fhat / norm_f,
        norm_fhat_l2=l2,
        parseval_l2=parseval,
    )


def clt_delta_witness(r: int, n: int, p: float, q: float) -> CltWitness:
    """f = sum_k (1/sqrt k) delta_{-e_k} on discrete (Z/r)^n with unit atoms.

    The transform is enumerated exactly over all r^n dual points; the tail
    probability P(Re fhat >= h(n)) with h(n)^2 = sigma^2 sum 1/k is the
    finite-scale version of the central-limit lower bound (asymptotically
    P(N(0,1) >= 1) ~ 0.1587).

    No forward transform runs: fhat(chi) = sum_k a_k w^chi_k with w the
    r-th root e^(2 pi i / r), a sum of one-coordinate functions, so it is
    built by one outer sum per coordinate, the last coordinate first.
    ||f||_p is ``_comb_norm``, so f itself is never built; fhat is, so the
    group keeps the exhaustive cap."""
    # at n < 1 this is the cap on r alone, as in the other prime families
    spec = _capped_spec(r, DISCRETE, max(n, 1))
    _check_prime_r_and_n(r, n)
    roots = np.exp(2j * np.pi * np.arange(r) / r)
    values = np.zeros(1, dtype=np.complex128)
    # Canonical order, the last coordinate fastest: the coordinates are taken
    # last to first, each put in front as the slowest, so every outer sum
    # runs r inner loops over the values built so far, not one short loop
    # of r per value.
    for a in _comb_weights(n)[::-1]:
        values = np.add.outer(a * roots, values).ravel()
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
