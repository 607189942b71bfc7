import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelfourier import transform, witnesses
from abelfourier.groups import COMPACT, DISCRETE, EXHAUSTIVE_CAP, CapacityError, GroupSpec
from abelfourier.norms import (
    BI_UNIMODULAR, CONSTANT, DELTA, EXTREMAL_FAMILIES, INF, family_norms, family_ratio, lp_norm,
)
from abelfourier.transform import FREQUENCY, TIME, MeasuredFunction, forward, inverse
from abelfourier.witnesses import (
    LACUNARY_BETA,
    LACUNARY_C,
    arc_indicator_witness,
    chirp_witness,
    clt_delta_witness,
    full_orbit_witness,
    lacunary_coefficients,
    lacunary_compact_witness,
    lacunary_discrete_witness,
    subgroup_indicator_witness,
)
from oracles import fit_growth


def test_witness_point_invariant():
    pt = full_orbit_witness(8, 4.0, 4.0)
    assert pt.ratio == pytest.approx(pt.norm_fhat / pt.norm_f)
    assert pt.group_size == 8


@pytest.mark.parametrize(
    "r,n,p,q,expected",
    [
        (2, 3, 1.0, 1.0, 8.0),
        (2, 3, 2.0, 2.0, 1.0),
        (3, 2, 1.0, 2.0, 3.0),
        (2, 5, 1.0, INF, 1.0),
        (2, 5, 1.0, 1.0, 32.0),
    ],
)
def test_subgroup_indicator_exact(r, n, p, q, expected):
    pt = subgroup_indicator_witness(r, n, p, q)
    assert pt.prediction_kind == "exact"
    assert pt.ratio == pytest.approx(expected, rel=1e-12)
    assert pt.prediction == pytest.approx(expected, rel=1e-12)


def test_subgroup_indicator_guards():
    with pytest.raises(ValueError):
        subgroup_indicator_witness(4, 2, 1.0, 1.0)
    # The group may pass 2^20 (nothing is built), but not 2^62; an r past
    # 2^20 is refused before it is tested for primality.
    for r, n in [(2, 63), (1048583, 1), (2**21, 1)]:
        with pytest.raises(CapacityError):
            subgroup_indicator_witness(r, n, 1.0, 1.0)


@pytest.mark.parametrize(
    "m,p,q,expected",
    [(4, 4.0, 4.0, 2.0), (9, 2.0, 2.0, 1.0), (16, INF, INF, 16.0), (1024, 4.0, 4.0, 32.0)],
)
def test_full_orbit_exact(m, p, q, expected):
    pt = full_orbit_witness(m, p, q)
    assert pt.ratio == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "r,n,q,expected",
    [(2, 2, 1.0, 4.0), (2, 3, 2.0, 1.0), (3, 1, 1.0, 3.0), (3, 2, 2.0, 1.0)],
)
def test_chirp_exact(r, n, q, expected):
    pt = chirp_witness(r, n, q)
    assert pt.norm_f == pytest.approx(1.0, rel=1e-12)
    assert pt.ratio == pytest.approx(expected, rel=1e-12)


def test_chirp_flat_modulus():
    # direct check of the flat transform on Z/3 x Z/3
    pt = chirp_witness(3, 1, 1.0)
    # 9 dual atoms of modulus 1/3 with unit weight: l1 norm 3
    assert pt.norm_fhat == pytest.approx(3.0, rel=1e-12)
    assert pt.prediction_kind == "exact"


_EXPONENT = st.one_of(st.just(INF), st.floats(0.5, 0.99), st.floats(1.0, 8.0))


def _assert_exact(pt, extremal, p, q):
    spec = GroupSpec.parse(pt.group_descr)
    assert pt.prediction_kind == "exact"
    assert pt.prediction == family_ratio(spec, extremal, p, q)
    assert abs(pt.ratio - pt.prediction) <= 1e-12 * pt.prediction


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rn=st.sampled_from([(2, n) for n in range(1, 13)] + [(3, 1), (3, 4), (5, 3), (7, 2)]),
       p=_EXPONENT, q=_EXPONENT)
def test_subgroup_indicator_ratio_is_family_ratio(rn, p, q):
    r, n = rn
    _assert_exact(subgroup_indicator_witness(r, n, p, q), DELTA, p, q)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(m=st.integers(2, 4096), p=_EXPONENT, q=st.one_of(st.just(INF), st.floats(0.25, 8.0)))
def test_full_orbit_ratio_is_family_ratio(m, p, q):
    _assert_exact(full_orbit_witness(m, p, q), CONSTANT, p, q)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rn=st.sampled_from([(2, n) for n in range(1, 7)] + [(3, 1), (3, 2), (5, 1), (7, 1)]),
       p=_EXPONENT, q=_EXPONENT)
def test_chirp_ratio_is_family_ratio(rn, p, q):
    r, n = rn
    _assert_exact(chirp_witness(r, n, q, p=p), BI_UNIMODULAR, p, q)


@pytest.mark.parametrize("r,n", [(2, 1), (2, 4), (3, 2), (5, 1), (7, 1)])
def test_chirp_is_bi_unimodular(r, n):
    spec = GroupSpec((r,) * (2 * n))
    f = MeasuredFunction(spec, TIME, witnesses.bi_unimodular_values(spec.orders))
    fhat = forward(f)
    assert np.max(np.abs(np.abs(f.values) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.abs(fhat.values) * r**n - 1.0)) <= 1e-12


# The closed-form norms and the separable routes against the full FFT on the
# whole group (the oracle), on groups of at most 2^16 points.
_ROUTE_EXPONENT = st.one_of(st.just(INF), st.floats(0.25, 8.0))


# The constant's transform is a delta; below q = 1 the FFT's roundoff at its
# zero frequencies, raised to the power q, moves the oracle itself (2e-5
# relative on discrete Z/4097 at q = 0.5), so that family is checked at q >= 1.
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(orders=st.lists(st.integers(2, 12), min_size=1, max_size=3).map(tuple),
       view=st.sampled_from([COMPACT, DISCRETE]), mass=st.floats(0.25, 4.0),
       family=st.sampled_from(EXTREMAL_FAMILIES), p=_ROUTE_EXPONENT, q=_ROUTE_EXPONENT)
def test_family_norms_match_full_fft(orders, view, mass, family, p, q):
    assume(family != CONSTANT or q >= 1)
    f = witnesses.EXTREMALS[family](GroupSpec(orders, view=view, mass=mass))
    got = family_norms(f.spec, family, p, q)
    for value, want in zip(got, (lp_norm(f, p), lp_norm(forward(f), q))):
        assert abs(value - want) <= 1e-12 * want
    assert got[1] / got[0] == pytest.approx(family_ratio(f.spec, family, p, q), rel=1e-12)


def test_family_norms_take_each_power_of_one_base():
    # ||delta||_p = (4/2)^1000 on Z/2 of mass 4 at p = 0.001: mass^1000 alone
    # overflows and 2^-1000 does not, so separate powers would give inf
    spec = GroupSpec((2,), view=COMPACT, mass=4.0)
    assert family_norms(spec, DELTA, 0.001, 1.0) == (2.0**1000, 1.0)


def _assert_matches_full_fft(pt, f, p, q, fhat=None):
    """pt's norms and ratio against f's and its transform's (forward(f) unless
    given), to 1e-12."""
    norm_f, norm_fhat = lp_norm(f, p), lp_norm(forward(f) if fhat is None else fhat, q)
    assert pt.group_descr == f.spec.describe()
    for got, want in ((pt.norm_f, norm_f), (pt.norm_fhat, norm_fhat),
                      (pt.ratio, norm_fhat / norm_f)):
        assert abs(got - want) <= 1e-12 * want


def _clt_comb(r, n):
    """The CLT comb sum_k (1/sqrt k) delta_{-e_k}, materialized on (Z/r)^n."""
    spec = GroupSpec((r,) * n, view="discrete")
    vals = np.zeros(spec.size, dtype=np.complex128)
    for k in range(1, n + 1):
        e_k = tuple(int(j == k - 1) for j in range(n))
        vals[spec.index_of(spec.negate(e_k))] += 1.0 / math.sqrt(k)
    return MeasuredFunction(spec, TIME, vals)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(rn=st.sampled_from([(2, n) for n in range(1, 17)] + [(3, n) for n in range(1, 11)]
                          + [(5, n) for n in range(1, 7)] + [(7, 2), (7, 5), (11, 4), (251, 2)]),
       p=_ROUTE_EXPONENT, q=_ROUTE_EXPONENT)
def test_subgroup_indicator_route_matches_full_fft(rn, p, q):
    r, n = rn
    spec = GroupSpec((r,) * n)
    f = MeasuredFunction(spec, TIME, spec.size * witnesses.EXTREMALS[DELTA](spec).values)
    _assert_matches_full_fft(subgroup_indicator_witness(r, n, p, q), f, p, q)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(rn=st.sampled_from([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
                          + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 2), (251, 1)]),
       p=_ROUTE_EXPONENT, q=_ROUTE_EXPONENT)
def test_chirp_route_matches_full_fft(rn, p, q):
    r, n = rn
    f = witnesses.EXTREMALS[BI_UNIMODULAR](GroupSpec((r,) * (2 * n)))
    _assert_matches_full_fft(chirp_witness(r, n, q, p=p), f, p, q)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(rn=st.sampled_from([(2, n) for n in range(1, 17)] + [(3, n) for n in range(1, 11)]
                          + [(5, n) for n in range(1, 7)]),
       p=_ROUTE_EXPONENT, q=_ROUTE_EXPONENT)
def test_clt_route_matches_full_fft(rn, p, q):
    r, n = rn
    seen = []

    def spy(f, p):
        seen.append(f)
        return lp_norm(f, p)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(witnesses, "lp_norm", spy)
        pt = clt_delta_witness(r, n, p, q)
    comb = _clt_comb(r, n)
    _assert_matches_full_fft(pt, comb, p, q)
    (fhat,) = [f for f in seen if f.side == FREQUENCY]
    want = forward(comb).values
    assert np.max(np.abs(fhat.values - want)) <= 1e-12
    assert pt.tail_probability == np.count_nonzero(want.real >= pt.threshold) / comb.spec.size


def _arc_indicator(k, m):
    """The arc indicator {x : 6k |x| < m} normalized to mean 1, materialized
    on compact Z/m."""
    x = np.arange(m)
    indicator = (np.minimum(x, m - x) * 6 * k < m).astype(np.complex128)
    return MeasuredFunction(GroupSpec((m,)), TIME, indicator / (indicator.real.sum() / m))


# (k, m) with 100k <= m <= 2^16: any m, the least, or (2j, 402j), an arc of
# n = 67 points whose kernel has exact zeros at the multiples of 6j.
_ARC_SCALES = st.one_of(
    st.integers(1, 64).flatmap(lambda k: st.tuples(st.just(k), st.integers(100 * k, 2**16))),
    st.integers(1, 64).map(lambda k: (k, 100 * k)),
    st.integers(1, 163).map(lambda j: (2 * j, 402 * j)),
)
# split at 1 so that q < 1, where the oracle's zero bins are cleared, is drawn often
_ARC_EXPONENT = st.one_of(st.just(INF), st.floats(0.25, 0.99), st.floats(1.0, 8.0))


# The FFT leaves about 1e-17 in the kernel's exact-zero bins (m | n xi),
# which raised to a power q < 1 moves the oracle itself, so below q = 1 those
# bins are set to 0 in it.
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(km=_ARC_SCALES, p=_ARC_EXPONENT, q=_ARC_EXPONENT)
def test_arc_route_matches_full_fft(km, p, q):
    k, m = km
    f = _arc_indicator(k, m)
    fhat = forward(f)
    if q < 1:
        n = np.count_nonzero(f.values)
        zeros = n * np.arange(m) % m == 0
        zeros[0] = False
        fhat.values[zeros] = 0.0
    _assert_matches_full_fft(arc_indicator_witness(k, m, p, q), f, p, q, fhat)


@pytest.mark.parametrize("n, m", [(1, 100), (3, 101), (67, 402), (67, 403), (333, 1000),
                                  (218, 1310 * 200)])
def test_dirichlet_magnitudes_share_one_sine_table(n, m):
    # one table of sin(pi j / m) gives the kernel bit for bit as two sines do,
    # exact zeros included (every sixth bin at (67, 402))
    xi = np.arange(1, m // 2 + 1, dtype=np.int64)
    r = n * xi % m
    want = np.sin(np.pi * np.minimum(r, m - r) / m) / (n * np.sin(np.pi * xi / m))
    got = witnesses._dirichlet_magnitudes(n, m)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if (n, m) == (67, 402):
        assert np.count_nonzero(got == 0.0) == 402 // 2 // 6


def test_arc_exact_zeros_below_q_one():
    # n = 67 points on Z/402: D vanishes at every sixth bin.  The FFT's
    # roundoff there once made this norm 4.393e23.  The value is the kernel's
    # nonzero bins summed with mpmath 1.3.0 at 40 digits.
    pt = arc_indicator_witness(2, 402, 2.0, 0.1)
    assert pt.norm_fhat == pytest.approx(4.13204089611456204e23, rel=1e-12)


SEPARABLE_CALLS = {
    "subgroup_indicator": [(2, 8), (3, 4), (5, 2)],
    "chirp": [(2, 8), (3, 4), (5, 2)],
    "full_orbit": [(256,), (81,), (25,)],
    "clt_delta": [(2, 8), (3, 4), (5, 2)],
    "arc_indicator": [(1, 256), (2, 402), (8, 1600)],
}


def _spy_fft_sizes(monkeypatch):
    """The list that the point count of every transform run from now on is
    appended to."""
    sizes = []
    fft_flat = transform._fft_flat

    def spy(values, *args, **kwargs):
        sizes.append(values.size)
        return fft_flat(values, *args, **kwargs)

    monkeypatch.setattr(transform, "_fft_flat", spy)
    return sizes


@pytest.mark.parametrize("family", SEPARABLE_CALLS)
def test_separable_routes_transform_no_whole_group(monkeypatch, family):
    """The exact families and the arc take closed-form norms and the CLT comb
    sums its transform, so none of them runs an FFT at all."""
    sizes = _spy_fft_sizes(monkeypatch)
    for args in SEPARABLE_CALLS[family]:
        getattr(witnesses, f"{family}_witness")(*args, 1.5, 3.0)
    assert sizes == []


def test_arc_indicator_lower_bound():
    for k, m in [(1, 300), (8, 1600), (16, 3200)]:
        pt = arc_indicator_witness(k, m, 1.0, 1.0)
        assert pt.prediction_kind == "lower_bound"
        assert pt.prediction == pytest.approx(0.5 * k)
        assert pt.ratio >= pt.prediction * (1 - 1e-9)
    with pytest.raises(ValueError):
        arc_indicator_witness(8, 100, 1.0, 1.0)


def test_parseval_point_ratio_one():
    for pt in [
        subgroup_indicator_witness(2, 4, 2.0, 2.0),
        full_orbit_witness(32, 2.0, 2.0),
        chirp_witness(2, 3, 2.0),
        arc_indicator_witness(4, 800, 2.0, 2.0),
        lacunary_compact_witness(128, 2.0, 2.0),
    ]:
        assert pt.ratio == pytest.approx(1.0, abs=1e-10)


def test_lacunary_coefficients():
    coeffs = lacunary_coefficients(100)
    assert coeffs.shape == (100,)
    assert coeffs[0] == coeffs[1] == 0.0
    assert abs(coeffs[2]) == pytest.approx(2 ** (-0.5) * math.log(2) ** (-LACUNARY_BETA))
    n = np.arange(2, 100, dtype=np.float64)
    # log n is taken once; the coefficients stay bitwise those of taking it twice
    phase = LACUNARY_C * n * np.log(n)
    twice = np.exp(1j * phase) / (np.sqrt(n) * np.log(n) ** LACUNARY_BETA)
    assert np.array_equal(coeffs[2:], twice)
    assert np.allclose(np.angle(coeffs[2:]), np.angle(np.exp(1j * phase)))
    with pytest.raises(ValueError):
        lacunary_coefficients(3)


def test_lacunary_coefficient_sums():
    # l^q partial sums diverge for q < 2, stay bounded for q = 2
    small = np.abs(lacunary_coefficients(2**6))
    large = np.abs(lacunary_coefficients(2**12))
    assert np.sum(large**1.0) > 2.0 * np.sum(small**1.0)
    assert np.sum(large**2.0) < 1.1 * np.sum(small**2.0)


def _direct_lacunary_coefficients(m):
    """The oracle: the vector on Z/m built from scratch, by the ufunc steps
    that the kept table runs on its new bins."""
    coeffs = np.zeros(m, dtype=np.complex128)
    n = np.arange(2, m, dtype=np.float64)
    log_n = np.log(n)
    phase = LACUNARY_C * n
    phase *= log_n
    np.cos(phase, out=coeffs.real[2:])
    np.sin(phase, out=coeffs.imag[2:])
    log_n **= LACUNARY_BETA
    log_n *= np.sqrt(n, out=n)
    coeffs[2:] /= log_n
    return coeffs


def _fresh_lacunary_table(monkeypatch):
    """Start the kept coefficient table as a new process has it: bins 0 and 1."""
    monkeypatch.setattr(witnesses, "_lacunary_table", witnesses._lacunary_table[:2])


# growing, with odd sizes between, up to the cap, then shrinking
TABLE_SIZES = [4, 7, 1001, 2**16, 2**16 + 1, 2**18, 2**18 + 5, EXHAUSTIVE_CAP,
               2**18 + 5, 2**16, 1001, 7, 4]


def test_lacunary_table_matches_the_direct_formula_bitwise(monkeypatch):
    _fresh_lacunary_table(monkeypatch)
    for m in TABLE_SIZES:
        got = lacunary_coefficients(m)
        assert got.shape == (m,)
        assert got.tobytes() == _direct_lacunary_coefficients(m).tobytes(), m
    assert witnesses._lacunary_table.size == EXHAUSTIVE_CAP


def test_lacunary_coefficients_are_a_fresh_writable_copy(monkeypatch):
    _fresh_lacunary_table(monkeypatch)
    first = lacunary_coefficients(64)
    want = first.copy()
    assert first.flags.writeable and first.flags.owndata
    first[:] = 7.0
    assert np.array_equal(lacunary_coefficients(64), want)
    assert np.array_equal(lacunary_coefficients(100)[:64], want)


def test_lacunary_table_is_read_only_and_computes_each_bin_once(monkeypatch):
    _fresh_lacunary_table(monkeypatch)
    lacunary_coefficients(100)
    table = witnesses._lacunary_table
    assert table.size == 100 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[2] = 0.0
    cos_sizes = []
    cos = np.cos

    def spy(x, **kwargs):
        cos_sizes.append(x.size)
        return cos(x, **kwargs)

    monkeypatch.setattr(np, "cos", spy)
    for m in (4, 50, 100):
        lacunary_coefficients(m)
    assert cos_sizes == [] and witnesses._lacunary_table is table
    lacunary_coefficients(260)
    assert cos_sizes == [160]  # bins 100..259 only
    assert not witnesses._lacunary_table.flags.writeable


@pytest.mark.parametrize("build", [
    lambda m: lacunary_coefficients(m),
    lambda m: lacunary_compact_witness(m, 3.0, 1.5),
], ids=["coefficients", "witness"])
def test_lacunary_table_stays_within_the_cap(monkeypatch, build):
    _fresh_lacunary_table(monkeypatch)
    lacunary_coefficients(64)
    table = witnesses._lacunary_table
    with pytest.raises(CapacityError):
        build(EXHAUSTIVE_CAP + 1)
    assert witnesses._lacunary_table is table and table.size == 64


@pytest.mark.parametrize("m", [4, 1000, 4097])
def test_lacunary_compact_witness_is_the_same_on_a_fresh_and_a_warm_table(monkeypatch, m):
    _fresh_lacunary_table(monkeypatch)
    fresh = lacunary_compact_witness(m, 3.0, 1.5)
    lacunary_coefficients(2**16)
    warm = lacunary_compact_witness(m, 3.0, 1.5)
    assert repr(asdict(warm)) == repr(asdict(fresh))


# The parent route took ||fhat||_q as lp_norm(forward(inverse(F)), q).  That
# round trip leaves about 1e-17 in the two empty bins 0 and 1, which raised to
# a power q < 1 moves the norm (7e-9 relative at m = 8, q = 0.5), so below
# q = 0.8 it is compared on the support bins 2..m-1 only.
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(m=st.integers(4, 2**16), p=_EXPONENT,
       q=st.one_of(st.just(INF), st.floats(0.25, 0.99), st.floats(1.0, 8.0)))
def test_lacunary_compact_fhat_norm_matches_round_trip(m, p, q):
    pt = lacunary_compact_witness(m, p, q)
    f = inverse(MeasuredFunction(GroupSpec(orders=(m,)), FREQUENCY, lacunary_coefficients(m)))
    assert pt.norm_f == lp_norm(f, p)
    round_trip = forward(f)
    if q < 0.8:
        round_trip.values[:2] = 0.0
    want = lp_norm(round_trip, q)
    assert abs(pt.norm_fhat - want) <= 1e-12 * want
    assert pt.ratio == pt.norm_fhat / pt.norm_f


def test_lacunary_compact_norms():
    pt = lacunary_compact_witness(256, 4.0, 1.0)
    assert pt.prediction_kind == "lower_bound"
    # ||fhat||_1 equals the coefficient l1 sum exactly (unit dual atoms)
    coeffs = lacunary_coefficients(256)
    assert pt.norm_fhat == pytest.approx(float(np.sum(np.abs(coeffs))), rel=1e-10)
    # for this family the prediction lower-bounds the transform norm
    assert pt.norm_fhat >= pt.prediction * (1 - 1e-9)


def _lacunary_grid_oracle(n, points):
    """P(theta) = sum_{k=1}^{n} k^(-1/2) e^{i 2^k theta} at the grid angles
    2 pi x / M, term by term, as a time-side function on compact Z/M.

    Each phase 2^k x is reduced mod M on integers before it becomes an
    angle, so no term carries an error that grows with its frequency (as
    evaluating at 2 pi x / M does, by about 2^k ulp(2 pi)).
    """
    x = np.arange(points, dtype=np.int64)
    total = np.zeros(points, dtype=np.complex128)
    for k in range(1, n + 1):
        total += np.exp(2j * np.pi * ((2**k % points) * x % points) / points) / np.sqrt(k)
    return MeasuredFunction(GroupSpec(orders=(points,)), TIME, total)


# n = 15 is the witness_sweep workload's largest lacunary_discrete member.
@pytest.mark.parametrize("n", range(1, 16))
def test_lacunary_grid_values_match_pointwise_evaluation(n):
    # the witness's sup and L^2 norms are those of P's values at each grid point
    for points in (8 * 2**n, 8 * 2**n + 37):  # the default grid and a non-power of two
        w = lacunary_discrete_witness(n, 3.0, INF, grid_points=points)
        values = _lacunary_grid_oracle(n, points)
        wants = lp_norm(values, INF), lp_norm(values, 2.0)
        for got, want in zip((w.norm_fhat, w.norm_fhat_l2), wants):
            assert abs(got - want) <= 1e-14 * want, (points, got, want)


def test_lacunary_discrete_parseval():
    for n in (4, 8, 12):
        w = lacunary_discrete_witness(n, 3.0, 1.0)
        exact = math.sqrt(sum(1.0 / k for k in range(1, n + 1)))
        assert abs(w.norm_fhat_l2 - exact) < 1e-6
        assert w.norm_f == pytest.approx(
            sum(k ** (-1.5) for k in range(1, n + 1)) ** (1.0 / 3.0)
        )


def test_lacunary_discrete_guards():
    with pytest.raises(ValueError):
        lacunary_discrete_witness(4, 2.0, 1.0)  # needs p > 2
    with pytest.raises(ValueError):
        lacunary_discrete_witness(4, 3.0, 1.0, grid_points=16)  # too coarse
    # the gate is on the M = 2^21 grid points, though one period of 2^20 is built
    with pytest.raises(CapacityError):
        lacunary_discrete_witness(18, 3.0, 1.0)
    with pytest.raises(CapacityError):
        lacunary_discrete_witness(4, 3.0, 1.0, grid_points=2**20 + 2)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("q", [0.5, 1.5, 2.0, INF])
def test_lacunary_discrete_period_matches_full_grid(n, q):
    # an even grid takes one period, M/2 points; an odd grid all M of them
    for points in (8 * 2**n, 8 * 2**n + 37, 8 * 2**n + 2):
        w = lacunary_discrete_witness(n, 3.0, q, grid_points=points)
        full = _lacunary_grid_oracle(n, points)
        for got, want in ((w.norm_fhat, lp_norm(full, q)), (w.norm_fhat_l2, lp_norm(full, 2.0))):
            assert abs(got - want) <= 1e-12 * want, (points, got, want)


def test_lacunary_discrete_even_grid_transforms_one_period(monkeypatch):
    sizes = _spy_fft_sizes(monkeypatch)
    lacunary_discrete_witness(6, 3.0, 1.0)
    lacunary_discrete_witness(6, 3.0, 1.0, grid_points=8 * 2**6 + 1)
    assert sizes == [4 * 2**6, 8 * 2**6 + 1]


@pytest.mark.parametrize("build", [
    lambda: lacunary_compact_witness(64, 3.0, 1.5),
    lambda: lacunary_discrete_witness(4, 3.0, 1.5),
], ids=["lacunary_compact", "lacunary_discrete"])
def test_lacunary_witnesses_transform_their_vectors_in_place(monkeypatch, build):
    """Both lacunary witnesses hand their frequency vectors to ``inverse``,
    which reuses them; the other five families run no transform at all
    (``test_separable_routes_transform_no_whole_group``)."""
    calls = []

    def spy(F, **kwargs):
        calls.append(kwargs)
        return inverse(F, **kwargs)

    monkeypatch.setattr(witnesses, "inverse", spy)
    build()
    assert calls == [{"overwrite": True}]


def test_lacunary_discrete_fhat_grows():
    norms = [lacunary_discrete_witness(n, 3.0, 1.0).norm_fhat for n in (4, 6, 8, 10)]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_clt_witness_norms():
    w = clt_delta_witness(2, 8, 3.0, 1.0)
    assert w.sigma_sq == 1.0
    assert w.norm_f == pytest.approx(
        sum(k ** (-1.5) for k in range(1, 9)) ** (1.0 / 3.0)
    )
    # Parseval across the pair of norms
    w2 = clt_delta_witness(2, 8, 2.0, 2.0)
    assert w2.norm_fhat == pytest.approx(w2.norm_f, rel=1e-10)
    assert w.threshold == pytest.approx(math.sqrt(sum(1.0 / k for k in range(1, 9))))


def test_clt_witness_computes_each_norm_once(monkeypatch):
    calls = []

    def counting(f, p):
        calls.append(p)
        return lp_norm(f, p)

    monkeypatch.setattr(witnesses, "lp_norm", counting)
    w = clt_delta_witness(3, 5, 3.0, 1.0)
    assert sorted(calls) == [1.0, 3.0]
    assert w.ratio == w.norm_fhat / w.norm_f


# the (r, n) cells of the witness_sweep workload
@pytest.mark.parametrize("r, n", [(2, 4), (2, 8), (2, 12), (2, 16), (2, 18),
                                  (3, 3), (3, 6), (3, 9), (3, 11)])
def test_clt_tail_matches_append_order(r, n):
    # The coordinates are put in front, last first; appending them, first
    # first, sums in the other order and gives the same tail share.
    w = clt_delta_witness(r, n, 3.0, 1.0)
    roots = np.exp(2j * np.pi * np.arange(r) / r)
    values = np.zeros(1, dtype=np.complex128)
    for a in 1.0 / np.sqrt(np.arange(1, n + 1)):
        values = np.add.outer(values, a * roots).ravel()
    assert w.tail_probability == np.count_nonzero(values.real >= w.threshold) / r**n


def test_clt_witness_reproducible():
    a = clt_delta_witness(3, 5, 3.0, 1.0)
    b = clt_delta_witness(3, 5, 3.0, 1.0)
    assert a.tail_probability == b.tail_probability
    assert a.sigma_sq == 0.5


def test_fit_growth_exact_families():
    pts = [subgroup_indicator_witness(2, n, 1.0, 1.0) for n in range(2, 11)]
    fit = fit_growth(pts)
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared > 1 - 1e-12

    orbit = [full_orbit_witness(m, INF, INF) for m in (4, 8, 16, 32, 64, 128, 256)]
    fit = fit_growth(orbit)
    assert fit.slope == pytest.approx(1.0, abs=1e-9)


def test_fit_growth_constant_family():
    pts = [full_orbit_witness(m, 2.0, 2.0) for m in (4, 8, 16, 32)]
    fit = fit_growth(pts)
    assert fit.slope == pytest.approx(0.0, abs=1e-9)


def test_fit_growth_guards():
    pts = [full_orbit_witness(m, 1.0, 1.0) for m in (4, 8)]
    with pytest.raises(ValueError):
        fit_growth(pts)
    bad = [full_orbit_witness(m, 1.0, 1.0) for m in (8, 4, 16)]
    with pytest.raises(ValueError):
        fit_growth(bad)
