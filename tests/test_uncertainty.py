import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfourier import uncertainty
from abelfourier.cli import main
from abelfourier.groups import COMPACT, DISCRETE, GroupSpec
from abelfourier.norms import BI_UNIMODULAR, CONSTANT, DELTA, INF, lp_norm, recip
from abelfourier.transform import (
    MeasuredFunction,
    TIME,
    character_function,
    delta,
    forward,
    write_csv,
)
from abelfourier.uncertainty import (
    SUPPORT_RTOL,
    donoho_stark_check,
    in_violation_region,
    in_weighted_region,
    renyi_entropy,
    support_product,
    unweighted_up_margin,
    weighted_entropy_sum,
    weighted_up_margin,
    weighted_up_violator,
)
from abelfourier.witnesses import EXTREMALS
from oracles import (
    REGION_LINES,
    exponent_value,
    points_near_line,
    violation_region_by_sums,
    weighted_region_by_sums,
)


def unit_random(rng, spec):
    vals = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
    vals /= math.sqrt(float(np.sum(np.abs(vals) ** 2) * spec.primal_atom))
    return MeasuredFunction(spec, TIME, vals)


def renyi_oracle(density, atom, order):
    """The Renyi entropy from its definition: -log max at infinity, Shannon at
    order 1, else log(sum density^order atom) / (1 - order) with the sum taken
    as a log-sum-exp, so no power overflows or underflows."""
    density = density[density > 0.0]
    if order == INF:
        return -math.log(float(density.max()))
    if order == 1.0:
        return float(-np.sum(density * np.log(density)) * atom)
    logs = order * np.log(density) + math.log(atom)
    top = float(logs.max())
    return (top + math.log(float(np.sum(np.exp(logs - top))))) / (1.0 - order)


def weighted_oracle(psi, p, q):
    u, v = 1.0 / p, 1.0 / q
    psihat = forward(psi)
    h_time = renyi_oracle(np.abs(psi.values) ** 2, psi.atom, p / 2.0)
    h_freq = renyi_oracle(np.abs(psihat.values) ** 2, psihat.atom, q / 2.0)
    return (u - 0.5) * h_time + (0.5 - v) * h_freq


def test_density_from_wavefunction():
    # the entropies are those of |psi|^2, here 1 at every point of Z/4
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    psi = MeasuredFunction(spec, TIME, np.array([1.0, -1.0, 1.0j, -1.0j]))
    for order in (0.0, 0.5, 1.0, 2.0, INF):
        assert renyi_entropy(psi, order) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="unit L2 norm"):
        renyi_entropy(MeasuredFunction(spec, TIME, np.full(4, 3.0 + 0j)), 2.0)


def test_renyi_uniform_density_zero():
    spec = GroupSpec(orders=(6,), view=COMPACT, mass=1.0)
    psi = MeasuredFunction(spec, TIME, np.ones(6, dtype=np.complex128))
    for order in (0.0, 0.25, 1.0, 2.0, INF):
        assert renyi_entropy(psi, order) == pytest.approx(0.0, abs=1e-12)


def test_renyi_point_mass():
    # density |psi|^2 = 4*delta_0 on Z/4 compact mass 1: entropy -log 4 for every order
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    vals = np.zeros(4, dtype=np.complex128)
    vals[0] = 2.0
    psi = MeasuredFunction(spec, TIME, vals)
    for order in (0.0, 0.5, 1.0, 3.0, INF):
        assert renyi_entropy(psi, order) == pytest.approx(-math.log(4.0))


def test_renyi_order_zero_is_log_support_measure():
    spec = GroupSpec(orders=(8,), view=COMPACT, mass=1.0)
    vals = np.zeros(8, dtype=np.complex128)
    vals[:2] = 2.0  # mass 2 * 4 * 1/8 = 1
    psi = MeasuredFunction(spec, TIME, vals)
    assert renyi_entropy(psi, 0.0) == pytest.approx(math.log(2 * 0.125))


def test_renyi_order_zero_counts_the_support_as_donoho_stark_does():
    # |psi| at 1e-9 of its peak is in the support (the rule of
    # donoho_stark_check: |psi| above 1e-12 of its peak), though its
    # |psi|^2 is only 1e-18 of the peak of |psi|^2
    spec = GroupSpec(orders=(4,), view=DISCRETE, mass=1.0)
    psi = MeasuredFunction(spec, TIME, np.array([1.0, 1e-9, 0.0, 0.0], dtype=np.complex128))
    assert donoho_stark_check(psi)[0] == 2
    assert renyi_entropy(psi, 0.0) == math.log(2.0)


@pytest.mark.parametrize("order", [-0.5, math.nan])
def test_renyi_rejects_negative_and_nan_order(order):
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    psi = MeasuredFunction(spec, TIME, np.ones(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        renyi_entropy(psi, order)


@pytest.mark.parametrize("view, mass", [(DISCRETE, 1.0), (COMPACT, 0.1)])
def test_renyi_at_order_1500_below_and_above_one(view, mass):
    # every value below 1 or every value above 1, so each value's own power
    # underflows to 0 or overflows to inf
    rng = np.random.default_rng(101)
    spec = GroupSpec(orders=(8,), view=view, mass=mass)
    raw = rng.uniform(0.5, 1.5, size=8)
    raw /= raw.sum() * spec.primal_atom
    assert np.all(raw < 1.0) if view == DISCRETE else np.all(raw > 1.0)
    psi = MeasuredFunction(spec, TIME, np.sqrt(raw).astype(np.complex128))
    want = renyi_oracle(raw, spec.primal_atom, 1500.0)
    assert renyi_entropy(psi, 1500.0) == pytest.approx(want, rel=1e-12)


def test_renyi_monotone_in_order():
    rng = np.random.default_rng(71)
    orders = [0.25, 0.5, 1.0, 2.0, 4.0, INF]
    for _ in range(1000):
        spec = GroupSpec(orders=(8,), view=COMPACT if rng.integers(2) else DISCRETE, mass=1.0)
        raw = rng.uniform(0.0, 1.0, size=8)
        raw /= raw.sum() * spec.primal_atom
        psi = MeasuredFunction(spec, TIME, np.sqrt(raw).astype(np.complex128))
        ents = [renyi_entropy(psi, o) for o in orders]
        for a, b in zip(ents, ents[1:]):
            assert b <= a + 1e-10


@pytest.mark.parametrize("p", [2.0, INF])
@pytest.mark.parametrize("q", [2.0, INF])
def test_weighted_entropy_sum_is_the_renyi_definition(p, q):
    rng = np.random.default_rng(103)
    for orders in [(2,), (3,), (2, 2), (5,), (2, 3)]:
        for view in (COMPACT, DISCRETE):
            spec = GroupSpec(orders=orders, view=view, mass=float(rng.uniform(0.25, 4.0)))
            psi = unit_random(rng, spec)
            got = weighted_entropy_sum(psi, p, q)
            assert got == pytest.approx(weighted_oracle(psi, p, q), rel=1e-12, abs=1e-12)


def test_region_predicates():
    assert in_weighted_region(COMPACT, 0.6, 0.3)
    assert not in_weighted_region(COMPACT, 0.5, 0.3)  # needs u > 1/2
    assert in_weighted_region(DISCRETE, 0.8, 0.4)
    assert not in_weighted_region(DISCRETE, 0.8, 0.5)
    assert in_violation_region(COMPACT, 0.9, 0.4)
    assert not in_violation_region(COMPACT, 0.9, 0.6)
    assert in_violation_region(DISCRETE, 0.6, 0.2)
    assert not in_violation_region(DISCRETE, 0.4, 0.2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    line=st.sampled_from(list(REGION_LINES)),
    t=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), st.floats(0.0, 4.0)),
)
def test_region_predicates_match_the_float_sums_next_to_each_line(line, t):
    """The predicates read ``classify``'s label and one half-plane; within 2
    floats of each line that bounds a region (``REGION_LINES``), on both
    views, they agree with the comparisons of the float u + v with 1 that
    they replace."""
    for u, v in points_near_line(line, t, 2):
        for view in (COMPACT, DISCRETE):
            point = (view, u, v)
            assert in_weighted_region(*point) == weighted_region_by_sums(*point), point
            assert in_violation_region(*point) == violation_region_by_sums(*point), point


@pytest.mark.parametrize("predicate", [in_weighted_region, in_violation_region])
@pytest.mark.parametrize("view, u, v, message", [
    ("torus", 0.6, 0.3, "unknown side 'torus'"),
    (COMPACT, math.nan, 0.3, "finite and >= 0"),
    (DISCRETE, math.nan, 0.3, "finite and >= 0"),
    (COMPACT, 0.6, -0.1, "finite and >= 0"),
])
def test_region_predicates_raise_off_the_quadrant_or_view(predicate, view, u, v, message):
    """An unknown view, or a nan or negative reciprocal, raises ``classify``'s
    ValueError instead of reading as outside the region."""
    with pytest.raises(ValueError, match=message):
        predicate(view, u, v)


def test_weighted_margin_random():
    rng = np.random.default_rng(73)
    cspec = GroupSpec(orders=(8,), view=COMPACT, mass=1.0)
    dspec = GroupSpec(orders=(8,), view=DISCRETE, mass=1.0)
    # compact region: u > 1/2 and u + v <= 1
    c_grid = [(1.0 / 0.6, 1.0 / 0.3), (1.0 / 0.75, 1.0 / 0.2), (1.0 / 0.55, 1.0 / 0.45)]
    # discrete region: v < 1/2 and u + v >= 1
    d_grid = [(1.0 / 0.8, 1.0 / 0.4), (1.0 / 0.6, 1.0 / 0.45), (1.0 / 1.2, 1.0 / 0.3)]
    for _ in range(200):
        psi_c = unit_random(rng, cspec)
        psi_d = unit_random(rng, dspec)
        for p, q in c_grid:
            assert weighted_up_margin(psi_c, p, q).margin >= -1e-9
        for p, q in d_grid:
            assert weighted_up_margin(psi_d, p, q).margin >= -1e-9


def test_weighted_margin_equality_cases():
    cspec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    chi = character_function(cspec, (1,))
    report = weighted_up_margin(chi, 1.5, 3.0)
    assert abs(report.margin) <= 1e-12
    dspec = GroupSpec(orders=(4,), view=DISCRETE, mass=1.0)
    report = weighted_up_margin(delta(dspec), 1.5, 3.0)
    assert abs(report.margin) <= 1e-12


def test_weighted_margin_guards():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    chi = character_function(spec, (1,))
    with pytest.raises(ValueError):
        weighted_up_margin(chi, 4.0, 4.0)  # u = 1/4 not > 1/2
    bad = MeasuredFunction(spec, TIME, 2 * chi.values)
    with pytest.raises(ValueError):
        weighted_up_margin(bad, 1.5, 3.0)


@pytest.mark.parametrize("excess, ok", [(5e-11, True), (5e-10, False)])
def test_both_margins_hold_psi_to_unit_l2_within_1e_10(excess, ok):
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    psi = character_function(spec, (1,))
    psi = MeasuredFunction(spec, TIME, psi.values * math.sqrt(1.0 + excess))
    for margin, p, q in [(weighted_up_margin, 1.5, 3.0), (unweighted_up_margin, 1.0, 2.0)]:
        if ok:
            assert margin(psi, p, q).satisfied
        else:
            with pytest.raises(ValueError, match="unit L2 norm"):
                margin(psi, p, q)


def test_violator_compact():
    result = weighted_up_violator(-10.0, 1.0 / 0.9, 1.0 / 0.4, COMPACT)
    assert result.achieved
    assert result.value <= -10.0
    assert result.family == "subgroup_indicator"


def test_violator_result_derives_achieved():
    """``achieved`` is value <= target, read from the record; its
    constructor takes no ``achieved``."""
    fields = dict(side=COMPACT, family="subgroup_indicator", param_n=1,
                  group_descr="cyclic:2;view=compact;mass=1", psi=None)
    for value, target, want in ((-1.0, -1.0, True), (-0.5, -1.0, False), (-2.0, -1.0, True)):
        assert uncertainty.ViolatorResult(value=value, target=target, **fields).achieved is want
    with pytest.raises(TypeError):
        uncertainty.ViolatorResult(value=-1.0, target=-1.0, achieved=True, **fields)


def test_violator_discrete():
    result = weighted_up_violator(-5.0, 1.0 / 0.6, 1.0 / 0.2, DISCRETE)
    assert result.achieved
    assert result.value <= -5.0
    assert result.family == "full_orbit"


def test_violator_small_target_materialized():
    result = weighted_up_violator(-1.0, 1.0 / 0.9, 1.0 / 0.4, COMPACT)
    assert result.psi is not None
    # closed-form value matches the measured weighted entropy sum
    measured = weighted_entropy_sum(result.psi, 1.0 / 0.9, 1.0 / 0.4)
    assert measured == pytest.approx(result.value, abs=1e-9)
    d = weighted_up_violator(-1.0, 1.0 / 0.6, 1.0 / 0.2, DISCRETE)
    assert d.psi is not None
    measured = weighted_entropy_sum(d.psi, 1.0 / 0.6, 1.0 / 0.2)
    assert measured == pytest.approx(d.value, abs=1e-9)


def test_violator_value_linear_in_parameter():
    u, v = 0.9, 0.4
    slope = (1.0 - u - v) * math.log(2.0)
    values = []
    for target in (-0.1, -0.5, -1.0, -2.0):
        r = weighted_up_violator(target, 1.0 / u, 1.0 / v, COMPACT)
        values.append((r.param_n, r.value))
    for n, value in values:
        assert value == pytest.approx(slope * n, abs=1e-12)


def test_violator_param_matches_stepping_loop(monkeypatch):
    """The bisected least n against a stepping loop, at the module's cap
    ``MAX_PARAM`` and at a cap of 40 set in its place: at four points inside
    the violation regions, and at every point of them within 3 floats of
    u + v = 1, where the slope the bisection takes to be negative is
    smallest."""
    assert uncertainty.MAX_PARAM == 10**6

    def stepped(slope, target, max_param):
        n = 1
        while slope * n > target and n < max_param:
            n += 1
        return n

    def check(side, p, q, targets):
        u, v = recip(p), recip(q)
        slope = (1.0 - u - v if side == COMPACT else u + v - 1.0) * math.log(2.0)
        assert slope < 0.0, (side, u, v)
        for target in targets(slope):
            for max_param in (10**6, 40):
                monkeypatch.setattr(uncertainty, "MAX_PARAM", max_param)
                r = weighted_up_violator(target, p, q, side)
                assert r.param_n == stepped(slope, target, max_param), (side, u, v, target)
                assert r.value == slope * r.param_n
                assert r.achieved is (r.value <= target)

    def dense(slope):
        targets = [slope * k for k in range(1, 80)]  # exactly on a step
        # a float off a step, where target / slope can round down onto k
        targets += [math.nextafter(slope * k, d) for k in range(1, 80) for d in (-INF, INF)]
        targets += [slope * (k + frac) for k in range(60) for frac in (1e-13, 0.3, 0.999)]
        return targets + [1.0, 0.0, -1e-300]

    def on_and_off_steps(slope):
        steps = [slope * k for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 79)]
        return steps + [math.nextafter(t, d) for t in steps for d in (-INF, INF)] + [1.0, 0.0]

    for side, p, q in [(COMPACT, 1.111, 2.5), (COMPACT, 1.4, 3.0), (DISCRETE, 1.6, 5.0),
                       (DISCRETE, 1.8, 3.5)]:
        check(side, p, q, dense)
    near = 0
    for side in (COMPACT, DISCRETE):
        for t in (2.0, 2.6, 4.0):
            for u, v in points_near_line("u+v=1", t, 3):
                p, q = exponent_value(u), exponent_value(v)
                if in_violation_region(side, recip(p), recip(q)):
                    check(side, p, q, on_and_off_steps)
                    near += 1
    assert near > 60


def test_violator_guards():
    with pytest.raises(ValueError):
        weighted_up_violator(-1.0, 1.5, 3.0, COMPACT)  # validity region, not violation


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side, p, q", [(COMPACT, 1.111, 2.5), (DISCRETE, 1.0 / 0.6, 5.0)])
def test_violator_rejects_non_finite_target(side, p, q, target):
    with pytest.raises(ValueError, match="target must be finite"):
        weighted_up_violator(target, p, q, side)


def test_unweighted_margin():
    rng = np.random.default_rng(79)
    for view in (COMPACT, DISCRETE):
        spec = GroupSpec(orders=(2, 4), view=view, mass=1.0)
        for _ in range(200):
            psi = unit_random(rng, spec)
            for p, q in [(1.0, 2.0), (2.0, 2.0), (1.5, 2.5)]:
                assert unweighted_up_margin(psi, p, q).margin >= -1e-9
    # equality: delta on discrete unit atoms
    dspec = GroupSpec(orders=(4,), view=DISCRETE, mass=1.0)
    assert abs(unweighted_up_margin(delta(dspec), 1.0, 2.0).margin) <= 1e-12
    with pytest.raises(ValueError):
        unweighted_up_margin(delta(dspec), 4.0, 4.0)


def direct_renyi(density, atom, order):
    """log(sum density^order atom) / (1 - order) as written, with its limits
    -log max at infinity and Shannon's entropy at order 1."""
    if order == INF:
        return -math.log(float(density.max()))
    if order == 1.0:
        positive = density[density > 0.0]
        return float(-np.sum(positive * np.log(positive)) * atom)
    return math.log(float(np.sum(density**order)) * atom) / (1.0 - order)


def test_unweighted_lhs_is_the_direct_density_formula():
    rng = np.random.default_rng(113)
    points = [(2.0, 2.0), (2.0, 1.5), (1.0, INF), (0.8, INF), (1.0, 1.0), (1.5, 2.5),
              (1.2, 3.0), (0.6, 4.0)]  # p = 2 is Shannon's entropy on the time side
    for _ in range(300):
        orders = tuple(int(m) for m in rng.integers(2, 7, size=int(rng.integers(1, 3))))
        view = COMPACT if rng.integers(2) else DISCRETE
        spec = GroupSpec(orders=orders, view=view, mass=float(rng.uniform(0.25, 4.0)))
        psi = unit_random(rng, spec)
        psihat = forward(psi)
        for p, q in points:
            want = (direct_renyi(np.abs(psi.values) ** 2, psi.atom, p / 2.0)
                    + direct_renyi(np.abs(psihat.values) ** 2, psihat.atom, q / 2.0))
            assert abs(unweighted_up_margin(psi, p, q).lhs - want) <= 1e-13


@pytest.mark.parametrize("view", [COMPACT, DISCRETE])
@pytest.mark.parametrize("mass", [1.0, 0.3, 2.5])
def test_unweighted_margin_of_the_extremal_families(view, mass):
    # each |psi|^2 and |psihat|^2 is flat on its support, so every entropy is
    # the log of its support measure: the delta and the constant have
    # support measures multiplying to 1 and margin 0; the bi-unimodular
    # function is flat on all N points on both sides, and its margin is log N
    spec = GroupSpec(orders=(3, 4), view=view, mass=mass)
    for family, want in ((CONSTANT, 0.0), (DELTA, 0.0), (BI_UNIMODULAR, math.log(12.0))):
        f = EXTREMALS[family](spec)
        psi = MeasuredFunction(spec, TIME, f.values / lp_norm(f, 2.0))
        for p, q in [(1.0, 1.0), (2.0, 2.0), (1.5, 2.5), (1.0, INF), (0.5, 0.5)]:
            assert unweighted_up_margin(psi, p, q).margin == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("view", [COMPACT, DISCRETE])
def test_unweighted_margin_of_a_modulated_coset_is_zero_at_small_orders(view):
    # a character times the indicator of 1 + <3> on Z/12: |psi|^2 is flat on
    # 4 points and |psihat|^2 on 3, so every entropy is the log of its support
    # measure and the margin is 0 at every order; the FFT leaves roundoff in
    # psihat's 9 exact zeros, which orders below 1 must not count
    spec = GroupSpec(orders=(12,), view=view, mass=1.0)
    x = np.arange(12)
    f = MeasuredFunction(spec, TIME, np.where(x % 3 == 1, np.exp(2j * np.pi * 5 * x / 12), 0.0))
    psi = MeasuredFunction(spec, TIME, f.values / lp_norm(f, 2.0))
    for order in (1.0, 0.5, 0.2, 0.05, 0.02, 0.01):
        assert abs(unweighted_up_margin(psi, 2.0 * order, 2.0 * order).margin) <= 1e-12, order


@pytest.mark.parametrize("view", [COMPACT, DISCRETE])
@pytest.mark.parametrize("order", [0.9, 0.5, 0.05, 0.01])
def test_renyi_below_order_one_drops_at_most_the_stated_bound(view, order):
    """Entries at SUPPORT_RTOL of the peak count as 0 below order 1, which
    moves the entropy by at most log(1 + (N-1) 10^(-24 order)) / (1 - order);
    all N-1 other entries at that threshold attain it."""
    n = 16
    spec = GroupSpec(orders=(n,), view=view, mass=1.0)
    peak = math.sqrt(1.0 / spec.primal_atom)  # 4 or 1, so psi has unit L2 within 1e-22
    vals = np.full(n, SUPPORT_RTOL * peak, dtype=np.complex128)
    vals[3] = peak
    psi = MeasuredFunction(spec, TIME, vals)
    shift = direct_renyi(np.abs(vals) ** 2, psi.atom, order) - renyi_entropy(psi, order)
    bound = math.log1p((n - 1) * 10.0 ** (-24.0 * order)) / (1.0 - order)
    assert shift == pytest.approx(bound, rel=1e-9, abs=1e-13)


def test_support_product():
    rng = np.random.default_rng(83)
    spec = GroupSpec(orders=(8,), view=COMPACT, mass=1.0)
    chi = character_function(spec, (3,))
    assert support_product(chi) == pytest.approx(1.0)
    dspec = GroupSpec(orders=(8,), view=DISCRETE, mass=1.0)
    assert support_product(delta(dspec)) == pytest.approx(1.0)
    for _ in range(500):
        f = MeasuredFunction(spec, TIME, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        assert support_product(f) >= 1 - 1e-12


def test_donoho_stark():
    spec = GroupSpec(orders=(4,), view=DISCRETE, mass=1.0)
    assert donoho_stark_check(delta(spec)) == (1, 4, 4)
    assert donoho_stark_check(character_function(spec, (1,))) == (4, 1, 4)
    rng = np.random.default_rng(89)
    big = GroupSpec(orders=(16,), view=COMPACT, mass=1.0)
    for _ in range(500):
        f = MeasuredFunction(big, TIME, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        _, _, product = donoho_stark_check(f)
        assert product >= 16


def test_zero_function_guards():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    zero = MeasuredFunction(spec, TIME, np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        support_product(zero)
    with pytest.raises(ValueError):
        donoho_stark_check(zero)


def test_donoho_stark_refuses_a_frequency_side_function():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    with pytest.raises(ValueError, match="expects a time-side function"):
        donoho_stark_check(forward(delta(spec)))


@pytest.mark.parametrize(
    "view, p, q, weighted",
    [
        (COMPACT, 1.5, 3000.0, True),  # |psihat|^3000 underflows
        (DISCRETE, 3000.0, 1.0001, False),  # |psi|^3000 underflows
        (COMPACT, 3000.0, 1.0001, False),  # |psi|^3000 overflows
        (DISCRETE, 0.9, 3000.0, True),  # |psihat|^3000 overflows
        (DISCRETE, 0.001, 3.0, True),  # ||psi||_p is past the float range
        (DISCRETE, 0.0002, 2.0, False),  # and so is ||psi||_p here
    ],
)
def test_check_at_extreme_orders_matches_the_oracle(tmp_path, capsys, view, p, q, weighted):
    rng = np.random.default_rng(107)
    psi = unit_random(rng, GroupSpec(orders=(16,), view=view, mass=1.0))
    path = tmp_path / "psi.csv"
    path.write_text(write_csv(psi))
    argv = ["uncertainty", "--mode", "check", "--input", str(path), "--p", repr(p), "--q", repr(q)]
    code = main(argv if weighted else argv + ["--unweighted"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["satisfied"] is True
    if weighted:
        want = weighted_oracle(psi, p, q)
    else:
        psihat = forward(psi)
        want = (renyi_oracle(np.abs(psi.values) ** 2, psi.atom, p / 2.0)
                + renyi_oracle(np.abs(psihat.values) ** 2, psihat.atom, q / 2.0))
    assert out["lhs"] == pytest.approx(want, rel=1e-12)


_MASSES = [1e-300, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e300]
_WEIGHTED_POINTS = [  # (view, p, q) in U_C (compact) or U_D (discrete), 1/p up to 200
    (COMPACT, 1.5, 3.0), (COMPACT, 1.0, INF), (COMPACT, 1.1, 20.0),
    (DISCRETE, 1.5, 2.5), (DISCRETE, 0.25, 4.0), (DISCRETE, 0.005, 4.0), (DISCRETE, 0.005, INF),
]


@pytest.mark.parametrize("view, p, q", _WEIGHTED_POINTS)
def test_weighted_check_bound_is_finite_at_every_mass(tmp_path, capsys, view, p, q):
    """The weighted bound -log C_{p,q} is (1/p + 1/q - 1) log(mass): finite
    where the closed form mass^(1-1/p-1/q) is past the float range or 0."""
    rng = np.random.default_rng(113)
    u, v = 1.0 / p, 1.0 / q
    for mass in _MASSES:
        psi = unit_random(rng, GroupSpec(orders=(2, 3), view=view, mass=mass))
        path = tmp_path / "psi.csv"
        path.write_text(write_csv(psi))
        code = main(["uncertainty", "--mode", "check", "--input", str(path),
                     "--p", repr(p), "--q", repr(q)])
        captured = capsys.readouterr()
        assert code == 0, (mass, captured.err)
        out = json.loads(captured.out)
        want = (u + v - 1.0) * math.log(mass)
        assert abs(out["rhs"] - want) <= 1e-12 * max(1.0, abs(want)), mass
        assert out["margin"] == out["lhs"] - out["rhs"]
        assert out["satisfied"] is True


@pytest.mark.parametrize("mass, value, p, want_rhs, want_margin", [
    ("1e+300", 7.071067811865476e-151, 0.25, 2245.0204656691944, None),
    ("0.001", 22.360679774997898, 0.005, -1376.37, 138.11),
])
def test_weighted_check_where_the_closed_form_leaves_the_float_range(
        tmp_path, capsys, mass, value, p, want_rhs, want_margin):
    """Unit-L2 psi of two equal values on discrete Z/2: mass^(1-1/p-1/q)
    overflows at mass 1e300 and underflows to 0 at mass 0.001."""
    path = tmp_path / "psi.csv"
    path.write_text(f'cyclic:2;view=discrete;mass={mass},time\nindex_tuple,re,im\n'
                    f'"(0,)",{value!r},0.0\n"(1,)",{value!r},0.0\n')
    code = main(["uncertainty", "--mode", "check", "--input", str(path),
                 "--p", repr(p), "--q", "4"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    out = json.loads(captured.out)
    exact = (1.0 / p + 0.25 - 1.0) * math.log(float(mass))
    assert abs(out["rhs"] - exact) <= 1e-12 * abs(exact)
    assert out["rhs"] == pytest.approx(want_rhs, abs=0.01)
    if want_margin is not None:
        assert out["margin"] == pytest.approx(want_margin, abs=0.01)
