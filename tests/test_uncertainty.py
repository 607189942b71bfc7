import json
import math

import numpy as np
import pytest

from abelfourier.cli import main
from abelfourier.groups import COMPACT, DISCRETE, GroupSpec
from abelfourier.norms import INF
from abelfourier.transform import (
    MeasuredFunction,
    TIME,
    character_function,
    delta,
    forward,
    write_csv,
)
from abelfourier.uncertainty import (
    Density,
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


def test_density_validation():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    good = Density(MeasuredFunction(spec, TIME, np.ones(4, dtype=np.complex128)))
    assert good.atom == 0.25
    with pytest.raises(ValueError):
        Density(MeasuredFunction(spec, TIME, 2 * np.ones(4, dtype=np.complex128)))
    with pytest.raises(ValueError):
        Density(MeasuredFunction(spec, TIME, np.array([4.0, 0, 0, -0.1]) + 0j))
    with pytest.raises(ValueError):
        Density(MeasuredFunction(spec, TIME, np.array([4.0j, 0, 0, 0])))


def test_density_from_wavefunction():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    psi = MeasuredFunction(spec, TIME, np.array([1.0, -1.0, 1.0j, -1.0j]))
    d = Density.from_wavefunction(psi)
    assert np.allclose(d.values, 1.0)
    with pytest.raises(ValueError, match="density mass"):
        Density.from_wavefunction(MeasuredFunction(spec, TIME, np.full(4, 3.0 + 0j)))


def test_renyi_uniform_density_zero():
    spec = GroupSpec(orders=(6,), view=COMPACT, mass=1.0)
    d = Density(MeasuredFunction(spec, TIME, np.ones(6, dtype=np.complex128)))
    for order in (0.0, 0.25, 1.0, 2.0, INF):
        assert renyi_entropy(d, order) == pytest.approx(0.0, abs=1e-12)


def test_renyi_point_mass():
    # density 4*delta_0 on Z/4 compact mass 1: entropy -log 4 for every order
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    vals = np.zeros(4, dtype=np.complex128)
    vals[0] = 4.0
    d = Density(MeasuredFunction(spec, TIME, vals))
    for order in (0.0, 0.5, 1.0, 3.0, INF):
        assert renyi_entropy(d, order) == pytest.approx(-math.log(4.0))


def test_renyi_order_zero_is_log_support_measure():
    spec = GroupSpec(orders=(8,), view=COMPACT, mass=1.0)
    vals = np.zeros(8, dtype=np.complex128)
    vals[:2] = 4.0  # mass 2 * 4 * 1/8 = 1
    d = Density(MeasuredFunction(spec, TIME, vals))
    assert renyi_entropy(d, 0.0) == pytest.approx(math.log(2 * 0.125))


@pytest.mark.parametrize("order", [-0.5, math.nan])
def test_renyi_rejects_negative_and_nan_order(order):
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    d = Density(MeasuredFunction(spec, TIME, np.ones(4, dtype=np.complex128)))
    with pytest.raises(ValueError):
        renyi_entropy(d, order)


@pytest.mark.parametrize("view, mass", [(DISCRETE, 1.0), (COMPACT, 0.1)])
def test_renyi_at_order_1500_below_and_above_one(view, mass):
    # every value below 1 or every value above 1, so each value's own power
    # underflows to 0 or overflows to inf
    rng = np.random.default_rng(101)
    spec = GroupSpec(orders=(8,), view=view, mass=mass)
    raw = rng.uniform(0.5, 1.5, size=8)
    raw /= raw.sum() * spec.primal_atom
    assert np.all(raw < 1.0) if view == DISCRETE else np.all(raw > 1.0)
    d = Density(MeasuredFunction(spec, TIME, raw.astype(np.complex128)))
    want = renyi_oracle(raw, spec.primal_atom, 1500.0)
    assert renyi_entropy(d, 1500.0) == pytest.approx(want, rel=1e-12)


def test_renyi_monotone_in_order():
    rng = np.random.default_rng(71)
    orders = [0.25, 0.5, 1.0, 2.0, 4.0, INF]
    for _ in range(1000):
        spec = GroupSpec(orders=(8,), view=COMPACT if rng.integers(2) else DISCRETE, mass=1.0)
        raw = rng.uniform(0.0, 1.0, size=8)
        raw /= raw.sum() * spec.primal_atom
        d = Density(MeasuredFunction(spec, TIME, raw.astype(np.complex128)))
        ents = [renyi_entropy(d, o) for o in orders]
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


def test_violator_param_matches_stepping_loop():
    def stepped(slope, target, max_param):
        n = 1
        while slope * n > target and n < max_param:
            n += 1
        return n

    for side, p, q in [(COMPACT, 1.111, 2.5), (COMPACT, 1.4, 3.0), (DISCRETE, 1.6, 5.0),
                       (DISCRETE, 1.8, 3.5)]:
        u, v = 1.0 / p, 1.0 / q
        slope = (1.0 - u - v if side == COMPACT else u + v - 1.0) * math.log(2.0)
        targets = [slope * k for k in range(1, 80)]  # exactly on a step
        targets += [slope * (k + frac) for k in range(60) for frac in (1e-13, 0.3, 0.999)]
        targets += [1.0, 0.0, -1e-300]
        for target in targets:
            for max_param in (10**6, 40):
                r = weighted_up_violator(target, p, q, side, max_param=max_param)
                assert r.param_n == stepped(slope, target, max_param), (side, target)
                assert r.value == slope * r.param_n
                assert r.achieved is (r.value <= target)


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
