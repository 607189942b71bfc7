"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
for passing criteria as they complete).
"""

import math

import numpy as np

from abelfourier.estimator import EstimatorConfig, ascent_estimate, ratio
from abelfourier.groups import COMPACT, DISCRETE, GroupSpec
from abelfourier.norms import closed_form_cpq, lp_norm, parseval_defect
from abelfourier.transform import (
    MeasuredFunction,
    TIME,
    character_function,
    delta,
    forward,
    inverse,
)
from abelfourier.uncertainty import (
    donoho_stark_check,
    support_product,
    unweighted_up_margin,
    weighted_up_margin,
    weighted_up_violator,
)
from abelfourier.witnesses import (
    arc_indicator_witness,
    chirp_witness,
    clt_delta_witness,
    full_orbit_witness,
    lacunary_compact_witness,
    lacunary_discrete_witness,
    subgroup_indicator_witness,
)
from oracles import double_transform, exponent_value, fit_growth, log_convexity_check, reflect


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_orders(rng, max_size):
    orders = []
    size = 1
    for _ in range(int(rng.integers(1, 4))):
        m = int(rng.integers(2, 17))
        if size * m > max_size:
            break
        orders.append(m)
        size *= m
    return tuple(orders) if orders else (int(rng.integers(2, 17)),)


def test_criterion_1_parseval_inversion_reflection():
    rng = np.random.default_rng(101)
    worst_parseval = worst_inverse = worst_double = 0.0
    for _ in range(1000):
        orders = random_orders(rng, 4096)
        view = COMPACT if rng.integers(2) else DISCRETE
        spec = GroupSpec(orders=orders, view=view, mass=float(rng.uniform(0.25, 4.0)))
        vals = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
        f = MeasuredFunction(spec, TIME, vals)
        fhat = forward(f)
        worst_parseval = max(worst_parseval, parseval_defect(f) / max(1.0, lp_norm(f, 2.0)))
        back = inverse(fhat)
        amp = max(1.0, float(np.max(np.abs(vals))))
        worst_inverse = max(worst_inverse, float(np.max(np.abs(back.values - vals))) / amp)
        refl = reflect(f)
        dd = double_transform(f)
        worst_double = max(worst_double, float(np.max(np.abs(dd.values - refl.values))) / amp)
    ok = worst_parseval <= 1e-10 and worst_inverse <= 1e-10 and worst_double <= 1e-10
    report(
        1,
        f"Parseval/inversion/double-transform on 1000 random groups "
        f"(defects {worst_parseval:.2e}, {worst_inverse:.2e}, {worst_double:.2e})",
        ok,
    )


COMPACT_GRID = [
    (0.0, 0.0), (0.0, 0.25), (0.0, 0.5), (0.25, 0.25), (0.25, 0.5), (0.5, 0.25),
    (0.5, 0.5), (0.75, 0.25), (1.0, 0.0), (0.6, 0.4), (0.3, 0.5), (0.5, 0.0),
]
DISCRETE_GRID = [
    (0.5, 0.5), (1.0, 0.0), (0.5, 1.0), (0.75, 0.5), (1.0, 1.0), (2.0, 1.0),
    (0.6, 0.4), (0.8, 0.3), (1.5, 0.5), (0.5, 0.75), (0.9, 0.2), (1.0, 0.5),
]


def test_criterion_2_closed_form_attainment():
    groups = [(2,), (6,), (2, 2, 2), (3, 4), (64,)]
    masses = [1.0, 2.0, 0.5, 1.5, 0.75]
    worst = 0.0
    for orders, mass in zip(groups, masses):
        cspec = GroupSpec(orders=orders, view=COMPACT, mass=mass)
        chi = character_function(cspec, cspec.elements()[1])
        for u, v in COMPACT_GRID:
            p, q = exponent_value(u), exponent_value(v)
            target = closed_form_cpq(cspec, p, q)
            worst = max(worst, abs(ratio(chi, p, q) - target) / target)
        dspec = GroupSpec(orders=orders, view=DISCRETE, mass=mass)
        d = delta(dspec)
        for u, v in DISCRETE_GRID:
            p, q = exponent_value(u), exponent_value(v)
            target = closed_form_cpq(dspec, p, q)
            worst = max(worst, abs(ratio(d, p, q) - target) / target)
    report(2, f"characters/deltas attain closed forms (worst rel err {worst:.2e})", worst <= 1e-12)


def test_criterion_3_estimator_oracle():
    config = EstimatorConfig(restarts=16, max_iters=3000)
    worst_err = 0.0
    worst_excess = -math.inf
    for orders in [(2,), (3,), (4,), (5,), (6,), (2, 3)]:
        for view, grid in ((COMPACT, COMPACT_GRID), (DISCRETE, DISCRETE_GRID)):
            spec = GroupSpec(orders=orders, view=view, mass=1.0)
            for u, v in grid:
                p, q = exponent_value(u), exponent_value(v)
                target = closed_form_cpq(spec, p, q)
                est = ascent_estimate(spec, p, q, config)
                worst_err = max(worst_err, abs(est.value - target))
                worst_excess = max(worst_excess, est.value - target)
    ok = worst_err <= 1e-6 and worst_excess <= 1e-9
    report(
        3,
        f"estimates match closed forms on tiny groups (err {worst_err:.2e}, "
        f"excess {worst_excess:.2e})",
        ok,
    )


def test_criterion_4_exact_witness_ratios():
    worst = 0.0

    def check(pt):
        nonlocal worst
        worst = max(worst, abs(pt.ratio - pt.prediction) / pt.prediction)

    sub2 = [subgroup_indicator_witness(2, n, 1.0, 1.0) for n in range(1, 21)]
    sub3 = [subgroup_indicator_witness(3, n, 1.0, 2.0) for n in range(1, 13)]
    orbits = [full_orbit_witness(m, 4.0, 4.0) for m in (4, 8, 16, 32, 64, 128, 256, 512, 1024)]
    chirp2 = [chirp_witness(2, n, 1.0) for n in range(1, 9)]
    chirp3 = [chirp_witness(3, n, 1.5) for n in range(1, 7)]
    for family in (sub2, sub3, orbits, chirp2, chirp3):
        for pt in family:
            check(pt)

    slope_errs = [
        abs(fit_growth(sub2).slope - 1.0),  # |1/p + 1/q - 1| = 1
        abs(fit_growth(sub3).slope - 0.5),  # |1 + 1/2 - 1| = 1/2
        abs(fit_growth(orbits).slope - 0.5),  # |1 - 1/4 - 1/4| = 1/2
    ]
    ok = worst <= 1e-12 and max(slope_errs) <= 1e-6
    report(
        4,
        f"exact families match closed-form ratios (err {worst:.2e}) and growth "
        f"slopes (err {max(slope_errs):.2e})",
        ok,
    )


def test_criterion_5_arc_witness():
    points = []
    ok_bounds = True
    for k in (4, 8, 16, 32, 64):
        pt = arc_indicator_witness(k, 200 * k, 1.0, 1.0)
        points.append(pt)
        ok_bounds = ok_bounds and pt.ratio >= 0.5 * k * (1 - 1e-9)
    slope = fit_growth(points, use_tail=False).slope
    ok = ok_bounds and abs(slope - 1.0) <= 0.1
    report(5, f"arc witnesses beat the k/2 bound with growth slope {slope:.4f}", ok)


def test_criterion_6_lacunary_compact():
    small = lacunary_compact_witness(64, 4.0, 1.0)
    large = lacunary_compact_witness(4096, 4.0, 1.0)
    ratio_factor = large.ratio / small.ratio
    norm_factor = large.norm_f / small.norm_f
    ok = ratio_factor >= 2.0 and norm_factor <= 1.5
    report(
        6,
        f"lacunary compact ratio grows x{ratio_factor:.3f} while the L4 norm "
        f"moves only x{norm_factor:.4f}",
        ok,
    )


def test_criterion_7_lacunary_discrete():
    # quadrature L2 vs the exact value, n up to 16 at M = 8 * 2^n
    worst_l2 = 0.0
    for n in (4, 8, 12, 16):
        w = lacunary_discrete_witness(n, 3.0, 1.0)
        worst_l2 = max(worst_l2, abs(w.norm_fhat_l2 - w.parseval_l2))
    witnesses = [lacunary_discrete_witness(n, 3.0, 1.0) for n in (8, 10, 12, 14, 16)]
    l1 = [w.norm_fhat for w in witnesses]
    increasing = all(b > a for a, b in zip(l1, l1[1:]))
    # the time-side L3 norms are stable: each within 5% of the deepest value,
    # monotone toward and below the series limit
    limit = float(sum(k ** -1.5 for k in range(1, 10**6)) ** (1.0 / 3.0))
    l3 = [w.norm_f for w in witnesses]
    stable = all(abs(x - l3[-1]) <= 0.05 * l3[-1] for x in l3)
    bounded = all(x <= limit for x in l3) and all(b >= a for a, b in zip(l3, l3[1:]))
    ok = worst_l2 <= 1e-6 and increasing and stable and bounded
    report(
        7,
        f"lacunary discrete: quadrature L2 err {worst_l2:.2e}, L1 of the "
        f"transform increasing, L3 stable within 5%",
        ok,
    )


def test_criterion_8_clt_witness():
    w16 = clt_delta_witness(2, 16, 3.0, 1.0)
    tail_ok = w16.tail_probability >= 0.05
    l1 = [clt_delta_witness(2, n, 3.0, 1.0).norm_fhat for n in (8, 12, 16)]
    increasing = all(b > a for a, b in zip(l1, l1[1:]))
    ok = tail_ok and increasing
    report(
        8,
        f"CLT witness tail probability {w16.tail_probability:.4f} >= 0.05 and "
        f"L1 transform norms increase",
        ok,
    )


def test_criterion_9_uncertainty_principles():
    rng = np.random.default_rng(109)
    cspec = GroupSpec(orders=(8,), view=COMPACT, mass=1.0)
    dspec = GroupSpec(orders=(8,), view=DISCRETE, mass=1.0)
    # six grid points per weighted validity region
    u_c = [(0.6, 0.2), (0.6, 0.4), (0.75, 0.25), (0.75, 0.1), (0.9, 0.1), (0.55, 0.45)]
    u_d = [(0.6, 0.4), (0.8, 0.4), (1.0, 0.3), (1.5, 0.2), (0.55, 0.45), (2.0, 0.45)]
    worst_weighted = math.inf
    worst_unweighted = math.inf
    for _ in range(1000):
        for spec, grid in ((cspec, u_c), (dspec, u_d)):
            vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            vals /= math.sqrt(float(np.sum(np.abs(vals) ** 2) * spec.primal_atom))
            psi = MeasuredFunction(spec, TIME, vals)
            for u, v in grid:
                rep = weighted_up_margin(psi, 1.0 / u, 1.0 / v)
                worst_weighted = min(worst_weighted, rep.margin)
        # unweighted: random exponents with 1/p + 1/q >= 1
        u = float(rng.uniform(0.1, 2.0))
        v = float(rng.uniform(max(0.0, 1.0 - u), 2.0))
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vals /= math.sqrt(float(np.sum(np.abs(vals) ** 2) * cspec.primal_atom))
        rep = unweighted_up_margin(MeasuredFunction(cspec, TIME, vals), 1.0 / u, 1.0 / v)
        worst_unweighted = min(worst_unweighted, rep.margin)
    chi = character_function(cspec, (1,))
    d = delta(dspec)
    eq_ok = (
        abs(weighted_up_margin(chi, 1.5, 3.0).margin) <= 1e-12
        and abs(weighted_up_margin(d, 1.5, 3.0).margin) <= 1e-12
    )
    violator = weighted_up_violator(-10.0, 1.0 / 0.9, 1.0 / 0.4, COMPACT)
    ok = (
        worst_weighted >= -1e-9
        and worst_unweighted >= -1e-9
        and eq_ok
        and violator.achieved
        and violator.value <= -10.0
    )
    report(
        9,
        f"uncertainty margins >= -1e-9 (weighted {worst_weighted:.2e}, unweighted "
        f"{worst_unweighted:.2e}), equality exact, violator reaches {violator.value:.2f}",
        ok,
    )


def test_criterion_10_support_bounds():
    rng = np.random.default_rng(113)
    ok = True
    for _ in range(10**4):
        orders = random_orders(rng, 256)
        view = COMPACT if rng.integers(2) else DISCRETE
        spec = GroupSpec(orders=orders, view=view, mass=1.0)
        vals = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
        f = MeasuredFunction(spec, TIME, vals)
        n_t, n_w, product = donoho_stark_check(f)
        ok = ok and product >= spec.size and support_product(f) >= 1 - 1e-12
    # equality exactly on characters and deltas
    spec = GroupSpec(orders=(3, 4), view=COMPACT, mass=1.0)
    ok = ok and donoho_stark_check(character_function(spec, (2, 1)))[2] == spec.size
    ok = ok and donoho_stark_check(delta(spec))[2] == spec.size
    ok = ok and abs(support_product(character_function(spec, (2, 1))) - 1.0) <= 1e-12
    report(10, "support products >= 1 and N_t*N_w >= N on 10^4 random functions", ok)


def test_criterion_11_riesz_thorin_convexity():
    config = EstimatorConfig(restarts=12, max_iters=3000)
    segments = [
        [(0.2, 0.2), (0.3, 0.3), (0.4, 0.4), (0.5, 0.5)],
        [(0.6, 0.2), (0.6, 0.35), (0.6, 0.5)],
        [(0.25, 0.5), (0.5, 0.5), (0.75, 0.5), (1.0, 0.5)],
    ]
    worst = 0.0
    for view in (COMPACT, DISCRETE):
        spec = GroupSpec(orders=(4,), view=view, mass=1.0)
        for seg in segments:
            pts = []
            for u, v in seg:
                est = ascent_estimate(spec, 1.0 / u, 1.0 / v, config)
                pts.append((u, v, math.log(est.value)))
            worst = max(worst, log_convexity_check(pts))
    # closed forms inside one finite region are exactly affine
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=2.0)
    closed = [
        (u, v, math.log(closed_form_cpq(spec, 1.0 / u, 1.0 / v)))
        for u, v in [(0.2, 0.2), (0.3, 0.3), (0.4, 0.4)]
    ]
    closed_defect = log_convexity_check(closed)
    ok = worst <= 1e-6 and closed_defect == 0.0
    report(
        11,
        f"log convexity of estimates (defect {worst:.2e}) and closed forms "
        f"(defect {closed_defect:.2e})",
        ok,
    )
