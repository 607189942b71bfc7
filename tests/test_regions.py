import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelfourier.cli import main
from abelfourier.estimator import structured_search
from abelfourier.groups import COMPACT, DISCRETE, GroupSpec
from abelfourier.norms import (
    EXTREMAL_FAMILIES,
    FINITE_LABELS,
    INF,
    classify,
    closed_form_cpq,
    family_exponents,
    family_ratio,
    finite_cpq,
    finite_cpq_at,
    finite_exponent,
    log_lp_norm,
    lp_norm,
    recip,
)
from abelfourier.transform import (
    FREQUENCY,
    MeasuredFunction,
    TIME,
    character_function,
    delta,
    forward,
)
from oracles import exponent_value, hausdorff_young_check, holder_conjugate


def test_recip():
    assert recip(INF) == 0.0
    assert recip(2.0) == 0.5
    assert recip(0.5) == 2.0
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            recip(bad)
    # the smallest normal float has a finite reciprocal; a subnormal may not
    assert recip(2.0**-1022) == 2.0**1022
    for tiny in (1e-320, 5e-324, 2.0**-1024):
        with pytest.raises(ValueError, match=f"exponent {tiny!r} is too small"):
            recip(tiny)


def test_exponent_roundtrip():
    for p in (0.25, 1.0, 2.0, 7.5, INF):
        assert exponent_value(recip(p)) == p
    assert exponent_value(0.0) == INF


def test_holder_conjugate():
    assert holder_conjugate(1.0) == INF
    assert holder_conjugate(INF) == 1.0
    assert holder_conjugate(2.0) == 2.0
    assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        holder_conjugate(0.5)


def test_lp_norm_examples():
    # constant 1 on a compact mass-1 group has every norm equal to 1
    spec = GroupSpec(orders=(6,), view=COMPACT, mass=1.0)
    ones = MeasuredFunction(spec, TIME, np.ones(6, dtype=np.complex128))
    for p in (0.5, 1.0, 2.0, 3.0, INF):
        assert lp_norm(ones, p) == pytest.approx(1.0)
    # delta with unit atoms
    dspec = GroupSpec(orders=(5,), view=DISCRETE, mass=1.0)
    assert lp_norm(delta(dspec), 3.0) == pytest.approx(1.0)
    # quasi-norm: (1,1) on Z/2 with atoms 1 at p=1/2 gives (1+1)^2 = 4
    qspec = GroupSpec(orders=(2,), view=DISCRETE, mass=1.0)
    two_ones = MeasuredFunction(qspec, TIME, np.ones(2, dtype=np.complex128))
    assert lp_norm(two_ones, 0.5) == pytest.approx(4.0)


def test_lp_norm_homogeneity():
    rng = np.random.default_rng(41)
    spec = GroupSpec(orders=(4, 3), view=COMPACT, mass=2.0)
    f = MeasuredFunction(spec, TIME, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    for p in (0.5, 1.0, 2.5, INF):
        c = -1.5 + 2.0j
        scaled = MeasuredFunction(spec, TIME, c * f.values)
        assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p))


@pytest.mark.parametrize("side", [TIME, FREQUENCY])
@pytest.mark.parametrize("level", [1e-3, 1e3])
@pytest.mark.parametrize("p", [200.0, 1e4])
def test_lp_norm_large_p_neither_underflows_nor_overflows(side, level, p):
    spec = GroupSpec(orders=(72,), view=COMPACT, mass=1.0)
    f = MeasuredFunction(spec, side, np.full(72, level, dtype=np.complex128))
    atom = spec.primal_atom if side == TIME else spec.dual_atom
    assert lp_norm(f, p) == pytest.approx(level * (72 * atom) ** (1.0 / p), rel=1e-12)
    # one large value among small ones: the norm is near the largest
    vals = np.full(72, level * 1e-3, dtype=np.complex128)
    vals[5] = level
    g = MeasuredFunction(spec, side, vals)
    expected = level * ((1.0 + 71 * 1e-3**p) * atom) ** (1.0 / p)
    assert lp_norm(g, p) == pytest.approx(expected, rel=1e-12)


def test_log_lp_norm_is_log_of_lp_norm_and_finite_past_the_float_range():
    rng = np.random.default_rng(43)
    spec = GroupSpec(orders=(4, 3), view=DISCRETE, mass=0.5)
    f = MeasuredFunction(spec, TIME, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    for p in (0.25, 1.0, 2.5, 1e4, INF):
        assert log_lp_norm(f, p) == pytest.approx(math.log(lp_norm(f, p)), rel=1e-12, abs=1e-12)
    # 6^(1/p) past the float range: lp_norm is inf, its logarithm is not
    ones = MeasuredFunction(spec, TIME, np.ones(12, dtype=np.complex128))
    assert lp_norm(ones, 1e-3) == INF
    assert log_lp_norm(ones, 1e-3) == pytest.approx(1e3 * math.log(6.0), rel=1e-12)
    zero = MeasuredFunction(spec, TIME, np.zeros(12, dtype=np.complex128))
    assert log_lp_norm(zero, 2.0) == -INF


def test_structured_search_sees_the_delta_at_large_q():
    # the constant's and the delta's norms at q = 200 underflowed to 0 before
    spec = GroupSpec(orders=(72,), view=COMPACT, mass=1.0)
    found = structured_search(spec, 1 / 1.116, 200.0).value
    assert found == pytest.approx(72 ** (1.116 + 0.005 - 1.0), rel=1e-12)


_RECIP = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]), st.floats(0.0, 3.0))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(side=st.sampled_from([COMPACT, DISCRETE]), u=_RECIP, v=_RECIP)
def test_finite_exponent_is_zero_exactly_on_finite_regions(side, u, v):
    exponent, _ = finite_exponent(side, u, v)
    assert exponent >= 0.0
    assert (exponent == 0.0) == (classify(side, u, v).label in FINITE_LABELS)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    orders=st.lists(st.integers(2, 64), min_size=1, max_size=3).map(tuple),
    side=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
    u=_RECIP,
    v=_RECIP,
)
def test_finite_cpq_equals_closed_form_on_finite_regions(orders, side, mass, u, v):
    spec = GroupSpec(orders=orders, view=side, mass=mass)
    p, q = exponent_value(u), exponent_value(v)
    value, _ = finite_cpq(spec, p, q)
    closed = closed_form_cpq(spec, p, q)
    if closed == INF:
        assert finite_exponent(side, recip(p), recip(q))[0] > 0.0
    else:
        assert value == closed


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    orders=st.lists(st.integers(2, 64), min_size=1, max_size=3).map(tuple),
    side=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
    u=_RECIP,
    v=_RECIP,
)
def test_finite_cpq_is_the_largest_family_ratio(orders, side, mass, u, v):
    spec = GroupSpec(orders=orders, view=side, mass=mass)
    p, q = exponent_value(u), exponent_value(v)
    ratios = [family_ratio(spec, family, p, q) for family in EXTREMAL_FAMILIES]
    value, family = finite_cpq(spec, p, q)
    assert value == max(ratios) == ratios[EXTREMAL_FAMILIES.index(family)]
    exps = family_exponents(side, recip(p), recip(q))
    assert family == EXTREMAL_FAMILIES[exps.index(max(exps))]


@pytest.mark.parametrize(
    "side, u, v, family",
    [
        (COMPACT, 0.5, 0.5, "constant"),  # all three exponents 0
        (COMPACT, 0.5, 0.75, "delta"),  # delta and bi-unimodular tie at 1/4
        (DISCRETE, 0.25, 0.5, "constant"),  # constant and bi-unimodular tie at 1/4
        (DISCRETE, 0.5, 0.5, "constant"),
    ],
)
def test_finite_cpq_ties_go_to_the_earlier_family(side, u, v, family):
    spec = GroupSpec(orders=(6, 10), view=side, mass=1.5)
    value, found = finite_cpq(spec, 1 / u, 1 / v)
    assert found == family
    ratios = [family_ratio(spec, f, 1 / u, 1 / v) for f in EXTREMAL_FAMILIES]
    assert ratios.index(max(ratios)) == EXTREMAL_FAMILIES.index(family)
    assert value == max(ratios)


def test_finite_cpq_past_the_float_range():
    spec = GroupSpec(orders=(2**40,), view=COMPACT, mass=1.0)
    assert finite_cpq(spec, 0.01, 1.0) == (INF, "delta")
    value, family = finite_cpq(spec, 4.0, 0.05)
    assert family == "bi_unimodular"
    assert value == pytest.approx(2.0 ** (40 * 19.5), rel=1e-12)


@pytest.mark.parametrize(
    "u,v,label,finite",
    [
        (0.5, 0.5, "R1", True),
        (0.0, 0.0, "R1", True),
        (1.0, 0.0, "R1", True),
        (0.5, 0.5 + 1e-12, "R2", False),
        (0.75, 0.4, "R2", False),
        (0.2, 0.6, "R3", False),
        (0.0, 0.8, "R3", False),
        (2.0, 3.0, "R2", False),
    ],
)
def test_classify_compact(u, v, label, finite):
    verdict = classify(COMPACT, u, v)
    assert verdict.label == label
    assert verdict.finite is finite


@pytest.mark.parametrize(
    "u,v,label,finite",
    [
        (0.5, 0.5, "R2'", True),
        (1.0, 0.0, "R2'", True),
        (2.0, 3.0, "R2'", True),
        (0.5, 0.4, "R1'", False),
        (0.25, 0.8, "R3'ext", False),
        (0.4, 0.7, "R3'ext", False),
        (0.49, 2.0, "R3'ext", False),
    ],
)
def test_classify_discrete(u, v, label, finite):
    verdict = classify(DISCRETE, u, v)
    assert verdict.label == label
    assert verdict.finite is finite


def test_classify_total_partition():
    rng = np.random.default_rng(43)
    for _ in range(100000):
        u, v = rng.uniform(0.0, 4.0, size=2)
        for side, finite_labels in ((COMPACT, {"R1"}), (DISCRETE, {"R2'"})):
            verdict = classify(side, u, v)
            assert verdict.finite == (verdict.label in finite_labels)


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(COMPACT, -0.1, 0.5)
    with pytest.raises(ValueError):
        classify("torus", 0.5, 0.5)


def test_closed_form_values():
    # compact mass 2, p=q=inf: alpha(X)^1 = 2
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=2.0)
    assert closed_form_cpq(spec, INF, INF) == pytest.approx(2.0)
    # compact mass 1: always 1 on the finite region
    one = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    for p, q in [(2.0, 4.0), (2.0, 2.0), (INF, 4.0), (4.0, 8.0)]:
        assert closed_form_cpq(one, p, q) == pytest.approx(1.0)
    # discrete Z/4 atom 1/4 has dual mass 4; p=q=1 gives 4
    dspec = GroupSpec(orders=(4,), view=DISCRETE, mass=0.25)
    assert closed_form_cpq(dspec, 1.0, 1.0) == pytest.approx(4.0)
    # infinite region
    assert closed_form_cpq(one, 1.0, 1.0) == INF
    assert closed_form_cpq(dspec, 4.0, 4.0) == INF


def test_closed_form_log_affine():
    # log value is affine along segments inside one finite region
    spec = GroupSpec(orders=(8,), view=COMPACT, mass=3.0)
    pts = [(0.1, 0.1), (0.2, 0.25), (0.3, 0.4)]  # collinear, inside R1
    logs = [math.log(closed_form_cpq(spec, 1 / u, 1 / v)) for u, v in pts]
    assert abs(logs[1] - 0.5 * (logs[0] + logs[2])) < 1e-12


def test_region_group_fills_value(capsys):
    group = ("--group", "cyclic:4;view=discrete;mass=0.25")
    assert main(["region", "--side", "discrete", "--u", "1", "--v", "1", *group]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 4.0
    assert main(["region", "--side", "compact", "--u", "0.1", "--v", "0.1", *group]) == 2
    err = capsys.readouterr().err
    assert err == "error: spec view 'discrete' does not match side 'compact'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--side", "compact", "--u", "0.9", "--v", "0.2"],
        ["sweep", "--kind", "region", "--side", "compact", "--u-values", "0.9,0.95",
         "--v-values", "0.2,0.5"],
    ],
    ids=["region", "sweep"],
)
def test_group_of_the_other_view_is_an_error_at_infinite_points(capsys, argv):
    assert not any(classify(COMPACT, u, v).finite for u in (0.9, 0.95) for v in (0.2, 0.5))
    assert main([*argv, "--group", "cyclic:6;view=discrete"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spec view 'discrete' does not match side 'compact'\n"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    orders=st.lists(st.integers(2, 64), min_size=1, max_size=3).map(tuple),
    side=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(1e-3, 1e3),
    u=_RECIP,
    v=_RECIP,
)
def test_finite_region_norm_is_within_an_ulp_of_the_exact_power(orders, side, mass, u, v):
    # mass^(1 - (u + v)) for the floats mass and 1 - (u + v), to 40 digits
    assume(classify(side, u, v).finite)
    value, _, _ = finite_cpq_at(GroupSpec(orders=orders, view=side, mass=mass), u, v)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(mass) ** Decimal(1.0 - (u + v))
    assert abs(Decimal(value) - exact) <= Decimal(math.ulp(value))


def test_random_functions_respect_closed_form():
    rng = np.random.default_rng(47)
    cspec = GroupSpec(orders=(3, 4), view=COMPACT, mass=1.0)
    dspec = GroupSpec(orders=(12,), view=DISCRETE, mass=1.0)
    for _ in range(200):
        fvals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        fc = MeasuredFunction(cspec, TIME, fvals)
        fd = MeasuredFunction(dspec, TIME, fvals)
        # compact R1 point (u=0.5, v=0.25)
        assert lp_norm(forward(fc), 4.0) <= (1 + 1e-9) * lp_norm(fc, 2.0)
        # discrete R2' point (u=1, v=1)
        bound = closed_form_cpq(dspec, 1.0, 1.0) * lp_norm(fd, 1.0)
        assert lp_norm(forward(fd), 1.0) <= (1 + 1e-9) * bound


def test_hausdorff_young():
    rng = np.random.default_rng(53)
    spec = GroupSpec(orders=(8,), view=COMPACT, mass=1.0)
    for _ in range(100):
        f = MeasuredFunction(spec, TIME, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        for p in (1.0, 4.0 / 3.0, 2.0):
            assert hausdorff_young_check(f, p) >= -1e-12 * lp_norm(f, p)
    # characters are extremal at every p in [1, 2]
    chi = character_function(spec, (3,))
    assert abs(hausdorff_young_check(chi, 4.0 / 3.0)) < 1e-12
    with pytest.raises(ValueError):
        hausdorff_young_check(chi, 3.0)
    with pytest.raises(ValueError):
        hausdorff_young_check(
            MeasuredFunction(
                GroupSpec(orders=(8,), view=DISCRETE, mass=1.0),
                TIME,
                np.ones(8, dtype=np.complex128),
            ),
            2.0,
        )
