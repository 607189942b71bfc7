import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfourier import estimator
from abelfourier.cli import main
from abelfourier.estimator import (
    EstimatorConfig,
    ascent_estimate,
    log_ratio_and_grad,
    ratio,
    structured_search,
)
from abelfourier.groups import COMPACT, DISCRETE, EXHAUSTIVE_CAP, GroupSpec, all_subgroups
from abelfourier.norms import EXTREMAL_FAMILIES, INF, closed_form_cpq, family_ratio, finite_cpq
from abelfourier.transform import MeasuredFunction, TIME, character_function, delta, forward
from abelfourier.witnesses import bi_unimodular_values
from oracles import log_convexity_check

# points inside the compact finite region: u + v <= 1, v <= 1/2
GRID = [
    (2.0, 2.0),
    (2.0, 4.0),
    (4.0, 8.0),
    (1.0, INF),
    (INF, 2.0),
    (INF, INF),
]


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(restarts=0)


def test_structured_search_compact_characters():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    for p, q in GRID:
        est = structured_search(spec, p, q)
        assert est.value == pytest.approx(1.0, rel=1e-12)


def test_structured_search_discrete_deltas():
    spec = GroupSpec(orders=(4,), view=DISCRETE, mass=0.25)
    est = structured_search(spec, 1.0, 1.0)
    assert est.value == pytest.approx(4.0, rel=1e-12)
    # witness really achieves the value
    assert ratio(est.witness, 1.0, 1.0) == pytest.approx(est.value, rel=1e-12)


def test_structured_search_parseval_point():
    for view, mass in ((COMPACT, 1.0), (DISCRETE, 1.0)):
        spec = GroupSpec(orders=(6,), view=view, mass=mass)
        est = structured_search(spec, 2.0, 2.0)
        assert est.value == pytest.approx(1.0, rel=1e-12)


def _full_library_value(spec, p, q):
    """Best ratio over every character, every delta, every subgroup generated
    by at most two elements, the chirp (on (Z/r)^2n, r prime) and the constant."""
    elems = spec.elements()
    cands = [character_function(spec, chi).values for chi in elems]
    cands += [delta(spec, at=x).values for x in elems]
    for sub in all_subgroups(spec, max_generators=2):
        vals = np.zeros(spec.size, dtype=np.complex128)
        vals[[spec.index_of(x) for x in sub.members]] = 1.0
        cands.append(vals)
    r, k = spec.orders[0], len(spec.orders)
    if k % 2 == 0 and spec.orders == (r,) * k and all(r % f for f in range(2, r)):
        n = k // 2
        cands.append(np.array(
            [np.exp(2j * np.pi * sum(a * b for a, b in zip(x[:n], x[n:])) / r) for x in elems]
        ))
    cands.append(np.ones(spec.size, dtype=np.complex128))
    return max(ratio(MeasuredFunction(spec, TIME, vals), p, q) for vals in cands)


@st.composite
def _small_orders(draw, cap=36):
    orders = [draw(st.integers(2, cap // 2))]
    while 2 * math.prod(orders) <= cap and draw(st.booleans()):
        orders.append(draw(st.integers(2, cap // math.prod(orders))))
    return tuple(orders)


_EXPONENT = st.one_of(st.just(INF), st.floats(0.5, 0.99), st.floats(1.0, 8.0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    orders=st.one_of(st.sampled_from([(2, 2), (3, 3), (5, 5), (2, 2, 2, 2)]), _small_orders()),
    view=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
    p=_EXPONENT,
    q=_EXPONENT,
)
def test_structured_search_matches_full_library(orders, view, mass, p, q):
    spec = GroupSpec(orders=orders, view=view, mass=mass)
    found = structured_search(spec, p, q).value
    assert found == pytest.approx(finite_cpq(spec, p, q)[0], rel=1e-12)
    assert found >= _full_library_value(spec, p, q) * (1.0 - 1e-12)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(estimator, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(estimator, name, counted)
    return calls


def test_structured_search_evaluates_at_most_three_candidates(monkeypatch):
    calls = _count_calls(monkeypatch, "ratio")
    for orders in [(12,), (2, 3), (3, 3), (2, 2, 2, 2), (4, 6)]:
        calls.clear()
        structured_search(GroupSpec(orders=orders), 1.5, 3.0)
        assert len(calls) == 3


def test_estimate_norm_runs_no_search(monkeypatch, capsys):
    # the estimate command prints finite_cpq and calls no search
    calls = [
        _count_calls(monkeypatch, name)
        for name in ("structured_search", "ascent_estimate", "log_ratio_and_grad", "ratio")
    ]
    spec = GroupSpec(orders=(4,), view=DISCRETE, mass=1.0)
    for p, q in [(INF, 2.0), (1.5, INF), (INF, INF), (1.5, 3.0)]:
        assert main(["estimate", "--group", spec.describe(), "--p", repr(p), "--q", repr(q)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 0 and out["converged"]
        assert (out["estimate"], out["extremal"]) == finite_cpq(spec, p, q)
    assert all(not c for c in calls)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(61)
    spec = GroupSpec(orders=(5,), view=COMPACT, mass=1.0)
    eps = 1e-12
    h = 1e-6
    for p, q in [(1.0, 1.5), (2.0, 3.0), (0.7, 1.2), (4.0, 0.9)]:
        for _ in range(10):
            vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            _, grad = log_ratio_and_grad(vals, spec, p, q, eps)
            # real parameterization gradient is (2 Re g, 2 Im g)
            direction = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            analytic = 2.0 * float(
                np.sum(grad.real * direction.real + grad.imag * direction.imag)
            )
            fp, _ = log_ratio_and_grad(vals + h * direction, spec, p, q, eps)
            fm, _ = log_ratio_and_grad(vals - h * direction, spec, p, q, eps)
            numeric = (fp - fm) / (2.0 * h)
            assert abs(analytic - numeric) <= 1e-4 * max(1.0, abs(numeric))


def test_ascent_reaches_closed_form_tiny_groups():
    config = EstimatorConfig(restarts=8, max_iters=2000)
    for orders in [(2,), (3,), (5,), (2, 3)]:
        cspec = GroupSpec(orders=orders, view=COMPACT, mass=1.0)
        dspec = GroupSpec(orders=orders, view=DISCRETE, mass=1.0)
        for p, q in [(2.0, 4.0), (2.0, 2.0)]:
            target = closed_form_cpq(cspec, p, q)
            est = ascent_estimate(cspec, p, q, config)
            assert abs(est.value - target) <= 1e-6
            assert est.value <= target + 1e-9
        for p, q in [(1.0, 1.0), (2.0, 2.0)]:
            target = closed_form_cpq(dspec, p, q)
            est = ascent_estimate(dspec, p, q, config)
            assert abs(est.value - target) <= 1e-6
            assert est.value <= target + 1e-9


def test_estimate_is_sound_lower_bound():
    # estimates are achieved by their witnesses, even in infinite regions
    spec = GroupSpec(orders=(6,), view=COMPACT, mass=1.0)
    value, family = finite_cpq(spec, 1.0, 1.0)  # R2: true norm infinite at scale
    recomputed = ratio(estimator.EXTREMALS[family](spec), 1.0, 1.0)
    assert value == pytest.approx(recomputed, rel=1e-12)
    assert value >= 1.0


def test_infinite_exponents_fall_back_to_structured():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    est = ascent_estimate(spec, INF, INF)
    assert est.iterations == 0
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_determinism():
    spec = GroupSpec(orders=(4,), view=DISCRETE, mass=1.0)
    config = EstimatorConfig(restarts=6, seed=123)
    a = ascent_estimate(spec, 1.5, 1.0, config)
    b = ascent_estimate(spec, 1.5, 1.0, config)
    assert a.value == b.value
    assert np.array_equal(a.witness.values, b.witness.values)
    assert a.iterations == b.iterations


def test_log_convexity_closed_forms_affine():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=3.0)
    pts = []
    for t in np.linspace(0.0, 1.0, 5):
        u = 0.1 + 0.3 * t
        v = 0.1 + 0.2 * t
        pts.append((u, v, math.log(closed_form_cpq(spec, 1 / u, 1 / v))))
    assert log_convexity_check(pts) <= 1e-12


def test_log_convexity_detects_bump():
    pts = [(0.1, 0.1, 0.0), (0.2, 0.2, 1.0), (0.3, 0.3, 0.0)]
    assert log_convexity_check(pts) == pytest.approx(1.0)


def test_log_convexity_guards():
    with pytest.raises(ValueError):
        log_convexity_check([(0.1, 0.1, 0.0), (0.2, 0.2, 0.0)])
    with pytest.raises(ValueError):
        log_convexity_check([(0.1, 0.1, 0.0), (0.2, 0.3, 0.0), (0.3, 0.2, 0.0)])
    # duplicated points collapse to defect 0
    assert log_convexity_check([(0.1, 0.1, 0.5)] * 4) == 0.0


_FINITE_EXPONENT = st.one_of(st.floats(0.5, 0.99), st.floats(1.0, 8.0))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    orders=_small_orders(),
    view=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
    p=_EXPONENT,
    q=_EXPONENT,
)
def test_finite_cpq_is_best_of_three_candidate_ratios(orders, view, mass, p, q):
    spec = GroupSpec(orders=orders, view=view, mass=mass)
    value, family = finite_cpq(spec, p, q)
    ratios = {name: ratio(build(spec), p, q) for name, build in estimator.EXTREMALS.items()}
    assert tuple(ratios) == EXTREMAL_FAMILIES
    for name, measured in ratios.items():
        assert measured == pytest.approx(family_ratio(spec, name, p, q), rel=1e-12)
    assert value == pytest.approx(max(ratios.values()), rel=1e-12)
    assert ratios[family] == pytest.approx(value, rel=1e-12)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    orders=_small_orders(),
    view=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
    p=_FINITE_EXPONENT,
    q=_FINITE_EXPONENT,
    seed=st.integers(0, 2**16),
)
def test_ascent_oracle_never_exceeds_finite_cpq(orders, view, mass, p, q, seed):
    spec = GroupSpec(orders=orders, view=view, mass=mass)
    bound, _ = finite_cpq(spec, p, q)
    est = ascent_estimate(spec, p, q, EstimatorConfig(restarts=4, max_iters=200, seed=seed))
    assert est.value <= bound + 1e-12 * max(1.0, bound)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    orders=st.lists(st.integers(2, 40), min_size=1, max_size=3).map(tuple),
    view=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
)
def test_bi_unimodular_values_are_bi_unimodular(orders, view, mass):
    spec = GroupSpec(orders=orders, view=view, mass=mass)
    f = MeasuredFunction(spec, TIME, bi_unimodular_values(orders))
    assert np.max(np.abs(np.abs(f.values) - 1.0)) <= 1e-12
    level = spec.primal_atom * math.sqrt(spec.size)
    assert np.max(np.abs(np.abs(forward(f).values) / level - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "group, p, q, expected, family",
    [
        ("cyclic:16x16", 6.0, 0.8, 64.0, "bi_unimodular"),
        ("cyclic:16x16", 1.2, 1.5, 16.0, "delta"),
        ("cyclic:5;view=compact", 4.0, 1.5, 5 ** (1 / 6), "bi_unimodular"),
    ],
)
def test_estimate_norm_regressions(group, p, q, expected, family):
    spec = GroupSpec.parse(group)
    assert finite_cpq(spec, p, q) == (pytest.approx(expected, rel=1e-12), family)
    assert ratio(estimator.EXTREMALS[family](spec), p, q) == pytest.approx(expected, rel=1e-12)
    # the search over the same three candidates agrees; the old one missed 5^(1/6)
    assert structured_search(spec, p, q).value == pytest.approx(expected, rel=1e-12)


def test_finite_cpq_answers_past_the_cap():
    spec = GroupSpec(orders=(2048, 1024))
    assert spec.size > EXHAUSTIVE_CAP
    assert finite_cpq(spec, 6.0, 0.8) == (pytest.approx(2.0 ** (21 * 0.75), rel=1e-12),
                                          "bi_unimodular")
