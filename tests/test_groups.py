import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfourier.groups import (
    COMPACT,
    DISCRETE,
    CapacityError,
    GroupSpec,
    Subgroup,
    all_subgroups,
)
from abelfourier.norms import lp_norm
from abelfourier.transform import MeasuredFunction, TIME, read_csv, write_csv


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(orders=())
    with pytest.raises(ValueError):
        GroupSpec(orders=(1,))
    with pytest.raises(ValueError):
        GroupSpec(orders=(4,), view="neither")
    with pytest.raises(ValueError):
        GroupSpec(orders=(4,), mass=0.0)
    with pytest.raises(ValueError):
        GroupSpec(orders=(4,), mass=-1.0)
    # past 2^62 points, the machine integer range, is a capacity error
    with pytest.raises(CapacityError, match="machine integer range"):
        GroupSpec(orders=(2**32, 2**32))
    assert GroupSpec(orders=(2**31, 2**31)).size == 2**62


@pytest.mark.parametrize("orders,size", [((2,), 2), ((3, 4), 12), ((2, 2, 2), 8)])
def test_size(orders, size):
    assert GroupSpec(orders=orders).size == size


def test_compact_measures():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=2.0)
    assert spec.primal_total == 2.0
    assert spec.primal_atom == 0.5
    assert spec.dual_atom == 0.5
    assert spec.dual_total == 2.0


def test_discrete_measures():
    spec = GroupSpec(orders=(4,), view=DISCRETE, mass=0.25)
    assert spec.primal_atom == 0.25
    assert spec.primal_total == 1.0
    assert spec.dual_total == 4.0
    assert spec.dual_atom == 1.0


def test_measure_matching_random():
    # primal_atom * dual_atom * size == 1 in both views
    rng = np.random.default_rng(7)
    for _ in range(200):
        orders = tuple(int(rng.integers(2, 12)) for _ in range(int(rng.integers(1, 4))))
        view = COMPACT if rng.integers(2) else DISCRETE
        mass = float(rng.uniform(0.1, 5.0))
        spec = GroupSpec(orders=orders, view=view, mass=mass)
        assert spec.primal_atom * spec.dual_atom * spec.size == pytest.approx(1.0)
        assert spec.primal_atom * spec.size == pytest.approx(spec.primal_total)
        assert spec.dual_atom * spec.size == pytest.approx(spec.dual_total)


def test_elements_order_and_indexing():
    spec = GroupSpec(orders=(2, 3))
    elems = spec.elements()
    assert elems[0] == spec.identity == (0, 0)
    assert elems == sorted(elems)
    for i, x in enumerate(elems):
        assert spec.index_of(x) == i
        assert spec.element_at(i) == x


def test_arithmetic():
    spec = GroupSpec(orders=(4, 6))
    assert spec.add((3, 5), (2, 2)) == (1, 1)
    assert spec.negate((1, 2)) == (3, 4)
    assert spec.scale(5, (1, 1)) == (1, 5)
    assert spec.reduce((-1, 7)) == (3, 1)


@pytest.mark.parametrize(
    "orders,x,order",
    [((4,), (1,), 4), ((4,), (2,), 2), ((4,), (0,), 1), ((4, 6), (2, 3), 2), ((4, 6), (1, 1), 12)],
)
def test_element_order(orders, x, order):
    assert GroupSpec(orders=orders).element_order(x) == order


def test_pairing_exact_and_bilinear():
    spec = GroupSpec(orders=(3, 4))
    rng = np.random.default_rng(11)
    for _ in range(100):
        chi = tuple(int(v) for v in rng.integers(0, 12, size=2))
        x = tuple(int(v) for v in rng.integers(0, 12, size=2))
        y = tuple(int(v) for v in rng.integers(0, 12, size=2))
        lhs = spec.char_value(chi, spec.add(spec.reduce(x), spec.reduce(y)))
        rhs = spec.char_value(chi, x) * spec.char_value(chi, y)
        assert abs(lhs - rhs) < 1e-12
        assert abs(abs(spec.char_value(chi, x)) - 1.0) < 1e-15


def test_pairing_symmetric_in_chi_and_x():
    spec = GroupSpec(orders=(6, 10))
    for chi in [(1, 3), (5, 7), (2, 0)]:
        for x in [(4, 9), (1, 1), (0, 5)]:
            assert spec.pairing_exponent(chi, x) == spec.pairing_exponent(x, chi)


def test_char_sum_orthogonality():
    # sum over x of chi(x) is size for trivial chi, 0 otherwise
    spec = GroupSpec(orders=(3, 4))
    for chi in spec.elements():
        total = sum(spec.char_value(chi, x) for x in spec.elements())
        expected = spec.size if chi == spec.identity else 0.0
        assert abs(total - expected) < 1e-10


def test_describe_parse_roundtrip():
    for spec in [
        GroupSpec(orders=(4,), view=COMPACT, mass=1.0),
        GroupSpec(orders=(2, 3, 5), view=DISCRETE, mass=0.5),
        GroupSpec(orders=(7,), view=COMPACT, mass=2.25),
    ]:
        assert GroupSpec.parse(spec.describe()) == spec


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    orders=st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple),
    view=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.one_of(
        st.sampled_from([1.0, 0.5, 1.25, 1.23456789, 1 / 3, 1e-300, 1e300, 5e-324]),
        st.floats(min_value=5e-324, max_value=1e300),
    ),
)
def test_describe_parse_and_csv_roundtrip_keep_the_spec(orders, view, mass):
    spec = GroupSpec(orders=orders, view=view, mass=mass)
    assert GroupSpec.parse(spec.describe()) == spec
    f = MeasuredFunction(spec, TIME, np.arange(spec.size) + 0.5j)
    back = read_csv(write_csv(f))
    assert back.spec == spec
    assert lp_norm(back, 3.0) == lp_norm(f, 3.0)


@pytest.mark.parametrize(
    "mass, text",
    [
        (1.0, "cyclic:2x3;view=discrete;mass=1"),
        (0.5, "cyclic:2x3;view=discrete;mass=0.5"),
        (1.25, "cyclic:2x3;view=discrete;mass=1.25"),
        (1.23456789, "cyclic:2x3;view=discrete;mass=1.23456789"),  # was mass=1.23457
    ],
)
def test_describe_mass_bytes(mass, text):
    assert GroupSpec(orders=(2, 3), view=DISCRETE, mass=mass).describe() == text


def test_parse_examples():
    spec = GroupSpec.parse("cyclic:2x2x2;view=compact;mass=1")
    assert spec.orders == (2, 2, 2)
    assert spec.view == COMPACT
    assert spec.mass == 1.0
    with pytest.raises(ValueError):
        GroupSpec.parse("whatever:3")
    with pytest.raises(ValueError):
        GroupSpec.parse("cyclic:3;foo=bar")


def test_capacity_guard():
    big = GroupSpec(orders=(2,) * 30)
    with pytest.raises(CapacityError):
        big.elements()


def test_subgroup_closure():
    spec = GroupSpec(orders=(4, 4))
    sub = Subgroup.from_generators(spec, [(2, 0), (0, 2)])
    assert len(sub) == 4
    assert (2, 2) in sub
    assert (1, 0) not in sub


def test_annihilator_size_product():
    spec = GroupSpec(orders=(4, 6))
    for gens in [[], [(1, 0)], [(2, 0)], [(2, 3)], [(1, 1)]]:
        sub = Subgroup.from_generators(spec, gens)
        ann = sub.annihilator()
        assert len(sub) * len(ann) == spec.size
        # annihilator members really are trivial on the subgroup
        for chi in ann.members:
            for h in sub.members:
                assert spec.char_is_trivial_at(chi, h)


def test_annihilator_of_full_group_is_trivial():
    spec = GroupSpec(orders=(6,))
    full = Subgroup.from_generators(spec, [(1,)])
    assert len(full.annihilator()) == 1


def test_all_subgroups_cyclic_complete():
    # subgroups of Z/12 are one per divisor of 12
    spec = GroupSpec(orders=(12,))
    subs = all_subgroups(spec, max_generators=1)
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2, 3, 4, 6, 12]


def test_all_subgroups_deterministic():
    spec = GroupSpec(orders=(2, 4))
    a = all_subgroups(spec, max_generators=2)
    b = all_subgroups(spec, max_generators=2)
    assert [s.sorted_members() for s in a] == [s.sorted_members() for s in b]


@pytest.mark.parametrize("max_generators", [0, 3, -1])
def test_all_subgroups_takes_one_or_two_generators(max_generators):
    with pytest.raises(ValueError, match="max_generators must be 1 or 2"):
        all_subgroups(GroupSpec(orders=(2, 2)), max_generators=max_generators)


def test_element_order_divides_lcm():
    spec = GroupSpec(orders=(4, 6, 9))
    rng = np.random.default_rng(3)
    lcm = math.lcm(4, 6, 9)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(0, 36, size=3))
        assert lcm % spec.element_order(x) == 0
