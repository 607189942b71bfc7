import csv
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelfourier import transform
from abelfourier.groups import COMPACT, DISCRETE, CapacityError, GroupSpec
from abelfourier.norms import lp_norm, parseval_defect
from abelfourier.transform import (
    FREQUENCY,
    TIME,
    MeasuredFunction,
    SideError,
    _fft_flat,
    character_function,
    delta,
    dft_matrix,
    forward,
    inverse,
    read_csv,
    write_csv,
)
from oracles import double_transform, dual_forward, dual_group, grid, negate, reflect


def random_function(rng, spec, side=TIME):
    vals = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
    return MeasuredFunction(spec, side, vals)


def random_spec(rng, max_factor=9, max_factors=3):
    orders = tuple(
        int(rng.integers(2, max_factor)) for _ in range(int(rng.integers(1, max_factors + 1)))
    )
    view = COMPACT if rng.integers(2) else DISCRETE
    return GroupSpec(orders=orders, view=view, mass=float(rng.uniform(0.25, 4.0)))


def test_measured_function_validation():
    spec = GroupSpec(orders=(4,))
    with pytest.raises(ValueError):
        MeasuredFunction(spec, "sideways", np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        MeasuredFunction(spec, TIME, np.zeros(3, dtype=np.complex128))
    with pytest.raises(ValueError):
        MeasuredFunction(spec, TIME, np.array([np.nan, 0, 0, 0]))
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MeasuredFunction(spec, TIME, np.full(4, complex(big, big)))  # the sum overflows
        with pytest.raises(ValueError, match="^function values must be finite$"):
            MeasuredFunction(spec, TIME, np.array([big, -big, np.inf, -np.inf]))


_EDGE_FLOATS = [np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324,
                np.finfo(float).tiny / 2, -0.0, 0.0]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    size=st.integers(2, 40),
    finite=st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=80, max_size=80),
    bad=st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
    slot=st.integers(0, 79),
)
def test_finiteness_check_rejects_every_non_finite_slot(size, finite, bad, slot):
    """The check sums the float view, and builds a mask only when the sum is
    not finite: a nan or an infinity in any real or imaginary slot, next to
    any finite values, is rejected with the same message, and the largest
    finite float (whose sums overflow), subnormals and -0.0 pass, with no
    warning."""
    spec = GroupSpec(orders=(size,))
    parts = np.array(finite[: 2 * size])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = MeasuredFunction(spec, TIME, parts.view(np.complex128))
        assert np.array_equal(f.values.view(np.float64).view(np.uint64), parts.view(np.uint64))
        parts[slot % (2 * size)] = bad
        with pytest.raises(ValueError, match="^function values must be finite$"):
            MeasuredFunction(spec, FREQUENCY, parts.view(np.complex128))


def test_side_errors():
    spec = GroupSpec(orders=(4,))
    f = delta(spec)
    with pytest.raises(SideError):
        inverse(f)
    with pytest.raises(SideError):
        forward(forward(f))


def test_delta_transform_is_flat():
    # discrete atoms 1: deltahat is identically 1
    spec = GroupSpec(orders=(5,), view=DISCRETE, mass=1.0)
    fhat = forward(delta(spec))
    assert np.allclose(fhat.values, 1.0)


def test_character_transform_is_point_mass():
    # compact mass alpha: charhat is alpha at that character, 0 elsewhere
    spec = GroupSpec(orders=(3, 4), view=COMPACT, mass=2.0)
    chi = (2, 3)
    fhat = forward(character_function(spec, chi))
    expected = np.zeros(spec.size, dtype=np.complex128)
    expected[spec.index_of(chi)] = spec.mass
    assert np.allclose(fhat.values, expected, atol=1e-12)


def test_direct_and_fft_agree():
    """forward and inverse (FFT) against the dense reference matrix."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        spec = random_spec(rng)
        mat = dft_matrix(spec)
        f = random_function(rng, spec)
        a = spec.primal_atom * (mat @ f.values)
        b = forward(f).values
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))
        F = random_function(rng, spec, side=FREQUENCY)
        a = spec.dual_atom * (mat.conj().T @ F.values)
        b = inverse(F).values
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def test_linearity():
    rng = np.random.default_rng(5)
    spec = GroupSpec(orders=(3, 5), view=COMPACT, mass=1.5)
    f, g = random_function(rng, spec), random_function(rng, spec)
    a, b = 1.3 - 0.4j, -2.0 + 0.7j
    combo = MeasuredFunction(spec, TIME, a * f.values + b * g.values)
    lhs = forward(combo).values
    rhs = a * forward(f).values + b * forward(g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inverse_of_forward_is_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        spec = random_spec(rng)
        f = random_function(rng, spec)
        back = inverse(forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_parseval_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        spec = random_spec(rng)
        f = random_function(rng, spec)
        assert parseval_defect(f) < 1e-10 * max(1.0, lp_norm(f, 2.0))


def test_double_transform_is_reflection():
    rng = np.random.default_rng(17)
    for _ in range(50):
        spec = random_spec(rng)
        f = random_function(rng, spec)
        twice = double_transform(f)
        refl = reflect(f)
        assert np.max(np.abs(twice.values - refl.values)) < 1e-10


def _within_cap(orders, cap=2**16):
    """The longest prefix of orders whose group has at most cap points."""
    size, kept = 1, []
    for m in orders:
        size *= m
        if size > cap:
            break
        kept.append(m)
    return tuple(kept)


def _bits(values):
    return values.view(np.uint64)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    orders=st.lists(st.sampled_from([2, 2, 2, 3, 4, 5, 8]), min_size=1, max_size=20).map(_within_cap),
    view=st.sampled_from([COMPACT, DISCRETE]),
    mass=st.floats(0.25, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_are_numpy_fftn_bitwise(orders, view, mass, seed):
    """Order-2 axes take a hand-written butterfly; every transform still equals
    the atom times ``numpy.fft.fftn``/``ifftn`` bit for bit."""
    spec = GroupSpec(orders=orders, view=view, mass=mass)
    rng = np.random.default_rng(seed)
    f, F = random_function(rng, spec), random_function(rng, spec, side=FREQUENCY)
    fhat = forward(f)
    assert np.array_equal(_bits(fhat.values),
                          _bits(spec.primal_atom * np.fft.fftn(grid(f)).ravel()))
    F_bits = _bits(F.values).copy()
    want = _bits(spec.dual_atom * (spec.size * np.fft.ifftn(grid(F)).ravel()))
    assert np.array_equal(_bits(inverse(F).values), want)
    assert np.array_equal(_bits(F.values), F_bits)  # inverse scales its own array only
    handed = MeasuredFunction(spec, FREQUENCY, F.values.copy())
    buffer = handed.values
    in_place = inverse(handed, overwrite=True).values
    assert np.array_equal(_bits(in_place), want)
    assert np.shares_memory(in_place, buffer)
    dual = dual_group(spec)
    assert dual.primal_atom == pytest.approx(spec.dual_atom, rel=5e-16)
    assert np.array_equal(_bits(dual_forward(F).values),
                          _bits(dual.primal_atom * np.fft.fftn(grid(F)).ravel()))
    scale = np.max(np.abs(f.values))
    assert parseval_defect(f) <= 1e-12 * lp_norm(f, 2.0)
    assert np.max(np.abs(inverse(fhat).values - f.values)) <= 1e-12 * scale
    assert np.max(np.abs(double_transform(f).values - reflect(f).values)) <= 1e-12 * scale


@pytest.mark.parametrize("orders", [(2,), (2, 2, 2), (2, 3, 2), (3, 2, 5)])
def test_inverse_butterfly_keeps_signed_zeros(orders):
    # -0 + -0 = -0 beside a negative imaginary part: numpy halves the real
    # and imaginary parts apart, where a complex product by 0.5 gives +0.
    # (inverse's own complex scaling by N then turns both into +0.)
    values = np.full(math.prod(orders), complex(-0.0, -1.0))
    want = _bits(np.fft.ifftn(values.reshape(orders)).ravel())
    assert np.array_equal(_bits(_fft_flat(values, orders, inverse=True)), want)
    # in place, the butterfly's difference is taken before its sum overwrites a
    buffer = values.copy()
    in_place = _fft_flat(buffer, orders, inverse=True, overwrite=True)
    assert np.array_equal(_bits(in_place), want)
    assert np.shares_memory(in_place, buffer)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), (4, 3)])
@pytest.mark.parametrize("values", [complex(-0.0, -2.0), complex(-0.0, -0.0), complex(3.0, -0.0)])
def test_unit_atoms_scale_signed_zeros_as_numpy_does(orders, values):
    """A unit atom (discrete mass 1 forward, compact mass 1 inverse) is still
    a complex product by 1.0, which turns some signed zeros into +0: so
    skipping it would change the bytes that ``transform`` writes."""
    size = math.prod(orders)
    vals = np.full(size, values)
    vals[1::2] *= 0.5
    f = MeasuredFunction(GroupSpec(orders, view=DISCRETE), TIME, vals.copy())
    F = MeasuredFunction(GroupSpec(orders, view=COMPACT), FREQUENCY, vals.copy())
    grid = vals.reshape(orders)
    assert np.array_equal(_bits(forward(f).values), _bits(1.0 * np.fft.fftn(grid).ravel()))
    assert np.array_equal(_bits(inverse(F).values),
                          _bits(1.0 * (size * np.fft.ifftn(grid).ravel())))


@pytest.mark.parametrize("transform_fn, side, orders", [
    (forward, TIME, (2,)), (inverse, FREQUENCY, (3,)), (dual_forward, FREQUENCY, (2, 3)),
], ids=["forward", "inverse", "dual_forward"])
def test_transform_past_the_float_range_is_a_capacity_error(transform_fn, side, orders):
    """Finite values near the largest float overflow in the transform: a
    CapacityError naming the float range, and no numpy warning."""
    spec = GroupSpec(orders=orders, view=COMPACT)
    f = MeasuredFunction(spec, side, np.full(spec.size, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError, match="overflows the float range"):
            transform_fn(f)


def test_reflect_involution():
    rng = np.random.default_rng(23)
    spec = GroupSpec(orders=(4, 3, 2))
    f = random_function(rng, spec)
    assert np.array_equal(reflect(reflect(f)).values, f.values)


def test_reflect_matches_negation():
    spec = GroupSpec(orders=(4, 3))
    rng = np.random.default_rng(29)
    f = random_function(rng, spec)
    g = reflect(f)
    for x in spec.elements():
        assert g.values[spec.index_of(x)] == f.values[spec.index_of(negate(spec, x))]


def test_dft_matrix_unitary_scaled():
    spec = GroupSpec(orders=(3, 4))
    mat = dft_matrix(spec)
    gram = mat.conj().T @ mat
    assert np.allclose(gram, spec.size * np.eye(spec.size), atol=1e-10)


def test_dft_matrix_reduced_angles():
    m = 2048
    k = np.arange(m)
    roots = np.exp(-2j * np.pi * k / m)
    exact = roots[np.outer(k, k) % m]
    assert np.max(np.abs(dft_matrix(GroupSpec(orders=(m,))) - exact)) <= 1e-14


def test_atoms_by_side():
    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    f = delta(spec)
    assert f.atom == spec.primal_atom
    assert forward(f).atom == spec.dual_atom


def test_csv_roundtrip():
    rng = np.random.default_rng(31)
    for view in (COMPACT, DISCRETE):
        spec = GroupSpec(orders=(3, 2), view=view, mass=0.5)
        f = random_function(rng, spec)
        text = write_csv(f)
        g = read_csv(text)
        assert g.spec == spec
        assert g.side == TIME
        assert np.array_equal(g.values, f.values)


def test_csv_header_contents():
    spec = GroupSpec(orders=(2,), view=DISCRETE, mass=1.0)
    text = write_csv(delta(spec))
    lines = text.splitlines()
    assert lines[0] == "cyclic:2;view=discrete;mass=1,time"
    assert lines[1] == "index_tuple,re,im"


def test_csv_rejects_malformed():
    with pytest.raises(ValueError):
        read_csv("nope\nindex_tuple,re,im\n")
    spec = GroupSpec(orders=(3,))
    text = write_csv(delta(spec))
    for cut in ("", text.splitlines()[0] + "\n"):  # empty, or cut after the first row
        with pytest.raises(ValueError):
            read_csv(cut)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError):
        read_csv(truncated)


# Each case is read on cyclic:4 and must be rejected with ValueError.
MALFORMED_ROWS = {
    "duplicate_and_missing": ['"(0,)",1,0', '"(0,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "two_fields": ['"(0,)",1', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "unclosed_tuple": ['"(0,",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "float_coordinate": ['"(0.5,)",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "missing_close_paren": ['"(0",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
}


def cyclic4_csv(rows) -> str:
    return "\n".join(["cyclic:4;view=compact;mass=1,time", "index_tuple,re,im", *rows]) + "\n"


@pytest.mark.parametrize("rows", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_csv_rejects_malformed_rows(rows):
    with pytest.raises(ValueError):
        read_csv(cyclic4_csv(rows))


def test_csv_accepts_spacing_bare_ints_and_wrapped_coordinates():
    g = read_csv(cyclic4_csv(['"(7,)",1,0', "-3,2,0", '"( 2 )",3,0', '"(0 , )",4,0']))
    assert np.array_equal(g.values, [4, 2, 3, 1])
    spec = GroupSpec(orders=(2, 3))
    rows = ['"(1,2)",5,0', '"(0, 1)",1,0', '"( -1 ,\t4, )",4,0',
            '"(0,0)",0,0', '"(2, 2)",2,0', '"(1,0)",3,0']
    g = read_csv("\n".join([spec.describe() + ",time", "index_tuple,re,im", *rows]))
    assert np.array_equal(g.values, [0, 1, 2, 3, 4, 5])


def _old_write_csv(f: MeasuredFunction) -> str:
    """The per-row writer that ``write_csv`` replaced, kept as its byte reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.spec.describe(), f.side])
    writer.writerow(["index_tuple", "re", "im"])
    for idx, v in enumerate(f.values):
        writer.writerow([str(f.spec.element_at(idx)), repr(float(v.real)), repr(float(v.imag))])
    return out.getvalue()


def _values(rng, size, special=()) -> np.ndarray:
    """Complex values whose parts span the float range, led by ``special``."""
    parts = rng.standard_normal((2, size)) * 10.0 ** rng.integers(-300, 300, (2, size))
    parts[0, : len(special)] = special[:size]
    parts[1, : len(special)] = special[::-1][:size]
    values = np.empty(size, dtype=np.complex128)
    values.real, values.imag = parts  # assigned, so the signs of zeros are kept
    return values


def _signed_values(rng, size) -> np.ndarray:
    """``_values`` with about a tenth of them set to -0.0 - 0.0j."""
    values = _values(rng, size)
    values[rng.random(size) < 0.1] = complex(-0.0, -0.0)
    return values


@pytest.mark.parametrize("orders", [(5,), (2, 3), (4, 3, 2), (2, 2, 2, 2), (12, 11)])
def test_write_csv_matches_per_row_formula(orders):
    spec = GroupSpec(orders=orders, view=DISCRETE, mass=0.5)
    special = [-0.0, 5e-324, 1e308, 0.0, -5e-324, -1e308, 0.1, 1 / 3]
    values = _values(np.random.default_rng(len(orders)), spec.size, special)
    for side in (TIME, FREQUENCY):
        f = MeasuredFunction(spec, side, values)
        assert write_csv(f) == _old_write_csv(f)


@st.composite
def _csv_orders(draw, cap=512):
    orders = [draw(st.integers(2, cap // 2))]
    while len(orders) < 4 and 2 * math.prod(orders) <= cap and draw(st.booleans()):
        orders.append(draw(st.integers(2, cap // math.prod(orders))))
    return tuple(orders)


def _respell(rng, coords, orders) -> str:
    """One element's key with random spacing, coordinates shifted by multiples of
    their orders, an optional trailing comma, or a bare integer on one factor."""
    def space():
        return " " * int(rng.integers(3))

    parts = [space() + str(c + m * int(rng.integers(-2, 3))) + space() for c, m in zip(coords, orders)]
    if len(orders) == 1 and rng.integers(2):
        return parts[0]
    return "(" + ",".join(parts) + ("," if rng.integers(2) else "") + space() + ")"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    orders=_csv_orders(),
    view=st.sampled_from([COMPACT, DISCRETE]),
    side=st.sampled_from([TIME, FREQUENCY]),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_reads_shuffled_respelled_rows_exactly(orders, view, side, seed):
    rng = np.random.default_rng(seed)
    spec = GroupSpec(orders=orders, view=view, mass=int(rng.integers(1, 16)) / 4)
    values = _signed_values(rng, spec.size)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([spec.describe(), side])
    writer.writerow(["index_tuple", "re", "im"])
    for i in rng.permutation(spec.size).tolist():
        key = _respell(rng, spec.element_at(i), orders)
        writer.writerow([key, repr(values.real[i].item()), repr(values.imag[i].item())])
    g = read_csv(out.getvalue())
    assert g.spec == spec and g.side == side
    assert np.array_equal(g.values.view(np.uint64), values.view(np.uint64))


def test_csv_stream_write():
    spec = GroupSpec(orders=(2,))
    buf = io.StringIO()
    write_csv(delta(spec), stream=buf)
    assert read_csv(buf.getvalue()).spec == spec


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    orders=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    view=st.sampled_from([COMPACT, DISCRETE]),
    side=st.sampled_from([TIME, FREQUENCY]),
    data=st.data(),
)
def test_write_csv_bytes_equal_csv_writer(orders, view, side, data):
    """The hand-quoted value rows equal ``csv.writer``'s for any finite floats,
    both as the returned string and written to a stream."""
    spec = GroupSpec(orders=orders, view=view, mass=0.5)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    parts = data.draw(st.lists(finite, min_size=2 * spec.size, max_size=2 * spec.size))
    values = np.empty(spec.size, dtype=np.complex128)
    values.real, values.imag = np.reshape(parts, (2, spec.size))
    f = MeasuredFunction(spec, side, values)
    want = _old_write_csv(f)
    assert write_csv(f) == want
    buf = io.StringIO()
    assert write_csv(f, stream=buf) == ""
    assert buf.getvalue() == want


def _value_rows(f: MeasuredFunction):
    """The two header lines and the value lines of ``write_csv(f)``."""
    header, columns, *rows = write_csv(f).splitlines(keepends=True)
    return [header, columns], rows


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    orders=_csv_orders(),
    side=st.sampled_from([TIME, FREQUENCY]),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_reads_shuffled_canonical_rows_exactly(orders, side, seed):
    rng = np.random.default_rng(seed)
    spec = GroupSpec(orders=orders, view=DISCRETE, mass=0.5)
    values = _signed_values(rng, spec.size)
    head, rows = _value_rows(MeasuredFunction(spec, side, values))
    g = read_csv("".join(head + [rows[i] for i in rng.permutation(spec.size)]))
    assert g.spec == spec and g.side == side
    assert np.array_equal(_bits(g.values), _bits(values))


@pytest.mark.parametrize("orders", [(7,), (3, 4), (2, 3, 2)])
def test_csv_reads_canonical_file_with_one_respelled_key(orders):
    rng = np.random.default_rng(len(orders))
    spec = GroupSpec(orders=orders)
    values = _signed_values(rng, spec.size)
    head, rows = _value_rows(MeasuredFunction(spec, TIME, values))
    rows[2] = rows[2].replace("(", "( ", 1)
    g = read_csv("".join(head + rows))
    assert np.array_equal(_bits(g.values), _bits(values))


def test_csv_duplicate_canonical_key_has_the_regex_paths_message():
    spec = GroupSpec(orders=(3, 4))
    head, rows = _value_rows(random_function(np.random.default_rng(5), spec))
    _, re_part, im_part = rows[7].rsplit(",", 2)
    rows[7] = ",".join([rows[3].rsplit(",", 2)[0], re_part, im_part])  # (0, 3) in place of (1, 3)
    canonical_file = "".join(head + rows)
    respelled_file = "".join(head + [row.replace("(", "( ", 1) for row in rows])
    messages = []
    for text in (canonical_file, respelled_file):
        with pytest.raises(ValueError) as exc:
            read_csv(text)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "element (0, 3) has 2 rows, not exactly one"


def test_canonical_csv_never_runs_the_key_regex(monkeypatch):
    compiled = []
    key_pattern = transform._key_pattern

    def spy(k):
        compiled.append(k)
        return key_pattern(k)

    monkeypatch.setattr(transform, "_key_pattern", spy)
    readers = _spy_on_csv_reader(monkeypatch)
    rng = np.random.default_rng(9)
    spec = GroupSpec(orders=(4, 5))
    head, rows = _value_rows(random_function(rng, spec))
    read_csv("".join(head + rows))
    read_csv("".join(head + [rows[i] for i in rng.permutation(spec.size)]))
    assert compiled == []
    assert len(readers) == 2  # the header rows' reader of each file, no value-row pass
    read_csv("".join(head + [rows[0].replace("(", "( ", 1)] + rows[1:]))
    assert compiled == [2]
    assert len(readers) == 4  # a respelled key sends the value rows through csv.reader


def _spy_on_csv_reader(monkeypatch) -> list:
    """Patch ``csv.reader`` to record each call's input; returns the record."""
    readers = []
    csv_reader = csv.reader

    def spy(lines, *args, **kwargs):
        readers.append(lines)
        return csv_reader(lines, *args, **kwargs)

    monkeypatch.setattr(transform.csv, "reader", spy)
    return readers


def _rows_as_fields(lines):
    """``write_csv`` value lines as ``[quoted key, re, im]`` field lists."""
    return [line.rstrip("\n").rsplit(",", 2) for line in lines]


def _join_csv(head, rows, end="\n", last_end=True) -> str:
    lines = [line.rstrip("\n") for line in head] + [",".join(row) for row in rows]
    return end.join(lines) + (end if last_end else "")


# Variants of a canonical file that csv.reader and float read to the same
# values, and that the loadtxt route reads without a value-row csv.reader pass.
_LOADTXT_VARIANTS = {
    "crlf": lambda head, rows: _join_csv(head, rows, end="\r\n"),
    "no_last_newline": lambda head, rows: _join_csv(head, rows, last_end=False),
    "blank_lines": lambda head, rows: _join_csv(head, rows[:2] + [[""]] + rows[2:] + [[""]]),
    "quoted_values": lambda head, rows: _join_csv(head, [[k, f'"{x}"', y] for k, x, y in rows]),
    "spaced_values": lambda head, rows: _join_csv(head, [[k, f" {x}\t", f"\xa0{y} "] for k, x, y in rows]),
    "signs_and_zeros": lambda head, rows: _join_csv(head, [[k, "0" * 40 + x, "+" + y] for k, x, y in rows]),
}


@pytest.mark.parametrize("variant", _LOADTXT_VARIANTS.values(), ids=_LOADTXT_VARIANTS.keys())
def test_csv_variants_stay_on_the_loadtxt_route(monkeypatch, variant):
    spec = GroupSpec(orders=(3, 4))
    # Non-negative parts, since "+-1.5" and "00-1.5" are no floats.
    parts = np.abs(_values(np.random.default_rng(2), 2 * spec.size))
    values = parts[: spec.size] + 1j * parts[spec.size :]
    head, lines = _value_rows(MeasuredFunction(spec, TIME, values))
    text = variant(head, _rows_as_fields(lines))
    readers = _spy_on_csv_reader(monkeypatch)
    g = read_csv(text)
    assert len(readers) == 1
    assert np.array_equal(_bits(g.values), _bits(values))


@pytest.mark.parametrize("body", ["", "\n", "\r\n", "\n\n\n"], ids=["empty", "lf", "crlf", "lines"])
def test_csv_header_only_body_is_a_row_count_error_without_warnings(body):
    head, _ = _value_rows(delta(GroupSpec(orders=(3, 4))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body with no rows
        with pytest.raises(ValueError) as exc:
            read_csv("".join(head) + body)
    assert str(exc.value) == "expected 12 value rows, got 0"


_CYCLIC2_HEAD = ["cyclic:2;view=compact;mass=1,time", "index_tuple,re,im"]
_CYCLIC2_ROWS = ['"(0,)",1.5,-0.0', '"(1,)",-2,0.25']
_CYCLIC2_READ = ("cyclic:2;view=compact;mass=1", TIME,
                 _bits(np.array([complex(1.5, -0.0), complex(-2, 0.25)])).tolist())

# Header rows as csv.reader reads them over the text's first lines, split at
# "\n" as io.StringIO splits them, each with the value or error it reads to.
# test_csv_header_only_body_is_a_row_count_error_without_warnings has the
# header-only text with its last newline.
_HEADER_OUTCOMES = {
    "quoted_newline_in_spec": (
        "\n".join(['"cyclic:2;view=compact;mass=1\n",time', *_CYCLIC2_HEAD[1:], *_CYCLIC2_ROWS]) + "\n",
        _CYCLIC2_READ),
    "crlf_header_rows": (
        "\r\n".join(_CYCLIC2_HEAD) + "\r\n" + "\n".join(_CYCLIC2_ROWS) + "\n", _CYCLIC2_READ),
    "header_only_no_last_newline": (
        "\n".join(_CYCLIC2_HEAD), (ValueError, "expected 2 value rows, got 0")),
    "first_row_only_no_last_newline": (
        _CYCLIC2_HEAD[0], (ValueError, "second CSV row must be the header index_tuple,re,im")),
    # The last line has no "\n" to add to the field, which stays within the limit.
    "quoted_field_at_the_size_limit_to_the_end": (
        'a,"' + "x" * csv.field_size_limit(), (ValueError, "bad group spec 'a': expected 'cyclic:...' prefix")),
    "byte_order_mark": ("\ufeff" + "\n".join([*_CYCLIC2_HEAD, *_CYCLIC2_ROWS]), _CYCLIC2_READ),
    "two_byte_order_marks": (
        "\ufeff\ufeff" + "\n".join([*_CYCLIC2_HEAD, *_CYCLIC2_ROWS]),
        (ValueError, "bad group spec '\\ufeffcyclic:2;view=compact;mass=1': expected 'cyclic:...' prefix")),
}


@pytest.mark.parametrize("text, want", _HEADER_OUTCOMES.values(), ids=_HEADER_OUTCOMES.keys())
def test_csv_header_rows_read_as_pinned(text, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g = read_csv(text)
        except ValueError as exc:
            got = type(exc), str(exc)
        else:
            got = g.spec.describe(), g.side, _bits(g.values).tolist()
    assert got == want


@pytest.mark.parametrize("row", [0, 1], ids=["spec", "columns"])
def test_csv_oversize_header_field_is_a_value_error(row):
    lines = [*_CYCLIC2_HEAD, *_CYCLIC2_ROWS]
    lines[row] = '"' + " " * (csv.field_size_limit() + 1) + '",' + lines[row]
    with pytest.raises(ValueError) as exc:
        read_csv("\n".join(lines) + "\n")
    assert str(exc.value) == f"CSV header row: field larger than field limit ({csv.field_size_limit()})"


def test_csv_loadtxt_route_builds_no_stringio(monkeypatch):
    """The canonical and the shuffled file reach ``loadtxt`` as a list of
    lines, with no ``io.StringIO`` copy of the text; a respelled key does
    build one, in the ``csv.reader`` route, which shows the spy works."""
    rng = np.random.default_rng(13)
    spec = GroupSpec(orders=(4, 5))
    f = random_function(rng, spec)
    head, rows = _value_rows(f)
    texts = ["".join(head + rows), "".join(head + [rows[i] for i in rng.permutation(spec.size)])]
    buffers = []
    string_io = io.StringIO

    def spy(*args, **kwargs):
        buffers.append(args)
        return string_io(*args, **kwargs)

    monkeypatch.setattr(transform.io, "StringIO", spy)
    for text in texts:
        assert np.array_equal(_bits(read_csv(text).values), _bits(f.values))
    assert buffers == []
    read_csv("".join(head + [rows[0].replace("(", "( ", 1)] + rows[1:]))
    assert len(buffers) == 1


# Tokens put in a value field by the differential tests.  Some only float()
# takes (1_0, Arabic-Indic digits), some only loadtxt would take around a
# float (\x1c-\x1f), some are no float, and some parse to non-finite values.
_ODD_VALUES = ["1_0", "\u0661\u0662", "\u0661.5", "1e400", "-1e400", "nan", "-inf", "1e-400",
               "\x1c1", "1\x1f", "0x10", "1e", "", "#", "1 2", "1\x00"]
_ODD_SPACES = [" ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x1c", "\x1f", "\r"]

# Each mutation of one value row, with the arguments it is tried with.
_MUTATIONS = {
    "value": [(j, token) for j in (1, 2) for token in _ODD_VALUES],
    "quote": [0, 1, 2],
    "space": [(j, space, before) for j in (0, 1, 2) for space in _ODD_SPACES
              for before in (True, False)],
    "trailing_comma": [None],
    "two_fields": [None],
    # 16 characters make a key longer than every canonical key of the groups
    # of at most 64 elements drawn here.
    "long_key": [" ", "0", "x", ")"],
    "hash_key": ["bare", "inside", "outside"],
    "nul_key": [None],
    "respell": [None],
    "unquote": [None],
    # csv.reader keeps the line break inside the quotes, which loadtxt, given
    # a list of lines, would drop: '"1\n.5"' is no float, '"1.5"' is one.
    "quoted_newline": [0, 1, 2],
    "duplicate": [1, -1],
    "drop": [None],
}


def _mutate(rows, i, kind, arg):
    """Apply mutation ``kind`` with argument ``arg`` to value row ``i`` of
    ``rows`` (field lists, the key quoted), in place.  A field mutation of a
    row cut short by an earlier one does nothing."""
    row = rows[i]
    j = arg if kind in ("quote", "quoted_newline") else arg[0] if kind in ("value", "space") else 0
    if j >= len(row):
        return
    if kind == "value":
        row[j] = arg[1]
    elif kind == "quote":
        row[j] = f'"{row[j]}"'
    elif kind == "space":
        _, space, before = arg
        row[j] = space + row[j] if before else row[j] + space
    elif kind == "quoted_newline":
        field = row[j].strip('"')
        row[j] = f'"{field[:1]}\n{field[1:]}"'
    elif kind == "trailing_comma":
        row.append("")
    elif kind == "two_fields":
        del row[2:]
    elif kind == "long_key":
        row[0] = row[0][:-1] + arg * 16 + '"'
    elif kind == "hash_key":
        row[0] = {"bare": "#", "inside": '"#' + row[0][1:], "outside": "#" + row[0]}[arg]
    elif kind == "nul_key":
        row[0] = row[0][:-1] + '\x00"'
    elif kind == "respell":
        row[0] = row[0].replace("(", "( ", 1)
    elif kind == "unquote":
        row[0] = row[0].strip('"')
    elif kind == "duplicate":  # a neighbour's copy in place of row i
        rows[i] = list(rows[(i + arg) % len(rows)])
    else:
        del rows[i]


def _read_outcome(text, cold=False):
    """``read_csv``'s values as bits and ``write_csv``'s bytes for them, or
    its error's type and text; any warning is an error.  ``cold`` empties the
    key table before the read and again before the write."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if cold:
            transform._cached_key_table.cache_clear()
        try:
            g = read_csv(text)
        except ValueError as exc:
            return type(exc), str(exc)
    if cold:
        transform._cached_key_table.cache_clear()
    return g.spec, g.side, _bits(g.values).tolist(), write_csv(g)


def _assert_routes_agree(text):
    """Bit for bit the same values and written bytes, or the same error,
    with and without the loadtxt route, and with the key table cold or
    warm."""
    cold = _read_outcome(text, cold=True)
    warm = _read_outcome(text)  # the cold write left this shape's table
    with mock.patch.object(transform, "_loadtxt_rows", return_value=None):
        reader_only = _read_outcome(text)
    assert cold == warm == reader_only


@pytest.mark.parametrize("kind", _MUTATIONS)
def test_csv_routes_agree_on_each_mutation_alone(kind):
    spec = GroupSpec(orders=(3, 4))
    rng = np.random.default_rng(6)
    head, lines = _value_rows(MeasuredFunction(spec, TIME, _signed_values(rng, spec.size)))
    canonical = _rows_as_fields(lines)
    for rows in (canonical, [canonical[i] for i in rng.permutation(spec.size)]):
        for arg in _MUTATIONS[kind]:
            mutated = [list(row) for row in rows]
            _mutate(mutated, 1, kind, arg)
            for end in ("\n", "\r\n"):
                _assert_routes_agree(_join_csv(head, mutated, end=end))


# Bodies of a written file: canonical, shuffled, or with one row respelled,
# repeated or holding a line break in a quoted value.
_TABLE_BODIES = {
    "canonical": lambda rows: rows,
    "shuffled": lambda rows: rows[::-1],
    "respelled_key": lambda rows: _mutated(rows, "respell", None),
    "repeated_element": lambda rows: _mutated(rows, "duplicate", 1),
    "quoted_newline": lambda rows: _mutated(rows, "quoted_newline", 1),
}

# Key tables built in reading shapes A, B, A with the table kept: one per
# read whose rows ``loadtxt`` parses, whether they are placed or then go to
# the reader's route.  The quoted line break sends its body to the reader's
# route before the table is taken, and the reader parses keys without it;
# the read fails, so no write builds one either.
_TABLE_MISSES = {"canonical": 3, "shuffled": 3, "respelled_key": 3, "repeated_element": 3,
                 "quoted_newline": 0}


def _mutated(rows, kind, arg):
    rows = [list(row) for row in rows]
    _mutate(rows, 1, kind, arg)
    return rows


@pytest.mark.parametrize("body", _TABLE_BODIES)
def test_csv_key_table_cold_and_warm_agree_across_shapes(body):
    """Files of shapes A, B, A read and write as they do with the key table
    emptied before each step."""
    rng = np.random.default_rng(21)
    texts = []
    for orders in [(3, 4), (5, 2, 2)]:
        head, lines = _value_rows(MeasuredFunction(GroupSpec(orders=orders), TIME,
                                                   _signed_values(rng, math.prod(orders))))
        texts.append(_join_csv(head, _TABLE_BODIES[body](_rows_as_fields(lines))))
    cold = [_read_outcome(text, cold=True) for text in texts]
    transform._cached_key_table.cache_clear()
    assert [_read_outcome(texts[i]) for i in (0, 1, 0)] == [cold[0], cold[1], cold[0]]
    assert transform._cached_key_table.cache_info().misses == _TABLE_MISSES[body]


def test_key_table_is_immutable_and_kept_only_up_to_the_cap():
    rng = np.random.default_rng(22)
    small = random_function(rng, GroupSpec(orders=(4, 5)))
    head, rows = _value_rows(small)
    transform._cached_key_table.cache_clear()
    for text in ["".join(head + rows), "".join(head + rows[::-1])]:
        g = read_csv(text)
        table = transform._key_table(small.spec.orders)
        assert not np.shares_memory(g.values, table.column)
    assert isinstance(table.keys, tuple)
    with pytest.raises(ValueError):
        table.column[0] = "(9, 9)"
    assert table.column[0] == "(0, 0)"
    for array in table.hashes:  # built by the reversed read
        with pytest.raises(ValueError):
            array[0] = 0
    kept = transform._cached_key_table.cache_info()
    assert kept.currsize == 1
    past_cap = (2,) * 16 + (3,)
    assert math.prod(past_cap) > transform._KEY_TABLE_CAP
    big = MeasuredFunction(GroupSpec(orders=past_cap), TIME, np.zeros(math.prod(past_cap)))
    assert np.array_equal(read_csv(write_csv(big)).values, big.values)
    assert transform._cached_key_table.cache_info() == kept
    assert transform._key_table(small.spec.orders) is table
    at_cap = (2,) * 16
    assert transform._key_table(at_cap) is transform._key_table(at_cap)


@pytest.mark.parametrize("body", ["shuffled", "respelled_key", "repeated_element"])
def test_csv_routes_agree_when_every_key_hash_collides(body, monkeypatch):
    """With one hash for every key, the sorted hashes of any body of as many
    rows as elements match the canonical ones, so only the exact key check
    keeps a wrong placement out: the reader's route then reads the body."""
    monkeypatch.setattr(transform, "_key_hashes", lambda keys: np.zeros(len(keys), dtype=np.uint64))
    rng = np.random.default_rng(24)
    try:
        for orders in [(3, 4), (5, 2, 2), (16,)]:
            head, lines = _value_rows(MeasuredFunction(GroupSpec(orders=orders), TIME,
                                                       _signed_values(rng, math.prod(orders))))
            rows = _rows_as_fields(lines)
            for order in (range(len(rows)), rng.permutation(len(rows))):
                mutated = _TABLE_BODIES[body]([rows[i] for i in order])
                _assert_routes_agree(_join_csv(head, mutated))
    finally:
        transform._cached_key_table.cache_clear()  # no table keeps the constant hashes


@pytest.mark.parametrize("orders", [(16,), (2, 2, 2, 2), (4,) * 5, (16384,), (128, 128), (2,) * 12],
                         ids=str)
def test_shuffled_canonical_rows_are_placed_without_the_reader(orders, monkeypatch):
    """Shuffled rows of each shape of the benchmark's CSV files are placed by
    their key hashes, cold and warm: a fallback to ``csv.reader`` would read
    the same values, only slower."""
    def refuse(body, spec):
        raise AssertionError(f"reader route taken for {spec.orders}")

    rng = np.random.default_rng(25)
    f = random_function(rng, GroupSpec(orders=orders))
    head, rows = _value_rows(f)
    text = "".join(head + [rows[i] for i in rng.permutation(f.spec.size)])
    monkeypatch.setattr(transform, "_reader_rows", refuse)
    transform._cached_key_table.cache_clear()
    for _ in range(2):
        assert np.array_equal(_bits(read_csv(text).values), _bits(f.values))


def test_csv_with_too_few_rows_builds_no_key_table(monkeypatch):
    """A short body on a huge group fails on its row count before any key is
    built: the table of 2^40 keys would not fit in memory."""
    def refuse(orders):
        raise AssertionError(f"key table built for {orders}")

    monkeypatch.setattr(transform, "_index_keys", refuse)
    transform._cached_key_table.cache_clear()
    spec = "cyclic:1099511627776;view=compact;mass=1"
    for n, body in enumerate(["", '"(0,)",1.0,0.0\n', '"(0,)",1.0,0.0\n"(1,)",2.0,0.0\n']):
        with pytest.raises(ValueError, match=f"^expected 1099511627776 value rows, got {n}$"):
            read_csv(f"{spec},time\nindex_tuple,re,im\n{body}")


# Spellings of the two header rows that read as the written ones, each a
# function of the spec string.
_HEADER_VARIANTS = {
    "written": lambda spec: [f"{spec},time", "index_tuple,re,im"],
    "byte_order_mark": lambda spec: [f"\ufeff{spec},time", "index_tuple,re,im"],
    "quoted_newline": lambda spec: [f'"{spec}\n",time', "index_tuple,re,im"],
    "quoted_fields": lambda spec: [f'"{spec}","time"', '"index_tuple","re","im"'],
    "spaced_fields": lambda spec: [f"{spec}, time\t", " index_tuple ,re , im"],
}


@st.composite
def _mutated_csv(draw):
    """A ``write_csv`` file with its header rows maybe respelled, its rows
    maybe shuffled, up to three row mutations, blank lines, CRLF line ends,
    no last newline, or no value rows."""
    orders = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)
                  .filter(lambda o: math.prod(o) <= 64))
    spec = GroupSpec(orders=tuple(orders))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, lines = _value_rows(MeasuredFunction(spec, TIME, _signed_values(rng, spec.size)))
    head = draw(st.sampled_from(list(_HEADER_VARIANTS.values())))(spec.describe())
    rows = _rows_as_fields(lines)
    if draw(st.booleans()):
        rows = [rows[i] for i in rng.permutation(len(rows))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(list(_MUTATIONS)))
        if rows:
            _mutate(rows, draw(st.integers(0, len(rows) - 1)), kind,
                    draw(st.sampled_from(_MUTATIONS[kind])))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [""])
    if draw(st.integers(1, 10)) == 5:  # about one file in ten has no value rows
        rows = []
    return _join_csv(head, rows, end=draw(st.sampled_from(["\n", "\r\n"])),
                     last_end=draw(st.booleans()))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=_mutated_csv())
def test_csv_routes_agree_on_mutated_files(text):
    _assert_routes_agree(text)
