r"""The Fourier transform on finite abelian groups, in both measure views.

``forward`` integrates against ``chi(-x)`` with the primal atom as weight;
``inverse`` integrates against ``chi(x)`` with the dual atom.  Because the
two atoms are matched by construction (see ``GroupSpec``), inversion and
Parseval hold with no extra normalization.

Every transform runs through one helper over the factor grid, bitwise equal
to ``numpy.fft.fftn``/``ifftn``: it takes the axes in ``fftn``'s order, an
order-2 axis by the butterfly (a + b, a - b) in one vectorized pass in place
of a strided length-2 FFT; this is the one module that calls ``numpy.fft``.
A transform copies its input once and runs every axis in place in the
copy, so it returns its values in a new array, except ``inverse(F,
overwrite=True)``, which skips the copy and computes them in the buffer of
``F.values`` for a caller that does not read F again.  Finite values whose
transform overflows the float range raise CapacityError.
``dft_matrix`` builds the dense matrix of the same transform from per-factor
DFT matrices with exactly reduced phase angles.  It is the reference oracle
the tests compare the FFT path against, and no production path uses it; it
stays here because ``bench/layertrace.py`` wraps it by name.

``write_csv`` and ``read_csv`` carry a function as CSV: a header row with
the spec string and side, the column header ``index_tuple,re,im``, then one
row per element.  The writer lists elements in canonical order with floats
in shortest round-trip form, streaming the value rows quoted by hand, which
gives ``csv.writer``'s bytes (see ``write_csv``).  The reader takes the rows
in any order.  It splits the text once at "\n", reads the two header rows
with ``csv.reader`` over the first lines, and hands the other lines as a list
to one ``np.loadtxt`` call, which splits fields, unquotes keys and parses
floats in C; no copy of the text goes into an ``io.StringIO``.  Rows whose
keys are the canonical keys in canonical order need one array comparison,
and shuffled canonical keys are looked up in the table of canonical keys.
Every other body (respelled keys, a missing or repeated element, a row
``loadtxt`` refuses, a quoted field that spans lines) is joined again and
read by ``csv.reader`` and ``float``, the route that gives every error
message; only there are keys parsed with a regex.  It requires each element
exactly once and takes coordinates mod the factor orders.  Reader and writer
take the canonical keys from one key table per group shape (``_key_table``);
the last shape's table is kept when the group has at most 2^16 elements, so
a ``transform`` builds it once for its read and its write, and repeated
reads and writes of one shape in a process build it once in all.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import re
from dataclasses import dataclass
from itertools import cycle, repeat

import numpy as np

from .groups import CapacityError, GroupSpec

TIME = "time"
FREQUENCY = "frequency"

#: Largest size for which the dense reference matrix is built.
DIRECT_CAP = 2048


class SideError(ValueError):
    """A transform was applied to a function living on the wrong side."""


@dataclass
class MeasuredFunction:
    """Complex values on a group (time side) or its dual (frequency side)."""

    spec: GroupSpec
    side: str
    values: np.ndarray

    def __post_init__(self):
        if self.side not in (TIME, FREQUENCY):
            raise ValueError(f"unknown side {self.side!r}")
        vals = np.asarray(self.values, dtype=np.complex128).ravel()
        if vals.size != self.spec.size:
            raise ValueError(
                f"expected {self.spec.size} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("function values must be finite")
        self.values = vals

    @property
    def atom(self) -> float:
        return self.spec.primal_atom if self.side == TIME else self.spec.dual_atom

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.spec.orders)


def delta(spec: GroupSpec, at=None) -> MeasuredFunction:
    """Indicator of a single point (default: the identity)."""
    spec._check_capacity()
    vals = np.zeros(spec.size, dtype=np.complex128)
    idx = 0 if at is None else spec.index_of(at)
    vals[idx] = 1.0
    return MeasuredFunction(spec, TIME, vals)


def character_function(spec: GroupSpec, chi) -> MeasuredFunction:
    """The character x -> chi(x) as a time-side function."""
    spec._check_capacity()
    chi = spec.reduce(chi)
    vals = np.ones(1, dtype=np.complex128)
    for c, m in zip(chi, spec.orders):
        factor = np.exp(2j * np.pi * c * np.arange(m) / m)
        vals = np.kron(vals, factor)
    return MeasuredFunction(spec, TIME, vals)


def _fft_flat(values: np.ndarray, orders, inverse: bool, overwrite: bool = False) -> np.ndarray:
    """``numpy.fft.fftn`` (``ifftn`` if ``inverse``) of canonical-order values
    over the factor grid, flattened, and bitwise equal to it.

    The values are copied once, unless ``overwrite`` is set, and every axis
    then works in place in that array, taken from last to first as ``fftn``
    takes them.  An order-2 axis gets numpy's own length-2 kernel, the
    butterfly (a + b, a - b), halved on the inverse, in one vectorized pass;
    every other axis is one ``fft``/``ifft`` call along it.  Without
    ``overwrite`` the result is a new array, which callers may scale in
    place; with it the result is the buffer of ``values`` (contiguous, as
    every ``MeasuredFunction``'s values are), and the values it held are
    gone."""
    grid = (values if overwrite else values.copy()).reshape(orders)
    for axis in reversed(range(len(orders))):
        if orders[axis] != 2:
            grid = (np.fft.ifft if inverse else np.fft.fft)(grid, axis=axis, out=grid)
            continue
        lead = math.prod(orders[:axis])
        a, b = grid.reshape(lead, 2, -1).transpose(1, 0, 2)
        diff = a - b  # first, into half a group, while a is unchanged
        a += b
        b[...] = diff
        if inverse:  # by parts, as numpy scales, so signed zeros stay as they are
            halves = grid.view(np.float64)
            halves *= 0.5
    return grid.ravel()


def dft_matrix(spec: GroupSpec) -> np.ndarray:
    """Dense matrix of chi(-x) over (chi, x), from exact per-factor angles.

    Reference oracle for tests: ``forward(f)`` equals
    ``primal_atom * dft_matrix(spec) @ f`` and ``inverse(F)`` equals
    ``dual_atom * dft_matrix(spec).conj().T @ F``."""
    if spec.size > DIRECT_CAP:
        raise CapacityError(f"direct matrix capped at {DIRECT_CAP} elements")
    mat = np.ones((1, 1), dtype=np.complex128)
    for m in spec.orders:
        k = np.arange(m)
        block = np.exp(-2j * np.pi * (np.outer(k, k) % m) / m)
        mat = np.kron(mat, block)
    return mat


def _transformed(
    F: MeasuredFunction, side: str, inverse: bool, scales, overwrite: bool = False
) -> MeasuredFunction:
    """``_fft_flat`` of F's values (``ifftn`` if ``inverse``), multiplied in
    place by each of ``scales`` in turn, as a function on ``side``.

    Finite values can overflow the float range in a transform: that raises
    CapacityError, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _fft_flat(F.values, F.spec.orders, inverse, overwrite)
        for scale in scales:
            vals *= scale
    try:
        return MeasuredFunction(F.spec, side, vals)
    except ValueError:  # the values are as many as the elements, so some are not finite
        raise CapacityError(
            f"the transform overflows the float range (magnitudes past {np.finfo(float).max:.4g})"
        ) from None


def forward(f: MeasuredFunction) -> MeasuredFunction:
    """Fourier transform of a time-side function."""
    if f.side != TIME:
        raise SideError("forward expects a time-side function")
    return _transformed(f, FREQUENCY, False, [f.spec.primal_atom])


def inverse(F: MeasuredFunction, *, overwrite: bool = False) -> MeasuredFunction:
    """Inverse transform of a frequency-side function.

    With ``overwrite`` the transform is computed in the buffer of
    ``F.values`` and returned in it: F then holds the result's values, not
    its own, and must not be used again.  Otherwise the result is a new
    array and F is unchanged."""
    if F.side != FREQUENCY:
        raise SideError("inverse expects a frequency-side function")
    return _transformed(F, TIME, True, [F.spec.size, F.spec.dual_atom], overwrite)


# -- CSV interchange ---------------------------------------------------------

_COLUMNS = ["index_tuple", "re", "im"]
_INT = r"\s*[+-]?[0-9]+\s*"
_SPACES_AND_OPEN = str.maketrans("", "", " \t\n\r\f\v(")


def _index_keys(orders) -> list[str]:
    """``str(element)`` for every element in canonical order: "(3,)", "(0, 1)"."""
    digits = [[str(i) for i in range(m)] for m in orders]
    if len(orders) == 1:
        return [f"({d},)" for d in digits[0]]
    # Extended one factor at a time, so each key is built by two concatenations
    # per factor rather than a join over a fresh tuple.
    keys = ["(" + d for d in digits[0]]
    for factor in digits[1:-1]:
        keys = [k + ", " + d for k in keys for d in factor]
    tails = [", " + d + ")" for d in digits[-1]]
    return [k + t for k in keys for t in tails]


def _key_width(orders) -> int:
    """One character more than the longest canonical key, the last element's,
    so a longer key read into a string column of this width is cut to a
    string that no canonical key equals."""
    return len(str(tuple(m - 1 for m in orders))) + 1


class _KeyTable:
    """The canonical keys of one group shape (``keys``, a tuple), and the two
    forms the reader matches them in, each built on first use: ``column``,
    the keys as a read-only ``U`` array of width ``_key_width``, and
    ``index``, the dict from each key to its canonical index.  A kept table
    is shared by every later read and write of its shape, which only read
    it."""

    def __init__(self, orders):
        self.orders = orders
        self.keys = tuple(_index_keys(orders))

    @functools.cached_property
    def column(self) -> np.ndarray:
        column = np.array(self.keys, dtype=f"U{_key_width(self.orders)}")
        column.flags.writeable = False
        return column

    @functools.cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self.keys, range(len(self.keys))))


#: Largest group whose key table ``_key_table`` keeps between calls.  With
#: both its forms built, a table of this many keys holds 10 MB on one factor
#: and 23 MB on (Z/2)^16 (``tracemalloc``, Python 3.11).
_KEY_TABLE_CAP = 2**16


@functools.lru_cache(maxsize=1)
def _cached_key_table(orders) -> _KeyTable:
    return _KeyTable(orders)


def _key_table(orders) -> _KeyTable:
    """The ``_KeyTable`` of ``orders``.  The last shape's table of at most
    ``_KEY_TABLE_CAP`` elements is kept, so a run of reads and writes of one
    shape (a ``transform`` reads and writes one, and in-process ``main``
    calls repeat them) builds it once; a larger table is built afresh on
    each call, as the memory it would keep grows with the group."""
    if math.prod(orders) > _KEY_TABLE_CAP:
        return _KeyTable(orders)
    return _cached_key_table(orders)


_key_table.cache_info = _cached_key_table.cache_info
_key_table.cache_clear = _cached_key_table.cache_clear


def _key_pattern(k: int) -> re.Pattern:
    """An index tuple of k integers with any spacing and an optional trailing
    comma; one factor may also be written as a bare integer."""
    tup = r"\s*\(" + ",".join([_INT] * k) + r"(?:,\s*)?\)\s*"
    return re.compile(tup + ("|" + _INT if k == 1 else ""), re.ASCII)


def write_csv(f: MeasuredFunction, stream=None) -> str:
    """Serialize as CSV with a header line carrying the spec string and side.

    Rows come in canonical order, values in shortest round-trip form.  The
    two header rows go through ``csv.writer``; the value rows are streamed as
    ``"key",re,im`` by hand, byte for byte what ``csv.writer`` writes for
    them: every index key holds a comma and no quote, so the csv module always
    quotes it, and the ``repr`` of a finite float holds no comma, quote or
    line break, so it never quotes a value.  The keys come from the shape's
    key table, kept from the last read or write of the shape."""
    out = stream if stream is not None else io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([[f.spec.describe(), f.side], _COLUMNS])
    rows = zip(_key_table(f.spec.orders).keys, f.values.real.tolist(), f.values.imag.tolist())
    out.writelines(f'"{key}",{x!r},{y!r}\n' for key, x, y in rows)
    return out.getvalue() if stream is None else ""


def _parse_keys(keys, orders) -> np.ndarray:
    """Canonical indices of index keys in any spelling the reader accepts."""
    fullmatch = _key_pattern(len(orders)).fullmatch
    if not all(map(fullmatch, keys)):
        bad = next(key for key in keys if not fullmatch(key))
        raise ValueError(f"bad index tuple {bad!r}: expected {len(orders)} integer coordinates")
    # Each key holds exactly k integers, so dropping spaces, parentheses and
    # trailing commas leaves them comma-separated: "(0, 1)", "(2,)" -> "0,1,2".
    text = ",".join(keys).translate(_SPACES_AND_OPEN)
    tokens = text.replace(",)", "").replace(")", "").split(",")
    coords = np.fromiter(map(operator.mod, map(int, tokens), cycle(orders)),
                         dtype=np.int64, count=len(tokens))
    return np.ravel_multi_index(coords.reshape(-1, len(orders)).T, orders)


#: Characters ``np.loadtxt`` reads otherwise than ``csv.reader`` plus
#: ``float``: it strips \x1c-\x1f around a float, which ``float`` refuses, and
#: a fixed-width string column drops a key's trailing NULs.
_LOADTXT_UNSAFE = "\x00\x1c\x1d\x1e\x1f"


def _lookup(index, key_col) -> np.ndarray:
    """Canonical index of each key in ``key_col``, -1 where it is no key of
    ``index`` (a key table's dict from each canonical key to its index)."""
    return np.fromiter(map(index.get, key_col, repeat(-1)), dtype=np.intp, count=len(key_col))


def _loadtxt_rows(text: str, lines, spec: GroupSpec):
    r"""``(flat, re, im)`` of the value rows parsed by ``np.loadtxt``, or None
    when they must go through ``_reader_rows``: ``lines`` (the value lines,
    the tail of ``text.split("\n")``) are blank, ``text`` holds a character
    of ``_LOADTXT_UNSAFE``, ``loadtxt`` refuses the lines (a lone "\r" inside
    one, say), a quoted field spans lines, or the keys are not each canonical
    key exactly once.  ``flat`` is a slice when the keys come in canonical
    order.  The shape's key table is taken only when the rows are as many as
    the elements."""
    if not any(line.strip("\r") for line in lines) or any(c in text for c in _LOADTXT_UNSAFE):
        return None  # a blank body would also make loadtxt warn
    dtype = [("key", f"U{_key_width(spec.orders)}"), ("re", np.float64), ("im", np.float64)]
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                           comments=None, ndmin=1)
    except ValueError:
        return None
    # loadtxt skips blank lines ("" and "\r") and joins the lines of a quoted
    # field that spans lines without the line break, which csv.reader keeps,
    # so every line that is not blank must give one row.  Rows never outnumber
    # those lines, so the blank lines are counted only when the rows do not
    # match all lines but a blank last one.
    if len(table) != len(lines) - (lines[-1] in ("", "\r")) and (
            len(table) != len(lines) - lines.count("") - lines.count("\r")):
        return None
    if len(table) != spec.size:  # the reader's route gives the error, with no key table
        return None
    key_table = _key_table(spec.orders)
    if np.array_equal(table["key"], key_table.column):
        return slice(None), table["re"], table["im"]
    flat = _lookup(key_table.index, table["key"].tolist())
    if flat.min() < 0 or not np.all(np.bincount(flat, minlength=spec.size) == 1):
        return None
    return flat, table["re"], table["im"]


def _reader_rows(body: str, spec: GroupSpec):
    """``(flat, re, im)`` of the value rows parsed by ``csv.reader`` and
    ``float``, raising ValueError on anything malformed, a ``csv.Error``
    (a field longer than ``csv.field_size_limit()``) included."""
    try:
        rows = list(filter(None, csv.reader(io.StringIO(body))))  # blank lines parse as empty rows
    except csv.Error as exc:
        raise ValueError(f"CSV value row: {exc}") from exc
    if set(map(len, rows)) - {3}:
        bad = next(row for row in rows if len(row) != 3)
        raise ValueError(f"value rows need 3 fields index_tuple,re,im, got {bad!r}")
    if len(rows) != spec.size:
        raise ValueError(f"expected {spec.size} value rows, got {len(rows)}")
    key_col, re_col, im_col = zip(*rows)
    flat = _lookup(_key_table(spec.orders).index, key_col)
    if flat.min() < 0:
        flat = _parse_keys(key_col, spec.orders)
    counts = np.bincount(flat, minlength=spec.size)
    if not np.all(counts == 1):
        i = int(np.flatnonzero(counts != 1)[0])
        raise ValueError(f"element {spec.element_at(i)} has {counts[i]} rows, not exactly one")
    re_vals = np.fromiter(map(float, re_col), dtype=np.float64, count=spec.size)
    im_vals = np.fromiter(map(float, im_col), dtype=np.float64, count=spec.size)
    return flat, re_vals, im_vals


def _stringio_lines(lines):
    r"""The lines ``io.StringIO("\n".join(lines))`` yields: each of ``lines``
    with its "\n", but the last one without it, and only if it is not empty."""
    for i in range(len(lines) - 1):
        yield lines[i] + "\n"
    if lines[-1]:
        yield lines[-1]


def _header_row(reader) -> list[str]:
    """The next row of ``reader``, [] past the end.  Its ``csv.Error`` (a
    field longer than ``csv.field_size_limit()``) raises ValueError."""
    try:
        return next(reader, [])
    except csv.Error as exc:
        raise ValueError(f"CSV header row: {exc}") from exc


def read_csv(stream) -> MeasuredFunction:
    r"""Parse the format ``write_csv`` writes, with value rows in any order.

    ``stream`` is the CSV text or a text stream, which is read whole.  One
    leading byte-order mark (U+FEFF, which spreadsheets write) is dropped.
    Each element must have exactly one row; its coordinates are taken mod
    the factor orders.  The text is split once at "\n"; the two header rows
    go through ``csv.reader`` over its first lines, as ``io.StringIO`` would
    hand them over (a quoted field may span lines), and the remaining lines
    go to one ``np.loadtxt`` call as a list.  Its keys must be the canonical
    keys, the spelling ``write_csv`` uses, each once; in canonical order
    they need no lookup.  The canonical keys come from the shape's key
    table, taken only once the rows are as many as the elements, so a short
    file on a huge group fails on its row count without building it.  Any
    other body, or one that ``loadtxt`` refuses (a lone "\r" inside a line)
    or would read otherwise (a quoted field that spans lines), is joined
    again and read by ``csv.reader`` and ``float``, with the same values and
    errors as before ``loadtxt`` was tried: keys in another spelling
    (spacing, a bare integer, a trailing comma, unreduced coordinates) are
    parsed by the key regex, and floats that ``loadtxt`` refuses but
    ``float`` takes (``1_0``, non-ASCII digits) still read.  Anything
    malformed raises ValueError."""
    text = stream if isinstance(stream, str) else stream.read()
    lines = text.split("\n")
    lines[0] = lines[0].removeprefix("\ufeff")
    reader = csv.reader(_stringio_lines(lines))
    header = _header_row(reader)
    if len(header) != 2:
        raise ValueError("first CSV row must be: <group spec string>, <side>")
    spec = GroupSpec.parse(header[0])
    side = header[1].strip()
    columns = _header_row(reader)
    if [c.strip() for c in columns] != _COLUMNS:
        raise ValueError("second CSV row must be the header index_tuple,re,im")
    body = lines[reader.line_num:]
    flat, re_vals, im_vals = (_loadtxt_rows(text, body, spec)
                              or _reader_rows("\n".join(body), spec))
    vals = np.empty(spec.size, dtype=np.complex128)
    vals.real[flat] = re_vals
    vals.imag[flat] = im_vals
    return MeasuredFunction(spec, side, vals)
