"""The Fourier transform on finite abelian groups, in both measure views.

``forward`` integrates against ``chi(-x)`` with the primal atom as weight;
``inverse`` integrates against ``chi(x)`` with the dual atom.  Because the
two atoms are matched by construction (see ``GroupSpec``), inversion and
Parseval hold with no extra normalization.

Every transform runs through ``numpy.fft`` over the factor grid; this is the
one module that calls it.  ``dft_matrix`` builds the dense matrix of the
same transform from per-factor DFT matrices with exactly reduced phase
angles.  It is the reference oracle the tests compare the FFT path against,
and no production path uses it.
"""

from __future__ import annotations

import ast
import csv
import io
from dataclasses import dataclass

import numpy as np

from .groups import COMPACT, DISCRETE, CapacityError, EXHAUSTIVE_CAP, GroupSpec

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

    @property
    def total_mass(self) -> float:
        return self.spec.primal_total if self.side == TIME else self.spec.dual_total

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.spec.orders)

    def copy(self) -> "MeasuredFunction":
        return MeasuredFunction(self.spec, self.side, self.values.copy())


def delta(spec: GroupSpec, at=None, side: str = TIME) -> MeasuredFunction:
    """Indicator of a single point (default: the identity)."""
    spec._check_capacity()
    vals = np.zeros(spec.size, dtype=np.complex128)
    idx = 0 if at is None else spec.index_of(at)
    vals[idx] = 1.0
    return MeasuredFunction(spec, side, vals)


def character_function(spec: GroupSpec, chi, side: str = TIME) -> MeasuredFunction:
    """The character x -> chi(x) as a function on the chosen side."""
    spec._check_capacity()
    chi = spec.reduce(chi)
    vals = np.ones(1, dtype=np.complex128)
    for c, m in zip(chi, spec.orders):
        factor = np.exp(2j * np.pi * c * np.arange(m) / m)
        vals = np.kron(vals, factor)
    return MeasuredFunction(spec, side, vals)


def _fftn_flat(values: np.ndarray, orders) -> np.ndarray:
    return np.fft.fftn(values.reshape(orders)).ravel()


def _ifftn_flat(values: np.ndarray, orders) -> np.ndarray:
    return np.fft.ifftn(values.reshape(orders)).ravel()


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


def forward(f: MeasuredFunction) -> MeasuredFunction:
    """Fourier transform of a time-side function."""
    if f.side != TIME:
        raise SideError("forward expects a time-side function")
    spec = f.spec
    vals = _fftn_flat(f.values, spec.orders)
    return MeasuredFunction(spec, FREQUENCY, spec.primal_atom * vals)


def inverse(F: MeasuredFunction) -> MeasuredFunction:
    """Inverse transform of a frequency-side function."""
    if F.side != FREQUENCY:
        raise SideError("inverse expects a frequency-side function")
    spec = F.spec
    vals = spec.size * _ifftn_flat(F.values, spec.orders)
    return MeasuredFunction(spec, TIME, spec.dual_atom * vals)


def dual_forward(F: MeasuredFunction) -> MeasuredFunction:
    """Transform of a frequency-side function back onto the group.

    This is the Fourier transform on the dual group under the canonical
    identification of the double dual with the group itself.
    """
    if F.side != FREQUENCY:
        raise SideError("dual_forward expects a frequency-side function")
    spec = F.spec
    vals = _fftn_flat(F.values, spec.orders)
    return MeasuredFunction(spec, TIME, spec.dual_atom * vals)


def double_transform(f: MeasuredFunction) -> MeasuredFunction:
    """The transform applied twice; equals x -> f(-x)."""
    return dual_forward(forward(f))


def reflect(f: MeasuredFunction) -> MeasuredFunction:
    """Index-reversal oracle: g(x) = f(-x)."""
    grid = f.grid()
    for axis in range(grid.ndim):
        grid = np.roll(np.flip(grid, axis=axis), 1, axis=axis)
    return MeasuredFunction(f.spec, f.side, grid.ravel())


def l2_norm(f: MeasuredFunction) -> float:
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.atom))


def parseval_defect(f: MeasuredFunction) -> float:
    """| ||f||_2 - ||fhat||_2 |, which is ~0 under matched Haar measures."""
    other = forward(f) if f.side == TIME else inverse(f)
    return abs(l2_norm(f) - l2_norm(other))


# -- CSV interchange ---------------------------------------------------------

def write_csv(f: MeasuredFunction, stream=None) -> str:
    """Serialize as CSV with a header line carrying the spec string and side."""
    out = stream if stream is not None else io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.spec.describe(), f.side])
    writer.writerow(["index_tuple", "re", "im"])
    for idx, v in enumerate(f.values):
        writer.writerow([str(f.spec.element_at(idx)), repr(float(v.real)), repr(float(v.imag))])
    return out.getvalue() if stream is None else ""


def read_csv(stream) -> MeasuredFunction:
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    header = next(reader, [])
    if len(header) != 2:
        raise ValueError("first CSV row must be: <group spec string>, <side>")
    spec = GroupSpec.parse(header[0])
    side = header[1].strip()
    columns = next(reader, [])
    if [c.strip() for c in columns] != ["index_tuple", "re", "im"]:
        raise ValueError("second CSV row must be the header index_tuple,re,im")
    vals = np.zeros(spec.size, dtype=np.complex128)
    seen = 0
    for row in reader:
        if not row:
            continue
        tup = ast.literal_eval(row[0])
        if isinstance(tup, int):
            tup = (tup,)
        vals[spec.index_of(tup)] = float(row[1]) + 1j * float(row[2])
        seen += 1
    if seen != spec.size:
        raise ValueError(f"expected {spec.size} value rows, got {seen}")
    return MeasuredFunction(spec, side, vals)
