"""Reference arithmetic for checking abelfourier's outputs.

Nothing here imports abelfourier: group specs, the function CSV format,
transforms, norms, entropies, closed forms and witness constructions are
written out again with numpy from the formulas in the README and the
module docstrings, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

COMPACT = "compact"
DISCRETE = "discrete"
TIME = "time"
FREQUENCY = "frequency"
INF = math.inf


class Group:
    """``Z/m_1 x ... x Z/m_k`` with a measure view, as the README defines it."""

    def __init__(self, orders, view, mass):
        self.orders = tuple(int(m) for m in orders)
        self.view = view
        self.mass = float(mass)
        self.size = math.prod(self.orders)

    @property
    def spec(self) -> str:
        return f"cyclic:{'x'.join(map(str, self.orders))};view={self.view};mass={self.mass:g}"

    @property
    def primal_atom(self) -> float:
        return self.mass / self.size if self.view == COMPACT else self.mass

    @property
    def dual_atom(self) -> float:
        return 1.0 / self.mass if self.view == COMPACT else 1.0 / (self.mass * self.size)

    def atom(self, side: str) -> float:
        return self.primal_atom if side == TIME else self.dual_atom

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self.primal_atom * np.fft.fftn(values.reshape(self.orders)).ravel()

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return self.dual_atom * self.size * np.fft.ifftn(values.reshape(self.orders)).ravel()


# -- function CSV files ------------------------------------------------------

def index_tuples(orders) -> np.ndarray:
    """Canonical (row-major) enumeration of the group elements, one row each."""
    return np.indices(orders).reshape(len(orders), -1).T


def index_strings(orders) -> list[str]:
    """``str(index_tuple)`` for every element, in canonical order."""
    if len(orders) == 1:
        return [f"({i},)" for i in range(orders[0])]
    return ["(" + ", ".join(t) + ")" for t in itertools.product(*(map(str, range(m)) for m in orders))]


def write_function_csv(path, group: Group, side: str, values: np.ndarray, order=None):
    """The README's format: spec/side header, column header, ``index_tuple,re,im``
    rows.  ``order`` lists the canonical indices in the order rows are written."""
    keys = index_strings(group.orders)
    re, im = values.real.tolist(), values.imag.tolist()
    rows = range(group.size) if order is None else order.tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([group.spec, side])
        w.writerow(["index_tuple", "re", "im"])
        w.writerows((keys[i], repr(re[i]), repr(im[i])) for i in rows)


def parse_function_csv(text: str):
    """Returns (spec string, side, values in canonical order) from a function CSV."""
    reader = csv.reader(io.StringIO(text))
    spec, side = next(reader)
    if next(reader) != ["index_tuple", "re", "im"]:
        raise ValueError("bad column header")
    group = parse_spec(spec)
    rows = [r for r in reader if r]
    if len(rows) != group.size:
        raise ValueError(f"{len(rows)} rows for a group of {group.size}")
    position = {key.replace(" ", ""): i for i, key in enumerate(index_strings(group.orders))}
    values = np.full(group.size, np.nan, dtype=np.complex128)
    for key, re, im in rows:
        values[position[key.replace(" ", "")]] = float(re) + 1j * float(im)
    if np.isnan(values.real).any():
        raise ValueError("missing index rows")
    return spec, side, values


def parse_spec(text: str) -> Group:
    head, *fields = text.split(";")
    kv = dict(f.split("=", 1) for f in fields if f)
    orders = [int(t) for t in head[len("cyclic:"):].split("x")]
    return Group(orders, kv.get("view", COMPACT), float(kv.get("mass", "1")))


# -- norms, regions, entropies -----------------------------------------------

def recip(p: float) -> float:
    return 0.0 if p == INF else 1.0 / p


def lp(values: np.ndarray, atom: float, p: float) -> float:
    mags = np.abs(values)
    if p == INF:
        return float(mags.max())
    return float((np.sum(mags**p) * atom) ** (1.0 / p))


def region(view: str, u: float, v: float) -> tuple[str, bool]:
    """(label, finite) for the point (1/p, 1/q), as the README's regions."""
    if view == COMPACT:
        if u + v <= 1 and v <= 0.5:
            return "R1", True
        return ("R2", False) if u + v > 1 else ("R3", False)
    if u + v >= 1 and u >= 0.5:
        return "R2'", True
    return ("R1'", False) if u + v < 1 and v < 0.5 else ("R3'ext", False)


def closed_form(group: Group, p: float, q: float) -> float:
    u, v = recip(p), recip(q)
    if not region(group.view, u, v)[1]:
        return INF
    if group.view == COMPACT:
        return group.mass ** (1.0 - u - v)
    return (1.0 / group.mass) ** (u + v - 1.0)


def ratio(group: Group, values: np.ndarray, p: float, q: float) -> float:
    return lp(group.forward(values), group.dual_atom, q) / lp(values, group.primal_atom, p)


def chirp_values(r: int, n: int) -> np.ndarray:
    """omega^(a.b) on (Z/r)^2n, a and b the first and last n coordinates."""
    digits = index_tuples((r,) * n)
    return np.exp(2j * np.pi * ((digits @ digits.T) % r) / r).ravel()


def is_prime(r: int) -> bool:
    return r >= 2 and all(r % f for f in range(2, math.isqrt(r) + 1))


def renyi(density: np.ndarray, atom: float, order: float) -> float:
    if order == INF:
        return -math.log(float(density.max()))
    return float(math.log(np.sum(density**order) * atom) / (1.0 - order))


def close(got, want, rtol: float) -> bool:
    if isinstance(want, float) and math.isinf(want):
        return got == "inf"
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= rtol * max(1.0, abs(want))


def close_arrays(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= rtol * max(
        1.0, float(np.max(np.abs(want)))
    )
