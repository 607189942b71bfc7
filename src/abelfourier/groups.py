"""Finite abelian groups as products of cyclic factors.

A group is described by its cyclic orders (m_1, ..., m_k) together with a
measure view.  In the compact view the group carries total mass ``mass`` and
the dual carries counting measure with atom ``1/mass``; in the discrete view
each point carries atom ``mass`` and the dual carries total mass ``1/mass``.
Either way the pair of measures is matched so that inversion and Parseval
hold with no extra constants.

Elements and characters are both plain tuples of residues; the pairing is
``chi(x) = exp(2 pi i sum_j chi_j x_j / m_j)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property, reduce
from itertools import product

COMPACT = "compact"
DISCRETE = "discrete"

#: Largest group size for which exhaustive operations (element enumeration,
#: annihilators, full transforms) are allowed.
EXHAUSTIVE_CAP = 2**20

#: Largest group size ``GroupSpec`` accepts: the range of a machine integer.
MAX_SIZE = 2**62


class CapacityError(Exception):
    """A group too large for the request: past the exhaustive cap, or ``MAX_SIZE``."""


def _lcm_all(values):
    return reduce(math.lcm, values, 1)


def describe_group(orders, view: str, mass: float) -> str:
    """The spec string of a group, which need not fit the machine integer range.

    Orders are written through ``Decimal``: ``str`` of an int past the
    interpreter's digit limit (4300 digits by default) raises ValueError.  The
    mass is short when that reads back exactly, so ``GroupSpec.parse`` inverts this."""
    mass_text = f"{mass:g}" if float(f"{mass:g}") == mass else repr(float(mass))
    return f"cyclic:{'x'.join(str(Decimal(m)) for m in orders)};view={view};mass={mass_text}"


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group ``Z/m_1 x ... x Z/m_k`` with a measure view."""

    orders: tuple[int, ...]
    view: str = COMPACT
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
        if not self.orders:
            raise ValueError("at least one cyclic factor is required")
        for m in self.orders:
            if m < 2:
                raise ValueError(f"cyclic factor of order {m}: all orders must be >= 2")
        size = 1
        for m in self.orders:
            size *= m
            if size > MAX_SIZE:
                raise CapacityError("group size exceeds machine integer range")
        if self.view not in (COMPACT, DISCRETE):
            raise ValueError(f"unknown view {self.view!r}")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("mass must be a positive finite real")

    # -- measure bookkeeping -------------------------------------------------

    @cached_property
    def size(self) -> int:
        n = 1
        for m in self.orders:
            n *= m
        return n

    @property
    def primal_total(self) -> float:
        return self.mass if self.view == COMPACT else self.mass * self.size

    @property
    def primal_atom(self) -> float:
        return self.mass / self.size if self.view == COMPACT else self.mass

    @property
    def dual_total(self) -> float:
        return self.size / self.mass if self.view == COMPACT else 1.0 / self.mass

    @property
    def dual_atom(self) -> float:
        return 1.0 / self.mass if self.view == COMPACT else 1.0 / (self.mass * self.size)

    @cached_property
    def _lcm(self) -> int:
        return _lcm_all(self.orders)

    # -- elements ------------------------------------------------------------

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def _check_capacity(self):
        if self.size > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"group has {self.size} elements, exhaustive cap is {EXHAUSTIVE_CAP}"
            )

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic order, identity first."""
        self._check_capacity()
        return list(product(*(range(m) for m in self.orders)))

    def reduce(self, x) -> tuple[int, ...]:
        if len(x) != len(self.orders):
            raise ValueError("element has wrong number of coordinates")
        return tuple(int(xi) % m for xi, m in zip(x, self.orders))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.orders))

    def negate(self, x) -> tuple[int, ...]:
        return tuple((-a) % m for a, m in zip(x, self.orders))

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * a) % m for a, m in zip(x, self.orders))

    def element_order(self, x) -> int:
        """Least k >= 1 with k*x = 0."""
        x = self.reduce(x)
        order = 1
        for xi, m in zip(x, self.orders):
            order = math.lcm(order, m // math.gcd(xi, m))
        return order

    def index_of(self, x) -> int:
        """Position of x in the canonical enumeration."""
        x = self.reduce(x)
        idx = 0
        for xi, m in zip(x, self.orders):
            idx = idx * m + xi
        return idx

    def element_at(self, idx: int) -> tuple[int, ...]:
        digits = []
        for m in reversed(self.orders):
            digits.append(idx % m)
            idx //= m
        return tuple(reversed(digits))

    # -- characters ----------------------------------------------------------

    def pairing_exponent(self, chi, x) -> tuple[int, int]:
        """The pairing phase as an exact fraction num/den of a full turn."""
        chi = self.reduce(chi)
        x = self.reduce(x)
        den = self._lcm
        num = sum(c * xi * (den // m) for c, xi, m in zip(chi, x, self.orders)) % den
        return num, den

    def char_value(self, chi, x) -> complex:
        """chi(x) on the unit circle, from the exact rational angle."""
        num, den = self.pairing_exponent(chi, x)
        return cmath.exp(2j * math.pi * num / den)

    def char_is_trivial_at(self, chi, x) -> bool:
        num, _ = self.pairing_exponent(chi, x)
        return num == 0

    # -- spec strings --------------------------------------------------------

    def describe(self) -> str:
        return describe_group(self.orders, self.view, self.mass)

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse "cyclic:m1xm2x...;view=compact|discrete;mass=<decimal>"."""
        parts = text.strip().split(";")
        if not parts or not parts[0].startswith("cyclic:"):
            raise ValueError(f"bad group spec {text!r}: expected 'cyclic:...' prefix")
        try:
            orders = tuple(int(tok) for tok in parts[0][len("cyclic:"):].split("x"))
        except ValueError as exc:
            raise ValueError(f"bad cyclic orders in {text!r}") from exc
        view = COMPACT
        mass = 1.0
        for part in parts[1:]:
            if not part:
                continue
            key, _, val = part.partition("=")
            if key == "view":
                view = val
            elif key == "mass":
                mass = float(val)
            else:
                raise ValueError(f"unknown field {key!r} in group spec")
        return cls(orders=orders, view=view, mass=mass)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by generators plus its materialized element set."""

    spec: GroupSpec
    generators: tuple[tuple[int, ...], ...]
    members: frozenset = field(repr=False)

    @classmethod
    def from_generators(cls, spec: GroupSpec, generators) -> "Subgroup":
        gens = tuple(spec.reduce(g) for g in generators)
        members = {spec.identity}
        frontier = [spec.identity]
        while frontier:
            fresh = []
            for a in frontier:
                for g in gens:
                    b = spec.add(a, g)
                    if b not in members:
                        if len(members) >= EXHAUSTIVE_CAP:
                            raise CapacityError("subgroup closure exceeds exhaustive cap")
                        members.add(b)
                        fresh.append(b)
            frontier = fresh
        return cls(spec=spec, generators=gens, members=frozenset(members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        return self.spec.reduce(x) in self.members

    def sorted_members(self) -> list[tuple[int, ...]]:
        return sorted(self.members)

    def annihilator(self) -> "Subgroup":
        """Characters trivial on this subgroup; |H| * |H^perp| = |X|."""
        spec = self.spec
        spec._check_capacity()
        gens = self.generators if self.generators else tuple(self.members)
        chis = [
            chi
            for chi in spec.elements()
            if all(spec.char_is_trivial_at(chi, g) for g in gens)
        ]
        return Subgroup(spec=spec, generators=tuple(chis), members=frozenset(chis))


def all_subgroups(spec: GroupSpec, max_generators: int = 2) -> list[Subgroup]:
    """Subgroups generated by up to ``max_generators`` (1 or 2) elements, deduplicated.

    Exhaustive for cyclic groups with max_generators=1; for products it is a
    sample of the subgroup lattice, not a complete enumeration.
    """
    if max_generators not in (1, 2):
        raise ValueError(f"max_generators must be 1 or 2, got {max_generators}")
    spec._check_capacity()
    elems = spec.elements()
    seen: dict[frozenset, Subgroup] = {}

    def record(sub: Subgroup):
        if sub.members not in seen:
            seen[sub.members] = sub

    record(Subgroup.from_generators(spec, []))
    for x in elems:
        record(Subgroup.from_generators(spec, [x]))
    if max_generators == 2:
        for i, x in enumerate(elems):
            for y in elems[i + 1:]:
                record(Subgroup.from_generators(spec, [x, y]))
    return sorted(seen.values(), key=lambda s: (len(s), s.sorted_members()))
