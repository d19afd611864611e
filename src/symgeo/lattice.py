"""Exact integer bilinear-form arithmetic.

An :class:`IntersectionLattice` is the tracked fragment of the second
cohomology of a 4-manifold: a list of named basis classes together with
their integer intersection form, stored by its nonzero entries so that a
lattice of many small blocks costs in proportion to its entries, not to
its rank squared.  A witness surface is stored the same way, by its
nonzero pairings with the basis, so pairing a class with it costs in
proportion to those pairings.  Class vectors stay dense integer vectors
over the basis.  All arithmetic is done with Python integers, so values
are exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import LatticeError

# inequivalent_family enumerates 2^N sign patterns of an N-entry divisor
# tail; inputs beyond this are a bug.
_MAX_DIVISOR_LIST = 20


@dataclass(frozen=True)
class ClassVector:
    """Integer coefficient vector over a lattice's basis."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if len(other) != len(self):
            raise LatticeError("basis mismatch")
        return ClassVector(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        if len(other) != len(self):
            raise LatticeError("basis mismatch")
        return ClassVector(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def __neg__(self) -> "ClassVector":
        return ClassVector(tuple(-a for a in self.coefficients))

    def scaled(self, k: int) -> "ClassVector":
        return ClassVector(tuple(k * a for a in self.coefficients))

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def nonzero_items(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self.coefficients) if c]


@dataclass(frozen=True)
class Witness:
    """A named surface known only through its pairings with the basis.

    ``pairings`` lists the pairs ``(i, p)`` with ``p != 0`` the
    intersection number of the witness with the i-th basis class, by
    increasing ``i``: the shape of a row of
    :attr:`IntersectionLattice.rows`.  The witness does not know the rank;
    its descriptor checks that every index lies below it.  ``genus`` and
    ``self_intersection`` are declared only when a concrete embedded
    representative of that type is known; the adjunction validator skips
    witnesses with either field missing.
    """

    name: str
    pairings: tuple[tuple[int, int], ...]
    genus: int | None = None
    self_intersection: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairings", tuple(map(tuple, self.pairings)))
        last = -1
        for i, p in self.pairings:
            if not last < i or not p:
                raise LatticeError(
                    f"witness {self.name!r} must list nonzero pairings by increasing index"
                )
            last = i
        if self.genus is not None and self.genus < 0:
            raise LatticeError("witness genus must be non-negative")


@dataclass(frozen=True)
class IntersectionLattice:
    """Named basis classes with a symmetric integer intersection form.

    The form is stored by its nonzero entries: ``rows[i]`` lists the pairs
    ``(j, g_ij)`` with ``g_ij != 0`` by increasing ``j``.

    ``primitive_summand`` asserts that the basis spans a primitive direct
    summand of the ambient unimodular second cohomology; it is what makes
    the coefficient gcd of a class vector a valid divisibility bound.
    """

    basis_names: tuple[str, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    primitive_summand: bool = True

    def __post_init__(self):
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        n = len(self.basis_names)
        if len(set(self.basis_names)) != n:
            raise LatticeError("basis names must be pairwise distinct")
        if len(self.rows) != n:
            raise LatticeError("intersection form must be square: one row per basis class")
        # Symmetry: scanning rows in order, the entries (i, g) met in column
        # j must be exactly row j, in order.  One cursor per row checks it in
        # O(nnz); as every entry takes one slot, no slot is left over.
        taken = [0] * n
        for i, row in enumerate(self.rows):
            last = -1
            for j, g in row:
                if not last < j < n or not g:
                    raise LatticeError(
                        f"row {i} must list nonzero entries by increasing index below {n}"
                    )
                last = j
                mirror, k = self.rows[j], taken[j]
                if k == len(mirror) or mirror[k] != (i, g):
                    raise LatticeError("intersection form must be symmetric")
                taken[j] = k + 1

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Dense Gram matrix; O(rank^2), meant for tests and tiny lattices."""
        dense = []
        for row in self.rows:
            out = [0] * self.rank
            for j, g in row:
                out[j] = g
            dense.append(tuple(out))
        return tuple(dense)

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise LatticeError(f"basis mismatch: no class named {name!r}") from None

    def basis_vector(self, name: str) -> ClassVector:
        i = self.index_of(name)
        return ClassVector(tuple(1 if j == i else 0 for j in range(self.rank)))

    def vector(self, coefficients: dict[str, int]) -> ClassVector:
        """Build a class vector from a sparse {name: coefficient} mapping."""
        out = [0] * self.rank
        for name, c in coefficients.items():
            out[self.index_of(name)] = int(c)
        return ClassVector(tuple(out))

    def pairing_row(self, v: ClassVector) -> tuple[tuple[int, int], ...]:
        """The nonzero pairings ``(j, v . e_j)`` of ``v`` with the basis
        classes, by increasing ``j``; for the i-th basis class this is
        ``rows[i]``."""
        if len(v) != self.rank:
            raise LatticeError("basis mismatch")
        row: dict[int, int] = {}
        for i, c in v.nonzero_items():
            for j, g in self.rows[i]:
                row[j] = row.get(j, 0) + c * g
        return tuple(sorted((j, x) for j, x in row.items() if x))


def pairing(lat: IntersectionLattice, v: ClassVector, w: ClassVector) -> int:
    """Evaluate the intersection pairing of two class vectors."""
    if len(v) != lat.rank or len(w) != lat.rank:
        raise LatticeError("basis mismatch")
    wc = w.coefficients
    total = 0
    for i, a in v.nonzero_items():
        for j, g in lat.rows[i]:
            total += a * g * wc[j]
    return total


def dot(v: ClassVector, w: Witness) -> int:
    """Pair a class vector with a witness over the same lattice, in
    O(nnz) of the witness's pairings."""
    c = v.coefficients
    total = 0
    for i, p in w.pairings:
        total += c[i] * p
    return total


def block_diagonal(
    blocks: Iterable[tuple[tuple[int, ...], ...]], offset: int = 0
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse rows of a block-diagonal form built from square integer
    blocks, the first block starting at index ``offset``."""
    rows = []
    for b in blocks:
        size = len(b)
        for row in b:
            if len(row) != size:
                raise LatticeError("gram blocks must be square")
            rows.append(tuple((offset + j, g) for j, g in enumerate(row) if g))
        offset += size
    return tuple(rows)


def direct_sum(
    a: IntersectionLattice,
    b: IntersectionLattice,
    rename: tuple[str, str] = ("", ""),
) -> IntersectionLattice:
    """Orthogonal direct sum of two lattices.

    ``rename`` gives a name prefix for each side; the combined basis must
    be collision free.
    """
    pa, pb = rename
    names = tuple(pa + n for n in a.basis_names) + tuple(pb + n for n in b.basis_names)
    if len(set(names)) != len(names):
        raise LatticeError("basis name collision in direct sum")
    shifted = tuple(tuple((a.rank + j, g) for j, g in row) for row in b.rows)
    return IntersectionLattice(
        names, a.rows + shifted, a.primitive_summand and b.primitive_summand
    )


def coefficient_gcd(v: ClassVector) -> int:
    """Gcd of the absolute coefficients; zero exactly for the zero vector."""
    g = 0
    for c in v.coefficients:
        g = gcd(g, abs(c))
    return g


def _validate_divisor_list(d: int, divisors: list[int]) -> None:
    if d < 1:
        raise LatticeError("invalid divisor list: d must be positive")
    if not divisors or divisors[0] != d:
        raise LatticeError("invalid divisor list: first entry must equal d")
    if len(divisors) - 1 > _MAX_DIVISOR_LIST:
        raise LatticeError("invalid divisor list: too many divisors")
    for di in divisors:
        if di < 1 or d % di != 0:
            raise LatticeError("invalid divisor list: entries must be positive divisors of d")
        if d % 2 == 0 and di % 2 != 0:
            raise LatticeError("invalid divisor list: even d requires even divisors")


def q_set(d: int, divisors: list[int] | tuple[int, ...]) -> frozenset[int]:
    """Set of subset gcds of a divisor list, with the doubling rule for 4 | d.

    For ``d`` odd or congruent to 2 mod 4 this is the set of gcds of all
    non-empty subsets of the list.  When 4 divides ``d``, entries not
    divisible by 4 are doubled before the subsets are formed.
    """
    divisors = list(divisors)
    _validate_divisor_list(d, divisors)
    if d % 4 == 0:
        entries = [di if di % 4 == 0 else 2 * di for di in divisors]
    else:
        entries = divisors
    # A subset's gcd is gcd(last entry, gcd of the rest), so one pass that
    # closes the reached set under each new entry finds them all.
    reached: set[int] = set()
    for x in entries:
        reached |= {gcd(x, r) for r in reached}
        reached.add(x)
    return frozenset(reached)


def odd_part(n: int) -> int:
    n = abs(n)
    while n and n % 2 == 0:
        n //= 2
    return n


def gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g
