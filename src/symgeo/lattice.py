"""Exact integer bilinear-form arithmetic.

An :class:`IntersectionLattice` is the tracked fragment of the second
cohomology of a 4-manifold: a list of named basis classes together with
their integer intersection form.  Rows of the form, the pairings of a
witness surface with the basis and class vectors over the basis all have
one sparse shape: the nonzero ``(index, value)`` pairs, by increasing
index.  One check guards that shape, one merge adds and scales such
lists, and one dot pairs two of them, so every cost grows with the stored
entries, not with the rank.  All arithmetic is done with Python integers,
so values are exact at any size.

Lattices grow by a parameter in one place only: :func:`append_blocks`
lays out every run of repeated blocks (the nuclei of E(n), the split
blocks of Y_{g,h}, the exceptional classes of blow-ups).  It and the
fibre sum check the result's rank against ``MAX_RANK`` before building
anything, so an oversized request fails with a :class:`LatticeError`
instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import LatticeError

# inequivalent_family enumerates 2^N sign patterns of an N-entry divisor
# tail; inputs beyond this are a bug.
_MAX_DIVISOR_LIST = 20

# Size budget in basis classes.  At about 625 B per stored blow-up class
# it caps a descriptor near 0.65 GB.  Read at call time by check_rank.
MAX_RANK = 1 << 20

Entries = tuple[tuple[int, int], ...]


def _check_entries(pairs: Entries, what: str, bound: int | None = None) -> None:
    """Raise unless ``pairs`` lists nonzero values by strictly increasing,
    non-negative index, below ``bound`` when one is given."""
    last = -1
    for i, x in pairs:
        if not last < i or not x:
            break
        last = i
    else:  # every entry is in shape; only the bound is left
        if bound is None or last < bound:
            return
    below = "" if bound is None else f" below {bound}"
    raise LatticeError(f"{what} must list nonzero entries by increasing index{below}")


def sparse_sum(terms: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> Entries:
    """The entries of the sum of ``k * pairs`` over the ``(k, pairs)``
    terms, in the shared shape; the pairs need not be sorted or nonzero."""
    acc: dict[int, int] = {}
    for k, pairs in terms:
        for i, x in pairs:
            acc[i] = acc.get(i, 0) + k * x
    return tuple(sorted((i, x) for i, x in acc.items() if x))


def sparse_dot(a: Entries, b: Entries) -> int:
    """Sum of ``x * y`` over the indices two entry lists share, in one
    merge pass over both."""
    total, j, n = 0, 0, len(b)
    for i, x in a:
        while j < n and b[j][0] < i:
            j += 1
        if j == n:
            break
        if b[j][0] == i:
            total += x * b[j][1]
    return total


@dataclass(frozen=True)
class ClassVector:
    """Integer class over a lattice basis of size ``rank``, stored by its
    nonzero coefficients: ``entries`` lists the pairs ``(i, c)`` by
    increasing ``i``, the shape of a lattice row."""

    rank: int
    entries: Entries = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        _check_entries(self.entries, "class vector", self.rank)

    def _combined(self, *terms: tuple[int, "ClassVector"]) -> "ClassVector":
        if any(v.rank != self.rank for _, v in terms):
            raise LatticeError("basis mismatch")
        return ClassVector(self.rank, sparse_sum((k, v.entries) for k, v in terms))

    def __add__(self, other: "ClassVector") -> "ClassVector":
        return self._combined((1, self), (1, other))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self._combined((1, self), (-1, other))

    def __neg__(self) -> "ClassVector":
        return self.scaled(-1)

    def scaled(self, k: int) -> "ClassVector":
        return self._combined((k, self))

    def is_zero(self) -> bool:
        return not self.entries


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
    pairings: Entries
    genus: int | None = None
    self_intersection: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairings", tuple(map(tuple, self.pairings)))
        _check_entries(self.pairings, f"witness {self.name!r}")
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
    rows: tuple[Entries, ...]
    primitive_summand: bool = True

    def __post_init__(self):
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        n = len(self.basis_names)
        if len(set(self.basis_names)) != n:
            raise LatticeError("basis names must be pairwise distinct")
        if len(self.rows) != n:
            raise LatticeError("intersection form must be square: one row per basis class")
        for row in self.rows:
            _check_entries(row, "a row of the intersection form", n)
        # Symmetry: scanning rows in order, the entries (i, g) met in column
        # j must be exactly row j, in order.  One cursor per row checks it in
        # O(nnz); as every entry takes one slot, no slot is left over.
        taken = [0] * n
        for i, row in enumerate(self.rows):
            for j, g in row:
                mirror, k = self.rows[j], taken[j]
                if k == len(mirror) or mirror[k] != (i, g):
                    raise LatticeError("intersection form must be symmetric")
                taken[j] = k + 1

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise LatticeError(f"basis mismatch: no class named {name!r}") from None

    def basis_vector(self, name: str) -> ClassVector:
        return ClassVector(self.rank, ((self.index_of(name), 1),))

    def vector(self, coefficients: dict[str, int]) -> ClassVector:
        """Build a class vector from a {name: coefficient} mapping."""
        pairs = [(self.index_of(name), c) for name, c in coefficients.items()]
        return ClassVector(self.rank, sparse_sum([(1, pairs)]))

    def pairing_row(self, v: ClassVector) -> Entries:
        """The nonzero pairings ``(j, v . e_j)`` of ``v`` with the basis
        classes, by increasing ``j``; for the i-th basis class this is
        ``rows[i]``."""
        if v.rank != self.rank:
            raise LatticeError("basis mismatch")
        return sparse_sum((c, self.rows[i]) for i, c in v.entries)


def pairing(lat: IntersectionLattice, v: ClassVector, w: ClassVector) -> int:
    """Evaluate the intersection pairing of two class vectors."""
    if w.rank != lat.rank:
        raise LatticeError("basis mismatch")
    return sparse_dot(lat.pairing_row(v), w.entries)


def dot(v: ClassVector, w: Witness) -> int:
    """Pair a class vector with a witness over the same lattice."""
    return sparse_dot(v.entries, w.pairings)


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


def check_rank(rank: int) -> None:
    """Raise unless a lattice of ``rank`` classes fits the size budget."""
    if rank > MAX_RANK:
        raise LatticeError(f"lattice rank {rank} exceeds the budget of {MAX_RANK} classes")


def append_blocks(
    lat: IntersectionLattice, block: tuple, prefixes: tuple[str, ...], count: int
) -> IntersectionLattice:
    """``lat`` with ``count`` orthogonal copies of the square ``block``
    appended.  A copy is named ``{prefix}_{j}`` for each prefix, at the
    first index j above the previous copy's where all of these names are
    free; its rows are the rows of one copy, shifted to its offset."""
    check_rank(lat.rank + len(block) * count)
    if not count:
        return lat
    taken = set(lat.basis_names)
    names = list(lat.basis_names)
    j = 0
    for _ in range(count):
        j += 1
        while not taken.isdisjoint(copy := [f"{p}_{j}" for p in prefixes]):
            j += 1
        names += copy
    one, size = block_diagonal([block]), len(block)
    offsets = range(lat.rank, lat.rank + size * count, size)
    shifted = (tuple([(k + i, g) for i, g in row]) for k in offsets for row in one)
    return IntersectionLattice(tuple(names), lat.rows + tuple(shifted), lat.primitive_summand)


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
    """Gcd of the coefficients; zero exactly for the zero vector."""
    return gcd_all(c for _, c in v.entries)


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
    """Non-negative gcd of the values; zero when all are zero or none is given."""
    return gcd(*values)
