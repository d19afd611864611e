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
adds every run of repeated blocks (the nuclei of E(n), the split blocks
of Y_{g,h}, the exceptional classes of blow-ups).  A lattice stores a run
once, as one :class:`BlockRun`: the block, its name prefixes and the copy
count.  The rank, a row, a name and the index of a name are computed
from the run's offset, so building, pairing and validating do work per
run, not per copy; the basis is read only through these accessors, and
a reader of the whole basis (the fibre sum) calls them once per class.
A lattice with runs and the fibre sum check the result's rank against
``MAX_RANK`` before building anything, so an oversized request fails
with a :class:`LatticeError` instead of exhausting memory.

Witnesses are stored the same way, as plain :class:`Witness` items and
:class:`WitnessRun` items, each run one sphere per row of its choice in
every copy of a block run (the dual spheres of E(n), the exceptional
spheres of blow-ups).  A class pairs with a run through its own entries
inside the run (:meth:`WitnessRun.dots`), so :func:`witness_dots` (the
certificates and validation), :func:`split_witnesses` (the surgeries and
the fibre sum, which carry the other copies on as runs) and
:func:`witness_failures` (the adjunction checks) lay out only the copies
the class meets, or the witnesses they report.  Only
:func:`lay_out_witnesses`, which no operation calls, lays out every copy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import LatticeError

# Longest divisor tail q_set accepts: it bounds the divisor list of the
# CLI's qset input.  inequivalent_family has its own limit,
# geography.MAX_SIGN_PATTERNS.
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
    increasing ``i``: the shape of :meth:`IntersectionLattice.row`.  The
    witness does not know the rank; its descriptor checks that every index
    lies below it.  ``genus`` and ``self_intersection`` are declared only
    when a concrete embedded representative of that type is known; the
    adjunction validator skips witnesses with either field missing.
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


def _check_form(rows: tuple[Entries, ...]) -> None:
    """Raise unless ``rows`` are the sparse rows of a symmetric square form."""
    n = len(rows)
    for row in rows:
        _check_entries(row, "a row of the intersection form", n)
    # Symmetry: scanning rows in order, the entries (i, g) met in column
    # j must be exactly row j, in order.  One cursor per row checks it in
    # O(nnz); as every entry takes one slot, no slot is left over.
    taken = [0] * n
    for i, row in enumerate(rows):
        for j, g in row:
            mirror, k = rows[j], taken[j]
            if k == len(mirror) or mirror[k] != (i, g):
                raise LatticeError("intersection form must be symmetric")
            taken[j] = k + 1


def _split_name(name: str) -> tuple[str, int] | None:
    """``(prefix, label)`` of a name spelled ``{prefix}_{label}`` with a
    positive decimal label and no leading zero, as run names are; else None.
    No run reaches a label of 19 digits, so longer ones are not parsed."""
    prefix, sep, label = name.rpartition("_")
    if sep and label.isdecimal() and label.isascii() and label[0] != "0" and len(label) < 19:
        return prefix, int(label)
    return None


def _free_spans(blocked: list[tuple[int, int]], count: int) -> tuple[tuple[int, int], ...]:
    """The first ``count`` labels from 1 up that no ``(lo, hi)`` interval
    of ``blocked`` covers, as maximal ``(lo, hi)`` spans."""
    spans, j = [], 1
    for lo, hi in sorted(blocked):
        if lo > j:
            take = min(lo - j, count)
            spans.append((j, j + take - 1))
            count -= take
            if not count:
                return tuple(spans)
        j = max(j, hi + 1)
    return (*spans, (j, j + count - 1))


class BlockRun(NamedTuple):
    """``count`` orthogonal copies of the square integer ``block``.  Row r
    of a copy is the class ``{prefixes[r]}_{label}``; the lattice holding
    the run checks the block and labels the copies by the rule of
    :func:`append_blocks`."""

    block: tuple[tuple[int, ...], ...]
    prefixes: tuple[str, ...]
    count: int


class WitnessRun(NamedTuple):
    """The sphere witnesses of ``count`` consecutive copies of a block run,
    the first copy at basis index ``start``.  For each ``(r, named)`` of
    ``spheres``, in order, the class in row r of a copy is an embedded
    sphere: genus 0, square ``block[r][r]``, pairings that row of the copy,
    named as row ``named`` of the copy with ``prefix`` put after the last
    ``.``.  A run class's name holds a ``.`` only from the ``N{k}.`` that a
    fibre sum puts before its second side's names, so a run carried there
    names a sphere ``N1.sphere_T1_1``, as the sum names a laid-out one.
    Witness k of the run is sphere ``k % len(spheres)`` of copy
    ``k // len(spheres)``."""

    start: int
    count: int
    block: tuple[tuple[int, ...], ...]
    spheres: tuple[tuple[int, int], ...]
    prefix: str

    @property
    def stop(self) -> int:
        """The basis index after the last copy."""
        return self.start + self.count * len(self.block)

    def witness(self, lat: "IntersectionLattice", k: int) -> Witness:
        """Witness k of the run, laid out over ``lat``."""
        copy, s = divmod(k, len(self.spheres))
        base = self.start + copy * len(self.block)
        r, named = self.spheres[s]
        row = self.block[r]
        pairs = tuple([(base + j, g) for j, g in enumerate(row) if g])
        path, sep, name = lat.name(base + named).rpartition(".")
        return Witness(path + sep + self.prefix + name, pairs, 0, row[r])

    def copies(self, first: int, stop: int) -> "WitnessRun":
        """The run of copies ``first`` to ``stop - 1`` of this one."""
        return self._replace(start=self.start + first * len(self.block), count=stop - first)

    def dots(self, entries: Entries) -> list[tuple[int, int]]:
        """``(k, v . w_k)`` for the witnesses k of every copy in which the
        class with sparse ``entries`` has an entry, by increasing k; the
        other witnesses pair 0 with it.  Only those entries are read."""
        size, n = len(self.block), len(self.spheres)
        rows = [tuple((j, g) for j, g in enumerate(self.block[r]) if g) for r, _ in self.spheres]
        out, stop = [], self.stop
        j, end = bisect_left(entries, (self.start,)), len(entries)
        while j < end and entries[j][0] < stop:
            copy = (entries[j][0] - self.start) // size
            base = self.start + copy * size
            local = []
            while j < end and entries[j][0] < base + size:
                local.append((entries[j][0] - base, entries[j][1]))
                j += 1
            out += [(copy * n + s, sparse_dot(local, row)) for s, row in enumerate(rows)]
        return out


WitnessItems = tuple[Witness | WitnessRun, ...]


def lay_out_witnesses(lat: "IntersectionLattice", items: WitnessItems) -> tuple[Witness, ...]:
    """One :class:`Witness` per surface of ``items``, in order."""
    out: list[Witness] = []
    for w in items:
        if isinstance(w, WitnessRun):
            out += [w.witness(lat, k) for k in range(w.count * len(w.spheres))]
        else:
            out.append(w)
    return tuple(out)


def append_witness_run(items: WitnessItems, run: WitnessRun) -> WitnessItems:
    """``items`` followed by ``run``, which joins a last run that it
    continues; a run of no copies adds nothing."""
    if not run.count:
        return items
    last = items[-1] if items else None
    if isinstance(last, WitnessRun) and last[2:] == run[2:] and last.stop == run.start:
        return items[:-1] + (last._replace(count=last.count + run.count),)
    return items + (run,)


def witness_dots(items: WitnessItems, v: ClassVector) -> tuple[list, int]:
    """The pairings of ``v`` with the witnesses of each item, and their
    gcd: ``dot(v, w)`` for a plain witness, and for a run the pairs of
    :meth:`WitnessRun.dots`."""
    dots, bound = [], 0
    for w in items:
        if isinstance(w, WitnessRun):
            pairs = w.dots(v.entries)
            bound = gcd(bound, *(value for _, value in pairs))
            dots.append(pairs)
        else:
            value = dot(v, w)
            bound = gcd(bound, value)
            dots.append(value)
    return dots, bound


def split_witnesses(
    lat: "IntersectionLattice", items: WitnessItems, v: ClassVector
) -> Iterator[tuple[Witness | WitnessRun, int]]:
    """The items paired with ``v``: each plain witness with ``dot(v, w)``;
    each run split at the copies in which ``v`` has an entry, whose
    witnesses are laid out with their pairings, the copies between kept as
    runs that pair 0 with ``v``."""
    for w in items:
        if not isinstance(w, WitnessRun):
            yield w, dot(v, w)
            continue
        n, done = len(w.spheres), 0
        for k, value in w.dots(v.entries):
            if k // n > done:
                yield w.copies(done, k // n), 0
            yield w.witness(lat, k), value
            done = k // n + 1
        if done < w.count:
            yield w.copies(done, w.count), 0


def witness_failures(
    lat: "IntersectionLattice",
    items: WitnessItems,
    dots: list,
    fails: Callable[[int, int, int], bool],
) -> list[str]:
    """Names, in order, of the witnesses w of declared genus and
    self-intersection for which ``fails(genus, square, v . w)`` holds,
    where ``dots`` are the pairings of :func:`witness_dots`.  A run's
    untouched copies are read only when a sphere pairing 0 with v fails."""
    bad = []
    for w, value in zip(items, dots):
        if not isinstance(w, WitnessRun):
            if w.genus is not None and w.self_intersection is not None:
                if fails(w.genus, w.self_intersection, value):
                    bad.append(w.name)
            continue
        squares = [w.block[r][r] for r, _ in w.spheres]
        values = dict(value)
        n = len(squares)
        ks = range(w.count * n) if any(fails(0, s, 0) for s in squares) else values
        bad += [w.witness(lat, k).name for k in ks if fails(0, squares[k % n], values.get(k, 0))]
    return bad


@dataclass(frozen=True)
class IntersectionLattice:
    """Named basis classes with a symmetric integer intersection form.

    The basis is a head, the classes ``head_names`` with sparse rows
    ``head_rows``, followed by the ``runs`` of repeated blocks, each
    orthogonal to everything else.  A row lists the pairs ``(j, g_ij)``
    with ``g_ij != 0`` by increasing ``j``.  ``rank``, :meth:`row`,
    :meth:`name` and :meth:`index_of` read a run from its block and its
    label spans, and are the only readers of the basis.  Adjacent runs of
    one block and one prefix tuple are stored as one.

    ``primitive_summand`` asserts that the basis spans a primitive direct
    summand of the ambient unimodular second cohomology; it is what makes
    the coefficient gcd of a class vector a valid divisibility bound.
    """

    head_names: tuple[str, ...]
    head_rows: tuple[Entries, ...]
    primitive_summand: bool = True
    runs: tuple[BlockRun, ...] = ()
    rank: int = field(init=False, repr=False, compare=False)
    # The index of each head name; the first index of each run; the rows
    # of one copy of each run at index 0, and the spans of its labels.
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _placed: tuple[tuple[tuple, tuple], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.head_names)
        rows = tuple(map(tuple, self.head_rows))
        object.__setattr__(self, "head_names", names)
        object.__setattr__(self, "head_rows", rows)
        n = len(names)
        index = dict(zip(names, range(n)))
        if len(index) != n:
            raise LatticeError("basis names must be pairwise distinct")
        if len(rows) != n:
            raise LatticeError("intersection form must be square: one row per basis class")
        _check_form(rows)
        object.__setattr__(self, "_index", index)
        if self.runs:
            self._place_runs()
            return
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "_starts", ())
        object.__setattr__(self, "_placed", ())

    def _place_runs(self) -> None:
        """Check each run's block once, merge adjacent runs of one block
        and prefix tuple, check the rank, and label each run's copies: a
        copy takes the first label from 1 up at which no name of its
        prefixes is in the head or in an earlier run, as laying the copies
        out one by one would name them."""
        runs: list[BlockRun] = []
        run_rows: list[tuple[Entries, ...]] = []
        for block, prefixes, count in self.runs:
            block, prefixes = tuple(map(tuple, block)), tuple(prefixes)
            rows = block_diagonal([block])
            if len(set(prefixes)) != len(prefixes):
                raise LatticeError("basis names must be pairwise distinct")
            if len(prefixes) != len(rows):
                raise LatticeError("intersection form must be square: one row per basis class")
            _check_form(rows)
            if count < 1:
                raise LatticeError("a block run needs a positive copy count")
            if runs and runs[-1][:2] == (block, prefixes):
                count += runs.pop().count
                run_rows.pop()
            runs.append(BlockRun(block, prefixes, count))
            run_rows.append(rows)
        starts = [len(self.head_names)]
        for run, rows in zip(runs, run_rows):
            starts.append(starts[-1] + len(rows) * run.count)
        check_rank(starts[-1])
        # Label spans taken so far, by prefix.
        taken: dict[str, list[tuple[int, int]]] = {}
        for prefix, label in filter(None, map(_split_name, self.head_names)):
            taken.setdefault(prefix, []).append((label, label))
        placed = []
        for run, rows in zip(runs, run_rows):
            spans = _free_spans([s for p in run.prefixes for s in taken.get(p, ())], run.count)
            for p in run.prefixes:
                taken.setdefault(p, []).extend(spans)
            placed.append((rows, spans))
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "rank", starts.pop())
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_placed", tuple(placed))

    def _locate(self, i: int) -> tuple[BlockRun, tuple, int, int]:
        """``(run, placed, copy, r)`` of run index ``i``: row r of a copy
        of ``run``, whose entry in ``_placed`` is ``placed``."""
        if not len(self.head_names) <= i < self.rank:
            raise IndexError(f"basis index {i} out of range")
        k = bisect_right(self._starts, i) - 1
        placed = self._placed[k]
        copy, r = divmod(i - self._starts[k], len(placed[0]))
        return self.runs[k], placed, copy, r

    def row(self, i: int) -> Entries:
        """The sparse row of basis class ``i``, without laying out the runs."""
        if 0 <= i < len(self.head_rows):
            return self.head_rows[i]
        _, (rows, _), _, r = self._locate(i)
        return tuple([(i - r + j, g) for j, g in rows[r]])

    def name(self, i: int) -> str:
        """The name of basis class ``i``, without laying out the runs."""
        if 0 <= i < len(self.head_names):
            return self.head_names[i]
        run, (_, spans), copy, r = self._locate(i)
        for lo, hi in spans:
            if copy <= hi - lo:
                return f"{run.prefixes[r]}_{lo + copy}"
            copy -= hi - lo + 1

    def index_of(self, name: str) -> int:
        i = self._index.get(name)
        if i is not None:
            return i
        prefix, label = _split_name(name) or (None, 0)
        for run, start, (rows, spans) in zip(self.runs, self._starts, self._placed):
            if prefix in run.prefixes:
                copy = 0
                for lo, hi in spans:
                    if lo <= label <= hi:
                        copy += label - lo
                        return start + copy * len(rows) + run.prefixes.index(prefix)
                    copy += hi - lo + 1
        raise LatticeError(f"basis mismatch: no class named {name!r}")

    def basis_vector(self, name: str) -> ClassVector:
        return ClassVector(self.rank, ((self.index_of(name), 1),))

    def vector(self, coefficients: dict[str, int]) -> ClassVector:
        """Build a class vector from a {name: coefficient} mapping."""
        pairs = [(self.index_of(name), c) for name, c in coefficients.items()]
        return ClassVector(self.rank, sparse_sum([(1, pairs)]))

    def pairing_row(self, v: ClassVector) -> Entries:
        """The nonzero pairings ``(j, v . e_j)`` of ``v`` with the basis
        classes, by increasing ``j``; for the i-th basis class this is
        ``row(i)``."""
        if v.rank != self.rank:
            raise LatticeError("basis mismatch")
        return sparse_sum((c, self.row(i)) for i, c in v.entries)


def pairing(lat: IntersectionLattice, v: ClassVector, w: ClassVector) -> int:
    """Evaluate the (symmetric) pairing, reading the sparser class's rows."""
    if v.rank != lat.rank or w.rank != lat.rank:
        raise LatticeError("basis mismatch")
    if len(w.entries) < len(v.entries):
        v, w = w, v
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
    appended as one run.  A copy is named ``{prefix}_{j}`` for each prefix,
    at the first index j above the previous copy's where all of these
    names are free; its rows are the rows of one copy, shifted to its
    offset.  The work does not grow with ``count``."""
    if not count:
        return lat
    runs = lat.runs + (BlockRun(block, prefixes, count),)
    return IntersectionLattice(lat.head_names, lat.head_rows, lat.primitive_summand, runs)


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
