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
of Y_{g,h}, the exceptional classes of blow-ups).  A lattice is an ordered
list of mutually orthogonal pieces.  A :class:`HeadPiece` holds a few
named classes with rows of their own: a constructor's classes, or what a
fibre sum leaves of a surface's neighbourhood.  A run is stored once, as
one :class:`BlockRun`: the sparse rows of one copy, its name prefixes,
the copy count and the label spans of its copies.  The rank, a row, a
name and a name's index are computed from a piece's offset, so building,
pairing and validating do work per piece, not per copy.  A fibre sum
drops the surface and its dual with :func:`pieces_without`, which
rebuilds or splits only the piece that holds them and shares every other
piece as it is.  A lattice checks its rank against ``MAX_RANK`` before
building anything that grows with the rank, so an oversized request
fails with a :class:`LatticeError` instead of exhausting memory.

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
from collections import namedtuple
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import LatticeError, decimal

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


def _checked(names, rows) -> tuple[tuple[str, ...], tuple[Entries, ...]]:
    """``names`` and ``rows`` as tuples; raise unless the names are
    distinct and the rows are those of a symmetric form over them."""
    names, rows = tuple(names), tuple(map(tuple, rows))
    if len(set(names)) != len(names):
        raise LatticeError("basis names must be pairwise distinct")
    if len(rows) != len(names):
        raise LatticeError("intersection form must be square: one row per basis class")
    _check_form(rows)
    return names, rows


class HeadPiece(namedtuple("HeadPiece", "names rows")):
    """Named classes (``names``, a tuple of str) with sparse ``rows`` that
    index from the piece's first class, orthogonal to the rest of the
    lattice.  The rows are checked once, when the piece is made;
    ``_replace`` does not check again."""

    __slots__ = ()
    count = 1  # copies, as a run counts them

    def __new__(cls, names, rows):
        return super().__new__(cls, *_checked(names, rows))


class BlockRun(namedtuple("BlockRun", "rows prefixes count spans")):
    """``count`` orthogonal copies of one block, stored as the sparse
    ``rows`` of one copy, indexed from the copy's first class.  Row r of a
    copy is the class ``{prefixes[r]}_{label}``, the copies taking the
    labels of the ``(lo, hi)`` pairs of ``spans`` in order.  The rows are
    checked once, when the run is made, as a head piece's are."""

    __slots__ = ()

    def __new__(cls, rows, prefixes, count, spans):
        prefixes, rows = _checked(prefixes, rows)
        if count < 1:
            raise LatticeError("a block run needs a positive copy count")
        spans = _joined(spans)
        if sum(hi - lo + 1 for lo, hi in spans) != count:
            raise LatticeError("a block run needs one label per copy")
        return super().__new__(cls, rows, prefixes, count, spans)

    def relabeled(self, count: int, spans: Iterable[tuple[int, int]],
                  prefix: str = "") -> "BlockRun":
        """``count`` copies labeled by ``spans``, with ``prefix`` put before
        each name prefix; the rows are not checked again."""
        prefixes = tuple(prefix + p for p in self.prefixes) if prefix else self.prefixes
        return self._replace(prefixes=prefixes, count=count, spans=_joined(spans))

    def copies(self, first: int, stop: int) -> "BlockRun":
        """The run of copies ``first`` to ``stop - 1`` of this one."""
        spans, at = [], 0
        for lo, hi in self.spans:
            a, b = max(first - at, 0), min(stop - at, hi - lo + 1)
            spans += [(lo + a, lo + b - 1)] if a < b else []
            at += hi - lo + 1
        return self.relabeled(stop - first, spans)


Piece = BlockRun | HeadPiece


def _joined(spans: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """``spans`` in order, each joined to the one before when it continues it."""
    out: list[tuple[int, int]] = []
    for lo, hi in spans:
        if out and out[-1][1] + 1 == lo:
            lo = out.pop()[0]
        out.append((lo, hi))
    return tuple(out)


class NameSet:
    """The names of some pieces, and some ``names`` besides, kept per
    piece: each name of a head piece, and the label spans that runs and
    such names take under each prefix."""

    def __init__(self, pieces: Iterable[Piece], names: Iterable[str] = ()):
        self.names: set[str] = set()
        self.spans: dict[str, list[tuple[int, int]]] = {}
        for name in names:
            self.add(name)
        for piece in pieces:
            if isinstance(piece, HeadPiece):
                for name in piece.names:
                    self.add(name)
            else:
                for p in piece.prefixes:
                    self.spans.setdefault(p, []).extend(piece.spans)

    def add(self, name: str) -> None:
        self.names.add(name)
        split = _split_name(name)
        if split:
            self.spans.setdefault(split[0], []).append((split[1], split[1]))

    def __contains__(self, name: str) -> bool:
        prefix, label = _split_name(name) or (None, 0)
        return name in self.names or any(lo <= label <= hi for lo, hi in self.spans.get(prefix, ()))

    def overlaps(self) -> bool:
        """Whether two spans under one prefix share a label.  Sorted by
        their first labels, two spans do exactly when two neighbours do."""
        for spans in self.spans.values():
            spans = sorted(spans)
            if any(lo <= hi for (_, hi), (lo, _) in zip(spans, spans[1:])):
                return True
        return False

    def meets(self, pieces: Iterable[Piece], prefix: str) -> bool:
        """Whether a name of ``pieces``, with ``prefix`` put before it, is
        in the set."""
        return any(
            any(prefix + name in self for name in piece.names) if isinstance(piece, HeadPiece)
            else any(lo <= b and a <= hi for p in piece.prefixes
                     for lo, hi in self.spans.get(prefix + p, ()) for a, b in piece.spans)
            for piece in pieces)


class WitnessRun(NamedTuple):
    """The sphere witnesses of ``count`` consecutive copies of a block run,
    the first copy at basis index ``start``, whose ``rows`` are the sparse
    rows of one copy that the lattice's run holds.  For each ``(r, named)``
    of ``spheres``, the class in row r of a copy is an embedded sphere:
    genus 0, square the entry at r of row r, pairings that row shifted to
    the copy, named as row ``named`` with ``prefix`` put after the last
    ``.``.  A run class's name holds a ``.`` only from the ``N{k}.`` that a
    fibre sum puts before its second side's names, so a run carried there
    names a sphere ``N1.sphere_T1_1``, as the sum names a laid-out one.
    Witness k of the run is sphere ``k % len(spheres)`` of copy
    ``k // len(spheres)``."""

    start: int
    count: int
    rows: tuple[Entries, ...]
    spheres: tuple[tuple[int, int], ...]
    prefix: str

    @property
    def stop(self) -> int:
        """The basis index after the last copy."""
        return self.start + self.count * len(self.rows)

    def square(self, s: int) -> int:
        """The square of sphere s: the entry at r of its row r."""
        r = self.spheres[s][0]
        return dict(self.rows[r]).get(r, 0)

    def witness(self, lat: "IntersectionLattice", k: int) -> Witness:
        """Witness k of the run, laid out over ``lat``."""
        copy, s = divmod(k, len(self.spheres))
        base = self.start + copy * len(self.rows)
        r, named = self.spheres[s]
        pairs = tuple([(base + j, g) for j, g in self.rows[r]])
        path, sep, name = lat.name(base + named).rpartition(".")
        return Witness(path + sep + self.prefix + name, pairs, 0, self.square(s))

    def copies(self, first: int, stop: int) -> "WitnessRun":
        """The run of copies ``first`` to ``stop - 1`` of this one."""
        return self._replace(start=self.start + first * len(self.rows), count=stop - first)

    def dots(self, entries: Entries) -> list[tuple[int, int]]:
        """``(k, v . w_k)`` for the witnesses k of every copy in which the
        class with sparse ``entries`` has an entry, by increasing k; the
        other witnesses pair 0 with it.  Only those entries are read."""
        size, n = len(self.rows), len(self.spheres)
        rows = [self.rows[r] for r, _ in self.spheres]
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
        n = len(w.spheres)
        squares = [w.square(s) for s in range(n)]
        values = dict(value)
        ks = range(w.count * n) if any(fails(0, s, 0) for s in squares) else values
        bad += [w.witness(lat, k).name for k in ks if fails(0, squares[k % n], values.get(k, 0))]
    return bad


@dataclass(frozen=True)
class IntersectionLattice:
    """Named basis classes with a symmetric integer intersection form.

    The basis is an ordered list of ``pieces``, each orthogonal to every
    other: head pieces, named classes with rows of their own, and runs of
    repeated blocks.  A row lists the pairs ``(j, g_ij)`` with
    ``g_ij != 0`` by increasing ``j``.  ``rank``, :meth:`row`,
    :meth:`name` and :meth:`index_of` read a piece from its offset, a run
    from its rows and its label spans, and are the only readers of the
    basis.  Empty pieces are dropped, and adjacent runs of equal rows and
    one prefix tuple are stored as one.  No name may be in two pieces,
    whether a head piece lists it or a run's label spans cover it.

    ``primitive_summand`` asserts that the basis spans a primitive direct
    summand of the ambient unimodular second cohomology; it is what makes
    the coefficient gcd of a class vector a valid divisibility bound.
    """

    pieces: tuple[Piece, ...]
    primitive_summand: bool = True
    rank: int = field(init=False, repr=False, compare=False)
    # The index of each name of the head pieces, and the first index of
    # each piece.
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Drop empty pieces, index the head pieces' names, merge adjacent
        runs, check that no name is in two pieces (a name ``{prefix}_{j}``
        takes label j as a run's span does) and check the rank."""
        index: dict[str, int] = {}
        named = 0
        pieces: list[Piece] = []
        starts: list[int] = []
        stop = 0
        for piece in self.pieces:
            if not piece.rows or not piece.count:
                continue
            if isinstance(piece, HeadPiece):
                index.update(zip(piece.names, range(stop, stop + len(piece.names))))
                named += len(piece.names)
            else:
                last = pieces[-1] if pieces else None
                if isinstance(last, BlockRun) and last[:2] == piece[:2]:  # rows, prefixes
                    pieces.pop()
                    stop = starts.pop()
                    piece = last.relabeled(last.count + piece.count, last.spans + piece.spans)
            pieces.append(piece)
            starts.append(stop)
            stop += len(piece.rows) * piece.count
        if len(index) < named or NameSet(pieces).overlaps():
            raise LatticeError("basis names must be pairwise distinct")
        check_rank(stop)
        self.__dict__.update(pieces=tuple(pieces), rank=stop, _index=index, _starts=tuple(starts))

    def _locate(self, i: int) -> tuple[int, int, int]:
        """``(k, copy, r)`` of basis index ``i``: row r of a copy of piece k."""
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range")
        k = bisect_right(self._starts, i) - 1
        copy, r = divmod(i - self._starts[k], len(self.pieces[k].rows))
        return k, copy, r

    def row(self, i: int) -> Entries:
        """The sparse row of basis class ``i``, without laying out the runs;
        a row of a copy at index 0 is the stored one."""
        k, _, r = self._locate(i)
        row = self.pieces[k].rows[r]
        return tuple([(i - r + j, g) for j, g in row]) if i - r else row

    def name(self, i: int) -> str:
        """The name of basis class ``i``, without laying out the runs."""
        k, copy, r = self._locate(i)
        piece = self.pieces[k]
        if isinstance(piece, HeadPiece):
            return piece.names[r]
        for lo, hi in piece.spans:
            if copy <= hi - lo:
                return f"{piece.prefixes[r]}_{lo + copy}"
            copy -= hi - lo + 1

    def index_of(self, name: str) -> int:
        i = self._index.get(name)
        if i is not None:
            return i
        prefix, label = _split_name(name) or (None, 0)
        for run, start in zip(self.pieces, self._starts):
            if isinstance(run, BlockRun) and prefix in run.prefixes:
                copy = 0
                for lo, hi in run.spans:
                    if lo <= label <= hi:
                        copy += label - lo
                        return start + copy * len(run.prefixes) + run.prefixes.index(prefix)
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


def pieces_without(lat: IntersectionLattice, removed: Iterable[int]) -> tuple[Piece, ...]:
    """The pieces of ``lat`` without the classes at the indices
    ``removed``, which pair with no other class and lie in one copy of a
    piece.  Only that copy's rows are rebuilt, reindexed past the removed
    classes, as a head piece or as a one-copy run between the run's copies
    before and after it, each with its labels.  The parts may be empty; a
    lattice drops them."""
    removed = sorted(removed)
    out: list[Piece] = []
    for piece, start in zip(lat.pieces, lat._starts):
        n = len(piece.rows)
        hit = [i - start for i in removed if start <= i < start + n * piece.count]
        if not hit:
            out.append(piece)
            continue
        copy, hit = hit[0] // n, [j % n for j in hit]
        keep = [r for r in range(n) if r not in hit]
        rows = [tuple((j - bisect_left(hit, j), g) for j, g in piece.rows[r]) for r in keep]
        if isinstance(piece, HeadPiece):
            out.append(HeadPiece([piece.names[r] for r in keep], rows))
        else:
            rest = BlockRun(rows, [piece.prefixes[r] for r in keep], 1,
                            piece.copies(copy, copy + 1).spans)
            out += (piece.copies(0, copy), rest, piece.copies(copy + 1, piece.count))
    return tuple(out)


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
        shown = decimal(rank, LatticeError)
        raise LatticeError(f"lattice rank {shown} exceeds the budget of {MAX_RANK} classes")


def append_blocks(
    lat: IntersectionLattice, block: tuple, prefixes: tuple[str, ...], count: int
) -> IntersectionLattice:
    """``lat`` with ``count`` orthogonal copies of the square ``block``
    appended as one run.  A copy is named ``{prefix}_{j}`` for each prefix,
    at the first index j above the previous copy's where all of these
    names are free, as laying the copies out one by one would name them.
    The block is made the sparse rows of one copy once; a copy's rows are
    those, shifted to its offset.  The work does not grow with ``count``."""
    if not count:
        return lat
    taken = NameSet(lat.pieces).spans
    blocked = [s for p in prefixes for s in taken.get(p, ())]
    run = BlockRun(block_diagonal([block]), prefixes, count, _free_spans(blocked, count))
    return replace(lat, pieces=lat.pieces + (run,))


def coefficient_gcd(v: ClassVector) -> int:
    """Gcd of the coefficients; zero exactly for the zero vector."""
    return gcd(*(c for _, c in v.entries))


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
