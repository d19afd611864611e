"""Manifold descriptors and the catalog of atomic building blocks.

A :class:`ManifoldDescriptor` is the symbolic value every constructor and
surgery produces: Euler characteristic and signature, topological flags,
the tracked fragment of the intersection lattice, the canonical class as
a sparse integer vector over that fragment, a list of witness surfaces, and a
provenance recipe that can be re-executed to reproduce the descriptor.

The lattice is an ordered list of pieces: a constructor's named classes
and a fibre sum's leftovers are head pieces, repeated blocks are runs.
The witnesses store the spheres of repeated blocks as
``lattice.WitnessRun`` items: E(n) keeps one run for its 2(n - 1) dual
spheres and ``blow_up`` one for its exceptional spheres.  Every surgery,
the fibre sum and validation read the runs through the ``lattice``
functions, which lay out only the copies a surgery class or K meets, and
carry the other copies and pieces on as they are.  The descriptor's
``witnesses`` property lays out every copy on first read; no operation
reads it.

Atomic pieces:

* relatively minimal elliptic surfaces ``E(n)_{p,q}``,
* fibred-knot products ``M_K x S^1`` of fibre genus ``h``,
* surface bundles ``Y_{g,h}`` used for higher-genus knot surgery,
* a small catalog of minimal complex surfaces of general type.

No constructor states a spin type: ``ManifoldDescriptor.spin`` is read
off the canonical class by ``spin_type``, the one spin rule.

Constructors register with the ``operation`` decorator, which reads the
signature once into an :class:`Operation`, the one record that the CLI,
``realizable`` and recipe replay call a constructor through: recipe
operations into ``OPERATIONS``, the existence constructors into
``geography.EXISTENCE``.  A recipe operation builds its node with
``recipe_node`` from its parameter values in signature order, so the
signature is the only copy of its recipe schema.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd
from types import ModuleType
from typing import Callable, NamedTuple

from .errors import ConstructionError, decimal
from .lattice import (
    ClassVector,
    HeadPiece,
    IntersectionLattice,
    Witness,
    WitnessItems,
    WitnessRun,
    append_blocks,
    append_witness_run,
    block_diagonal,
    coefficient_gcd,
    lay_out_witnesses,
    pairing,
)

# Recipe note markers.  Notes are provenance and no check reads them: the
# markers echo descriptor fields, and replay compares them (``gating_notes``).
NOTE_FULL_CANONICAL = "full-canonical"
NOTE_GENERAL_TYPE = "general-type"
NOTE_PI1_SECTION = "pi1-normally-generated-by:"

ParamValue = int | str | bool | ClassVector


@dataclass(frozen=True)
class ConstructionRecipe:
    """Tree-shaped provenance: operation name, parameters, child recipes."""

    operation: str
    params: tuple[tuple[str, ParamValue], ...] = ()
    inputs: tuple["ConstructionRecipe", ...] = ()
    notes: tuple[str, ...] = ()

    def param(self, name: str) -> ParamValue:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Invariant-level model of a closed oriented 4-manifold.
    ``witness_items`` holds the witness surfaces as plain witnesses and
    witness runs, the form every operation reads; ``witnesses`` lays them
    out.  ``pi1_generator`` indexes a class normally generating pi_1."""

    e: int
    sigma: int
    simply_connected: bool
    symplectic: bool
    minimal: str  # "yes" | "no" | "unknown"
    lattice: IntersectionLattice
    canonical: ClassVector
    witness_items: WitnessItems
    recipe: ConstructionRecipe
    general_type: bool = False
    pi1_generator: int | None = None

    def __post_init__(self):
        if self.minimal not in ("yes", "no", "unknown"):
            raise ConstructionError("minimal must be yes, no or unknown")
        if self.canonical.rank != self.lattice.rank:
            raise ConstructionError("canonical class length does not match lattice rank")
        for w in self.witness_items:
            if isinstance(w, WitnessRun):
                if w.stop > self.lattice.rank:
                    raise ConstructionError(f"witness run {w.prefix!r} pairing length mismatch")
            elif w.pairings and w.pairings[-1][0] >= self.lattice.rank:
                raise ConstructionError(f"witness {w.name!r} pairing length mismatch")

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        """The witness surfaces, one :class:`Witness` each, laid out from
        ``witness_items`` on first read."""
        return lay_out_witnesses(self.lattice, self.witness_items)

    @cached_property
    def spin(self) -> bool | None:
        """Whether the manifold is spin, None when unknown (``spin_type``)."""
        return spin_type(self.lattice, self.canonical, self.sigma)

    @property
    def c1_squared(self) -> int:
        return 2 * self.e + 3 * self.sigma

    @property
    def chi_h(self) -> int:
        if (self.e + self.sigma) % 4 != 0:
            raise ConstructionError("not almost-complex consistent")
        return (self.e + self.sigma) // 4

    @property
    def b2_plus(self) -> int:
        """b2+ = (b2 + sigma) / 2 with b2 = e - 2, valid when b1 = 0."""
        if not self.simply_connected:
            raise ConstructionError("b2+ from e and sigma needs simple connectivity")
        return (self.e - 2 + self.sigma) // 2

    def canonical_square(self) -> int:
        return pairing(self.lattice, self.canonical, self.canonical)


class Operation(NamedTuple):
    """A constructor as its signature declares it: the leading
    ``ManifoldDescriptor`` parameters are its inputs, the rest its
    parameters in order, each optional exactly when defaulted.
    ``constructor`` reads the module attribute at each call, so a wrapper
    installed there sees the calls made through the tables."""

    module: ModuleType
    attr: str
    arity: int
    names: tuple[str, ...]
    kinds: tuple[type, ...]  # the annotations: int, str, bool or ClassVector
    required: tuple[bool, ...]

    @property
    def constructor(self) -> Callable[..., ManifoldDescriptor]:
        return getattr(self.module, self.attr)


# The recipe operations: op name -> Operation.
OPERATIONS: dict[str, Operation] = {}


def operation(name: str | None = None, table: dict[str, Operation] = OPERATIONS):
    """Register the decorated constructor in ``table`` (the recipe
    operations by default) as ``name`` (its own name by default), reading
    its signature once; the constructor is returned unchanged, so calls
    cost nothing extra."""

    def register(fn):
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        arity = sum(1 for p in params if p.annotation is ManifoldDescriptor)
        rest = params[arity:]
        table[name or fn.__name__] = Operation(
            inspect.getmodule(fn), fn.__name__, arity, tuple(p.name for p in rest),
            tuple(p.annotation for p in rest), tuple(p.default is p.empty for p in rest))
        return fn

    return register


def recipe_node(
    op: str, inputs: tuple[ConstructionRecipe, ...], params: tuple, notes: tuple[str, ...]
) -> ConstructionRecipe:
    """The recipe node of the registered operation ``op``: ``params`` are
    its parameter values in signature order."""
    # Unpacked, as ``tuple(zip(...))`` of an iterator of unknown length
    # allocates more (a 2.4 % higher small_sweep tracemalloc peak).
    return ConstructionRecipe(op, (*zip(OPERATIONS[op].names, params),), inputs, notes)


def spin_type(lattice: IntersectionLattice, k: ClassVector, sigma: int) -> bool | None:
    """Spin type of a manifold with canonical class ``k`` over ``lattice``
    and signature ``sigma``; None when unknown.  K is characteristic, so
    the manifold is spin exactly when K is 2-divisible:

    * an even coefficient gcd (0 included) makes K / 2 an integral class;
    * K odd on a primitive summand is not 2-divisible;
    * a tracked class of odd square makes the form odd;
    * a spin signature is divisible by 16 (Rochlin's theorem).

    The squares are read once from each piece.
    """
    if coefficient_gcd(k) % 2 == 0:
        return True
    if lattice.primitive_summand:
        return False
    rows = (piece.rows for piece in lattice.pieces)
    if any(g % 2 for one in rows for i, row in enumerate(one) for j, g in row if j == i):
        return False
    return None if sigma % 16 == 0 else False


@dataclass(frozen=True)
class Invariants:
    """Derived numerical invariants; Betti fields need simple connectivity."""

    c1_squared: int
    chi_h: int | None
    b2: int | None
    b2_plus: int | None
    b2_minus: int | None


def derived_invariants(m: ManifoldDescriptor) -> Invariants:
    """Compute c1^2, chi_h and (for simply-connected manifolds) b2 data."""
    try:
        chi = m.chi_h
    except ConstructionError:
        if m.symplectic and m.simply_connected:
            raise
        chi = None
    if not m.simply_connected:
        return Invariants(m.c1_squared, chi, None, None, None)
    b2, b2_plus = m.e - 2, m.b2_plus
    return Invariants(m.c1_squared, chi, b2, b2_plus, b2 - b2_plus)


# --- elliptic surfaces -----------------------------------------------------

# Per rim-torus triple i, the tracked nucleus classes: two Lagrangian tori
# T1_i, R_i, each with a dual sphere (D1_i, DR_i) of square -2 meeting it
# once.  The third torus of the triple, a*T1_i + (R_i - a*T1_i), is derived
# at surgery time.  Pairings between different triples, and between triples
# and the fibre, are zero: the nuclei are pairwise disjoint.
_TRIPLE_PREFIXES = ("T1", "D1", "R", "DR")
SPLIT_BLOCK = ((2, 1), (1, 0))


def triple_names(i: int) -> tuple[str, str, str, str]:
    return tuple([f"{p}_{i}" for p in _TRIPLE_PREFIXES])


@operation()
def elliptic_surface(n: int, p: int, q: int) -> ManifoldDescriptor:
    """The relatively minimal elliptic surface E(n)_{p,q} without section
    obstructions modeled: canonical class (npq - p - q) f with f primitive.

    The tracked lattice holds the fibre class f and the n-1 rim-torus
    triples with their dual spheres.
    """
    if n < 1 or p < 1 or q < 1:
        raise ConstructionError("elliptic surface parameters must be positive")
    if gcd(p, q) != 1:
        raise ConstructionError("multiple fibres not coprime")
    nucleus_pair = ((0, 1, 0, 0), (1, -2, 0, 0), (0, 0, 0, 1), (0, 0, 1, -2))
    head = IntersectionLattice((HeadPiece(("f",), ((),)),))
    lat = append_blocks(head, nucleus_pair, _TRIPLE_PREFIXES, n - 1)
    k_coeff = n * p * q - p - q
    canonical = lat.vector({"f": k_coeff})

    notes = [NOTE_FULL_CANONICAL, f"rim-torus-triples:{n - 1}"]
    fibre_dual_row = ((0, 1),)  # meets f once, nuclei not at all
    if p == 1 and q == 1:
        # Honest section: sphere of square -n meeting the fibre once.
        witnesses = (Witness("section", fibre_dual_row, 0, -n),)
    else:
        # Dual class to the multiple fibre; a sphere meeting f once exists
        # when one multiplicity is 1, a dual class always by unimodularity.
        witnesses = (Witness("fibre_dual", fibre_dual_row),)
        notes.append("axiomatic-dual:fibre_dual")
    # In each nucleus the dual spheres D1 and DR (rows 1, 3) are named
    # after the torus they meet (rows 0, 2).
    spheres = WitnessRun(head.rank, n - 1, lat.pieces[-1].rows, ((1, 0), (3, 2)), "sphere_")
    witnesses = append_witness_run(witnesses, spheres)
    notes.append("assumed-disjoint:cross-nucleus pairings set to zero")

    if n >= 2:
        minimal = "yes"
    else:
        minimal = "yes" if (p > 1 and q > 1) else "no"
    recipe = recipe_node("elliptic_surface", (), (n, p, q), tuple(notes))
    return ManifoldDescriptor(
        e=12 * n,
        sigma=-8 * n,
        simply_connected=True,
        symplectic=True,
        minimal=minimal,
        lattice=lat,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
    )


@operation()
def knot_product(h: int) -> ManifoldDescriptor:
    """M_K x S^1 for a fibred knot K of genus h; h = 0 models the unknot.

    The lattice is the hyperbolic pair (T_K, B_K) of section torus and
    fibre; the canonical class is (2h - 2) T_K by adjunction.
    """
    if h < 0:
        raise ConstructionError("fibre genus must be non-negative")
    lat = IntersectionLattice((HeadPiece(("T_K", "B_K"), block_diagonal([((0, 1), (1, 0))])),))
    canonical = lat.vector({"T_K": 2 * h - 2})
    witnesses = (
        Witness("section_torus", lat.row(0), 1, 0),
        Witness("fibre", lat.row(1), h, 0),
    )
    genus = decimal(h, ConstructionError)
    notes = (NOTE_FULL_CANONICAL, NOTE_PI1_SECTION + "T_K", "b1:2", f"fibre-genus:{genus}")
    recipe = recipe_node("knot_product", (), (h,), notes)
    return ManifoldDescriptor(
        e=0,
        sigma=0,
        simply_connected=False,
        symplectic=h >= 1,
        minimal="unknown",
        lattice=lat,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
        pi1_generator=lat.index_of("T_K"),
    )


@operation("surface_bundle_Y")
def surface_bundle_y(g: int, h: int) -> ManifoldDescriptor:
    """The Sigma_h-bundle over Sigma_g built from g fibre sums of knot
    products; carries 2h(g-1) split-class blocks [[2,1],[1,0]] besides the
    hyperbolic (section, fibre) pair."""
    if g < 1 or h < 1:
        raise ConstructionError("bundle genera must be positive")
    pair = HeadPiece(("Sigma_S", "Sigma_F"), block_diagonal([((0, 1), (1, 0))]))
    lat = append_blocks(IntersectionLattice((pair,)), SPLIT_BLOCK, ("V", "W"), 2 * h * (g - 1))
    canonical = lat.vector({"Sigma_S": 2 * h - 2, "Sigma_F": 2 * g - 2})
    witnesses = (
        Witness("section", lat.row(0), g, 0),
        Witness("fibre", lat.row(1), h, 0),
    )
    notes = (NOTE_FULL_CANONICAL, NOTE_PI1_SECTION + "Sigma_S", f"b1:{2 * g}")
    recipe = recipe_node("surface_bundle_Y", (), (g, h), notes)
    return ManifoldDescriptor(
        e=4 * (g - 1) * (h - 1),
        sigma=0,
        simply_connected=False,
        symplectic=True,
        minimal="unknown",
        lattice=lat,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
        pi1_generator=lat.index_of("Sigma_S"),
    )


# --- catalog of general-type surfaces --------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog surface, stored as invariants over a rank-one lattice;
    its full cohomology is not modeled.

    The single basis class is K / divisibility, so its square is
    c1^2 / divisibility^2.  ``checks`` are (predicate, message) pairs over
    the parameters; ``invariants`` maps the parameters to (chi_h, c1^2).
    """

    params: tuple[str, ...]
    checks: tuple[tuple[Callable[..., bool], str], ...]
    invariants: Callable[..., tuple[int, int]]
    divisibility: int  # K = divisibility * basis class
    notes: tuple[str, ...]
    witness: str | None  # "canonical_dual", "genus2_fibre" or none
    basis: str = "A"
    primitive: bool = True


_GENUS2 = ("genus-2-fibration", "noether-line")

# name -> (params, checks, (chi_h, c1^2), divisibility, notes, witness)
CATALOG: dict[str, CatalogEntry] = {
    "barlow": CatalogEntry((), (), lambda: (1, 1), 1, ("numerical-Godeaux",), "canonical_dual"),
    "lee_park": CatalogEntry(
        (), (), lambda: (1, 2), 1, ("numerical-Campedelli",), "canonical_dual"),
    "enriques_k1_pg1": CatalogEntry((), (), lambda: (2, 1), 1, (), "canonical_dual"),
    "enriques_k2_pg1": CatalogEntry((), (), lambda: (2, 2), 1, (), "canonical_dual"),
    "godeaux_like": CatalogEntry(
        ("k_sq", "p_g"),
        (
            (lambda k_sq, p_g: k_sq in (1, 2), "godeaux_like covers K^2 = 1 or 2 only"),
            (lambda k_sq, p_g: p_g >= 0 and k_sq >= 2 * p_g - 4,
             "p_g violates the Noether inequality"),
        ),
        lambda k_sq, p_g: (p_g + 1, k_sq), 1, (), "canonical_dual"),
    # Spin surface on the Noether line; the genus-2 fibration pins the
    # divisibility to exactly 2.
    "horikawa_spin": CatalogEntry(
        ("r",), ((lambda r: r >= 1 and r % 2 == 1, "horikawa_spin requires odd r"),),
        lambda r: (4 * r + 3, 8 * r), 2, _GENUS2, "genus2_fibre"),
    "horikawa_nonspin": CatalogEntry(
        ("s",), ((lambda s: s >= 1, "horikawa_nonspin requires s >= 1"),),
        lambda s: (4 * s + 3, 8 * s), 1, _GENUS2, "genus2_fibre"),
    # The genus-2 fibration bounds the divisibility by 2, but the exact
    # divisibility is not pinned down: K_M is not known primitive, so the
    # certificate stays open, and so does spin where K_M^2 and sigma allow it.
    "persson": CatalogEntry(
        ("x", "y"),
        ((lambda x, y: x >= 3 and 2 * x - 6 <= y <= 4 * x - 8, "outside Persson sector"),),
        lambda x, y: (x, y), 1, ("genus-2-fibration", "divisibility-in-1-2", "spin-undetermined"),
        None, basis="K_M", primitive=False),
}


def catalog(name: str, *params: int) -> ManifoldDescriptor:
    """Catalog surfaces of general type used as covering bases; the
    entries and their parameters are the keys and ``params`` of CATALOG."""
    entry = CATALOG.get(name)
    if entry is None:
        raise ConstructionError(f"unknown catalog entry {name!r}")
    if len(params) != len(entry.params):
        raise ConstructionError(
            f"catalog entry {name!r} takes parameters ({', '.join(entry.params)})"
        )
    for check, message in entry.checks:
        if not check(*params):
            raise ConstructionError(message)
    chi_h, c1_sq = entry.invariants(*params)
    d = entry.divisibility
    if c1_sq % (d * d) != 0:
        raise ConstructionError("catalog divisibility inconsistent with c1^2")
    lat = IntersectionLattice(
        (HeadPiece((entry.basis,), block_diagonal([((c1_sq // (d * d),),)])),),
        primitive_summand=entry.primitive,
    )
    notes = (NOTE_FULL_CANONICAL, NOTE_GENERAL_TYPE) + entry.notes
    witnesses: tuple[Witness, ...] = ()
    if entry.witness == "canonical_dual":
        witnesses = (Witness("canonical_dual", ((0, 1),)),)
        notes += ("axiomatic-dual:canonical_dual",)
    elif entry.witness == "genus2_fibre":
        # A genus-2 fibre of square zero pairs 2 with K, i.e. 2/d with A.
        witnesses = (Witness("genus2_fibre", ((0, 2 // d),), 2, 0),)
    recipe = ConstructionRecipe(
        "catalog", (("name", name),) + tuple(zip(entry.params, params)), (), notes
    )
    return ManifoldDescriptor(
        e=12 * chi_h - c1_sq,
        sigma=c1_sq - 8 * chi_h,
        simply_connected=True,
        symplectic=True,
        minimal="yes",
        lattice=lat,
        canonical=lat.vector({entry.basis: d}),
        witness_items=witnesses,
        recipe=recipe,
        general_type=True,
    )


def gating_notes(notes: tuple[str, ...]) -> tuple[str, ...]:
    """The marker notes among ``notes``, in order."""
    gates = (NOTE_FULL_CANONICAL, NOTE_GENERAL_TYPE)
    return tuple(n for n in notes if n in gates or n.startswith(NOTE_PI1_SECTION))


def with_recipe_notes(m: ManifoldDescriptor, *extra: str) -> ManifoldDescriptor:
    """Copy a descriptor with extra provenance notes appended."""
    recipe = replace(m.recipe, notes=m.recipe.notes + tuple(extra))
    return replace(m, recipe=recipe)
