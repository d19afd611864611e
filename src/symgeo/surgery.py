"""Cut-and-paste operations on manifold descriptors.

All operations are pure: they take immutable descriptors and return new
ones.  The generalized fibre sum is modeled at the invariant level; the
gluing data itself is not represented.  Callers assert the absence of rim
tori (or the fact that rim tori do not contribute to the canonical class)
through the ``no_rim_tori`` flag, and the assertion is recorded in the
provenance notes.

A surgery surface is given by the operation's own parameters: its class
over the input's lattice, its genus where the operation needs one, its
symplectic sign and whether its complement is simply connected.  Each
operation is registered with ``manifolds.operation`` and builds its
recipe node with ``manifolds.recipe_node`` from its parameter values in
signature order, so its signature is the only copy of its recipe schema.

Witness surfaces are carried through surgeries.  A knot surgery along a
torus T caps every tracked surface meeting T with fibre-genus copies of
the Seifert surface: a witness meeting T in a single point that is
positive for the symplectic orientation of T (pairing +1 for sign ``+``,
-1 for sign ``-``) keeps a declared genus, raised by the knot genus; any
other intersection pattern keeps the pairing vector but forgets the genus.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Container, Iterable

from .errors import ConstructionError, LatticeError, decimal
from .lattice import (
    BlockRun,
    ClassVector,
    Entries,
    HeadPiece,
    IntersectionLattice,
    NameSet,
    Witness,
    WitnessItems,
    WitnessRun,
    append_blocks,
    append_witness_run,
    block_diagonal,
    coefficient_gcd,
    pieces_without,
    sparse_dot,
    sparse_sum,
    split_witnesses,
)
from .manifolds import (
    NOTE_FULL_CANONICAL,
    SPLIT_BLOCK,
    ManifoldDescriptor,
    elliptic_surface,
    operation,
    recipe_node,
    triple_names,
)


_RIM_TORI_POSSIBLE = (
    "rim-tori-possible:rim classes untracked, they do not enter the canonical class here"
)


def _check_sign(sign: str) -> None:
    if sign not in ("+", "-"):
        raise ConstructionError("symplectic sign must be + or -")


def _check_square_zero_indivisible(m: ManifoldDescriptor, surface: ClassVector) -> Entries:
    """The pairing row of ``surface``, once it is checked indivisible and
    of square zero; callers pair it with K rather than read it again."""
    if surface.rank != m.lattice.rank:
        raise ConstructionError("surface class does not live over the descriptor's lattice")
    row = m.lattice.pairing_row(surface)
    if sparse_dot(row, surface.entries) != 0:
        raise ConstructionError("surgery surface must have self-intersection zero")
    if coefficient_gcd(surface) != 1:
        raise ConstructionError("surgery surface class must be indivisible")
    return row


def _derive_minimal(primitive: bool, k: ClassVector) -> str:
    # A canonical class of divisibility >= 2 forces minimality.
    if primitive and coefficient_gcd(k) >= 2:
        return "yes"
    return "unknown"


def _pi1_collapses(desc: ManifoldDescriptor, surface: ClassVector, complement: bool) -> bool:
    """True when gluing along ``surface`` kills the fundamental group of
    the ``desc`` side: either the piece and the surface complement are
    simply connected, or the surface is the class whose image normally
    generates pi_1 of the piece (``desc.pi1_generator``)."""
    if desc.simply_connected and complement:
        return True
    return desc.pi1_generator is not None and surface.entries == ((desc.pi1_generator, 1),)


@dataclass(frozen=True)
class _Side:
    """Resolved data of one summand of a fibre sum."""

    sigma_index: int
    b_witness: Witness | None  # the dual known only as a witness, else tracked
    b_square: int
    b_genus: int | None
    b_row: tuple[tuple[int, int], ...]  # nonzero pairings of the dual with the basis
    # The witness items split at the surface, each with its pairing.
    pieces: tuple[tuple[Witness | WitnessRun, int], ...]
    removed: tuple[int, ...]  # the surface and a tracked dual, by index
    sigma_row: Entries  # nonzero pairings of the surface with the basis


def _resolve_side(desc: ManifoldDescriptor, surface: ClassVector, label: str) -> _Side:
    row = _check_square_zero_indivisible(desc, surface)
    lat = desc.lattice
    entries = surface.entries
    i = entries[0][0] if entries else 0
    if entries != ((i, 1),):
        raise ConstructionError(
            f"fibre-sum surface on the {label} side must be a tracked basis class"
        )
    partners = [(j, g) for j, g in row if j != i]
    if len(partners) > 1:
        raise ConstructionError("fibre-sum surface pairs with more than one tracked class")
    pieces = tuple(split_witnesses(lat, desc.witness_items, surface))
    # A dual meets the surface once, so it is a laid-out piece pairing 1.
    meeting = [w for w, t in pieces if t == 1]
    if partners:
        j, g = partners[0]
        if g != 1:
            raise ConstructionError("tracked dual must meet the surface exactly once")
        row_j = lat.row(j)
        if any(k not in (i, j) for k, _ in row_j):
            raise ConstructionError(
                "tracked dual pairs with classes outside the surface pair"
            )
        b_genus = next(
            (w.genus for w in meeting if w.pairings == row_j and w.genus is not None), None
        )
        b_square = next((g for k, g in row_j if k == j), 0)
        removed = tuple(sorted((i, j)))
        return _Side(i, None, b_square, b_genus, row_j, pieces, removed, row)
    if not meeting:
        raise ConstructionError("no tracked dual surface meets the fibre-sum surface once")
    w = meeting[0]
    if w.self_intersection is None:
        raise ConstructionError("dual surface self-intersection unknown; cannot form fibre sum")
    return _Side(i, w, w.self_intersection, w.genus, w.pairings, pieces, (i,), row)


def _fresh(base: str, taken: Container[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}.{k}"
        k += 1
    return name


def _plain_names(items: Iterable[Witness | WitnessRun]) -> set[str]:
    # A run's witnesses are named ...sphere_... or ...exceptional_..., never
    # after a surgery's new surface, so fresh names are drawn against these.
    return {w.name for w in items if isinstance(w, Witness)}


@operation()
def fibre_sum(
    m: ManifoldDescriptor,
    n: ManifoldDescriptor,
    genus: int,
    class_m: ClassVector,
    sign_m: str,
    complement_m: bool,
    class_n: ClassVector,
    sign_n: str,
    complement_n: bool,
    no_rim_tori: bool,
) -> ManifoldDescriptor:
    """Generalized fibre sum of m and n along square-zero surfaces of genus
    ``genus`` representing the indivisible classes ``class_m`` and
    ``class_n``; ``complement_*`` states that a surface's complement is
    simply connected.  On both sides the genus must satisfy adjunction,
    K.Sigma = 2g - 2.

    The tracked lattice of the result is the orthogonal complement of each
    surface pair, plus the identified surface Sigma_X and the sewn dual
    B_X with B_X^2 the sum of the two dual squares.  The canonical class
    is K_m + K_n - (2g-2) B_X + 2 Sigma_X under the induced embeddings.

    The lattice is an ordered list of pieces: m's pieces, the head piece
    (Sigma_X, B_X), then n's pieces, renamed by the first ``N{k}.`` prefix
    that keeps every name distinct.  Only a piece holding a surface or
    tracked dual is split or rebuilt (``lattice.pieces_without``), and K,
    the witness pairings and the dual's row move by a piecewise index
    shift, so the work grows with the stored pieces, not with the rank.

    The symplectic signs ``sign_m`` and ``sign_n`` are checked and
    recorded but decide nothing.  They stay: every version-1 fibre-sum
    recipe carries them as required lines, and dropping them would need
    a second reader for those files.
    """
    _check_sign(sign_m)
    _check_sign(sign_n)
    if genus < 0:
        raise ConstructionError("surface genus must be non-negative")
    g = genus
    side_m = _resolve_side(m, class_m, "first")
    side_n = _resolve_side(n, class_n, "second")
    for side, desc in ((side_m, m), (side_n, n)):
        if sparse_dot(side.sigma_row, desc.canonical.entries) != 2 * g - 2:
            raise ConstructionError("fibre-sum surface violates the adjunction identity")

    lat_m, lat_n = m.lattice, n.lattice
    m_pieces = pieces_without(lat_m, side_m.removed)
    n_pieces = pieces_without(lat_n, side_n.removed)
    sigma_name = lat_m.name(side_m.sigma_index)
    taken = NameSet(m_pieces, (sigma_name,))
    b_name = _fresh("B_" + sigma_name, taken)
    taken.add(b_name)
    prefix = ""
    k = 0
    while taken.meets(n_pieces, prefix):
        k += 1
        prefix = f"N{k}."

    sigma_pos = lat_m.rank - len(side_m.removed)
    b_pos = sigma_pos + 1
    b_square = side_m.b_square + side_n.b_square
    lattice = IntersectionLattice(
        (
            *m_pieces,
            HeadPiece((sigma_name, b_name), block_diagonal([((0, 1), (1, b_square))])),
            *(p._replace(prefixes=tuple(prefix + x for x in p.prefixes)) if isinstance(p, BlockRun)
              else p._replace(names=tuple(prefix + x for x in p.names)) for p in n_pieces),
        ),
        lat_m.primitive_summand and lat_n.primitive_summand,
    )

    def carry(pairs: Iterable[tuple[int, int]], side: _Side, offset: int, sew: bool) -> list:
        """Sparse ``pairs`` of one side in the sum: an entry at a kept
        class moves by ``offset`` less the removed classes below it; with
        ``sew``, the surface's moves to Sigma_X and a tracked dual's to B_X,
        else they are dropped."""
        gone = side.removed
        out = []
        for i, p in pairs:
            below = bisect_left(gone, i)
            if below < len(gone) and gone[below] == i:
                if sew:
                    out.append((sigma_pos if i == side.sigma_index else b_pos, p))
            else:
                out.append((offset + i - below, p))
        return out

    # K_m + K_n - (2g-2) B_X + 2 Sigma_X, the old Sigma and duals sewn.
    canonical = ClassVector(lattice.rank, sparse_sum([
        (1, carry(m.canonical.entries, side_m, 0, True)),
        (1, carry(n.canonical.entries, side_n, b_pos + 1, True)),
        (1, ((sigma_pos, 2), (b_pos, 2 - 2 * g))),
    ]))

    witnesses: list[Witness | WitnessRun] = []
    dropped: list[str] = []
    zero_notes = False

    def embed_witnesses(side: _Side, offset: int, name_prefix: str) -> None:
        """Carry the witnesses of one side that miss its surface; a witness
        pairing with a tracked dual pairs the same with B_X.  Every copy of
        a run that the surface meets was laid out, so a run piece lies in
        kept classes, contiguous and in order, and moves as a whole; its
        spheres take the ``name_prefix`` of their classes' new names.  It
        joins the item before it when it continues that run.  On the first
        side, a witness below every removed class is kept as it is."""
        nonlocal zero_notes
        for w, t in side.pieces:
            if w is side.b_witness:
                continue
            if t != 0:
                dropped.append(name_prefix + w.name)
                continue
            zero_notes = zero_notes or side.b_witness is not None
            if isinstance(w, WitnessRun):
                start = offset + w.start - bisect_left(side.removed, w.start)
                witnesses[-1:] = append_witness_run(tuple(witnesses[-1:]), w._replace(start=start))
            elif not offset and (not w.pairings or w.pairings[-1][0] < side.removed[0]):
                witnesses.append(w)
            else:
                pairs = sorted(carry(w.pairings, side, offset, True))
                witnesses.append(
                    Witness(name_prefix + w.name, pairs, w.genus, w.self_intersection))

    embed_witnesses(side_m, 0, "")
    embed_witnesses(side_n, b_pos + 1, prefix)

    b_pairings = (
        carry(side_m.b_row, side_m, 0, False)
        + [(sigma_pos, 1)]
        + ([(b_pos, b_square)] if b_square else [])
        + carry(side_n.b_row, side_n, b_pos + 1, False)
    )
    b_genus = None
    if side_m.b_genus is not None and side_n.b_genus is not None:
        b_genus = side_m.b_genus + side_n.b_genus
    b_witness = _fresh(b_name, _plain_names(witnesses))
    witnesses.append(Witness(b_witness, b_pairings, b_genus, b_square))

    simply_connected = (
        m.simply_connected and complement_m and _pi1_collapses(n, class_n, complement_n)
    ) or (
        n.simply_connected and complement_n and _pi1_collapses(m, class_m, complement_m)
    )

    notes = [NOTE_FULL_CANONICAL, "no-rim-tori-asserted" if no_rim_tori else _RIM_TORI_POSSIBLE]
    if dropped:
        notes.append("dropped-witnesses:" + ",".join(dropped))
    if zero_notes:
        notes.append("assumed-disjoint:witness pairings with sewn dual set to zero")

    params = (g, class_m, sign_m, complement_m, class_n, sign_n, complement_n, no_rim_tori)
    recipe = recipe_node("fibre_sum", (m.recipe, n.recipe), params, tuple(notes))
    e = m.e + n.e + 4 * g - 4
    sigma = m.sigma + n.sigma
    return ManifoldDescriptor(
        e=e,
        sigma=sigma,
        simply_connected=simply_connected,
        symplectic=m.symplectic and n.symplectic,
        minimal=_derive_minimal(lattice.primitive_summand, canonical),
        lattice=lattice,
        canonical=canonical,
        witness_items=tuple(witnesses),
        recipe=recipe,
    )


def _cap_witnesses(
    x: ManifoldDescriptor, torus: ClassVector, h: int, sign: str
) -> WitnessItems:
    # Capping with Seifert surfaces leaves the homology class, and hence
    # the self-intersection, untouched; only the genus grows.  A single
    # intersection point, positive for the torus's symplectic orientation,
    # gives an exact new genus; anything else leaves the genus unknown.
    if h == 0:
        return x.witness_items
    positive = 1 if sign == "+" else -1
    out = []
    for w, t in split_witnesses(x.lattice, x.witness_items, torus):
        if t == 0:
            out.append(w)
        elif t == positive and w.genus is not None:
            out.append(replace(w, genus=w.genus + h))
        else:
            out.append(replace(w, genus=None))
    return tuple(out)


@operation()
def knot_surgery(
    x: ManifoldDescriptor, torus: ClassVector, h: int, sign: str, complement: bool
) -> ManifoldDescriptor:
    """Knot surgery along a square-zero torus of symplectic sign ``sign``
    with a fibred knot of genus h; ``complement`` states that the torus's
    complement is simply connected.

    Euler characteristic, signature and the tracked lattice are unchanged;
    the canonical class moves by +- 2h times the torus class.
    """
    if h < 0:
        raise ConstructionError("knot genus must be non-negative")
    _check_sign(sign)
    row = _check_square_zero_indivisible(x, torus)
    if sparse_dot(row, x.canonical.entries) != 0:
        raise ConstructionError("torus violates the adjunction identity")
    shift = torus.scaled(2 * h if sign == "+" else -2 * h)
    canonical = x.canonical + shift
    witnesses = _cap_witnesses(x, torus, h, sign)
    simply_connected = x.simply_connected and complement
    notes = (NOTE_FULL_CANONICAL, f"fibred-knot-genus:{decimal(h, ConstructionError)}")
    recipe = recipe_node("knot_surgery", (x.recipe,), (torus, h, sign, complement), notes)
    return ManifoldDescriptor(
        e=x.e,
        sigma=x.sigma,
        simply_connected=simply_connected,
        symplectic=x.symplectic,
        minimal=_derive_minimal(x.lattice.primitive_summand, canonical),
        lattice=x.lattice,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
    )


@operation()
def generalized_knot_surgery(
    m: ManifoldDescriptor, surface: ClassVector, genus: int, h: int, complement: bool
) -> ManifoldDescriptor:
    """Fibre sum with the bundle Y_{g,h} along its section, glued to a
    square-zero surface of genus g whose complement is simply connected
    (``complement``): raises the Euler characteristic by 4h(g-1), keeps
    the signature, adds the 2h(g-1) split-class blocks and moves the
    canonical class by 2h Sigma."""
    g = genus
    if g <= 1:
        raise ConstructionError("use knot_surgery")
    if h < 1:
        raise ConstructionError("knot genus must be positive")
    sigma_row = _check_square_zero_indivisible(m, surface)
    if not (m.simply_connected and complement):
        raise ConstructionError(
            "generalized knot surgery requires a simply-connected complement"
        )
    if sparse_dot(sigma_row, m.canonical.entries) != 2 * g - 2:
        raise ConstructionError("surface violates the adjunction identity")

    lattice = append_blocks(m.lattice, SPLIT_BLOCK, ("V", "W"), 2 * h * (g - 1))

    canonical = replace(m.canonical + surface.scaled(2 * h), rank=lattice.rank)

    # The new classes pair with no old one, so kept witnesses are unchanged.
    witnesses: list[Witness | WitnessRun] = []
    dropped = []
    for w, t in split_witnesses(m.lattice, m.witness_items, surface):
        if t != 0:
            dropped.append(w.name)
            continue
        witnesses.append(w)
    sigma = _fresh("Sigma", _plain_names(witnesses))
    witnesses.append(Witness(sigma, sigma_row, g, 0))

    notes = [NOTE_FULL_CANONICAL]
    if dropped:
        notes.append("dropped-witnesses:" + ",".join(dropped))
    recipe = recipe_node(
        "generalized_knot_surgery", (m.recipe,), (surface, g, h, complement), tuple(notes))
    return ManifoldDescriptor(
        e=m.e + 4 * h * (g - 1),
        sigma=m.sigma,
        simply_connected=True,
        symplectic=m.symplectic,
        minimal=_derive_minimal(lattice.primitive_summand, canonical),
        lattice=lattice,
        canonical=canonical,
        witness_items=tuple(witnesses),
        recipe=recipe,
    )


@operation()
def log_transform(x: ManifoldDescriptor, p: int) -> ManifoldDescriptor:
    """Logarithmic transform of multiplicity p on an unsurgered E(n)."""
    if p < 1:
        raise ConstructionError("log transform multiplicity must be positive")
    r = x.recipe
    if r.operation != "elliptic_surface" or r.param("p") != 1 or r.param("q") != 1:
        raise ConstructionError("log transform requires an unsurgered elliptic surface")
    n = r.param("n")
    out = elliptic_surface(n, p, 1)
    note = f"multiple-fibre:{decimal(p, ConstructionError)}"
    recipe = recipe_node("log_transform", (x.recipe,), (p,), out.recipe.notes + (note,))
    return replace(out, recipe=recipe)


@operation()
def blow_up(m: ManifoldDescriptor, count: int = 1) -> ManifoldDescriptor:
    """Connected sum with ``count`` reversed projective planes, built in
    one pass and recorded as one recipe node: adds ``count`` exceptional
    classes E_k of square -1, each with its exceptional sphere as a
    witness, and adds their sum to the canonical class."""
    if count < 1:
        raise ConstructionError("blow-up count must be positive")
    lattice = append_blocks(m.lattice, ((-1,),), ("E",), count)
    new = range(m.lattice.rank, lattice.rank)
    canonical = ClassVector(lattice.rank, m.canonical.entries + tuple((i, 1) for i in new))
    spheres = WitnessRun(m.lattice.rank, count, lattice.pieces[-1].rows, ((0, 0),), "exceptional_")
    witnesses = append_witness_run(m.witness_items, spheres)
    recipe = recipe_node("blow_up", (m.recipe,), (count,), (NOTE_FULL_CANONICAL,))
    return ManifoldDescriptor(
        e=m.e + count,
        sigma=m.sigma - count,
        simply_connected=m.simply_connected,
        symplectic=m.symplectic,
        minimal="no",
        lattice=lattice,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
    )


@operation()
def lagrangian_triple_surgery(
    m: ManifoldDescriptor,
    triple_index: int,
    a: int,
    em: int,
    h1: int,
    h2: int,
    sign: str,
) -> ManifoldDescriptor:
    """Composite surgery on a declared rim-torus triple (T_1, T_2, R) with
    R homologous to a T_1 + T_2: fibre sum with E(em) along R, knot
    surgery of genus h1 (signed) on T_1 and of genus h2 on T_2.

    The canonical class becomes K + (am +- 2 h1) T_1 + (m + 2 h2) T_2 with
    m = em, detected by the dual surfaces C_1 and C_2 installed here.
    """
    if a < 1 or em < 1 or h1 < 0 or h2 < 0:
        raise ConstructionError("triple surgery parameters out of range")
    _check_sign(sign)
    t1, d1, r, dr = triple_names(triple_index)
    lat0 = m.lattice
    try:
        t1_0, d1_0, r_0, dr_0 = [lat0.basis_vector(name) for name in (t1, d1, r, dr)]
    except LatticeError:
        raise ConstructionError(f"undeclared triple {triple_index}") from None
    t1_row, r_row = lat0.pairing_row(t1_0), lat0.pairing_row(r_0)
    if any(sparse_dot(row, v.entries) for row in (t1_row, r_row) for v in (t1_0, r_0)):
        raise ConstructionError(f"triple {triple_index} classes are not isotropic")
    if sparse_dot(t1_row, d1_0.entries) != 1 or sparse_dot(r_row, dr_0.entries) != 1:
        raise ConstructionError(f"triple {triple_index} lacks its dual spheres")

    base = elliptic_surface(em, 1, 1)
    summed = fibre_sum(
        m, base, 1,
        r_0, "+", True,
        base.lattice.basis_vector("f"), "+", True,
        no_rim_tori=False,
    )
    # Knot surgery keeps the lattice, so the sum's classes serve every step.
    lat = summed.lattice
    t1_x = lat.basis_vector(t1)
    step2 = knot_surgery(summed, t1_x, h1, sign, True)

    # The second triple torus is only determined after the sum: R_0 - a T_1.
    step3 = knot_surgery(step2, lat.basis_vector(r) - t1_x.scaled(a), h2, "+", True)

    b_name = "B_" + r
    c1_pairings = lat.pairing_row(lat.basis_vector(d1) + lat.basis_vector(b_name).scaled(a))
    c2_name = f"C2_t{triple_index}"
    witnesses = [
        replace(w, name=c2_name) if isinstance(w, Witness) and w.name == b_name else w
        for w in step3.witness_items
    ]
    c1_name = _fresh(f"C1_t{triple_index}", _plain_names(witnesses))
    witnesses.append(Witness(c1_name, c1_pairings))

    notes = (NOTE_FULL_CANONICAL, f"triple:{triple_index}", _RIM_TORI_POSSIBLE)
    recipe = recipe_node(
        "lagrangian_triple_surgery", (m.recipe,), (triple_index, a, em, h1, h2, sign), notes)
    return replace(step3, witness_items=tuple(witnesses), recipe=recipe)
