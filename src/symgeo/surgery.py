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

from dataclasses import dataclass, replace
from typing import Container, Iterable

from .errors import ConstructionError, LatticeError
from .lattice import (
    ClassVector,
    IntersectionLattice,
    Witness,
    WitnessItems,
    WitnessRun,
    append_blocks,
    append_witness_run,
    block_diagonal,
    check_rank,
    coefficient_gcd,
    pairing,
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


def _check_square_zero_indivisible(m: ManifoldDescriptor, surface: ClassVector) -> None:
    if surface.rank != m.lattice.rank:
        raise ConstructionError("surface class does not live over the descriptor's lattice")
    if pairing(m.lattice, surface, surface) != 0:
        raise ConstructionError("surgery surface must have self-intersection zero")
    if coefficient_gcd(surface) != 1:
        raise ConstructionError("surgery surface class must be indivisible")


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

    desc: ManifoldDescriptor
    sigma_index: int
    b_basis_index: int | None  # dual surface tracked as a basis class
    b_witness: Witness | None  # or known only as a witness
    b_square: int
    b_genus: int | None
    b_row: tuple[tuple[int, int], ...]  # nonzero pairings of the dual with the basis
    # The witness items split at the surface, each with its pairing.
    pieces: tuple[tuple[Witness | WitnessRun, int], ...]

    @property
    def kept(self) -> list[int]:
        removed = (self.sigma_index, self.b_basis_index)
        return [i for i in range(self.desc.lattice.rank) if i not in removed]


def _resolve_side(desc: ManifoldDescriptor, surface: ClassVector, label: str) -> _Side:
    _check_square_zero_indivisible(desc, surface)
    lat = desc.lattice
    entries = surface.entries
    i = entries[0][0] if entries else 0
    if entries != ((i, 1),):
        raise ConstructionError(
            f"fibre-sum surface on the {label} side must be a tracked basis class"
        )
    partners = [(j, g) for j, g in lat.row(i) if j != i]
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
        return _Side(desc, i, j, None, b_square, b_genus, row_j, pieces)
    if not meeting:
        raise ConstructionError("no tracked dual surface meets the fibre-sum surface once")
    w = meeting[0]
    if w.self_intersection is None:
        raise ConstructionError("dual surface self-intersection unknown; cannot form fibre sum")
    return _Side(desc, i, None, w, w.self_intersection, w.genus, w.pairings, pieces)


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
    for desc, surface in ((m, class_m), (n, class_n)):
        if pairing(desc.lattice, desc.canonical, surface) != 2 * g - 2:
            raise ConstructionError("fibre-sum surface violates the adjunction identity")

    m_keep = side_m.kept
    n_keep = side_n.kept
    check_rank(len(m_keep) + 2 + len(n_keep))
    m_names = [m.lattice.name(i) for i in m_keep]
    sigma_name = m.lattice.name(side_m.sigma_index)
    taken = set(m_names) | {sigma_name}
    b_name = _fresh("B_" + sigma_name, taken)
    taken.add(b_name)

    raw_n_names = [n.lattice.name(i) for i in n_keep]
    prefix = ""
    if any(name in taken for name in raw_n_names):
        k = 1
        while True:
            prefix = f"N{k}."
            if all(prefix + name not in taken for name in raw_n_names):
                break
            k += 1
    n_names = [prefix + name for name in raw_n_names]
    new_names = tuple(m_names + [sigma_name, b_name] + n_names)

    sigma_pos = len(m_keep)
    b_pos = sigma_pos + 1
    b_square = side_m.b_square + side_n.b_square
    # Old-to-new index of the kept classes of each side.
    m_index = {i: pos for pos, i in enumerate(m_keep)}
    n_index = {i: b_pos + 1 + pos for pos, i in enumerate(n_keep)}

    def carry(pairs: tuple[tuple[int, int], ...], index: dict[int, int]) -> list:
        """The entries of sparse ``pairs`` at kept classes, re-indexed."""
        return [(index[i], p) for i, p in pairs if i in index]

    # No kept class pairs with a removed one, so re-indexing the kept rows
    # of each side loses no entry.
    def kept_rows(side: _Side, index: dict[int, int]) -> tuple:
        lat = side.desc.lattice
        return tuple(tuple(carry(lat.row(i), index)) for i in index)

    lattice = IntersectionLattice(
        new_names,
        kept_rows(side_m, m_index)
        + block_diagonal([((0, 1), (1, b_square))], sigma_pos)
        + kept_rows(side_n, n_index),
        m.lattice.primitive_summand and n.lattice.primitive_summand,
    )

    def sewn(side: _Side, index: dict[int, int]) -> dict[int, int]:
        """``index`` extended by the surface, carried to Sigma_X, and a
        tracked dual, carried to B_X."""
        out = {**index, side.sigma_index: sigma_pos}
        if side.b_basis_index is not None:
            out[side.b_basis_index] = b_pos
        return out

    m_sewn, n_sewn = sewn(side_m, m_index), sewn(side_n, n_index)
    # K_m + K_n - (2g-2) B_X + 2 Sigma_X, the old Sigma and duals sewn.
    canonical = ClassVector(len(new_names), sparse_sum([
        (1, carry(m.canonical.entries, m_sewn)),
        (1, carry(n.canonical.entries, n_sewn)),
        (1, ((sigma_pos, 2), (b_pos, 2 - 2 * g))),
    ]))

    witnesses: list[Witness | WitnessRun] = []
    dropped: list[str] = []
    zero_notes = False

    def embed_witnesses(side: _Side, index: dict[int, int], name_prefix: str) -> None:
        """Carry the witnesses of one side that miss its surface; a witness
        pairing with a tracked dual pairs the same with B_X.  Every copy of
        a run that the surface meets was laid out, so a run piece lies in
        kept classes, contiguous and in order, and moves as a whole; its
        spheres take the ``name_prefix`` of their classes' new names.  It
        joins the item before it when it continues that run."""
        nonlocal zero_notes
        for w, t in side.pieces:
            if w is side.b_witness:
                continue
            if t != 0:
                dropped.append(name_prefix + w.name)
                continue
            zero_notes = zero_notes or side.b_basis_index is None
            if isinstance(w, WitnessRun):
                run = w._replace(start=index[w.start])
                witnesses[-1:] = append_witness_run(tuple(witnesses[-1:]), run)
                continue
            pairs = sorted(carry(w.pairings, index))
            witnesses.append(Witness(name_prefix + w.name, pairs, w.genus, w.self_intersection))

    embed_witnesses(side_m, m_sewn, "")
    embed_witnesses(side_n, n_sewn, prefix)

    b_pairings = (
        carry(side_m.b_row, m_index)
        + [(sigma_pos, 1)]
        + ([(b_pos, b_square)] if b_square else [])
        + carry(side_n.b_row, n_index)
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
    _check_square_zero_indivisible(x, torus)
    if pairing(x.lattice, x.canonical, torus) != 0:
        raise ConstructionError("torus violates the adjunction identity")
    shift = torus.scaled(2 * h if sign == "+" else -2 * h)
    canonical = x.canonical + shift
    witnesses = _cap_witnesses(x, torus, h, sign)
    simply_connected = x.simply_connected and complement
    notes = (NOTE_FULL_CANONICAL, f"fibred-knot-genus:{h}")
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
    _check_square_zero_indivisible(m, surface)
    if not (m.simply_connected and complement):
        raise ConstructionError(
            "generalized knot surgery requires a simply-connected complement"
        )
    if pairing(m.lattice, m.canonical, surface) != 2 * g - 2:
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
    sigma_row = m.lattice.pairing_row(surface)
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
    recipe = recipe_node(
        "log_transform", (x.recipe,), (p,), out.recipe.notes + (f"multiple-fibre:{p}",))
    return replace(out, recipe=recipe)


@operation()
def blow_up(m: ManifoldDescriptor, count: int = 1) -> ManifoldDescriptor:
    """Connected sum with ``count`` reversed projective planes, built in
    one pass and recorded as one recipe node: adds ``count`` exceptional
    classes E_k of square -1, each with its exceptional sphere as a
    witness, and adds their sum to the canonical class."""
    if count < 1:
        raise ConstructionError("blow-up count must be positive")
    exceptional = ((-1,),)
    lattice = append_blocks(m.lattice, exceptional, ("E",), count)
    new = range(m.lattice.rank, lattice.rank)
    canonical = ClassVector(lattice.rank, m.canonical.entries + tuple((i, 1) for i in new))
    spheres = WitnessRun(m.lattice.rank, count, exceptional, ((0, 0),), "exceptional_")
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
        for name in (t1, d1, r, dr):
            lat0.index_of(name)
    except LatticeError:
        raise ConstructionError(f"undeclared triple {triple_index}") from None
    tori = (lat0.basis_vector(t1), lat0.basis_vector(r))
    if any(pairing(lat0, u, v) != 0 for u in tori for v in tori):
        raise ConstructionError(f"triple {triple_index} classes are not isotropic")
    if (
        pairing(lat0, tori[0], lat0.basis_vector(d1)) != 1
        or pairing(lat0, tori[1], lat0.basis_vector(dr)) != 1
    ):
        raise ConstructionError(f"triple {triple_index} lacks its dual spheres")

    base = elliptic_surface(em, 1, 1)
    summed = fibre_sum(
        m, base, 1,
        lat0.basis_vector(r), "+", True,
        base.lattice.basis_vector("f"), "+", True,
        no_rim_tori=False,
    )
    step2 = knot_surgery(summed, summed.lattice.basis_vector(t1), h1, sign, True)

    # The second triple torus is only determined after the sum: R_0 - a T_1.
    t2_class = step2.lattice.basis_vector(r) - step2.lattice.basis_vector(t1).scaled(a)
    step3 = knot_surgery(step2, t2_class, h2, "+", True)

    b_name = "B_" + r
    lat = step3.lattice
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
