"""Cut-and-paste operations on manifold descriptors.

All operations are pure: they take immutable descriptors and return new
ones.  The generalized fibre sum is modeled at the invariant level; the
gluing data itself is not represented.  Callers assert the absence of rim
tori (or the fact that rim tori do not contribute to the canonical class)
through the ``no_rim_tori`` flag, and the assertion is recorded in the
provenance notes.

A surgery surface is given by the operation's own parameters: its class
over the input's lattice, its genus where the operation needs one, its
symplectic sign and whether its complement is simply connected.  These
are the parameters the operation records in its recipe, in the same
order, so each operation's recipe schema is its signature.

Witness surfaces are carried through surgeries.  A knot surgery along a
torus T caps every tracked surface meeting T with fibre-genus copies of
the Seifert surface: a witness meeting T in a single point that is
positive for the symplectic orientation of T (pairing +1 for sign ``+``,
-1 for sign ``-``) keeps a declared genus, raised by the knot genus; any
other intersection pattern keeps the pairing vector but forgets the genus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConstructionError
from .lattice import (
    ClassVector,
    IntersectionLattice,
    Witness,
    block_diagonal,
    coefficient_gcd,
    dot,
    pairing,
    sparse_sum,
)
from .manifolds import (
    NOTE_FULL_CANONICAL,
    NOTE_PI1_SECTION,
    SPLIT_BLOCK,
    ConstructionRecipe,
    ManifoldDescriptor,
    elliptic_surface,
    triple_names,
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


def _derive_spin(full: bool, primitive: bool, k: ClassVector) -> bool:
    """K is characteristic, so evenness of K decides spin once the lattice
    carries the full canonical class over a primitive summand."""
    if not (full and primitive):
        return False
    g = coefficient_gcd(k)
    return g == 0 or g % 2 == 0


def _derive_minimal(full: bool, primitive: bool, k: ClassVector) -> str:
    # A canonical class of divisibility >= 2 forces minimality.
    if full and primitive and coefficient_gcd(k) >= 2:
        return "yes"
    return "unknown"


def _pi1_collapses(desc: ManifoldDescriptor, surface: ClassVector, complement: bool) -> bool:
    """True when gluing along ``surface`` kills the fundamental group of
    the ``desc`` side: either the piece and the surface complement are
    simply connected, or pi_1 of the piece is normally generated by the
    image of the surface (recorded at construction time for section
    classes)."""
    if desc.simply_connected and complement:
        return True
    for note in desc.recipe.notes:
        if note.startswith(NOTE_PI1_SECTION):
            name = note[len(NOTE_PI1_SECTION):]
            if name in desc.lattice.basis_names:
                if surface == desc.lattice.basis_vector(name):
                    return True
    return False


@dataclass(frozen=True)
class _Side:
    """Resolved data of one summand of a fibre sum."""

    desc: ManifoldDescriptor
    surface: ClassVector
    sigma_index: int
    b_basis_index: int | None  # dual surface tracked as a basis class
    b_witness: Witness | None  # or known only as a witness
    b_square: int
    b_genus: int | None
    b_row: tuple[tuple[int, int], ...]  # nonzero pairings of the dual with the basis
    removed: frozenset[int]

    @property
    def kept(self) -> list[int]:
        return [i for i in range(self.desc.lattice.rank) if i not in self.removed]


def _resolve_side(desc: ManifoldDescriptor, surface: ClassVector, label: str) -> _Side:
    _check_square_zero_indivisible(desc, surface)
    lat = desc.lattice
    entries = surface.entries
    i = entries[0][0] if entries else 0
    if entries != ((i, 1),):
        raise ConstructionError(
            f"fibre-sum surface on the {label} side must be a tracked basis class"
        )
    partners = [(j, g) for j, g in lat.rows[i] if j != i]
    if len(partners) > 1:
        raise ConstructionError("fibre-sum surface pairs with more than one tracked class")
    if partners:
        j, g = partners[0]
        if g != 1:
            raise ConstructionError("tracked dual must meet the surface exactly once")
        if any(k not in (i, j) for k, _ in lat.rows[j]):
            raise ConstructionError(
                "tracked dual pairs with classes outside the surface pair"
            )
        b_genus = None
        row_j = lat.rows[j]
        for w in desc.witnesses:
            if w.pairings == row_j and w.genus is not None:
                b_genus = w.genus
                break
        b_square = next((g for k, g in row_j if k == j), 0)
        return _Side(desc, surface, i, j, None, b_square, b_genus, row_j, frozenset((i, j)))
    for w in desc.witnesses:
        if dot(surface, w) == 1:
            if w.self_intersection is None:
                raise ConstructionError(
                    "dual surface self-intersection unknown; cannot form fibre sum"
                )
            return _Side(
                desc, surface, i, None, w, w.self_intersection, w.genus, w.pairings, frozenset((i,))
            )
    raise ConstructionError("no tracked dual surface meets the fibre-sum surface once")


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}.{k}"
        k += 1
    return name


def _append_blocks(
    lat: IntersectionLattice, block: tuple, prefixes: tuple[str, ...], count: int
) -> IntersectionLattice:
    """``lat`` with ``count`` orthogonal copies of ``block`` appended.  A
    copy is named ``{prefix}_{j}`` for each prefix, at the first index j
    above the previous copy's where all of these names are free."""
    taken = set(lat.basis_names)
    names = list(lat.basis_names)
    j = 1
    for _ in range(count):
        while any(f"{p}_{j}" in taken for p in prefixes):
            j += 1
        names.extend(f"{p}_{j}" for p in prefixes)
        j += 1
    return IntersectionLattice(
        tuple(names), lat.rows + block_diagonal([block] * count, lat.rank), lat.primitive_summand
    )


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
    simply connected.  On a side that carries its full canonical class the
    genus must satisfy adjunction, K.Sigma = 2g - 2.

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
        if desc.carries_full_canonical:
            if pairing(desc.lattice, desc.canonical, surface) != 2 * g - 2:
                raise ConstructionError("fibre-sum surface violates the adjunction identity")

    m_keep = side_m.kept
    n_keep = side_n.kept
    m_names = [m.lattice.basis_names[i] for i in m_keep]
    sigma_name = m.lattice.basis_names[side_m.sigma_index]
    taken = set(m_names) | {sigma_name}
    b_name = _fresh("B_" + sigma_name, taken)
    taken.add(b_name)

    raw_n_names = [n.lattice.basis_names[i] for i in n_keep]
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
        rows = side.desc.lattice.rows
        return tuple(tuple(carry(rows[i], index)) for i in index)

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

    witnesses: list[Witness] = []
    dropped: list[str] = []
    zero_notes = False

    def embed_witnesses(side: _Side, index: dict[int, int], name_prefix: str) -> None:
        """Carry the witnesses of one side that miss its surface; a witness
        pairing with a tracked dual pairs the same with B_X."""
        nonlocal zero_notes
        for w in side.desc.witnesses:
            if w is side.b_witness:
                continue
            if dot(side.surface, w) != 0:
                dropped.append(name_prefix + w.name)
                continue
            zero_notes = zero_notes or side.b_basis_index is None
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
    witness_taken = {w.name for w in witnesses}
    witnesses.append(Witness(_fresh(b_name, witness_taken), b_pairings, b_genus, b_square))

    simply_connected = (
        m.simply_connected and complement_m and _pi1_collapses(n, class_n, complement_n)
    ) or (
        n.simply_connected and complement_n and _pi1_collapses(m, class_m, complement_m)
    )
    full = m.carries_full_canonical and n.carries_full_canonical

    notes = []
    if full:
        notes.append(NOTE_FULL_CANONICAL)
    if no_rim_tori:
        notes.append("no-rim-tori-asserted")
    else:
        notes.append("rim-tori-possible:rim classes untracked, they do not enter the canonical class here")
    if dropped:
        notes.append("dropped-witnesses:" + ",".join(dropped))
    if zero_notes:
        notes.append("assumed-disjoint:witness pairings with sewn dual set to zero")

    recipe = ConstructionRecipe(
        "fibre_sum",
        (
            ("genus", g),
            ("class_m", class_m),
            ("sign_m", sign_m),
            ("complement_m", complement_m),
            ("class_n", class_n),
            ("sign_n", sign_n),
            ("complement_n", complement_n),
            ("no_rim_tori", no_rim_tori),
        ),
        (m.recipe, n.recipe),
        tuple(notes),
    )
    e = m.e + n.e + 4 * g - 4
    sigma = m.sigma + n.sigma
    return ManifoldDescriptor(
        e=e,
        sigma=sigma,
        spin=_derive_spin(full, lattice.primitive_summand, canonical),
        simply_connected=simply_connected,
        symplectic=m.symplectic and n.symplectic,
        minimal=_derive_minimal(full, lattice.primitive_summand, canonical),
        lattice=lattice,
        canonical=canonical,
        witnesses=tuple(witnesses),
        recipe=recipe,
    )


def _cap_witnesses(
    witnesses: tuple[Witness, ...], torus: ClassVector, h: int, sign: str
) -> tuple[Witness, ...]:
    # Capping with Seifert surfaces leaves the homology class, and hence
    # the self-intersection, untouched; only the genus grows.  A single
    # intersection point, positive for the torus's symplectic orientation,
    # gives an exact new genus; anything else leaves the genus unknown.
    positive = 1 if sign == "+" else -1
    out = []
    for w in witnesses:
        t = dot(torus, w)
        if t == 0 or h == 0:
            out.append(w)
        elif t == positive and w.genus is not None:
            out.append(replace(w, genus=w.genus + h))
        else:
            out.append(replace(w, genus=None))
    return tuple(out)


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
    if x.carries_full_canonical and pairing(x.lattice, x.canonical, torus) != 0:
        raise ConstructionError("torus violates the adjunction identity")
    shift = torus.scaled(2 * h if sign == "+" else -2 * h)
    canonical = x.canonical + shift
    witnesses = _cap_witnesses(x.witnesses, torus, h, sign)
    simply_connected = x.simply_connected and complement
    notes = []
    if x.carries_full_canonical:
        notes.append(NOTE_FULL_CANONICAL)
    notes.append(f"fibred-knot-genus:{h}")
    recipe = ConstructionRecipe(
        "knot_surgery",
        (
            ("torus", torus),
            ("h", h),
            ("sign", sign),
            ("complement", complement),
        ),
        (x.recipe,),
        tuple(notes),
    )
    return ManifoldDescriptor(
        e=x.e,
        sigma=x.sigma,
        spin=x.spin,
        simply_connected=simply_connected,
        symplectic=x.symplectic,
        minimal=_derive_minimal(
            x.carries_full_canonical, x.lattice.primitive_summand, canonical
        ),
        lattice=x.lattice,
        canonical=canonical,
        witnesses=witnesses,
        recipe=recipe,
    )


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
    if m.carries_full_canonical:
        if pairing(m.lattice, m.canonical, surface) != 2 * g - 2:
            raise ConstructionError("surface violates the adjunction identity")

    lattice = _append_blocks(m.lattice, SPLIT_BLOCK, ("V", "W"), 2 * h * (g - 1))

    canonical = replace(m.canonical + surface.scaled(2 * h), rank=lattice.rank)

    # The new classes pair with no old one, so kept witnesses are unchanged.
    witnesses: list[Witness] = []
    dropped = []
    for w in m.witnesses:
        if dot(surface, w) != 0:
            dropped.append(w.name)
            continue
        witnesses.append(w)
    sigma_row = m.lattice.pairing_row(surface)
    witnesses.append(Witness(_fresh("Sigma", {w.name for w in witnesses}), sigma_row, g, 0))

    notes = []
    if m.carries_full_canonical:
        notes.append(NOTE_FULL_CANONICAL)
    if dropped:
        notes.append("dropped-witnesses:" + ",".join(dropped))
    recipe = ConstructionRecipe(
        "generalized_knot_surgery",
        (
            ("surface", surface),
            ("genus", g),
            ("h", h),
            ("complement", complement),
        ),
        (m.recipe,),
        tuple(notes),
    )
    return ManifoldDescriptor(
        e=m.e + 4 * h * (g - 1),
        sigma=m.sigma,
        spin=m.spin,
        simply_connected=True,
        symplectic=m.symplectic,
        minimal=_derive_minimal(
            m.carries_full_canonical, lattice.primitive_summand, canonical
        ),
        lattice=lattice,
        canonical=canonical,
        witnesses=tuple(witnesses),
        recipe=recipe,
    )


def log_transform(x: ManifoldDescriptor, p: int) -> ManifoldDescriptor:
    """Logarithmic transform of multiplicity p on an unsurgered E(n)."""
    if p < 1:
        raise ConstructionError("log transform multiplicity must be positive")
    r = x.recipe
    if r.operation != "elliptic_surface" or r.param("p") != 1 or r.param("q") != 1:
        raise ConstructionError("log transform requires an unsurgered elliptic surface")
    n = r.param("n")
    out = elliptic_surface(n, p, 1)
    recipe = ConstructionRecipe(
        "log_transform",
        (("p", p),),
        (x.recipe,),
        out.recipe.notes + (f"multiple-fibre:{p}",),
    )
    return replace(out, recipe=recipe)


def blow_up(m: ManifoldDescriptor, count: int = 1) -> ManifoldDescriptor:
    """Connected sum with ``count`` reversed projective planes, built in
    one pass and recorded as one recipe node: adds ``count`` exceptional
    classes E_k of square -1, each with its exceptional sphere as a
    witness, and adds their sum to the canonical class."""
    if count < 1:
        raise ConstructionError("blow-up count must be positive")
    lattice = _append_blocks(m.lattice, ((-1,),), ("E",), count)
    new = range(m.lattice.rank, lattice.rank)
    canonical = ClassVector(lattice.rank, m.canonical.entries + tuple((i, 1) for i in new))
    witnesses = m.witnesses + tuple(
        Witness(f"exceptional_{lattice.basis_names[i]}", ((i, -1),), 0, -1) for i in new
    )
    notes = []
    if m.carries_full_canonical:
        notes.append(NOTE_FULL_CANONICAL)
    recipe = ConstructionRecipe("blow_up", (("count", count),), (m.recipe,), tuple(notes))
    return ManifoldDescriptor(
        e=m.e + count,
        sigma=m.sigma - count,
        spin=False,
        simply_connected=m.simply_connected,
        symplectic=m.symplectic,
        minimal="no",
        lattice=lattice,
        canonical=canonical,
        witnesses=witnesses,
        recipe=recipe,
    )


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
    for name in (t1, d1, r, dr):
        if name not in m.lattice.basis_names:
            raise ConstructionError(f"undeclared triple {triple_index}")
    lat0 = m.lattice
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
    witnesses = []
    for w in step3.witnesses:
        if w.name == b_name:
            witnesses.append(replace(w, name=f"C2_t{triple_index}"))
        else:
            witnesses.append(w)
    witness_names = {w.name for w in witnesses}
    witnesses.append(Witness(_fresh(f"C1_t{triple_index}", witness_names), c1_pairings))

    notes = []
    if step3.carries_full_canonical:
        notes.append(NOTE_FULL_CANONICAL)
    notes.append(f"triple:{triple_index}")
    notes.append("rim-tori-possible:rim classes untracked, they do not enter the canonical class here")
    recipe = ConstructionRecipe(
        "lagrangian_triple_surgery",
        (
            ("triple_index", triple_index),
            ("a", a),
            ("em", em),
            ("h1", h1),
            ("h2", h2),
            ("sign", sign),
        ),
        (m.recipe,),
        tuple(notes),
    )
    return replace(step3, witnesses=tuple(witnesses), recipe=recipe)
