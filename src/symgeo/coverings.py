"""Branched coverings of algebraic surfaces.

Cyclic covers branched over a smooth divisor, the pluricanonical covers
with canonical class divisible by a prescribed integer, the linear
geography transport Phi induced by those covers, and the double cover of
the quadric branched over a singular configuration of lines.

There is one covering formula, ``_cover_invariants``: the (e, c1^2) of a
cyclic cover from its base and branch data.  ``branched_cover`` reads it
for a general divisor D, ``pluricanonical_cover`` for D in |nK|, and
``phi_map`` is its closed form on that line.  The transported sector
predicate is the catalog's own Persson check pulled back through Phi.
Divisions are integer ``divmod``s checked for a zero remainder; a
non-integral value means inconsistent branch data and raises instead of
rounding.  Only the inverse transport returns exact fractions.

No cover states a spin type; ``manifolds.spin_type`` reads it off the
cover's canonical class.  A pluricanonical cover has K' = d delta phi*A
with phi*A declared primitive (its dual ``pullback_dual``), so it is spin
exactly when d delta is even.  A ``branched_cover`` tracks K' only by its
square, so the parity of that square and Rochlin's theorem decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ConstructionError, CoveringError
from .lattice import HeadPiece, IntersectionLattice, Witness, block_diagonal, coefficient_gcd
from .manifolds import (
    NOTE_FULL_CANONICAL,
    NOTE_GENERAL_TYPE,
    CATALOG,
    ManifoldDescriptor,
    catalog,
    operation,
    recipe_node,
)


@dataclass(frozen=True)
class CoverParams:
    """Degree and target divisibility of a pluricanonical cover.

    For a cover of degree m with canonical class divisible by d, the
    branch divisor lies in |n K| with n = m a and a = (d-1)/(m-1); the
    Euler transport coefficient is Delta = (d-1)(d+a).
    """

    m: int
    d: int

    def __post_init__(self):
        if self.m < 2 or self.d < 2:
            raise CoveringError("cover degree and divisibility must be at least 2")
        if (self.d - 1) % (self.m - 1) != 0:
            raise CoveringError("degree minus one must divide divisibility minus one")

    @property
    def a(self) -> int:
        return (self.d - 1) // (self.m - 1)

    @property
    def n(self) -> int:
        return self.m * self.a

    @property
    def delta(self) -> int:
        return (self.d - 1) * (self.d + self.a)


def _cover_invariants(
    e: int, c1_sq: int, deg: int, d_square: int, k_dot_d: int
) -> tuple[int, int]:
    """(e, c1^2) of the cyclic cover of degree ``deg`` of a base with the
    given e and c1^2, branched over a smooth divisor D = deg B:
    e' = deg e - (deg - 1) e(D) with e(D) = -(K.D + D^2) by adjunction, and
    c1'^2 = deg (K + (deg - 1) B)^2.

    Raises unless c1'^2 and the signature (c1'^2 - 2 e') / 3 are integers.
    """
    b_part, rest = divmod((deg - 1) ** 2 * d_square, deg)
    e_cover = deg * e + (deg - 1) * (k_dot_d + d_square)
    c1_cover = deg * c1_sq + 2 * (deg - 1) * k_dot_d + b_part
    if rest or (c1_cover - 2 * e_cover) % 3:
        raise CoveringError("inconsistent branch data")
    return e_cover, c1_cover


@operation()
def branched_cover(
    m_desc: ManifoldDescriptor,
    d_square: int,
    k_dot_d: int,
    deg: int,
) -> ManifoldDescriptor:
    """Cyclic cover of degree ``deg`` branched over a smooth connected
    divisor D with the stated square and canonical pairing.

    The caller asserts that D is divisible by ``deg`` in homology (the
    class B with deg B = D enters only through the stated numbers).
    Invariants follow the covering formula ``_cover_invariants``.  B is
    not known, so K' is tracked only as a class of square c1'^2 on a
    lattice that is not known primitive.
    """
    if deg < 1:
        raise CoveringError("covering degree must be positive")
    if deg == 1:
        return m_desc
    e, c1 = _cover_invariants(m_desc.e, m_desc.c1_squared, deg, d_square, k_dot_d)

    lat = IntersectionLattice((HeadPiece(("pullback",), block_diagonal([((c1,),)])),), False)
    canonical = lat.vector({"pullback": 1})
    notes = [NOTE_FULL_CANONICAL]
    if m_desc.simply_connected and d_square > 0:
        simply_connected = True
    else:
        simply_connected = False
        notes.append("pi1-unknown:branch divisor square not positive")
    recipe = recipe_node("branched_cover", (m_desc.recipe,), (d_square, k_dot_d, deg), tuple(notes))
    return ManifoldDescriptor(
        e=e,
        sigma=(c1 - 2 * e) // 3,
        simply_connected=simply_connected,
        symplectic=m_desc.symplectic,
        minimal="unknown",
        lattice=lat,
        canonical=canonical,
        witness_items=(),
        recipe=recipe,
    )


def pluri_system_defines_map(m_desc: ManifoldDescriptor, n: int) -> bool:
    """Whether the n-th pluricanonical system of a minimal general-type
    surface is known to define an everywhere defined holomorphic map.

    Conservative: returns False whenever no listed criterion applies.
    """
    if n < 2:
        return False
    if n >= 4:
        return True
    k_sq = m_desc.c1_squared
    if not m_desc.simply_connected:
        return n == 3 and k_sq >= 2 or n == 2 and k_sq >= 5
    p_g = m_desc.chi_h - 1  # q = 0 for simply-connected surfaces
    if n == 3:
        if k_sq >= 2:
            return True
        # Simply-connected numerical Godeaux surfaces: |3K| is holomorphic.
        return k_sq == 1 and p_g == 0
    # n == 2
    if k_sq >= 5 or p_g >= 1:
        return True
    return k_sq == 4 and p_g == 0


@operation()
def pluricanonical_cover(
    m_desc: ManifoldDescriptor, cover_m: int, cover_d: int
) -> ManifoldDescriptor:
    """Cover of degree m = ``cover_m`` branched over a smooth divisor in
    |n K|, n = m a, with canonical class divisible by d = ``cover_d``
    (see ``CoverParams``).

    The canonical class of the cover is d times the pulled-back canonical
    class of the base.  With K = delta A for the base (delta the
    coefficient gcd of its canonical class), it is d delta times the
    pullback of A, hence divisible by exactly d delta, and the cover is
    again minimal, simply connected and of general type.
    """
    p = CoverParams(cover_m, cover_d)
    if not m_desc.simply_connected:
        raise CoveringError("pluricanonical cover needs a simply-connected base")
    if m_desc.minimal != "yes" or not m_desc.general_type:
        raise CoveringError("pluricanonical cover needs a minimal general-type base")
    if not pluri_system_defines_map(m_desc, p.n):
        raise CoveringError("pluricanonical system not known to define map")
    c = m_desc.c1_squared
    if c <= 0:
        raise CoveringError("general-type base must have positive c1^2")
    m, d, n = p.m, p.d, p.n
    # The branch divisor lies in |n K|: D^2 = n^2 c1^2 and K.D = n c1^2.
    e, c1 = _cover_invariants(m_desc.e, c, m, n * n * c, n * c)
    if (e + c1) % 12 != 0:
        raise CoveringError("inconsistent branch data")

    # Pullback of A = K / delta for the base: self-pairing m * c1^2 / delta^2.
    delta = coefficient_gcd(m_desc.canonical)
    if delta == 0 or c % (delta * delta) != 0:
        raise CoveringError("base canonical class inconsistent with c1^2")
    # The cover's coefficient gcd bounds its divisibility only where the
    # base's did: a base with open divisibility leaves the cover's open.
    lat = IntersectionLattice(
        (HeadPiece(("phiA",), block_diagonal([((m * c // (delta * delta),),)])),),
        m_desc.lattice.primitive_summand,
    )
    canonical = lat.vector({"phiA": d * delta})
    witnesses = (Witness("pullback_dual", ((0, 1),)),)
    recipe = recipe_node(
        "pluricanonical_cover", (m_desc.recipe,), (m, d),
        (NOTE_FULL_CANONICAL, NOTE_GENERAL_TYPE, "axiomatic-dual:pullback_dual"),
    )
    return ManifoldDescriptor(
        e=e,
        sigma=(c1 - 2 * e) // 3,
        simply_connected=True,
        symplectic=True,
        minimal="yes",
        lattice=lat,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
        general_type=True,
    )


def phi_map(p: CoverParams, e: int, c: int) -> tuple[int, int]:
    """Linear transport of (e, c1^2) under the pluricanonical cover: the
    closed form of ``_cover_invariants`` on D in |n K|."""
    return (p.m * (e + p.delta * c), p.m * p.d * p.d * c)


def phi_inverse(p: CoverParams, e_bar, c_bar) -> tuple[Fraction, Fraction]:
    """Rational inverse of the transport."""
    c = Fraction(c_bar, p.m * p.d * p.d)
    e = Fraction(e_bar, p.m) - p.delta * c
    return (e, c)


def phi_admissible_image(p: CoverParams, e_bar: int, c_bar: int) -> bool:
    """Whether (e_bar, c_bar) is the image of an integer pair (e, c1^2)
    that satisfies Noether's formula e + c1^2 = 12 chi_h."""
    x, rest_e = divmod(e_bar, p.m)
    c, rest_c = divmod(c_bar, p.m * p.d * p.d)
    return rest_e == rest_c == 0 and (x - p.delta * c + c) % 12 == 0


def _persson_base(p: CoverParams, x: int, y: int) -> tuple[int, int] | None:
    """Catalog parameters (chi_h, c1^2) of the Persson base at e = x - Delta y,
    c1^2 = y, whose cover has e = m x and c1^2 = m d^2 y; None when that
    point fails Noether's formula or the catalog's own Persson check."""
    chi, rest = divmod(x - p.delta * y + y, 12)
    if y <= 0 or rest or not all(check(chi, y) for check, _ in CATALOG["persson"].checks):
        return None
    return chi, y


def persson_image_sector(p: CoverParams, x: int, y: int) -> bool:
    """Whether (x, y) lies in the transported general-type sector, i.e.
    whether a cover with e = m x and c1^2 = m d^2 y is realized."""
    return _persson_base(p, x, y) is not None


def persson_cover(p: CoverParams, x: int, y: int) -> ManifoldDescriptor:
    """Constructor for the transported sector: build the general-type base
    with e = x - Delta y, c1^2 = y and take its pluricanonical cover.

    The single undecided point of the pluricanonical criterion (base
    p_g = 2, K^2 = 1 with a triple cover of divisibility 3) is rejected.
    """
    params = _persson_base(p, x, y)
    if params is None:
        raise CoveringError("outside transported Persson sector")
    return pluricanonical_cover(catalog("persson", *params), p.m, p.d)


@operation()
def singular_double_cover(n: int, m: int) -> ManifoldDescriptor:
    """Resolution of the double cover of the quadric branched over 2n + 2m
    lines: two fibration classes F_1, F_2 with F_1 F_2 = 2 carry the
    canonical class (n-2) F_1 + (m-2) F_2, of divisibility gcd(n-2, m-2).
    """
    if n < 1 or m < 1:
        raise ConstructionError("line counts must be positive")
    e = 6 + 2 * (2 * m - 1) * (2 * n - 1)
    lat = IntersectionLattice((HeadPiece(("F_1", "F_2"), block_diagonal([((0, 2), (2, 0))])),))
    canonical = lat.vector({"F_1": n - 2, "F_2": m - 2})
    witnesses: tuple[Witness, ...] = ()
    notes = [NOTE_FULL_CANONICAL, "divisibility-claim:gcd of fibre multiplicities"]
    g = gcd(abs(n - 2), abs(m - 2))
    if g:
        # Dual class to the primitive part of K, by unimodularity of the
        # ambient cohomology; Bezout coefficients give the pairing values.
        u, v = _bezout((n - 2) // g, (m - 2) // g)
        pairs = tuple((i, x) for i, x in enumerate((u, v)) if x)
        witnesses = (Witness("canonical_dual", pairs),)
        notes.append("axiomatic-dual:canonical_dual")
    recipe = recipe_node("singular_double_cover", (), (n, m), tuple(notes))
    return ManifoldDescriptor(
        e=e,
        sigma=-4 * m * n,
        simply_connected=True,
        symplectic=True,
        minimal="yes" if g >= 2 else "unknown",
        lattice=lat,
        canonical=canonical,
        witness_items=witnesses,
        recipe=recipe,
    )


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(u, v) with a u + b v = gcd(a, b), extended Euclid."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v
