import random
from fractions import Fraction

import pytest
from conftest import dense
from hypothesis import given, settings
from hypothesis import strategies as st

from symgeo.coverings import (
    CoverParams,
    branched_cover,
    persson_cover,
    persson_image_sector,
    phi_admissible_image,
    phi_inverse,
    phi_map,
    pluri_system_defines_map,
    pluricanonical_cover,
    singular_double_cover,
)
from symgeo.errors import CoveringError
from symgeo.geography import divisibility, spin_surface, validate
from symgeo.lattice import HeadPiece, IntersectionLattice, block_diagonal
from symgeo.manifolds import (
    CATALOG,
    ConstructionRecipe,
    ManifoldDescriptor,
    catalog,
    derived_invariants,
)
from symgeo.surgery import blow_up


def quadric():
    """CP^1 x CP^1 with K = -2 S_1 - 2 S_2 over the hyperbolic lattice."""
    lat = IntersectionLattice((HeadPiece(("S_1", "S_2"), block_diagonal([((0, 1), (1, 0))])),))
    return ManifoldDescriptor(
        e=4, sigma=0, simply_connected=True, symplectic=True,
        minimal="no", lattice=lat, canonical=lat.vector({"S_1": -2, "S_2": -2}),
        witness_items=(), recipe=ConstructionRecipe("catalog", (("name", "quadric"),)),
    )


class TestCoverParams:
    @pytest.mark.parametrize(
        "m,d,a,n,delta",
        [(2, 3, 2, 4, 10), (3, 3, 1, 3, 8), (2, 4, 3, 6, 21),
         (4, 4, 1, 4, 15), (2, 5, 4, 8, 36), (3, 5, 2, 6, 28),
         (5, 5, 1, 5, 24), (2, 6, 5, 10, 55), (6, 6, 1, 6, 35)],
    )
    def test_table_parameters(self, m, d, a, n, delta):
        p = CoverParams(m, d)
        assert (p.a, p.n, p.delta) == (a, n, delta)
        assert p.d == p.n + 1 - p.a

    def test_divisibility_constraint(self):
        with pytest.raises(CoveringError, match="divide"):
            CoverParams(4, 6)  # 3 does not divide 5
        with pytest.raises(CoveringError):
            CoverParams(1, 3)


class TestBranchedCover:
    def test_degree_one_is_identity(self):
        q = quadric()
        assert branched_cover(q, 8, -8, 1) is q

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3), (4, 4), (5, 2)])
    def test_quadric_cover_closed_forms(self, n, m):
        x = branched_cover(quadric(), 8 * n * m, -4 * n - 4 * m, 2)
        assert x.e == 6 + 2 * (2 * m - 1) * (2 * n - 1)
        assert x.sigma == -4 * m * n
        assert derived_invariants(x).c1_squared == 4 * (n - 2) * (m - 2)
        assert x.simply_connected

    def test_non_integral_signature_rejected(self):
        with pytest.raises(CoveringError, match="inconsistent branch data"):
            branched_cover(quadric(), 1, 0, 2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([quadric(), catalog("barlow"), catalog("horikawa_spin", 1)]),
           st.integers(2, 12), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
    def test_inconsistent_exactly_when_signature_defect_fractional(self, base, deg, d_sq, k_d):
        # The Hirzebruch signature defect (deg^2 - 1) D^2 / (3 deg) must be
        # an integer; the cover raises exactly when it is not.
        fractional = (deg * deg - 1) * d_sq % (3 * deg) != 0
        if fractional:
            with pytest.raises(CoveringError, match="inconsistent branch data"):
                branched_cover(base, d_sq, k_d, deg)
        else:
            x = branched_cover(base, d_sq, k_d, deg)
            assert 3 * deg * x.sigma == 3 * deg * deg * base.sigma - (deg * deg - 1) * d_sq

    def test_spin_is_open_unless_rochlin_rules_it_out(self):
        # Over Barlow's surface with D = 2K the cover's K' = 2 phi*K is
        # even, but the stated numbers alone cannot show it: spin is open
        # at sigma = -16, and ruled out at sigma = -22.
        assert branched_cover(catalog("barlow"), 4, 2, 2).spin is None
        assert branched_cover(catalog("barlow"), 16, 4, 2).spin is False

    def test_pi1_unknown_for_nonpositive_branch_square(self):
        x = branched_cover(quadric(), -4, 2, 2)
        assert not x.simply_connected
        assert any(n.startswith("pi1-unknown") for n in x.recipe.notes)


BARLOW_TABLE = {
    (3, 2): (42, 18, 5, 9, -22),
    (3, 3): (57, 27, 7, 13, -29),
    (4, 2): (64, 32, 8, 15, -32),
    (4, 4): (104, 64, 14, 27, -48),
    (5, 2): (94, 50, 12, 23, -46),
    (5, 3): (117, 75, 16, 31, -53),
    (5, 5): (175, 125, 25, 49, -75),
    (6, 2): (132, 72, 17, 33, -64),
    (6, 6): (276, 216, 41, 81, -112),
}

LEE_PARK_TABLE = {
    (3, 2): (60, 36, 8, 15, -28),
    (3, 3): (78, 54, 11, 21, -34),
    (4, 2): (104, 64, 14, 27, -48),
    (4, 4): (160, 128, 24, 47, -64),
    (5, 2): (164, 100, 22, 43, -76),
    (5, 3): (198, 150, 29, 57, -82),
    (5, 5): (290, 250, 45, 89, -110),
    (6, 2): (240, 144, 32, 63, -112),
    (6, 6): (480, 432, 76, 151, -176),
}


def cover_tuple(base, d, m):
    x = pluricanonical_cover(base, m, d)
    inv = derived_invariants(x)
    return (x.e, inv.c1_squared, inv.chi_h, inv.b2_plus, x.sigma)


def catalog_samples():
    """Every catalog entry at sample parameters, with the Persson points
    of chi_h <= 8."""
    samples = {"godeaux_like": [(1, 0), (2, 0), (2, 3)],
               "horikawa_spin": [(1,), (3,)], "horikawa_nonspin": [(1,), (2,)],
               "persson": [(x, y) for x in range(3, 9)
                           for y in range(max(1, 2 * x - 6), 4 * x - 7)]}
    return [catalog(name, *params) for name in CATALOG for params in samples.get(name, [()])]


def cover_params():
    """Every cover degree m and divisibility d <= 13 with m - 1 | d - 1."""
    return [CoverParams(m, d) for d in range(2, 14) for m in range(2, d + 1)
            if (d - 1) % (m - 1) == 0]


class TestPluricanonicalCover:
    def test_barlow_rows(self):
        base = catalog("barlow")
        for (d, m), expected in BARLOW_TABLE.items():
            assert cover_tuple(base, d, m) == expected

    def test_lee_park_rows(self):
        base = catalog("lee_park")
        for (d, m), expected in LEE_PARK_TABLE.items():
            assert cover_tuple(base, d, m) == expected

    def test_certified_divisibility_is_d(self):
        x = pluricanonical_cover(catalog("barlow"), 2, 5)
        cert = divisibility(x)
        assert cert.value == 5 and cert.certified
        assert x.minimal == "yes" and x.simply_connected

    def test_chern_consistency_grid(self):
        # Differential oracle: the pluricanonical cover is the cyclic cover
        # branched over D in |nK| (D^2 = n^2 K^2, K.D = n K^2), and its
        # (e, c1^2) is the transport Phi of the base's, over every catalog
        # entry at sample parameters and the Persson points with chi_h <= 8.
        count = 0
        for base in catalog_samples():
            c = base.c1_squared
            for p in cover_params():
                if not pluri_system_defines_map(base, p.n):
                    continue
                x = pluricanonical_cover(base, p.m, p.d)
                y = branched_cover(base, p.n * p.n * c, p.n * c, p.m)
                assert (x.e, x.sigma) == (y.e, y.sigma)
                assert (x.e, x.c1_squared) == phi_map(p, base.e, c)
                inv = derived_invariants(x)
                assert inv.c1_squared == 2 * x.e + 3 * x.sigma
                assert (inv.c1_squared + x.e) % 12 == 0
                assert validate(x).ok
                count += 1
        assert count >= 2400

    def test_spin_is_the_parity_of_a_certified_divisibility(self):
        # K is characteristic, so a certified divisibility d != 0 decides
        # spin as the parity of d: over every sample base, each of its
        # covers with d <= 13, and their blow-ups, which are never spin.
        checked = 0
        for base in catalog_samples():
            covers = [pluricanonical_cover(base, p.m, p.d)
                      for p in cover_params() if pluri_system_defines_map(base, p.n)]
            for x in [base] + covers:
                for y in (x, blow_up(x, 1), blow_up(x, 16)):
                    cert = divisibility(y)
                    if cert.certified and cert.value != 0:
                        assert y.spin == (cert.value % 2 == 0)
                        checked += 1
                    assert y is x or y.spin is False
        assert checked >= 1100  # of 7,542 descriptors; Persson bases stay open
        # sigma = -48 leaves Rochlin silent; the odd square of E_k decides.
        assert blow_up(catalog("persson", 5, 8), 16).spin is False

    def test_double_cover_specialization(self):
        # Degree-2 covers satisfy e = 24 chi_h(base) + 2d(2d-3) c1^2(base).
        for base in (catalog("barlow"), catalog("lee_park"), catalog("persson", 4, 5)):
            chi = derived_invariants(base).chi_h
            c = derived_invariants(base).c1_squared
            for d in range(2, 13):
                p = CoverParams(2, d)
                if not pluri_system_defines_map(base, p.n):
                    continue
                x = pluricanonical_cover(base, p.m, p.d)
                assert x.e == 24 * chi + 2 * d * (2 * d - 3) * c

    def test_spin_type(self):
        # K' = d delta phi*A: spin when d delta is even, not spin when it is
        # odd and phi*A is primitive; over a Persson base phi*A is not known
        # primitive, and the parity of its square and Rochlin decide.
        persson = catalog("persson", 5, 8)
        assert pluricanonical_cover(persson, 2, 3).spin is None
        assert pluricanonical_cover(persson, 2, 2).spin is True
        assert pluricanonical_cover(catalog("barlow"), 2, 3).spin is False
        assert pluricanonical_cover(catalog("horikawa_spin", 1), 2, 3).spin is True
        assert pluricanonical_cover(persson, 2, 3).general_type
        horikawa = catalog("horikawa_nonspin", 1)
        even = pluricanonical_cover(horikawa, 2, 3)
        assert (even.sigma, even.spin) == (-160, False)
        assert pluricanonical_cover(horikawa, 3, 3).spin is False
        for m, d in ((2, 3), (2, 5), (2, 7), (4, 7)):
            x = pluricanonical_cover(catalog("barlow"), m, d)
            assert x.sigma % 16 != 0 and x.spin is False
        # The certificate follows: an odd divisibility for a non-spin cover.
        cert = divisibility(even)
        assert (cert.value, cert.certified, cert.parity_note) == (
            3, True, "non-spin: divisibility must be odd")

    def test_gate_rejections(self):
        with pytest.raises(CoveringError, match="pluricanonical system"):
            # Base with p_g = 2, K^2 = 1 and a triple cover with n = 3.
            pluricanonical_cover(catalog("persson", 3, 1), 3, 3)
        with pytest.raises(CoveringError, match="simply-connected"):
            from symgeo.manifolds import knot_product

            pluricanonical_cover(knot_product(2), 2, 3)
        with pytest.raises(CoveringError, match="minimal general-type base"):
            # Minimal and simply connected, but not a general-type surface.
            pluricanonical_cover(spin_surface(4, 1, 1), 2, 3)


class TestPluriSystemGate:
    def test_high_powers_always_map(self):
        assert pluri_system_defines_map(catalog("persson", 3, 1), 4)
        assert pluri_system_defines_map(catalog("barlow"), 6)

    def test_triple_system_needs_k_squared_two(self):
        assert not pluri_system_defines_map(catalog("persson", 3, 1), 3)
        assert pluri_system_defines_map(catalog("persson", 3, 2), 3)

    def test_godeaux_exception(self):
        assert pluri_system_defines_map(catalog("barlow"), 3)

    def test_bicanonical_cases(self):
        # K^2 = 2 with p_g = 0 is not covered by any bicanonical criterion.
        assert not pluri_system_defines_map(catalog("lee_park"), 2)
        assert pluri_system_defines_map(catalog("persson", 3, 4), 2)
        assert pluri_system_defines_map(catalog("enriques_k1_pg1"), 2)
        assert not pluri_system_defines_map(catalog("godeaux_like", 1, 0), 2)


class TestPhiTransport:
    def test_barlow_image(self):
        p = CoverParams(2, 3)
        assert phi_map(p, 11, 1) == (42, 18)

    def test_lee_park_image(self):
        p = CoverParams(2, 4)
        assert phi_map(p, 10, 2) == (104, 64)

    def test_zero_line(self):
        p = CoverParams(3, 5)
        assert phi_map(p, 17, 0) == (51, 0)

    def test_inverse_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(2, 6)
            d = rng.choice([3, 4, 5, 6, 7])
            if (d - 1) % (m - 1):
                continue
            p = CoverParams(m, d)
            e = Fraction(rng.randint(-500, 500), rng.randint(1, 9))
            c = Fraction(rng.randint(-500, 500), rng.randint(1, 9))
            e_bar = p.m * (e + p.delta * c)
            c_bar = p.m * p.d * p.d * c
            assert phi_inverse(p, e_bar, c_bar) == (e, c)

    def test_admissible_image(self):
        p = CoverParams(2, 3)
        assert phi_admissible_image(p, 42, 18)
        assert not phi_admissible_image(p, 43, 18)
        # Round trip from admissible points.
        for e in range(1, 80):
            for c in range(1, 40):
                if (e + c) % 12 == 0:
                    e_bar, c_bar = phi_map(p, e, c)
                    assert phi_admissible_image(p, e_bar, c_bar)


class TestPerssonSector:
    def test_explicit_rejection(self):
        p = CoverParams(2, 3)
        assert p.delta == 10
        assert not persson_image_sector(p, 56, 4)

    def test_positivity_boundary(self):
        p = CoverParams(2, 3)
        assert not persson_image_sector(p, 36, 0)

    @pytest.mark.parametrize("m,d", [(2, 3), (3, 3), (2, 4), (2, 5)])
    def test_matches_transported_base_sector(self, m, d):
        # Oracle: transport every admissible base point of the general-type
        # sector and compare membership, for base e up to 600.
        p = CoverParams(m, d)
        transported = set()
        for e in range(1, 601):
            for c in range(1, (e - 24) // 2 + 1):
                if (e + c) % 12 != 0 or c < 36 - e:
                    continue
                if 5 * c < e - 36 or 2 * c > e - 24:
                    continue
                transported.add((e + p.delta * c, c))
        for x in range(1, 1201):
            for y in range(1, 121):
                if persson_image_sector(p, x, y) and x - p.delta * y <= 600:
                    assert (x, y) in transported, (x, y)
        for x, y in transported:
            assert persson_image_sector(p, x, y), (x, y)

    def test_persson_cover_constructor(self):
        p = CoverParams(2, 3)
        # Base (e, c) = (45, 3): chi_h = 4, inside the sector.
        x = persson_cover(p, 45 + 10 * 3, 3)
        assert (x.e, derived_invariants(x).c1_squared) == (2 * 75, 2 * 9 * 3)
        assert divisibility(x).value == 3

    def test_persson_cover_rejects_undecided_point(self):
        # Image (129, 27) of the base with p_g = 2, K^2 = 1 under the
        # triple cover: the pluricanonical criterion is silent there.
        p = CoverParams(3, 3)
        x, y = 35 + p.delta * 1, 1
        assert persson_image_sector(p, x, y)
        with pytest.raises(CoveringError, match="pluricanonical system"):
            persson_cover(p, x, y)
        assert phi_map(p, 35, 1) == (129, 27)

    def test_persson_cover_rejects_outside(self):
        p = CoverParams(2, 3)
        with pytest.raises(CoveringError, match="outside"):
            persson_cover(p, 20, 1)


class TestSingularDoubleCover:
    def test_three_three(self):
        x = singular_double_cover(3, 3)
        inv = derived_invariants(x)
        assert (inv.c1_squared, x.e, x.sigma) == (4, 56, -36)
        assert divisibility(x).value == 1

    def test_degenerate_line_count(self):
        x = singular_double_cover(2, 5)
        assert dense(x.canonical) == (0, 3)
        assert derived_invariants(x).c1_squared == 0

    def test_four_four(self):
        x = singular_double_cover(4, 4)
        inv = derived_invariants(x)
        assert (inv.c1_squared, x.e, x.sigma) == (16, 104, -64)
        cert = divisibility(x)
        assert cert.value == 2 and cert.certified
        assert (inv.c1_squared + x.e) % 12 == 0
        assert x.spin

    def test_spin_rule(self):
        for n in range(1, 7):
            for m in range(1, 7):
                x = singular_double_cover(n, m)
                assert x.spin == (n % 2 == 0 and m % 2 == 0)

    def test_matches_generic_branched_cover(self):
        for n in range(1, 13):
            for m in range(1, 13):
                x = singular_double_cover(n, m)
                y = branched_cover(quadric(), 8 * n * m, -4 * n - 4 * m, 2)
                assert (x.e, x.sigma) == (y.e, y.sigma)
                assert derived_invariants(x).c1_squared == derived_invariants(y).c1_squared

    def test_divisibility_is_gcd(self):
        from math import gcd

        for n in range(1, 9):
            for m in range(1, 9):
                cert = divisibility(singular_double_cover(n, m))
                assert cert.value == gcd(n - 2, m - 2)
