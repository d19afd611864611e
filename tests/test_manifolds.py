from dataclasses import replace

import pytest
from conftest import class_vector, dense, lattice_names

from symgeo.errors import ConstructionError
from symgeo.lattice import (
    ClassVector,
    HeadPiece,
    IntersectionLattice,
    Witness,
    append_blocks,
    block_diagonal,
    coefficient_gcd,
    pairing,
)
from symgeo.manifolds import (
    ManifoldDescriptor,
    catalog,
    derived_invariants,
    elliptic_surface,
    knot_product,
    spin_type,
    surface_bundle_y,
)


class TestSpinType:
    def test_each_rule(self):
        form = block_diagonal([((0, 1), (1, 0))])
        summand = IntersectionLattice((HeadPiece(("a", "b"), form),))
        fragment = IntersectionLattice((HeadPiece(("a", "b"), form),), primitive_summand=False)
        odd_form = IntersectionLattice((HeadPiece(("a",), (((0, 1),),)),), primitive_summand=False)
        # An even coefficient gcd, 0 included, is spin on any lattice.
        assert spin_type(summand, class_vector((0, 0)), -8) is True
        assert spin_type(fragment, class_vector((2, -4)), -8) is True
        # An odd K on a primitive summand is not 2-divisible.
        assert spin_type(summand, class_vector((3, 0)), -16) is False
        # Off a summand: an odd square, then Rochlin, then unknown.
        assert spin_type(odd_form, class_vector((1,)), -16) is False
        assert spin_type(fragment, class_vector((3, 0)), -8) is False
        assert spin_type(fragment, class_vector((3, 0)), -16) is None

    def test_odd_square_in_a_run(self):
        # A run's block is read once for the odd-square rule.
        head = IntersectionLattice((HeadPiece(("a",), ((),)),), primitive_summand=False)
        odd = append_blocks(head, ((2, 1), (1, 1)), ("V", "W"), 5)
        even = append_blocks(head, ((2, 1), (1, 0)), ("V", "W"), 5)
        k = ClassVector(odd.rank, ((0, 1),))
        assert spin_type(odd, k, -16) is False
        assert spin_type(even, k, -16) is None

    def test_spin_is_derived_not_stated(self):
        m = knot_product(2)
        assert m.spin is True
        with pytest.raises(TypeError):
            replace(m, spin=False)
        with pytest.raises(TypeError):
            ManifoldDescriptor(
                e=0, sigma=0, spin=False, simply_connected=False, symplectic=True,
                minimal="unknown", lattice=m.lattice, canonical=m.canonical,
                witness_items=(), recipe=m.recipe,
            )


class TestEllipticSurface:
    def test_dolgachev_1_5_2(self):
        m = elliptic_surface(1, 5, 2)
        assert (m.e, m.sigma) == (12, -8)
        assert dense(m.canonical) == (3,)  # K = 3f
        assert not m.spin

    def test_k3(self):
        m = elliptic_surface(2, 1, 1)
        assert (m.e, m.sigma) == (24, -16)
        assert m.canonical.is_zero()
        assert m.spin and m.simply_connected and m.symplectic

    def test_log_transform_multiplicities(self):
        # npq - p - q on the primitive fibre class.
        assert dense(elliptic_surface(2, 7, 1).canonical)[0] == 6
        assert dense(elliptic_surface(2, 6, 1).canonical)[0] == 5
        assert dense(elliptic_surface(1, 3, 2).canonical)[0] == 1

    def test_coprimality_required(self):
        with pytest.raises(ConstructionError, match="not coprime"):
            elliptic_surface(2, 4, 2)

    def test_lattice_shape(self):
        m = elliptic_surface(4, 1, 1)
        assert m.lattice.rank == 1 + 4 * 3
        names = lattice_names(m.lattice)
        assert names[0] == "f"
        assert "T1_3" in names and "DR_3" in names
        # Fibre is isotropic and orthogonal to the nuclei.
        f = m.lattice.basis_vector("f")
        for name in names:
            assert pairing(m.lattice, f, m.lattice.basis_vector(name)) == 0
        # Each torus meets its dual sphere once; the sphere has square -2.
        t1 = m.lattice.basis_vector("T1_2")
        d1 = m.lattice.basis_vector("D1_2")
        assert pairing(m.lattice, t1, d1) == 1
        assert pairing(m.lattice, d1, d1) == -2

    def test_canonical_square_is_chern_number(self):
        for n, p, q in [(1, 1, 1), (2, 3, 1), (3, 1, 1), (4, 3, 5)]:
            m = elliptic_surface(n, p, q)
            assert pairing(m.lattice, m.canonical, m.canonical) == 2 * m.e + 3 * m.sigma == 0

    def test_spin_rule_matches_canonical_parity(self):
        from math import gcd as _gcd

        for n in range(1, 6):
            for p in range(1, 6):
                for q in range(1, 6):
                    if _gcd(p, q) != 1:
                        continue
                    m = elliptic_surface(n, p, q)
                    k = coefficient_gcd(m.canonical)
                    assert m.spin == (k % 2 == 0)

    def test_divisibility_certificate(self):
        from symgeo.geography import divisibility

        cert = divisibility(elliptic_surface(1, 5, 2))
        assert (cert.lower, cert.upper, cert.certified) == (3, 3, True)

    def test_canonical_coefficient_gcd(self):
        from math import gcd as _gcd

        for n in range(1, 5):
            for p in range(1, 6):
                for q in range(1, 6):
                    if _gcd(p, q) != 1:
                        continue
                    m = elliptic_surface(n, p, q)
                    assert coefficient_gcd(m.canonical) == abs(n * p * q - p - q)


class TestKnotProduct:
    def test_torus_fibre_is_trivial(self):
        assert knot_product(1).canonical.is_zero()

    def test_genus_two(self):
        m = knot_product(2)
        assert dense(m.canonical) == (2, 0)  # 2 T_K
        assert (m.e, m.sigma) == (0, 0)
        assert not m.simply_connected

    def test_unknot(self):
        m = knot_product(0)
        assert dense(m.canonical) == (-2, 0)
        assert not m.symplectic

    def test_witness_index_beyond_rank_rejected(self):
        m = knot_product(2)
        replace(m, witness_items=(Witness("last", ((1, 1),)),))
        with pytest.raises(ConstructionError, match="pairing length mismatch"):
            replace(m, witness_items=(Witness("beyond", ((0, 1), (2, 1))),))

    def test_section_torus_generates_pi1(self):
        m = knot_product(2)
        assert m.lattice.name(m.pi1_generator) == "T_K"
        assert not m.general_type


class TestSurfaceBundle:
    def test_invariants(self):
        m = surface_bundle_y(2, 3)
        assert (m.e, m.sigma) == (8, 0)
        assert 2 * m.e + 3 * m.sigma == 16

    def test_torus_base_collapses_to_knot_product(self):
        m = surface_bundle_y(1, 4)
        k = knot_product(4)
        assert (m.e, m.sigma) == (k.e, k.sigma) == (0, 0)

    def test_torus_fibre(self):
        m = surface_bundle_y(2, 1)
        assert dense(m.canonical)[:2] == (0, 2)
        assert m.e == 0

    def test_section_generates_pi1(self):
        m = surface_bundle_y(3, 2)
        assert m.lattice.name(m.pi1_generator) == "Sigma_S"
        assert elliptic_surface(2, 1, 1).pi1_generator is None

    def test_block_count_and_square(self):
        g, h = 3, 2
        m = surface_bundle_y(g, h)
        assert m.lattice.rank == 2 + 2 * 2 * h * (g - 1)
        assert pairing(m.lattice, m.canonical, m.canonical) == 2 * m.e + 3 * m.sigma


class TestCatalog:
    def test_barlow(self):
        m = catalog("barlow")
        inv = derived_invariants(m)
        assert (m.e, inv.c1_squared, inv.chi_h) == (11, 1, 1)
        assert (inv.b2_plus, m.sigma) == (1, -7)

    def test_lee_park(self):
        m = catalog("lee_park")
        assert (m.e, m.sigma) == (10, -6)
        assert derived_invariants(m).c1_squared == 2

    def test_persson(self):
        m = catalog("persson", 4, 8)
        assert (m.e, m.sigma) == (40, -24)
        with pytest.raises(ConstructionError, match="outside Persson sector"):
            catalog("persson", 4, 9)
        with pytest.raises(ConstructionError, match="outside Persson sector"):
            catalog("persson", 2, 1)

    def test_persson_spin_is_open_unless_rochlin_rules_it_out(self):
        # K_M is odd off a primitive summand, K_M^2 = y is even here, and
        # only Rochlin's 16 | sigma is left to decide.
        assert catalog("persson", 4, 4).spin is False  # sigma = -28
        assert catalog("persson", 4, 8).spin is False  # sigma = -24
        assert catalog("persson", 5, 8).spin is None  # sigma = -32
        assert catalog("persson", 7, 8).spin is None  # sigma = -48

    def test_catalog_surfaces_are_general_type(self):
        for m in (catalog("barlow"), catalog("horikawa_spin", 1), catalog("persson", 4, 4)):
            assert m.general_type

    def test_horikawa(self):
        m = catalog("horikawa_spin", 3)
        inv = derived_invariants(m)
        assert inv.c1_squared == 24 and inv.chi_h == 15
        assert m.spin and m.sigma % 16 == 0
        with pytest.raises(ConstructionError, match="odd"):
            catalog("horikawa_spin", 2)
        n = catalog("horikawa_nonspin", 2)
        assert derived_invariants(n).c1_squared == 16 and not n.spin

    def test_godeaux_like_noether_bound(self):
        assert derived_invariants(catalog("godeaux_like", 2, 3)).chi_h == 4
        with pytest.raises(ConstructionError, match="Noether"):
            catalog("godeaux_like", 1, 3)

    def test_unknown_entry(self):
        with pytest.raises(ConstructionError, match="unknown catalog entry"):
            catalog("quintic")

    def test_noether_integrality(self):
        entries = [
            catalog("barlow"),
            catalog("lee_park"),
            catalog("enriques_k1_pg1"),
            catalog("enriques_k2_pg1"),
            catalog("godeaux_like", 2, 0),
            catalog("horikawa_spin", 1),
            catalog("horikawa_nonspin", 4),
            catalog("persson", 5, 6),
        ]
        for m in entries:
            inv = derived_invariants(m)
            assert (inv.c1_squared + m.e) % 12 == 0
            assert inv.chi_h == (inv.c1_squared + m.e) // 12


class TestDerivedInvariants:
    def test_k3_betti(self):
        inv = derived_invariants(elliptic_surface(2, 1, 1))
        assert (inv.c1_squared, inv.chi_h, inv.b2_plus) == (0, 2, 3)
        assert (inv.b2, inv.b2_minus) == (22, 19)

    def test_table_row(self):
        from symgeo.manifolds import ManifoldDescriptor, ConstructionRecipe
        from symgeo.lattice import IntersectionLattice, ClassVector

        lat = IntersectionLattice(())
        m = ManifoldDescriptor(
            e=42, sigma=-22, simply_connected=True, symplectic=True,
            minimal="unknown", lattice=lat, canonical=ClassVector(0),
            witness_items=(), recipe=ConstructionRecipe("catalog", (("name", "barlow"),)),
        )
        inv = derived_invariants(m)
        assert (inv.chi_h, inv.b2_plus) == (5, 9)

    def test_non_almost_complex_error(self):
        from symgeo.manifolds import ManifoldDescriptor, ConstructionRecipe
        from symgeo.lattice import IntersectionLattice, ClassVector

        lat = IntersectionLattice(())
        m = ManifoldDescriptor(
            e=3, sigma=0, simply_connected=True, symplectic=True,
            minimal="unknown", lattice=lat, canonical=ClassVector(0),
            witness_items=(), recipe=ConstructionRecipe("catalog", (("name", "barlow"),)),
        )
        with pytest.raises(ConstructionError, match="not almost-complex consistent"):
            derived_invariants(m)

    def test_betti_fields_need_simple_connectivity(self):
        inv = derived_invariants(knot_product(2))
        assert inv.b2 is None and inv.b2_plus is None
