import random
from dataclasses import replace

import pytest
from conftest import class_vector, dense, dense_dot, expand, gram, random_descriptor

from symgeo import geography, surgery
from symgeo.errors import ConstructionError
from symgeo.geography import divisibility, inequivalent_family
from symgeo.lattice import Witness, dot, pairing
from symgeo.manifolds import elliptic_surface, knot_product, surface_bundle_y
from symgeo.surgery import (
    blow_up,
    fibre_sum,
    generalized_knot_surgery,
    knot_surgery,
    lagrangian_triple_surgery,
    log_transform,
)


def fibre(m):
    return m.lattice.basis_vector("f")


def sum_along_fibres(left, right):
    """Fibre sum of two elliptic pieces along their fibres."""
    return fibre_sum(
        left, right, 1, fibre(left), "+", True, fibre(right), "+", True, no_rim_tori=True
    )


class TestFibreSum:
    def test_two_rational_elliptic_pieces_give_k3(self):
        e1 = elliptic_surface(1, 1, 1)
        x = sum_along_fibres(e1, e1)
        oracle = elliptic_surface(2, 1, 1)
        assert (x.e, x.sigma) == (oracle.e, oracle.sigma)
        assert x.canonical.is_zero() and x.spin and x.simply_connected

    @pytest.mark.parametrize("n", range(3, 8))
    def test_splitting_off_a_rational_piece(self, n):
        left = elliptic_surface(n - 1, 1, 1)
        right = elliptic_surface(1, 1, 1)
        x = sum_along_fibres(left, right)
        oracle = elliptic_surface(n, 1, 1)
        assert (x.e, x.sigma) == (oracle.e, oracle.sigma)
        # Canonical class is (n-2) times the identified fibre.
        i = x.lattice.index_of("f")
        assert dense(x.canonical)[i] == n - 2
        assert sum(map(abs, dense(x.canonical))) == abs(n - 2)
        assert divisibility(x).value == divisibility(oracle).value
        assert x.spin == oracle.spin
        # The sewn dual has the square of a section of E(n).
        j = x.lattice.index_of("B_f")
        assert gram(x.lattice)[j][j] == -n

    def test_euler_characteristic_additivity_oracle(self):
        # e(X) = e(M') + e(N') with e(boundary) = 0 and
        # e(M') = e(M) - (2 - 2g): an independent route to the same number.
        for g, h in [(2, 2), (3, 2), (2, 4)]:
            m = surface_bundle_y(g, h)
            sigma = m.lattice.basis_vector("Sigma_F")
            x = fibre_sum(m, m, h, sigma, "+", False, sigma, "+", False, no_rim_tori=False)
            assert x.e == (m.e - (2 - 2 * h)) * 2

    def test_nonzero_square_rejected(self):
        m = elliptic_surface(2, 1, 1)
        bad = m.lattice.basis_vector("D1_1")
        with pytest.raises(ConstructionError, match="self-intersection zero"):
            fibre_sum(m, m, 1, bad, "+", True, bad, "+", True, no_rim_tori=True)

    def test_divisible_class_rejected(self):
        m = elliptic_surface(2, 1, 1)
        bad = fibre(m).scaled(2)
        with pytest.raises(ConstructionError, match="indivisible"):
            fibre_sum(m, m, 1, bad, "+", True, bad, "+", True, no_rim_tori=True)

    def test_self_sum_of_knot_products_builds_bundles(self):
        for h in (2, 3):
            for g in (2, 3, 4):
                piece = knot_product(h)
                x = piece
                for _ in range(g - 1):
                    x = fibre_sum(
                        x, piece, h,
                        x.lattice.basis_vector("B_K"), "+", False,
                        piece.lattice.basis_vector("B_K"), "+", False,
                        no_rim_tori=False,
                    )
                oracle = surface_bundle_y(g, h)
                assert (x.e, x.sigma) == (oracle.e, oracle.sigma)
                assert 2 * x.e + 3 * x.sigma == 8 * (g - 1) * (h - 1)
                # Canonical class agrees on the (section, fibre) pair.
                fibre_i = x.lattice.index_of("B_K")
                section_i = x.lattice.index_of("B_B_K")
                assert dense(x.canonical)[fibre_i] == 2 * g - 2
                assert dense(x.canonical)[section_i] == 2 * h - 2
                assert pairing(x.lattice, x.canonical, x.canonical) == 2 * x.e + 3 * x.sigma


class TestKnotSurgery:
    def test_unknot_is_identity_on_canonical(self):
        m = elliptic_surface(2, 1, 1)
        x = knot_surgery(m, fibre(m), 0, "+", True)
        assert x.canonical == m.canonical
        assert (x.e, x.sigma, x.lattice) == (m.e, m.sigma, m.lattice)

    def test_k3_with_trefoil_like_genus(self):
        m = elliptic_surface(2, 1, 1)
        x = knot_surgery(m, fibre(m), 3, "+", True)
        i = x.lattice.index_of("f")
        assert dense(x.canonical)[i] == 6
        assert divisibility(x).value == 6
        # Distinct from the log transform of the same homeomorphism type:
        # divisibilities 6 and 5 certify different manifolds.
        assert divisibility(elliptic_surface(2, 6, 1)).value == 5

    @pytest.mark.parametrize("k", range(0, 5))
    def test_rational_elliptic_odd_divisibilities(self, k):
        m = elliptic_surface(1, 1, 1)
        x = knot_surgery(m, fibre(m), k + 1, "+", True)
        assert dense(x.canonical)[0] == 2 * k + 1

    def test_invariants_bit_exact(self):
        m = elliptic_surface(3, 1, 1)
        x = knot_surgery(m, fibre(m), 4, "-", True)
        assert (x.e, x.sigma) == (m.e, m.sigma)
        assert gram(x.lattice) == gram(m.lattice)
        assert dense(x.canonical)[0] == 1 - 8

    def test_non_torus_rejected(self):
        # A genus-2 fibre fails the torus adjunction identity K.T = 0.
        m = surface_bundle_y(2, 2)
        with pytest.raises(ConstructionError, match="torus"):
            knot_surgery(m, m.lattice.basis_vector("Sigma_F"), 2, "+", False)

    def test_witness_genus_capping(self):
        m = elliptic_surface(3, 1, 1)
        x = knot_surgery(m, fibre(m), 4, "+", True)
        section = x.witness("section")
        assert section.genus == 4 and section.self_intersection == -3
        # Disjoint sphere witnesses are untouched.
        assert x.witness("sphere_R_1").genus == 0

    def test_witness_genus_capping_follows_the_sign(self):
        # Sign - reverses the torus's symplectic orientation: the section
        # (pairing +1 with f) meets it negatively and forgets its genus,
        # while a sphere pairing -1 with f keeps a genus raised by h.
        base = elliptic_surface(2, 1, 1)
        probe = Witness("reversed_section", ((0, -1),), 0, -2)
        m = replace(base, witnesses=base.witnesses + (probe,))
        x = knot_surgery(m, fibre(m), 4, "-", True)
        assert x.witness("section").genus is None
        assert x.witness("reversed_section").genus == 4
        assert geography.validate(x).ok
        plus = knot_surgery(m, fibre(m), 4, "+", True)
        assert plus.witness("section").genus == 4
        assert plus.witness("reversed_section").genus is None
        assert geography.validate(plus).ok


class TestGeneralizedKnotSurgery:
    def _base_with_surface(self, d, m_half):
        from symgeo.geography import surgered_homotopy_elliptic

        base = surgered_homotopy_elliptic(2 * m_half, d)
        cls = base.lattice.basis_vector("R_1") + base.lattice.basis_vector("DR_1")
        return base, cls, d // 2 + 1

    def test_chern_increment_genus_two(self):
        base, cls, g = self._base_with_surface(2, 1)
        x = generalized_knot_surgery(base, cls, g, 1, True)
        assert 2 * x.e + 3 * x.sigma == (2 * base.e + 3 * base.sigma) + 8

    def test_even_divisibility_increment(self):
        # h = t d / 2 for even d raises c1^2 by 4 t d (g - 1).
        d, t = 4, 3
        base, cls, g = self._base_with_surface(d, 2)
        x = generalized_knot_surgery(base, cls, g, t * d // 2, True)
        assert 2 * x.e + 3 * x.sigma == 4 * t * d * (g - 1)
        assert x.sigma == base.sigma

    def test_lattice_gains_split_blocks(self):
        base, cls, g = self._base_with_surface(2, 1)
        x = generalized_knot_surgery(base, cls, g, 2, True)
        blocks = 2 * 2 * (g - 1)
        assert x.lattice.rank == base.lattice.rank + 2 * blocks
        assert gram(x.lattice)[base.lattice.rank][base.lattice.rank] == 2

    def test_kept_witnesses_are_reused(self):
        base, cls, g = self._base_with_surface(2, 1)
        x = generalized_knot_surgery(base, cls, g, 2, True)
        kept = [w for w in base.witnesses if dot(cls, w) == 0]
        assert len(x.witnesses) == len(kept) + 1
        assert all(a is b for a, b in zip(x.witnesses, kept))

    def test_torus_rejected(self):
        m = elliptic_surface(2, 1, 1)
        with pytest.raises(ConstructionError, match="use knot_surgery"):
            generalized_knot_surgery(m, fibre(m), 1, 1, True)

    def test_zero_knot_genus_rejected(self):
        base, cls, g = self._base_with_surface(2, 1)
        with pytest.raises(ConstructionError, match="positive"):
            generalized_knot_surgery(base, cls, g, 0, True)

    def test_odd_divisibility_increment(self):
        # h = t d for odd d raises c1^2 by 8 t d (g - 1).
        from symgeo.geography import surgered_homotopy_elliptic

        d, t = 3, 2
        base = surgered_homotopy_elliptic(3, d)
        cls = base.lattice.basis_vector("R_1") + base.lattice.basis_vector("DR_1")
        g = d + 1
        x = generalized_knot_surgery(base, cls, g, t * d, True)
        assert 2 * x.e + 3 * x.sigma == 8 * t * d * (g - 1)


class TestLogTransform:
    def test_identity(self):
        m = elliptic_surface(2, 1, 1)
        x = log_transform(m, 1)
        assert (x.e, x.sigma, x.canonical, x.lattice) == (m.e, m.sigma, m.canonical, m.lattice)

    def test_k3_index_two(self):
        x = log_transform(elliptic_surface(2, 1, 1), 2)
        assert dense(x.canonical)[0] == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_index_two_general(self, n):
        x = log_transform(elliptic_surface(n, 1, 1), 2)
        assert dense(x.canonical)[0] == 2 * n - 3

    def test_requires_unsurgered_elliptic(self):
        m = elliptic_surface(2, 2, 1)
        with pytest.raises(ConstructionError, match="unsurgered"):
            log_transform(m, 3)
        with pytest.raises(ConstructionError, match="unsurgered"):
            log_transform(knot_product(2), 2)


class TestBlowUp:
    def test_point_and_divisibility(self):
        m = blow_up(elliptic_surface(3, 1, 1))
        inv_chi = (m.e + m.sigma) // 4
        assert (inv_chi, 2 * m.e + 3 * m.sigma) == (3, -1)
        cert = divisibility(m)
        assert cert.value == 1 and cert.certified
        assert m.minimal == "no" and not m.spin

    def test_kept_witnesses_are_reused(self):
        base = elliptic_surface(3, 1, 1)
        m = blow_up(base)
        assert len(m.witnesses) == len(base.witnesses) + 1
        assert all(a is b for a, b in zip(m.witnesses, base.witnesses))

    def test_k3_deltas(self):
        m = blow_up(elliptic_surface(2, 1, 1))
        assert (m.e, m.sigma) == (25, -17)

    def test_formal_blow_down_via_recipe(self):
        from symgeo.recipes import execute_recipe

        base = elliptic_surface(2, 1, 1)
        up = blow_up(base)
        down = execute_recipe(up.recipe.inputs[0])
        assert down == base

    def test_adjunction_of_exceptional_sphere(self):
        m = blow_up(elliptic_surface(3, 1, 1))
        w = m.witness("exceptional_E_1")
        assert 2 * w.genus - 2 == dot(m.canonical, w) + w.self_intersection

    def test_count_equals_chain_of_single_blow_ups(self):
        rng = random.Random(7)
        for _ in range(20):
            base = random_descriptor(rng)
            count = rng.randint(1, 4)
            chain = base
            for _ in range(count):
                chain = blow_up(chain)
            one = blow_up(base, count)
            assert one.recipe.params == (("count", count),)
            assert replace(one, recipe=chain.recipe) == chain

    def test_count_takes_the_first_free_names(self):
        base = elliptic_surface(2, 1, 1)
        names = tuple("E_2" if n == "D1_1" else n for n in base.lattice.basis_names)
        m = replace(base, lattice=replace(base.lattice, basis_names=names))
        up = blow_up(m, 2)
        assert up.lattice.basis_names[-2:] == ("E_1", "E_3")
        chain = blow_up(blow_up(m))
        assert replace(up, recipe=chain.recipe) == chain


class TestLagrangianTripleSurgery:
    def test_sign_variants(self):
        # a = 4, em = 1, h1 = h2 = 1 on the K3 surface: the first torus
        # coefficient is 6 for the plus sign and 2 for the minus sign, the
        # second is 3, read off against the dual surfaces C_1 and C_2.
        base = elliptic_surface(2, 1, 1)
        for sign, c1_coeff in (("+", 6), ("-", 2)):
            x = lagrangian_triple_surgery(base, 1, 4, 1, 1, 1, sign)
            assert (x.e, x.sigma) == (36, -24)
            c1 = next(w for w in x.witnesses if w.name == "C1_t1")
            c2 = next(w for w in x.witnesses if w.name == "C2_t1")
            assert dot(x.canonical, c1) == c1_coeff
            assert dot(x.canonical, c2) == 3
            t1 = x.lattice.basis_vector("T1_1")
            t2 = x.lattice.basis_vector("R_1") - t1.scaled(4)
            assert (
                x.canonical
                == base_extension(x, base) + t1.scaled(c1_coeff) + t2.scaled(3)
            )

    def test_dual_surface_pairings(self):
        x = lagrangian_triple_surgery(elliptic_surface(3, 1, 1), 2, 2, 2, 1, 2, "+")
        t1 = x.lattice.basis_vector("T1_2")
        t2 = x.lattice.basis_vector("R_2") - t1.scaled(2)
        c1 = next(w for w in x.witnesses if w.name == "C1_t2")
        c2 = next(w for w in x.witnesses if w.name == "C2_t2")
        assert dot(t1, c1) == 1 and dot(t2, c1) == 0
        assert dot(t2, c2) == 1 and dot(t1, c2) == 0

    def test_undeclared_triple(self):
        with pytest.raises(ConstructionError, match="undeclared triple"):
            lagrangian_triple_surgery(elliptic_surface(2, 1, 1), 2, 1, 1, 1, 1, "+")

    def test_euler_and_signature_shift(self):
        base = elliptic_surface(4, 1, 1)
        x = lagrangian_triple_surgery(base, 3, 1, 2, 1, 1, "+")
        assert (x.e, x.sigma) == (base.e + 24, base.sigma - 16)


def base_extension(x, base):
    # The base canonical class inside the surgered lattice (zero here, but
    # written generally for clarity of the identity being checked).
    coeffs = [0] * x.lattice.rank
    for name, c in zip(base.lattice.basis_names, dense(base.canonical)):
        if c:
            coeffs[x.lattice.index_of(name)] = c
    return class_vector(coeffs)


class TestStructureNegation:
    def test_zero(self):
        assert (-class_vector((0, 0))).is_zero()

    def test_knot_product_formula(self):
        m = knot_product(3)
        assert dense(-m.canonical) == (-4, 0)

    def test_involution(self):
        v = class_vector((3, -5, 7))
        assert -(-v) == v


class TestAdjunctionInvariant:
    def test_all_declared_witnesses_satisfy_adjunction(self):
        from symgeo.geography import homotopy_elliptic, spin_surface

        descriptors = [
            elliptic_surface(3, 1, 1),
            knot_product(2),
            surface_bundle_y(3, 2),
            homotopy_elliptic(5, 5),
            spin_surface(4, 2, 1),
        ]
        for m in descriptors:
            for w in m.witnesses:
                if w.genus is None or w.self_intersection is None:
                    continue
                assert (
                    2 * w.genus - 2
                    == dot(m.canonical, w) + w.self_intersection
                ), (m.recipe.operation, w.name)


# --- dense reference assembly ----------------------------------------------
# The Gram matrices, witness rows and canonical classes fibre_sum,
# generalized_knot_surgery and blow_up built when lattices, witnesses and
# classes were stored dense and padded with zeros, re-derived here from the
# inputs' dense views and compared with the sparse result.


def dense_witnesses(m):
    return [(w, expand(w.pairings, m.lattice.rank)) for w in m.witnesses]


def dense_side(m, surface):
    """(kept indices, dual square, tracked dual index, dual witness, dense
    dual row, surface index) of one fibre-sum side, read densely."""
    g = gram(m.lattice)
    i = dense(surface).index(1)
    partners = [j for j in range(len(g)) if j != i and g[i][j] != 0]
    if partners:
        j = partners[0]
        return [k for k in range(len(g)) if k not in (i, j)], g[j][j], j, None, g[j], i
    dual, row = next((w, p) for w, p in dense_witnesses(m) if dense_dot(surface, w) == 1)
    return [k for k in range(len(g)) if k != i], dual.self_intersection, None, dual, row, i


def dense_fibre_sum(m, n, genus, class_m, _sign_m, _complement_m, class_n, *_):
    m_keep, m_square, m_j, m_dual, m_row, m_i = dense_side(m, class_m)
    n_keep, n_square, n_j, n_dual, n_row, n_i = dense_side(n, class_n)
    gm, gn = gram(m.lattice), gram(n.lattice)
    sigma_pos = len(m_keep)
    pad = (0,) * len(n_keep)
    rows = [tuple(gm[i][j] for j in m_keep) + (0, 0) + pad for i in m_keep]
    rows.append((0,) * sigma_pos + (0, 1) + pad)
    rows.append((0,) * sigma_pos + (1, m_square + n_square) + pad)
    rows += [(0,) * (sigma_pos + 2) + tuple(gn[i][j] for j in n_keep) for i in n_keep]

    def embed(m_vec, sigma, b, n_vec):
        return tuple(m_vec[i] for i in m_keep) + (sigma, b) + tuple(n_vec[i] for i in n_keep)

    zeros_m, zeros_n = (0,) * m.lattice.rank, (0,) * n.lattice.rank
    witnesses = []
    for desc, surface, j, dual, place in (
        (m, class_m, m_j, m_dual, lambda p, b: embed(p, 0, b, zeros_n)),
        (n, class_n, n_j, n_dual, lambda p, b: embed(zeros_m, 0, b, p)),
    ):
        for w, p in dense_witnesses(desc):
            if w is not dual and dense_dot(surface, w) == 0:
                witnesses.append(place(p, 0 if j is None else p[j]))
    witnesses.append(embed(m_row, 1, m_square + n_square, n_row))
    km, kn = dense(m.canonical), dense(n.canonical)
    canonical = embed(
        km,
        km[m_i] + kn[n_i] + 2,
        (0 if m_j is None else km[m_j]) + (0 if n_j is None else kn[n_j]) - (2 * genus - 2),
        kn,
    )
    return tuple(rows), witnesses, canonical


def dense_gks(m, surface, genus, h, _complement):
    g = gram(m.lattice)
    old_rank = len(g)
    blocks = 2 * h * (genus - 1)
    tail = (0,) * (2 * blocks)
    rank = old_rank + 2 * blocks
    rows = [row + tail for row in g]
    for b in range(blocks):
        off = old_rank + 2 * b
        rows.append((0,) * off + (2, 1) + (0,) * (rank - off - 2))
        rows.append((0,) * off + (1, 0) + (0,) * (rank - off - 2))
    witnesses = [p + tail for w, p in dense_witnesses(m) if dense_dot(surface, w) == 0]
    sigma_row = tuple(
        sum(c * g[i][j] for i, c in enumerate(dense(surface))) for j in range(old_rank)
    )
    witnesses.append(sigma_row + tail)
    canonical = tuple(k + 2 * h * c for k, c in zip(dense(m.canonical), dense(surface)))
    return tuple(rows), witnesses, canonical + tail


def dense_blow_up(m, count=1):
    old_rank = m.lattice.rank
    rank = old_rank + count
    tail = (0,) * count
    diagonal = [(0,) * i + (-1,) + (0,) * (rank - i - 1) for i in range(old_rank, rank)]
    rows = tuple(row + tail for row in gram(m.lattice)) + tuple(diagonal)
    witnesses = [p + tail for _, p in dense_witnesses(m)] + diagonal
    return rows, witnesses, dense(m.canonical) + (1,) * count


def checked(op, reference, calls):
    """Wrap ``op`` so that every call compares its Gram, its expanded
    witness rows and its expanded canonical class with the reference."""
    def run(*args, **kwargs):
        out = op(*args, **kwargs)
        rows, witnesses, canonical = reference(*args)
        assert gram(out.lattice) == rows
        assert [expand(w.pairings, out.lattice.rank) for w in out.witnesses] == witnesses
        assert dense(out.canonical) == canonical
        calls[op.__name__] = calls.get(op.__name__, 0) + 1
        return out
    return run


class TestDenseReference:
    def test_random_construction_trees(self, monkeypatch):
        import conftest

        calls = {}
        monkeypatch.setattr(conftest, "fibre_sum", checked(fibre_sum, dense_fibre_sum, calls))
        monkeypatch.setattr(conftest, "blow_up", checked(blow_up, dense_blow_up, calls))
        rng = random.Random(2024)
        for _ in range(60):
            conftest.random_descriptor(rng)
        assert calls["fibre_sum"] > 0 and calls["blow_up"] > 0

    def test_fibre_sum_along_rim_torus_with_tracked_dual(self, monkeypatch):
        # Triple surgery sums along R_i, whose dual sphere DR_i is a basis class.
        calls = {}
        monkeypatch.setattr(
            surgery, "fibre_sum", checked(fibre_sum, dense_fibre_sum, calls)
        )
        inequivalent_family(15, [15, 5, 3], "c1sq_zero", n=5)
        assert calls["fibre_sum"] == 2

    def test_witness_meeting_the_tracked_dual(self):
        # A witness that misses R_1 but meets its dual sphere DR_1 pairs the
        # same with the sewn dual B_R_1.
        base = elliptic_surface(2, 1, 1)
        lat = base.lattice
        probe = Witness("probe", ((lat.index_of("f"), 1), (lat.index_of("DR_1"), 3)))
        m = replace(base, witnesses=base.witnesses + (probe,))
        e1 = elliptic_surface(1, 1, 1)
        calls = {}
        x = checked(fibre_sum, dense_fibre_sum, calls)(
            m, e1, 1, lat.basis_vector("R_1"), "+", True, fibre(e1), "+", True,
            no_rim_tori=False,
        )
        assert dot(x.lattice.basis_vector("B_R_1"), x.witness("probe")) == 3
        assert calls["fibre_sum"] == 1

    def test_spin_and_nonspin_points(self, monkeypatch):
        calls = {}
        monkeypatch.setattr(
            geography, "generalized_knot_surgery",
            checked(generalized_knot_surgery, dense_gks, calls),
        )
        for d, m, t in [(2, 1, 1), (4, 1, 2), (4, 2, 1), (6, 1, 1)]:
            geography.spin_surface(d, m, t)
        for d, n, t in [(1, 2, 1), (3, 2, 1), (3, 3, 2), (5, 2, 1)]:
            geography.nonspin_surface(d, n, t)
        assert calls["generalized_knot_surgery"] == 8
