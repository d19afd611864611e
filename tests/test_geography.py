import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from conftest import class_vector, dense, dense_dot, random_descriptor
from hypothesis import given, settings
from hypothesis import strategies as st

from symgeo import geography, lattice
from symgeo.errors import ConstructionError, InadmissibleError
from symgeo.geography import (
    certify_class,
    divisibility,
    homotopy_elliptic,
    inequivalent_family,
    negative_c1,
    nonspin_surface,
    realizable,
    spin_surface,
    surgered_homotopy_elliptic,
    validate,
)
from symgeo.lattice import (
    HeadPiece,
    IntersectionLattice,
    Witness,
    block_diagonal,
    pairing,
    q_set,
)
from symgeo.manifolds import (
    ConstructionRecipe,
    ManifoldDescriptor,
    derived_invariants,
    elliptic_surface,
)
from symgeo.recipes import execute_recipe
from symgeo.surgery import knot_surgery


def synthetic(e, sigma, *, sc=True, canonical=(), gram=(), witnesses=(), primitive=True):
    names = tuple(f"g{i}" for i in range(len(gram)))
    lat = IntersectionLattice((HeadPiece(names, block_diagonal([gram])),), primitive)
    return ManifoldDescriptor(
        e=e, sigma=sigma, simply_connected=sc, symplectic=True,
        minimal="unknown", lattice=lat, canonical=class_vector(canonical),
        witness_items=tuple(witnesses),
        recipe=ConstructionRecipe("catalog", (("name", "barlow"),)),
    )


class TestValidate:
    def test_elliptic_passes_everything(self):
        assert validate(elliptic_surface(3, 1, 1)).ok

    def test_report_carries_its_certificate(self):
        rng = random.Random(5)
        for m in [homotopy_elliptic(4, 2)] + [random_descriptor(rng) for _ in range(200)]:
            assert validate(m).certificate == divisibility(m)

    def test_rochlin_failure(self):
        # K = 0 is even, so the manifold is spin, and sigma = -8 breaks Rochlin.
        m = synthetic(12, -8)
        assert m.spin
        report = validate(m)
        assert "rochlin" in report.failures()

    def test_divisibility_square_failure(self):
        # c1^2 = 3 with a canonical class divisible by 3: 9 does not divide 3.
        m = synthetic(0, 1, canonical=(3,), gram=((0,),))
        report = validate(m)
        assert "divisibility_square" in report.failures()

    def test_b2_plus_parity(self):
        # For a simply-connected almost-complex manifold b2+ = 2 chi_h - 1,
        # so the parity check is a consequence of chi_h integrality; it is
        # reported as its own entry.
        m = synthetic(10, 2)
        assert ("b2_plus_odd", True, "b2+ = 5") in validate(m).entries
        non_complex = synthetic(12, 2)
        assert "chi_h_integral" in validate(non_complex).failures()

    def test_adjunction_failure_detected(self):
        w = Witness("liar", ((0, 1),), 2, 0)
        m = synthetic(12, -8, canonical=(1,), gram=((0,),), witnesses=(w,))
        assert "adjunction_witnesses" in validate(m).failures()

    def test_obstructions_entry(self):
        # Knot surgery of sign - on the fibre of E(4) with a genus-1 knot
        # leaves K = 0 at chi_h = 4, which only K3's chi_h = 2 allows.
        base = elliptic_surface(4, 1, 1)
        m = knot_surgery(base, base.lattice.basis_vector("f"), 1, "-", True)
        assert (derived_invariants(m).chi_h, divisibility(m).value) == (4, 0)
        assert validate(m).failures() == ["obstructions"]
        assert ("obstructions", True, "none") in validate(homotopy_elliptic(4, 2)).entries
        # Not applicable, and no raise, off integral chi_h or without a
        # certificate.
        for m in (synthetic(12, 2), synthetic(12, -8, canonical=(1,), gram=((0,),))):
            assert ("obstructions", True, "not applicable") in validate(m).entries

    def test_square_zero_genus_constraint(self):
        # A square-zero symplectic surface of genus g forces d | 2g - 2.
        w = Witness("sigma", ((0, 1),), 3, 0)
        m = synthetic(8, 0, canonical=(3, 0), gram=((0, 1), (1, 0)), witnesses=(w,))
        assert "square_zero_genus" in validate(m).failures()


class TestDivisibility:
    def test_even_even_certificate(self):
        m = surgered_homotopy_elliptic(4, 4)
        cert = divisibility(m)
        assert (cert.lower, cert.upper, cert.certified) == (4, 4, True)

    def test_odd_odd_gcd_of_witness_values(self):
        m = surgered_homotopy_elliptic(3, 3)
        i = m.lattice.index_of("f")
        j = m.lattice.index_of("R_1")
        assert (dense(m.canonical)[i], dense(m.canonical)[j]) == (9, 6)
        cert = divisibility(m)
        assert cert.value == 3 and cert.certified

    def test_zero_canonical(self):
        m = elliptic_surface(2, 1, 1)
        cert = divisibility(m)
        assert (cert.lower, cert.upper, cert.certified) == (0, 0, True)

    def test_no_witnesses_sentinel(self):
        m = synthetic(12, -8, canonical=(2,), gram=((0,),))
        cert = divisibility(m)
        assert (cert.upper, cert.certified) == (0, False)

    def test_parity_intersection(self):
        # A single even-pairing witness cannot certify an odd class by
        # itself; non-spin-ness strips the factor of two.
        w = Witness("even_pairing", ((0, 2),), None, None)
        m = synthetic(12, -8, canonical=(3, 0), gram=((0, 1), (1, 0)), witnesses=(w,))
        cert = divisibility(m)
        assert cert.lower == 3 and cert.upper == 3 and cert.certified
        assert "non-spin" in cert.parity_note

    def test_unknown_spin_applies_no_parity_rule(self):
        # An odd K off a primitive summand, an even form and 16 | sigma leave
        # the spin type open, and the even part of the witness bound stays.
        w = Witness("even_pairing", ((0, 2),), None, None)
        m = synthetic(16, -16, canonical=(3, 0), gram=((0, 1), (1, 0)), witnesses=(w,),
                      primitive=False)
        assert m.spin is None
        cert = divisibility(m)
        assert (cert.lower, cert.upper, cert.certified) == (3, 6, False)
        assert cert.parity_note == "no parity constraint"

    def test_spin_with_odd_coefficient_gcd_is_not_certified(self):
        # The bounds of the class 3 g0 meet at 3, but on a manifold with the
        # even K = 2 g0, hence spin, a canonical class is even.
        w = Witness("odd_pairing", ((0, 1),), None, None)
        m = synthetic(24, -16, canonical=(2, 0), gram=((0, 1), (1, 0)), witnesses=(w,))
        assert m.spin
        cert = certify_class(m, class_vector((3, 0)))
        assert (cert.lower, cert.upper, cert.certified) == (3, 3, False)
        assert cert.parity_note == "inconsistent: spin with odd coefficient gcd"


class TestHomotopyElliptic:
    def test_three_three(self):
        m = homotopy_elliptic(3, 3)
        assert (m.e, m.sigma) == (36, -24)
        assert divisibility(m).value == 3 and divisibility(m).certified

    def test_two_five_uses_log_transform_realization(self):
        m = homotopy_elliptic(2, 5)
        assert m.recipe.operation == "elliptic_surface"
        assert m.recipe.param("p") == 6
        assert divisibility(m).value == 5

    def test_four_two(self):
        m = homotopy_elliptic(4, 2)
        i = m.lattice.index_of("f")
        j = m.lattice.index_of("R_1")
        assert (dense(m.canonical)[i], dense(m.canonical)[j]) == (4, 2)
        assert m.spin

    def test_parity_obstruction(self):
        with pytest.raises(InadmissibleError, match="spin parity obstruction"):
            homotopy_elliptic(3, 2)
        with pytest.raises(InadmissibleError, match="spin parity obstruction"):
            homotopy_elliptic(1, 4)

    @pytest.mark.parametrize("constructor, params", [
        (homotopy_elliptic, (0, 1)), (homotopy_elliptic, (1, 0)),
        (surgered_homotopy_elliptic, (3, 2)), (spin_surface, (3, 1, 1)),
        (spin_surface, (2, 0, 1)), (spin_surface, (2, 1, 0)), (nonspin_surface, (2, 2, 1)),
        (nonspin_surface, (1, 1, 1)), (nonspin_surface, (1, 2, 0)),
        (negative_c1, (0, 1)), (negative_c1, (1, 0)),
    ])
    def test_rejected_parameters_are_inadmissible(self, constructor, params):
        with pytest.raises(InadmissibleError):
            constructor(*params)

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 7), (2, 2), (2, 9), (5, 1),
                                     (6, 6), (7, 7), (8, 3), (9, 5), (12, 8)])
    def test_small_grid(self, n, d):
        m = homotopy_elliptic(n, d)
        inv = derived_invariants(m)
        assert (inv.chi_h, inv.c1_squared, m.sigma) == (n, 0, -8 * n)
        cert = divisibility(m)
        assert cert.certified and cert.value == d
        assert validate(m).ok


class TestSpinSurface:
    def test_basic_point(self):
        x = spin_surface(2, 1, 1)
        inv = derived_invariants(x)
        assert (inv.c1_squared, x.e, x.sigma, inv.chi_h) == (8, 28, -16, 3)
        assert x.spin and divisibility(x).certified and divisibility(x).value == 2

    def test_horikawa_point(self):
        # On the line c1^2 = 2 chi_h - 6 with t = k = 1: needs m = 3.
        x = spin_surface(2, 3, 1)
        inv = derived_invariants(x)
        assert inv.c1_squared == 8 and inv.chi_h == 7
        assert inv.c1_squared == 2 * inv.chi_h - 6

    def test_canonical_square(self):
        x = spin_surface(4, 2, 3)
        assert pairing(x.lattice, x.canonical, x.canonical) == 2 * x.e + 3 * x.sigma

    def test_odd_divisibility_rejected(self):
        with pytest.raises(ConstructionError, match="even"):
            spin_surface(3, 1, 1)

    def test_peak_memory_scales_with_blocks(self):
        # Doubling t doubles the split-class blocks, so the rank nearly
        # doubles; storage quadratic in the rank would about quadruple.
        def peak(*params):
            tracemalloc.start()
            try:
                spin_surface(*params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20, 1, 8) <= 2.5 * peak(20, 1, 4)

    def test_build_and_validate_lay_out_no_block(self):
        # The split blocks are stored as one run: building and validating
        # never lay out the basis, and 16 times the blocks cost no memory.
        def peak(t):
            tracemalloc.start()
            try:
                m = spin_surface(20, 1, t)
                report = validate(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.ok
            return peak

        assert peak(64) <= 1.2 * peak(4)

    def test_rank_256k_builds_and_validates(self):
        m = spin_surface(80, 2, 40)
        assert m.lattice.rank == 256_013
        assert validate(m).ok

    def test_canonical_entries_do_not_grow_with_blocks(self):
        # K moves by 2h Sigma, which misses the split-class blocks, so
        # doubling them adds no stored canonical entry; a dense class
        # grows with the rank.
        def entries(m):
            return len(m.canonical.entries)

        assert entries(spin_surface(20, 1, 8)) == entries(spin_surface(20, 1, 4))

    def test_witness_entries_do_not_grow_with_blocks(self):
        # The split-class blocks pair with no witness, so doubling them
        # adds no stored witness entry; dense pairings grow with the rank.
        def entries(m):
            return sum(len(w.pairings) for w in m.witnesses)

        assert entries(spin_surface(20, 1, 8)) == entries(spin_surface(20, 1, 4))


class TestNonspinSurface:
    def test_basic_point(self):
        x = nonspin_surface(3, 2, 1)
        inv = derived_invariants(x)
        assert (inv.c1_squared, x.e, x.sigma, inv.chi_h) == (72, 60, -16, 11)
        assert (inv.c1_squared + x.e) % 12 == 0

    def test_certificate(self):
        cert = divisibility(nonspin_surface(5, 3, 2))
        assert cert.value == 5 and cert.certified

    def test_even_divisibility_rejected(self):
        with pytest.raises(ConstructionError, match="odd"):
            nonspin_surface(2, 2, 1)

    def test_horikawa_line(self):
        # chi_h = 4 t d^2 + 3 puts the point on the line c1^2 = 2 chi_h - 6.
        for d, t in [(1, 1), (3, 1)]:
            x = nonspin_surface(d, 3 * t * d * d + 3, t)
            inv = derived_invariants(x)
            assert inv.chi_h == 4 * t * d * d + 3
            assert inv.c1_squared == 2 * inv.chi_h - 6


class TestNegativeC1:
    def test_examples(self):
        m = negative_c1(2, 3)
        assert (m.e, m.sigma) == (27, -19)
        inv = derived_invariants(m)
        assert (inv.chi_h, inv.c1_squared) == (2, -3)
        assert derived_invariants(negative_c1(4, 1)).c1_squared == -1

    def test_divisibility_always_one(self):
        for n, r in [(1, 1), (2, 2), (3, 5)]:
            cert = divisibility(negative_c1(n, r))
            assert cert.value == 1 and cert.certified

    def test_blow_ups_are_one_recipe_node(self):
        # A stored-count gate: r blow-ups add r classes in one blow_up node
        # over the elliptic surface, not r nested nodes.
        m = negative_c1(1, 20000)
        assert m.lattice.rank == 20001
        nodes, stack = [], [m.recipe]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].inputs)
        assert [node.operation for node in nodes] == ["blow_up", "elliptic_surface"]
        assert nodes[0].params == (("count", 20000),)


@st.composite
def family_inputs(draw, regimes=("c1sq_zero", "spin_positive", "nonspin_positive"), max_n=4):
    """Admissible (d, divisor list, regime, parameters) with N <= max_n."""
    regime = draw(st.sampled_from(regimes))
    if regime == "spin_positive":
        d = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    elif regime == "nonspin_positive":
        d = draw(st.sampled_from([3, 5, 7, 9, 15]))
    else:
        d = draw(st.integers(1, 24))
    divs = [x for x in range(1, d + 1) if d % x == 0 and (d % 2 == 1 or x % 2 == 0)]
    big_n = draw(st.integers(1, max_n))
    tail = draw(st.lists(st.sampled_from(divs), min_size=big_n, max_size=big_n))
    extra = draw(st.integers(0, 2))
    if regime == "spin_positive":
        params = {"m": (3 * big_n + 3) // 2 + extra, "t": draw(st.integers(1, 2))}
    elif regime == "nonspin_positive":
        params = {"m": 2 * big_n + 2 + extra, "t": 1}
    elif d % 2 == 1:
        params = {"n": 2 * big_n + 1 + extra}
    else:
        n = 3 * big_n + 1 + extra
        params = {"n": n + n % 2}
    return d, [d] + tail, regime, params


def build_pattern(res, mask):
    """The manifold of sign pattern ``mask`` of the family ``res``, built
    by the steps that built ``res.descriptor``: its recipe, replayed with
    sign ``-`` on the triple surgery of bit i for each set bit i.  Bit i
    is the i-th triple in surgery order, as in ``FamilyResult``."""
    triples = []

    def signed(node):
        inputs = tuple(signed(child) for child in node.inputs)
        if node.operation != "lagrangian_triple_surgery":
            return replace(node, inputs=inputs)
        triples.append(node.param("triple_index"))
        sign = "-" if mask >> (len(triples) - 1) & 1 else "+"
        params = tuple((k, sign if k == "sign" else v) for k, v in node.params)
        return replace(node, inputs=inputs, params=params)

    recipe = signed(res.descriptor.recipe)
    assert len(triples) == len(res.shifts) and triples == sorted(triples)
    return execute_recipe(recipe)


class TestInequivalentFamily:
    def test_worked_example_45(self):
        res = inequivalent_family(45, [45, 15, 9, 5], "c1sq_zero", n=7)
        assert res.q == frozenset({45, 15, 9, 5, 3, 1})
        assert set(res.divisibilities) == set(res.q)
        assert len(res.q) == 6
        assert derived_invariants(res.descriptor).chi_h == 7
        assert all(c.certified for c in res.certificates)

    def test_two_m_structures_from_primes(self):
        # Divisor list from products of two odd primes realizes all four
        # products as divisibilities on chi_h = 5.
        res = inequivalent_family(15, [15, 5, 3], "c1sq_zero", n=5)
        assert res.q == frozenset({15, 5, 3, 1})
        assert set(res.divisibilities) == res.q
        assert derived_invariants(res.descriptor).chi_h == 5

    def test_small_odd_family_vectors(self):
        res = inequivalent_family(3, [3, 1], "c1sq_zero", n=3)
        w = res.descriptor
        i_f = w.lattice.index_of("f")
        t1 = w.lattice.basis_vector("T1_1")
        t2 = w.lattice.basis_vector("R_1") - t1.scaled(4)
        expected = {
            3: w.lattice.basis_vector("f").scaled(6) + t1.scaled(6) + t2.scaled(3),
            1: w.lattice.basis_vector("f").scaled(6) + t1.scaled(2) + t2.scaled(3),
        }
        for vec, cert in zip(res.canonical_classes, res.certificates):
            assert vec == expected[cert.value]
            assert dense(vec)[i_f] == 6
        assert set(res.divisibilities) == {3, 1}

    def test_spin_regime(self):
        res = inequivalent_family(6, [6, 2], "spin_positive", m=3, t=1)
        w = res.descriptor
        inv = derived_invariants(w)
        assert inv.c1_squared == 2 * 36
        assert w.e == 36 + 72 and w.sigma == -48
        assert set(res.divisibilities) == res.q == frozenset({6, 2})
        assert w.spin

    def test_nonspin_regime(self):
        res = inequivalent_family(3, [3, 1], "nonspin_positive", m=4, t=1)
        w = res.descriptor
        inv = derived_invariants(w)
        assert inv.c1_squared == 8 * 9
        assert w.sigma == -32
        assert set(res.divisibilities) == res.q == frozenset({3, 1})

    def test_doubling_regime(self):
        res = inequivalent_family(12, [12, 4, 6], "c1sq_zero", n=10)
        assert res.q == q_set(12, [12, 4, 6]) == frozenset({12, 4})
        assert set(res.divisibilities) == res.q

    def test_bound_violations(self):
        with pytest.raises(ConstructionError, match="2N\\+1"):
            inequivalent_family(3, [3, 1], "c1sq_zero", n=2)
        with pytest.raises(ConstructionError, match="3N\\+1"):
            inequivalent_family(2, [2, 2], "c1sq_zero", n=3)
        with pytest.raises(ConstructionError, match="3N\\+2"):
            inequivalent_family(2, [2, 2], "spin_positive", m=2, t=1)
        with pytest.raises(ConstructionError, match="2N\\+2"):
            inequivalent_family(3, [3, 1], "nonspin_positive", m=3, t=1)

    @pytest.mark.parametrize(
        "d, divisors, regime, params",
        [
            (9, [9, 3], "c1sq_zero", {"n": 5}),
            (45, [45, 15, 9, 5, 3], "c1sq_zero", {"n": 9}),
            (6, [6, 2, 6, 2, 2], "c1sq_zero", {"n": 14}),
            (12, [12, 4, 6, 2, 12], "c1sq_zero", {"n": 14}),
            (8, [8, 2, 4, 8, 2], "spin_positive", {"m": 7, "t": 1}),
            (15, [15, 5, 3, 1, 15], "nonspin_positive", {"m": 10, "t": 1}),
        ],
        ids=["odd-N1", "odd-N4", "2mod4-N4", "doubling-N4", "spin-N4", "nonspin-N4"],
    )
    def test_certificates_against_fresh_class_vectors(self, d, divisors, regime, params):
        res = inequivalent_family(d, divisors, regime, **params)
        assert len(res.canonical_classes) == len(res.certificates) == 1 << (len(divisors) - 1)
        for vec, cert in zip(res.canonical_classes, res.certificates):
            assert certify_class(res.descriptor, vec) == cert

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(family_inputs())
    def test_delta_certificates_property(self, inputs):
        d, divisors, regime, params = inputs
        res = inequivalent_family(d, divisors, regime, **params)
        for vec, cert in zip(res.canonical_classes, res.certificates):
            assert certify_class(res.descriptor, vec) == cert
        assert set(res.divisibilities) == q_set(d, divisors)

    @pytest.mark.parametrize("regime", ["c1sq_zero", "spin_positive", "nonspin_positive"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_pattern_built_has_its_class_and_certificate(self, regime, data):
        # The paper's inequivalence claim on built manifolds: the manifold
        # built with sign - on the triples of a pattern has the class and
        # certificate the family gives that pattern, and validates.
        d, divisors, regime, params = data.draw(family_inputs((regime,), max_n=3))
        res = inequivalent_family(d, divisors, regime, **params)
        for mask, (k, cert) in enumerate(zip(res.canonical_classes, res.certificates)):
            m = build_pattern(res, mask)
            assert m.lattice == res.descriptor.lattice and m.canonical == k, mask
            report = validate(m)
            assert report.certificate == cert and report.ok, (mask, report.failures())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_delta_certificates_on_random_descriptors(self, data):
        # Arbitrary shifts on arbitrary trees: witness pairings and
        # coefficients here are not tied to one another as in the family,
        # so a wrong step cannot hide in the gcd.
        m = random_descriptor(random.Random(data.draw(st.integers(0, 10**6))))
        # Half the draws shift positions inside one plain witness's
        # pairings, so that the witness meets several of them.
        plain = [w for w in m.witness_items
                 if not isinstance(w, lattice.WitnessRun) and len(w.pairings) > 1]
        if plain and data.draw(st.booleans()):
            met = [i for i, _ in data.draw(st.sampled_from(plain)).pairings]
            positions = data.draw(
                st.lists(st.sampled_from(met), min_size=2, max_size=6, unique=True)
            )
        else:
            positions = data.draw(
                st.lists(st.integers(0, m.lattice.rank - 1), min_size=1, max_size=6, unique=True)
            )
        shifts = [(pos, data.draw(st.integers(-9, 9))) for pos in positions]
        expected = []
        for mask in range(1 << len(shifts)):
            coeffs = list(dense(m.canonical))
            for bit, (pos, shift) in enumerate(shifts):
                if mask >> bit & 1:
                    coeffs[pos] += shift
            expected.append(certify_class(m, class_vector(coeffs)))
        assert geography._pattern_certificates(m, shifts) == expected

    @pytest.mark.parametrize("build, sizes", [
        (lambda x: inequivalent_family(3, [3, 1], "c1sq_zero", n=x), (1000, 4000, 16000)),
        (lambda x: inequivalent_family(8, [8, 2, 4], "spin_positive", m=6, t=x), (1, 4, 16, 64)),
    ], ids=["c1sq_zero-n", "spin_positive-t"])
    def test_storage_does_not_grow_with_the_rank(self, build, sizes):
        # The stored entries (head-piece rows, one block per run, witness
        # items) are equal over the range, and the traced peak of
        # building and validating stays within 1.5 times.
        def stored(m):
            return len(m.witness_items) + sum(
                1 if isinstance(p, lattice.BlockRun) else len(p.rows) for p in m.lattice.pieces)

        counts, peaks, ranks = set(), [], []
        for x in sizes:
            tracemalloc.start()
            try:
                res = build(x)
                report = validate(res.descriptor)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.ok
            counts.add(stored(res.descriptor))
            ranks.append(res.descriptor.lattice.rank)
        assert len(counts) == 1 and ranks[-1] >= 16 * ranks[0] / 2
        assert max(peaks) <= 1.5 * min(peaks)

    def test_pattern_work_is_linear_in_the_patterns(self, monkeypatch):
        # Doubling spends O(1) gcds per pattern and one _certificate per
        # distinct certificate; a per-pattern fold over the N bits would
        # grow the gcds 2^6 * 12/6 times from N = 6 to N = 12.
        calls = {"gcd": 0, "_certificate": 0}

        def counted(name):
            real = getattr(geography, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(geography, name, counted(name))
        gcds = {}
        for big_n in (6, 12):
            calls.update(gcd=0, _certificate=0)
            res = inequivalent_family(3, [3] + [1] * big_n, "c1sq_zero", n=2 * big_n + 2)
            assert calls["_certificate"] <= len(set(res.certificates))
            gcds[big_n] = calls["gcd"]
        assert gcds[12] <= 1.5 * 2**6 * gcds[6]


class TestRealizable:
    def test_negative_chern_square(self):
        r = realizable(3, -2, 1)
        assert r.status == "yes" and derived_invariants(r.descriptor).c1_squared == -2
        assert realizable(3, -2, 2).status == "no"

    def test_zero(self):
        assert realizable(5, 0, 4).status == "no"
        assert realizable(6, 0, 4).status == "yes"
        # K3, where K = 0 has divisibility 0; no other point has d <= 0.
        r = realizable(2, 0, 0)
        inv = derived_invariants(r.descriptor)
        assert r.status == "yes" and (inv.chi_h, inv.c1_squared) == (2, 0)
        cert = divisibility(r.descriptor)
        assert (cert.value, cert.certified) == (0, True) and validate(r.descriptor).ok
        for chi_h, c1_sq, d in ((1, 0, 0), (3, 0, 0), (2, 1, 0), (2, 0, -1)):
            assert realizable(chi_h, c1_sq, d).status == "no"

    def test_obstruction_messages(self):
        assert realizable(5, 0, 4).detail == "even divisibility needs Rochlin's 16 | c1^2 - 8 chi_h"
        assert realizable(4, 6, 3).detail == realizable(4, 4, 2).detail == (
            "divisibility d needs d^2 | c1^2, and 2d^2 | c1^2 for even d")
        assert realizable(6, 32, 4).detail == "spin_surface(4, 1, 1)"
        assert realizable(11, 9, 3).detail == "no constructor covers this point"

    def test_every_yes_is_a_certified_valid_descriptor(self):
        yes = 0
        for chi_h in range(-1, 13):
            for c1_sq in range(-5, 81):
                for d in range(0, 9):
                    r = realizable(chi_h, c1_sq, d)
                    if r.status != "yes":
                        continue
                    yes += 1
                    inv = derived_invariants(r.descriptor)
                    report = validate(r.descriptor)
                    cert = report.certificate
                    assert (inv.chi_h, inv.c1_squared, cert.value) == (chi_h, c1_sq, d)
                    assert cert.certified and report.ok, (chi_h, c1_sq, d)
        assert yes >= 200

    @pytest.mark.parametrize("regime", list(geography.FAMILIES))
    def test_every_family_point_is_realized(self, regime):
        # Each table row's solve inverts its constructor, and realizable
        # says "yes" wherever the constructor builds.
        name, solve = geography.FAMILIES[regime]
        op = geography.EXISTENCE[name]
        built = 0
        for params in itertools.product(range(-1, 5), repeat=len(op.names)):
            try:
                m = op.constructor(*params)
            except InadmissibleError:
                continue
            built += 1
            point = (derived_invariants(m).chi_h, derived_invariants(m).c1_squared,
                     divisibility(m).value)
            assert solve(*point) == params
            assert realizable(*point).status == "yes", (regime, params)
        assert built >= 4

    def test_positive(self):
        r = realizable(3, 8, 2)
        assert r.status == "yes"
        inv = derived_invariants(r.descriptor)
        assert (inv.chi_h, inv.c1_squared) == (3, 8)
        assert realizable(3, 4, 2).status == "no"
        assert realizable(11, 72, 3).status == "yes"
        assert realizable(11, 9, 3).status == "unknown"
        assert realizable(4, 6, 3).status == "no"


class TestDenseDot:
    def test_certificates_and_validation_match_dense_dot(self, monkeypatch):
        rng = random.Random(2024)
        cases = [(m, m.canonical) for m in (random_descriptor(rng) for _ in range(60))]
        family = inequivalent_family(15, [15, 5, 3], "c1sq_zero", n=5)
        cases += [(family.descriptor, k) for k in family.canonical_classes]
        sparse = [(certify_class(m, k), validate(m).entries) for m, k in cases]
        patterns = len(family.canonical_classes)
        assert tuple(cert for cert, _ in sparse[-patterns:]) == family.certificates

        calls = []

        def counted(v, w):
            calls.append(1)
            return dense_dot(v, w)

        monkeypatch.setattr(lattice, "dot", counted)
        dense = [(certify_class(m, k), validate(m).entries) for m, k in cases]
        assert sparse == dense
        assert len(calls) > 0


class TestRoundTripDeterminism:
    def test_constructors_are_pure(self):
        assert homotopy_elliptic(4, 2) == homotopy_elliptic(4, 2)
        assert spin_surface(2, 2, 1) == spin_surface(2, 2, 1)
        a = inequivalent_family(3, [3, 1], "c1sq_zero", n=3)
        b = inequivalent_family(3, [3, 1], "c1sq_zero", n=3)
        assert a.descriptor == b.descriptor and a.divisibilities == b.divisibilities

    def test_random_family_inputs_match_q_set(self):
        rng = random.Random(17)
        done = 0
        while done < 12:
            d = rng.randint(1, 30)
            divs = [x for x in range(1, d + 1) if d % x == 0]
            if d % 2 == 0:
                divs = [x for x in divs if x % 2 == 0]
            big_n = rng.randint(1, 2)
            if len(divs) < 1:
                continue
            tail = [rng.choice(divs) for _ in range(big_n)]
            divisors = [d] + tail
            if d % 2 == 1:
                n = 2 * big_n + 1 + rng.randint(0, 2)
            else:
                n = 3 * big_n + 1 + rng.randint(0, 2)
                n += n % 2
            res = inequivalent_family(d, divisors, "c1sq_zero", n=n)
            assert set(res.divisibilities) == res.q == q_set(d, divisors)
            done += 1
