"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line.
Every expected value is either a frozen reference number or recomputed
through an independent route inside the test.
"""

import random
from fractions import Fraction

from conftest import dense, random_descriptor
from symgeo.cli import run_command
from symgeo.coverings import (
    CoverParams,
    branched_cover,
    persson_image_sector,
    phi_admissible_image,
    phi_inverse,
    phi_map,
    singular_double_cover,
)
from symgeo.errors import ConstructionError
from symgeo.geography import (
    divisibility,
    homotopy_elliptic,
    inequivalent_family,
    negative_c1,
    nonspin_surface,
    spin_surface,
    validate,
)
from symgeo.lattice import HeadPiece, IntersectionLattice, block_diagonal, dot, pairing, q_set
from symgeo.manifolds import (
    ConstructionRecipe,
    ManifoldDescriptor,
    catalog,
    derived_invariants,
    elliptic_surface,
    knot_product,
    surface_bundle_y,
)
from symgeo.recipes import execute_recipe, parse_recipe, serialize_recipe
from symgeo.surgery import fibre_sum


def report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, failures[:10]


# Reference values of the two covering tables, frozen:
# (d, m) -> (e, c1^2, chi_h, b2+, sigma).
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


def test_criterion_1_table_reproduction(capsys):
    failures = []
    for which, table in (("barlow", BARLOW_TABLE), ("leepark", LEE_PARK_TABLE)):
        code = run_command(["tables", "--which", which])
        out = capsys.readouterr().out
        if code != 0:
            failures.append((which, "exit", code))
            continue
        lines = out.strip().splitlines()
        rows = lines[2:]
        if len(rows) != 9:
            failures.append((which, "row count", len(rows)))
        for row in rows:
            parts = [int(x) for x in row.split(",")]
            d, m, ma, delta = parts[:4]
            expected = table[(d, m)]
            if tuple(parts[4:]) != expected:
                failures.append((which, (d, m), tuple(parts[4:]), expected))
            p = CoverParams(m, d)
            if (ma, delta) != (p.n, p.delta):
                failures.append((which, (d, m), "parameters"))
    with capsys.disabled():
        report(1, "table reproduction", failures)


def test_criterion_2_homotopy_elliptic_geography(capsys):
    failures = []
    for n in range(1, 41):
        for d in range(1, 41):
            if n % 2 == 1 and d % 2 == 0:
                try:
                    homotopy_elliptic(n, d)
                    failures.append((n, d, "parity accepted"))
                except ConstructionError:
                    pass
                continue
            m = homotopy_elliptic(n, d)
            inv = derived_invariants(m)
            cert = divisibility(m)
            if (inv.chi_h, inv.c1_squared, m.sigma) != (n, 0, -8 * n):
                failures.append((n, d, "invariants"))
            if not (cert.certified and cert.value == d):
                failures.append((n, d, "certificate", cert))
            if not validate(m).ok:
                failures.append((n, d, validate(m).failures()))
    with capsys.disabled():
        report(2, "homotopy elliptic geography", failures)


def test_criterion_3_positive_chern_families(capsys):
    failures = []
    for d in range(2, 13, 2):
        for m in range(1, 7):
            for t in range(1, 7):
                x = spin_surface(d, m, t)
                inv = derived_invariants(x)
                cert = divisibility(x)
                if (inv.c1_squared, x.e, x.sigma) != (2 * t * d * d, t * d * d + 24 * m, -16 * m):
                    failures.append(("spin", d, m, t, "formulas"))
                if not x.spin or x.sigma % 16 != 0:
                    failures.append(("spin", d, m, t, "rochlin"))
                if inv.c1_squared % (2 * d * d) != 0:
                    failures.append(("spin", d, m, t, "divisibility square"))
                if pairing(x.lattice, x.canonical, x.canonical) != inv.c1_squared:
                    failures.append(("spin", d, m, t, "K^2"))
                if not (cert.certified and cert.value == d):
                    failures.append(("spin", d, m, t, "certificate"))
                if not validate(x).ok:
                    failures.append(("spin", d, m, t, validate(x).failures()))
    for d in range(1, 13, 2):
        for n in range(2, 7):
            for t in range(1, 7):
                x = nonspin_surface(d, n, t)
                inv = derived_invariants(x)
                cert = divisibility(x)
                if (inv.c1_squared, x.e, x.sigma) != (8 * t * d * d, 4 * t * d * d + 12 * n, -8 * n):
                    failures.append(("nonspin", d, n, t, "formulas"))
                if inv.c1_squared % (d * d) != 0:
                    failures.append(("nonspin", d, n, t, "divisibility square"))
                if pairing(x.lattice, x.canonical, x.canonical) != inv.c1_squared:
                    failures.append(("nonspin", d, n, t, "K^2"))
                if not (cert.certified and cert.value == d):
                    failures.append(("nonspin", d, n, t, "certificate"))
                if not validate(x).ok:
                    failures.append(("nonspin", d, n, t, validate(x).failures()))
    with capsys.disabled():
        report(3, "positive c1^2 theorems", failures)


def _q_set_oracle(d, divisors):
    from itertools import combinations
    from math import gcd

    if d % 4 == 0:
        entries = [x if x % 4 == 0 else 2 * x for x in divisors]
    else:
        entries = list(divisors)
    reached: set[int] = set()
    for r in range(1, len(entries) + 1):
        for subset in combinations(entries, r):
            g = 0
            for x in subset:
                g = gcd(g, x)
            reached.add(g)
    return frozenset(reached)


def test_criterion_4_q_sets_and_families(capsys):
    failures = []
    rng = random.Random(451)
    # Subset-gcd oracle on divisor lists with up to eleven entries.
    for _ in range(300):
        d = rng.randint(1, 400)
        divs = [x for x in range(1, d + 1) if d % x == 0]
        if d % 2 == 0:
            divs = [x for x in divs if x % 2 == 0]
        tail = [rng.choice(divs) for _ in range(rng.randint(0, 10))]
        divisors = [d] + tail
        if q_set(d, divisors) != _q_set_oracle(d, divisors):
            failures.append(("oracle", divisors))

    # The worked 45-divisor example at chi_h = 7.
    res = inequivalent_family(45, [45, 15, 9, 5], "c1sq_zero", n=7)
    if res.q != frozenset({45, 15, 9, 5, 3, 1}):
        failures.append(("q45", res.q))
    if set(res.divisibilities) != res.q or derived_invariants(res.descriptor).chi_h != 7:
        failures.append(("family45", res.divisibilities))
    if not all(c.certified for c in res.certificates):
        failures.append(("family45", "uncertified"))

    # Fifty randomized valid inputs across the three regimes.
    done = 0
    while done < 50:
        d = rng.randint(1, 24)
        divs = [x for x in range(1, d + 1) if d % x == 0]
        if d % 2 == 0:
            divs = [x for x in divs if x % 2 == 0]
        big_n = rng.randint(1, 3)
        divisors = [d] + [rng.choice(divs) for _ in range(big_n)]
        regime = rng.choice(["c1sq_zero", "c1sq_zero", "spin_positive", "nonspin_positive"])
        try:
            if regime == "c1sq_zero":
                if d % 2 == 1:
                    n = 2 * big_n + 1 + rng.randint(0, 2)
                else:
                    n = 3 * big_n + 1 + rng.randint(0, 3)
                    n += n % 2
                res = inequivalent_family(d, divisors, regime, n=n)
            elif regime == "spin_positive":
                if d % 2 or d > 8:
                    continue
                m = (3 * big_n + 2 + 1) // 2 + rng.randint(0, 1)
                res = inequivalent_family(d, divisors, regime, m=m, t=1)
            else:
                if d % 2 == 0 or d < 3 or d > 7:
                    continue
                m = 2 * big_n + 2 + rng.randint(0, 1)
                res = inequivalent_family(d, divisors, regime, m=m, t=1)
        except ConstructionError as exc:
            failures.append((regime, d, divisors, str(exc)))
            done += 1
            continue
        expected = q_set(d, divisors)
        if set(res.divisibilities) != expected or res.q != expected:
            failures.append((regime, d, divisors, res.divisibilities, expected))
        if not all(c.certified for c in res.certificates):
            failures.append((regime, d, divisors, "uncertified"))
        done += 1
    with capsys.disabled():
        report(4, "Q-sets and inequivalent families", failures)


def test_criterion_5_phi_transport(capsys):
    failures = []
    if phi_map(CoverParams(2, 3), 11, 1) != (42, 18):
        failures.append("barlow image")
    if phi_map(CoverParams(2, 4), 10, 2) != (104, 64):
        failures.append("lee-park image")

    rng = random.Random(9)
    for _ in range(1000):
        m = rng.randint(2, 7)
        d = 1 + (m - 1) * rng.randint(1, 4)
        p = CoverParams(m, d)
        e = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100))
        c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100))
        e_bar = p.m * (e + p.delta * c)
        c_bar = p.m * p.d * p.d * c
        if phi_inverse(p, e_bar, c_bar) != (e, c):
            failures.append(("inverse", m, d, e, c))

    for m, d in ((2, 3), (3, 3), (2, 5)):
        p = CoverParams(m, d)
        # Image characterization against exact inversion: a point passes
        # the divisibility-and-congruence test exactly when its preimage
        # is an admissible integer point.
        for e_bar in range(1, 601):
            for c_bar in range(1, 601):
                e, c = phi_inverse(p, e_bar, c_bar)
                invertible = (
                    e.denominator == 1 and c.denominator == 1
                    and (int(e) + int(c)) % 12 == 0
                )
                if phi_admissible_image(p, e_bar, c_bar) != invertible:
                    failures.append(("image characterization", m, d, e_bar, c_bar))

        # Brute-force transport of the general-type sector, all admissible
        # base points with e <= 2000.
        sector_image = set()
        for e in range(24, 2001):
            c_lo = max(1, 36 - e, (e - 36 + 4) // 5)
            c_hi = (e - 24) // 2
            for c in range(c_lo, c_hi + 1):
                if (e + c) % 12 != 0:
                    continue
                if c >= 36 - e and 5 * c >= e - 36 and 2 * c <= e - 24:
                    sector_image.add((e + p.delta * c, c))
                    if not phi_admissible_image(p, *phi_map(p, e, c)):
                        failures.append(("admissible image", m, d, e, c))
        for x, y in sector_image:
            if not persson_image_sector(p, x, y):
                failures.append(("sector missing", m, d, x, y))
        # Reverse containment: the predicate's inequalities confine any
        # accepted (x, y) to the band 24 + 2y <= x - delta*y <= 36 + 5y,
        # so scanning that band up to base Euler number 2000 is complete.
        max_c = (2000 - 24) // 2
        for y in range(1, max_c + 1):
            for e in range(max(1, 24 + 2 * y), min(2000, 36 + 5 * y) + 1):
                x = e + p.delta * y
                if persson_image_sector(p, x, y) and (x, y) not in sector_image:
                    failures.append(("sector extra", m, d, x, y))
    with capsys.disabled():
        report(5, "geography transport", failures)


def test_criterion_6_cross_construction_oracles(capsys):
    failures = []
    # Iterated self-sums of knot products against the bundle constructor.
    for h in range(1, 7):
        piece = knot_product(h)
        fibre = piece.lattice.basis_vector("B_K")
        x = piece
        for g in range(2, 7):
            x = fibre_sum(
                x, piece, h,
                x.lattice.basis_vector("B_K"), "+", False,
                fibre, "+", False,
                no_rim_tori=False,
            )
            oracle = surface_bundle_y(g, h)
            inv_x = derived_invariants(x)
            inv_o = derived_invariants(oracle)
            if (x.e, x.sigma, inv_x.c1_squared) != (oracle.e, oracle.sigma, inv_o.c1_squared):
                failures.append(("bundle", g, h))
            if pairing(x.lattice, x.canonical, x.canonical) != inv_o.c1_squared:
                failures.append(("bundle K^2", g, h))

    # Double covers of the quadric against the closed resolution forms.
    quadric_pair = HeadPiece(("S_1", "S_2"), block_diagonal([((0, 1), (1, 0))]))
    quadric_lat = IntersectionLattice((quadric_pair,))
    quadric = ManifoldDescriptor(
        e=4, sigma=0, simply_connected=True, symplectic=True,
        minimal="no", lattice=quadric_lat,
        canonical=quadric_lat.vector({"S_1": -2, "S_2": -2}),
        witness_items=(), recipe=ConstructionRecipe("catalog", (("name", "quadric"),)),
    )
    for n in range(1, 13):
        for m in range(1, 13):
            via_cover = branched_cover(quadric, 8 * n * m, -4 * n - 4 * m, 2)
            direct = singular_double_cover(n, m)
            a = (via_cover.e, via_cover.sigma, derived_invariants(via_cover).c1_squared)
            b = (direct.e, direct.sigma, derived_invariants(direct).c1_squared)
            if a != b:
                failures.append(("quadric", n, m, a, b))

    # Splitting an elliptic surface off a rational piece.
    for n in range(2, 13):
        left = elliptic_surface(n - 1, 1, 1)
        right = elliptic_surface(1, 1, 1)
        x = fibre_sum(
            left, right, 1,
            left.lattice.basis_vector("f"), "+", True,
            right.lattice.basis_vector("f"), "+", True,
            no_rim_tori=True,
        )
        oracle = elliptic_surface(n, 1, 1)
        if (x.e, x.sigma) != (oracle.e, oracle.sigma):
            failures.append(("elliptic sum", n, "e sigma"))
        i = x.lattice.index_of("f")
        if dense(x.canonical)[i] != n - 2:
            failures.append(("elliptic sum", n, "canonical"))
        if sum(1 for c in dense(x.canonical) if c) != (1 if n != 2 else 0):
            failures.append(("elliptic sum", n, "support"))
        if divisibility(x).value != divisibility(oracle).value or x.spin != oracle.spin:
            failures.append(("elliptic sum", n, "certificate"))
    with capsys.disabled():
        report(6, "cross-construction oracles", failures)


def _descriptor_zoo():
    zoo = [
        elliptic_surface(1, 1, 1),
        elliptic_surface(2, 1, 1),
        elliptic_surface(1, 5, 2),
        elliptic_surface(3, 2, 1),
        knot_product(1),
        knot_product(3),
        surface_bundle_y(2, 2),
        surface_bundle_y(3, 2),
        catalog("barlow"),
        catalog("lee_park"),
        catalog("horikawa_spin", 3),
        catalog("horikawa_nonspin", 2),
        homotopy_elliptic(3, 3),
        homotopy_elliptic(4, 2),
        homotopy_elliptic(6, 4),
        homotopy_elliptic(8, 5),
        spin_surface(2, 1, 1),
        spin_surface(4, 2, 2),
        nonspin_surface(3, 2, 1),
        nonspin_surface(5, 3, 1),
        negative_c1(2, 3),
        singular_double_cover(3, 3),
        singular_double_cover(4, 4),
    ]
    from symgeo.coverings import pluricanonical_cover

    zoo.append(pluricanonical_cover(catalog("barlow"), 2, 3))
    zoo.append(pluricanonical_cover(catalog("lee_park"), 6, 6))
    res = inequivalent_family(15, [15, 3], "c1sq_zero", n=5)
    zoo.append(res.descriptor)
    return zoo


def test_criterion_7_property_suites(capsys):
    failures = []
    zoo = _descriptor_zoo()
    for m in zoo:
        label = m.recipe.operation
        inv = derived_invariants(m)
        # Adjunction identity on every genus-declared witness.
        for w in m.witnesses:
            if w.genus is None or w.self_intersection is None:
                continue
            if 2 * w.genus - 2 != dot(m.canonical, w) + w.self_intersection:
                failures.append((label, w.name, "adjunction"))
        # Chern and Noether identities.
        if inv.c1_squared != 2 * m.e + 3 * m.sigma:
            failures.append((label, "chern"))
        if (inv.c1_squared + m.e) % 12 != 0 or inv.chi_h != (inv.c1_squared + m.e) // 12:
            failures.append((label, "noether"))
        if pairing(m.lattice, m.canonical, m.canonical) != inv.c1_squared:
            failures.append((label, "canonical square"))
        if not validate(m).ok:
            failures.append((label, validate(m).failures()))
        # Spin is equivalent to even certified divisibility for K != 0.
        cert = divisibility(m)
        if cert.certified and cert.value != 0:
            if m.spin != (cert.value % 2 == 0):
                failures.append((label, "spin parity", cert.value, m.spin))

    rng = random.Random(200)
    for _ in range(200):
        m = random_descriptor(rng)
        text = serialize_recipe(m.recipe)
        again = execute_recipe(parse_recipe(text))
        if again != m or serialize_recipe(again.recipe) != text:
            failures.append(("recipe roundtrip", m.recipe.operation))
    with capsys.disabled():
        report(7, "property suites", failures)
