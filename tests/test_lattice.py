import random
from math import gcd

import pytest
from conftest import expand

from symgeo.errors import LatticeError
from symgeo.lattice import (
    ClassVector,
    IntersectionLattice,
    Witness,
    block_diagonal,
    coefficient_gcd,
    direct_sum,
    pairing,
    q_set,
)

H = IntersectionLattice(("a", "b"), block_diagonal([((0, 1), (1, 0))]))


def dense_pairing(gram, v, w):
    # Independent oracle: plain double sum, no sparsity tricks.
    total = 0
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            total += vi * gram[i][j] * wj
    return total


def test_hyperbolic_pairing():
    assert pairing(H, ClassVector((1, 0)), ClassVector((0, 1))) == 1


def test_even_two_form_square():
    lat = IntersectionLattice(("F_1", "F_2"), block_diagonal([((0, 2), (2, 0))]))
    for n, m in [(4, 4), (3, 5), (1, 2), (7, 3)]:
        v = ClassVector((n - 2, m - 2))
        assert pairing(lat, v, v) == 4 * (n - 2) * (m - 2)
    assert pairing(lat, ClassVector((2, 2)), ClassVector((2, 2))) == 16


def test_pairing_with_zero_vector():
    v = ClassVector((5, -7))
    assert pairing(H, v, ClassVector((0, 0))) == 0


def test_pairing_dimension_mismatch():
    with pytest.raises(LatticeError, match="basis mismatch"):
        pairing(H, ClassVector((1, 0, 0)), ClassVector((0, 1)))


def test_pairing_bilinear_symmetric_random():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 6)
        entries = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                entries[i][j] = entries[j][i] = rng.randint(-5, 5)
        lat = IntersectionLattice(
            tuple(f"x{i}" for i in range(r)), block_diagonal([entries])
        )
        v = ClassVector(tuple(rng.randint(-9, 9) for _ in range(r)))
        w = ClassVector(tuple(rng.randint(-9, 9) for _ in range(r)))
        u = ClassVector(tuple(rng.randint(-9, 9) for _ in range(r)))
        assert pairing(lat, v, w) == pairing(lat, w, v) == dense_pairing(lat.gram, v.coefficients, w.coefficients)
        assert pairing(lat, v + u, w) == pairing(lat, v, w) + pairing(lat, u, w)
        assert pairing(lat, v.scaled(3), w) == 3 * pairing(lat, v, w)


def test_pairing_row_matches_dense_random():
    rng = random.Random(5)
    for _ in range(40):
        r = rng.randint(1, 6)
        entries = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                entries[i][j] = entries[j][i] = rng.choice([0, 0, rng.randint(-5, 5)])
        lat = IntersectionLattice(tuple(f"x{i}" for i in range(r)), block_diagonal([entries]))
        assert lat.gram == tuple(map(tuple, entries))
        v = ClassVector(tuple(rng.randint(-9, 9) for _ in range(r)))
        units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        assert expand(lat.pairing_row(v), r) == tuple(
            dense_pairing(entries, v.coefficients, e) for e in units
        )
        for i, e in enumerate(units):
            assert lat.pairing_row(ClassVector(e)) == lat.rows[i]


def test_rows_must_be_sorted_nonzero_and_in_range():
    for rows in [
        (((1, 1), (0, 2)), ((0, 1),)),  # unsorted
        (((0, 0),), ()),  # stored zero
        (((2, 1),), ()),  # index out of range
        (((1, 1),), ((0, 1), (0, 1))),  # repeated index
    ]:
        with pytest.raises(LatticeError, match="increasing index"):
            IntersectionLattice(("a", "b"), rows)
    with pytest.raises(LatticeError, match="symmetric"):
        IntersectionLattice(("a", "b"), (((1, 1),), ()))
    with pytest.raises(LatticeError, match="square"):
        block_diagonal([((0, 1),)])


@pytest.mark.parametrize(
    "pairs",
    [
        ((1, 1), (0, 2)),  # unsorted
        ((0, 0),),  # stored zero
        ((-1, 1),),  # negative index
        ((1, 1), (1, 2)),  # repeated index
    ],
)
def test_witness_pairings_must_be_sorted_nonzero_and_non_negative(pairs):
    with pytest.raises(LatticeError, match="increasing index"):
        Witness("w", pairs)


def test_gram_must_be_symmetric_and_square():
    with pytest.raises(LatticeError, match="symmetric"):
        IntersectionLattice(("a", "b"), block_diagonal([((0, 1), (2, 0))]))
    with pytest.raises(LatticeError, match="square"):
        IntersectionLattice(("a", "b"), block_diagonal([((0,),)]))
    with pytest.raises(LatticeError, match="distinct"):
        IntersectionLattice(("a", "a"), block_diagonal([((0, 1), (1, 0))]))


def test_direct_sum_hyperbolic_pair():
    s = direct_sum(H, H, rename=("l.", "r."))
    assert s.rank == 4
    assert s.gram == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )


def test_direct_sum_split_class_blocks():
    # Block form of the genus-1 bundle over a genus-2 surface: 2h(g-1) = 2
    # split blocks plus the hyperbolic (section, fibre) pair, total rank 6
    # (b2 = 4h(g-1) + 2).
    split = IntersectionLattice(("v", "w"), block_diagonal([((2, 1), (1, 0))]))
    acc = direct_sum(split, split, rename=("1.", "2."))
    acc = direct_sum(acc, H, rename=("", ""))
    assert acc.rank == 6
    assert acc.gram[0][:2] == (2, 1)
    assert acc.gram[4][4:] == (0, 1)


def test_direct_sum_identity_with_rank_zero():
    empty = IntersectionLattice((), ())
    s = direct_sum(H, empty)
    assert s.basis_names == H.basis_names and s.gram == H.gram


def test_direct_sum_name_collision():
    with pytest.raises(LatticeError, match="collision"):
        direct_sum(H, H)


def test_coefficient_gcd_examples():
    assert coefficient_gcd(ClassVector((9, 6))) == 3
    assert coefficient_gcd(ClassVector((0, 0))) == 0
    # Odd/odd canonical class with m = k = 1: ((2m+1)(2k+1), 2(2k+1)).
    m = k = 1
    v = ClassVector(((2 * m + 1) * (2 * k + 1), 2 * (2 * k + 1)))
    assert v.coefficients == (9, 6)
    assert coefficient_gcd(v) == 3


def test_coefficient_gcd_scaling():
    rng = random.Random(11)
    for _ in range(50):
        v = ClassVector(tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 6))))
        k = rng.randint(0, 9)
        assert coefficient_gcd(v.scaled(k)) == k * coefficient_gcd(v)


def q_set_oracle(d, divisors):
    # Fold-based oracle: the reachable subset gcds grow one element at a time.
    if d % 4 == 0:
        entries = [x if x % 4 == 0 else 2 * x for x in divisors]
    else:
        entries = list(divisors)
    reached: set[int] = set()
    for x in entries:
        reached |= {gcd(x, r) for r in reached} | {x}
    return frozenset(reached)


def test_q_set_worked_examples():
    assert q_set(45, [45, 15, 9, 5]) == frozenset({45, 15, 9, 5, 3, 1})
    assert q_set(6, [6, 2]) == frozenset({6, 2})
    assert q_set(7, [7]) == frozenset({7})
    # Doubling rule: 4 | d doubles the entries not divisible by 4.
    assert q_set(4, [4, 2]) == frozenset({4})
    assert q_set(12, [12, 6, 4]) == frozenset({12, 4})


def test_q_set_matches_oracle_random():
    rng = random.Random(3)
    for _ in range(120):
        d = rng.randint(1, 360)
        divs = [x for x in range(1, d + 1) if d % x == 0]
        if d % 2 == 0:
            divs = [x for x in divs if x % 2 == 0]
        tail = rng.sample(divs, k=min(len(divs), rng.randint(0, 9)))
        divisors = [d] + tail
        assert q_set(d, divisors) == q_set_oracle(d, divisors)


def test_q_set_rejects_bad_input():
    with pytest.raises(LatticeError, match="invalid divisor list"):
        q_set(6, [6, 4])  # 4 does not divide 6
    with pytest.raises(LatticeError, match="invalid divisor list"):
        q_set(6, [6, 3])  # odd divisor of an even d
    with pytest.raises(LatticeError, match="invalid divisor list"):
        q_set(6, [3, 6])  # first entry must be d
    with pytest.raises(LatticeError, match="invalid divisor list"):
        q_set(2, [2] + [2] * 25)  # guarded subset explosion
