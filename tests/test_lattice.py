import random
from math import gcd

import pytest
from conftest import class_vector, dense, expand, gram, lattice_names, lattice_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgeo import lattice
from symgeo.errors import LatticeError
from symgeo.lattice import (
    BlockRun,
    ClassVector,
    HeadPiece,
    IntersectionLattice,
    Witness,
    append_blocks,
    block_diagonal,
    coefficient_gcd,
    dot,
    pairing,
    q_set,
)
from symgeo.manifolds import SPLIT_BLOCK, elliptic_surface, surface_bundle_y

H = IntersectionLattice((HeadPiece(("a", "b"), block_diagonal([((0, 1), (1, 0))])),))


def dense_pairing(gram, v, w):
    # Independent oracle: plain double sum, no sparsity tricks.
    total = 0
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            total += vi * gram[i][j] * wj
    return total


def test_hyperbolic_pairing():
    assert pairing(H, class_vector((1, 0)), class_vector((0, 1))) == 1


def test_even_two_form_square():
    lat = IntersectionLattice((HeadPiece(("F_1", "F_2"), block_diagonal([((0, 2), (2, 0))])),))
    for n, m in [(4, 4), (3, 5), (1, 2), (7, 3)]:
        v = class_vector((n - 2, m - 2))
        assert pairing(lat, v, v) == 4 * (n - 2) * (m - 2)
    assert pairing(lat, class_vector((2, 2)), class_vector((2, 2))) == 16


def test_pairing_with_zero_vector():
    v = class_vector((5, -7))
    assert pairing(H, v, class_vector((0, 0))) == 0


def test_pairing_dimension_mismatch():
    with pytest.raises(LatticeError, match="basis mismatch"):
        pairing(H, class_vector((1, 0, 0)), class_vector((0, 1)))


def test_pairing_checks_both_ranks_whichever_is_sparser():
    for v, w in [((1, 1, 1), (0, 1)), ((0, 1), (1, 1, 1)), ((1, 1), (0, 0, 1))]:
        with pytest.raises(LatticeError, match="basis mismatch"):
            pairing(H, class_vector(v), class_vector(w))


def test_pairing_bilinear_symmetric_random():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 6)
        entries = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                entries[i][j] = entries[j][i] = rng.randint(-5, 5)
        lat = IntersectionLattice(
            (HeadPiece(tuple(f"x{i}" for i in range(r)), block_diagonal([entries])),)
        )
        v = class_vector(tuple(rng.randint(-9, 9) for _ in range(r)))
        w = class_vector(tuple(rng.randint(-9, 9) for _ in range(r)))
        u = class_vector(tuple(rng.randint(-9, 9) for _ in range(r)))
        assert pairing(lat, v, w) == pairing(lat, w, v) == dense_pairing(gram(lat), dense(v), dense(w))
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
        names = tuple(f"x{i}" for i in range(r))
        lat = IntersectionLattice((HeadPiece(names, block_diagonal([entries])),))
        assert gram(lat) == tuple(map(tuple, entries))
        v = class_vector(tuple(rng.randint(-9, 9) for _ in range(r)))
        units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        assert expand(lat.pairing_row(v), r) == tuple(
            dense_pairing(entries, dense(v), e) for e in units
        )
        for i, e in enumerate(units):
            assert lat.pairing_row(class_vector(e)) == lat.row(i)


def test_class_arithmetic_and_dot_match_dense_random():
    rng = random.Random(13)
    for _ in range(200):
        r = rng.randint(0, 8)

        def sparse_random():
            return class_vector(tuple(rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(r)))

        v, w = sparse_random(), sparse_random()
        k = rng.randint(-3, 3)
        assert dense(v + w) == tuple(a + b for a, b in zip(dense(v), dense(w)))
        assert dense(v - w) == tuple(a - b for a, b in zip(dense(v), dense(w)))
        assert dense(v.scaled(k)) == tuple(k * a for a in dense(v))
        assert dense(-v) == tuple(-a for a in dense(v))
        witness = Witness("w", w.entries)
        assert dot(v, witness) == sum(a * b for a, b in zip(dense(v), dense(w)))
    with pytest.raises(LatticeError, match="basis mismatch"):
        class_vector((1, 0)) + class_vector((1,))


def test_class_entries_must_be_sorted_nonzero_and_in_range():
    for rank, entries in [(2, ((1, 1), (0, 2))), (2, ((0, 0),)), (2, ((2, 1),)), (2, ((-1, 1),))]:
        with pytest.raises(LatticeError, match="increasing index"):
            ClassVector(rank, entries)


def test_rows_must_be_sorted_nonzero_and_in_range():
    for rows in [
        (((1, 1), (0, 2)), ((0, 1),)),  # unsorted
        (((0, 0),), ()),  # stored zero
        (((2, 1),), ()),  # index out of range
        (((1, 1),), ((0, 1), (0, 1))),  # repeated index
    ]:
        with pytest.raises(LatticeError, match="increasing index"):
            IntersectionLattice((HeadPiece(("a", "b"), rows),))
    with pytest.raises(LatticeError, match="symmetric"):
        IntersectionLattice((HeadPiece(("a", "b"), (((1, 1),), ())),))
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
        IntersectionLattice((HeadPiece(("a", "b"), block_diagonal([((0, 1), (2, 0))])),))
    with pytest.raises(LatticeError, match="square"):
        IntersectionLattice((HeadPiece(("a", "b"), block_diagonal([((0,),)])),))
    with pytest.raises(LatticeError, match="distinct"):
        IntersectionLattice((HeadPiece(("a", "a"), block_diagonal([((0, 1), (1, 0))])),))


def test_append_blocks_skips_an_index_with_any_prefix_name_taken():
    lat = IntersectionLattice((HeadPiece(("W_1",), ((),)),))
    grown = append_blocks(lat, SPLIT_BLOCK, ("V", "W"), 2)
    assert lattice_names(grown) == ("W_1", "V_2", "W_2", "V_3", "W_3")
    assert lattice_rows(grown) == ((), ((1, 2), (2, 1)), ((1, 1),), ((3, 2), (4, 1)), ((3, 1),))


PREFIXES = ("V", "W", "E", "T1", "A_B")
HEAD_NAMES = tuple(f"{p}_{j}" for p in PREFIXES for j in range(1, 5)) + ("f", "V_01", "W_0", "E_1_")


def flat_append(names, rows, block, prefixes, count):
    """Reference layout of ``append_blocks``: each copy named in turn at
    the first label above the last where all its names are free, the rows
    from ``block_diagonal``."""
    taken, names, j = set(names), list(names), 0
    for _ in range(count):
        j += 1
        while not taken.isdisjoint(f"{p}_{j}" for p in prefixes):
            j += 1
        names += [f"{p}_{j}" for p in prefixes]
    return tuple(names), rows + block_diagonal([block] * count, len(rows))


@st.composite
def block_specs(draw):
    """A symmetric block of size 1 to 3 and one distinct prefix per row."""
    size = draw(st.integers(1, 3))
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            entries[i][j] = entries[j][i] = draw(st.integers(-2, 2))
    prefixes = draw(st.permutations(PREFIXES))[:size]
    return tuple(map(tuple, entries)), tuple(prefixes)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    head=st.lists(st.sampled_from(HEAD_NAMES), unique=True, max_size=8),
    specs=st.lists(block_specs(), min_size=1, max_size=2),
    chain=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 5)), min_size=1, max_size=5),
)
# test_append_blocks_skips_an_index_with_any_prefix_name_taken
@example(head=["W_1"], specs=[(SPLIT_BLOCK, ("V", "W"))], chain=[(0, 2)])
# TestBlowUp.test_count_takes_the_first_free_names, once and chained
@example(head=["f", "T1_1", "E_2", "R_1", "DR_1"], specs=[(((-1,),), ("E",))], chain=[(0, 2)])
@example(head=["f", "E_2"], specs=[(((-1,),), ("E",))], chain=[(0, 1), (0, 1)])
def test_runs_match_a_flat_layout(head, specs, chain):
    names, rows = tuple(head), ((),) * len(head)
    lat = IntersectionLattice((HeadPiece(names, rows),))
    merged, last = [], None
    for pick, count in chain:
        block, prefixes = specs[pick % len(specs)]
        lat = append_blocks(lat, block, prefixes, count)
        names, rows = flat_append(names, rows, block, prefixes, count)
        if merged and last == (block, prefixes):
            merged[-1] = (block, prefixes, merged[-1][2] + count)
        else:
            merged.append((block, prefixes, count))
        last = (block, prefixes)
    # Appends of one block and prefix tuple in a row equal one append.
    once = IntersectionLattice((HeadPiece(tuple(head), ((),) * len(head)),))
    for block, prefixes, count in merged:
        once = append_blocks(once, block, prefixes, count)
    assert once == lat and len(lat.pieces) == bool(head) + len(merged)

    # Every accessor agrees with the flat reference.
    assert lat.rank == len(names)
    assert lattice_rows(lat) == rows
    assert lattice_names(lat) == names
    assert all(lat.index_of(name) == i for i, name in enumerate(names))
    past = {p: 1 + max([int(n.rpartition("_")[2]) for n in names
                        if n.rpartition("_")[0] == p and n.rpartition("_")[2].isdigit()] + [0])
            for p in PREFIXES}
    near = {f"{p}_{s}" for p in PREFIXES for s in ("0", "01", "+1", "-1", "1_", past[p])}
    for name in near - set(names):
        with pytest.raises(LatticeError, match="no class named"):
            lat.index_of(name)
    assert gram(lat) == gram(IntersectionLattice((HeadPiece(names, rows),)))


def test_a_run_is_checked_once_with_the_messages_of_a_flat_lattice():
    for block, prefixes, message in [
        (((0, 1),), ("V",), "square"),
        (((0, 1), (2, 0)), ("V", "W"), "symmetric"),
        (SPLIT_BLOCK, ("V", "V"), "distinct"),
        (SPLIT_BLOCK, ("V",), "one row per basis class"),
    ]:
        with pytest.raises(LatticeError, match=message):
            append_blocks(H, block, prefixes, 10**5)
    with pytest.raises(LatticeError, match="positive copy count"):
        IntersectionLattice((HeadPiece(("a",), ((),)),
                             BlockRun(block_diagonal([SPLIT_BLOCK]), ("V", "W"), 0, ())))



def test_a_name_in_two_pieces_is_refused():
    # A name a head piece lists, or a label a run's spans cover, may be in
    # no other piece, whichever of the two comes first.
    def split_run(*spans):
        count = sum(hi - lo + 1 for lo, hi in spans)
        return BlockRun(block_diagonal([SPLIT_BLOCK]), ("V", "W"), count, spans)

    between = BlockRun(block_diagonal([((-1,),)]), ("E",), 1, ((1, 1),))
    for pieces in [
        (HeadPiece(("V_1",), ((),)), split_run((1, 1))),
        (split_run((1, 2)), HeadPiece(("W_2",), ((),))),
        (split_run((1, 2)), between, split_run((2, 3))),
        (split_run((1, 2), (2, 3)),),
    ]:
        with pytest.raises(LatticeError, match="basis names must be pairwise distinct"):
            IntersectionLattice(pieces)
    apart = IntersectionLattice((split_run((1, 2)), between, split_run((3, 4))))
    assert lattice_names(apart) == ("V_1", "W_1", "V_2", "W_2", "E_1", "V_3", "W_3", "V_4", "W_4")


def test_a_run_checks_its_rows_with_the_messages_of_a_head_piece():
    for rows, names, message in [
        (((), ()), ("V",), "one row per basis class"),
        ((((1, 1),), ((0, 2),)), ("V", "W"), "symmetric"),
        ((((1, 1), (0, 1)), ((0, 1),)), ("V", "W"), "increasing index"),
        ((((0, 0),), ()), ("V", "W"), "increasing index"),
        ((((2, 1),), ()), ("V", "W"), "increasing index"),
        (((), ()), ("V", "V"), "distinct"),
    ]:
        messages = []
        for make in (HeadPiece, lambda names, rows: BlockRun(rows, names, 2, ((1, 2),))):
            with pytest.raises(LatticeError, match=message) as raised:
                make(names, rows)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

def test_append_blocks_count_zero_returns_an_equal_lattice():
    assert append_blocks(H, SPLIT_BLOCK, ("V", "W"), 0) == H
    assert elliptic_surface(1, 1, 1).lattice == IntersectionLattice((HeadPiece(("f",), ((),)),))
    pair = HeadPiece(("Sigma_S", "Sigma_F"), H.pieces[0].rows)
    assert surface_bundle_y(1, 3).lattice == IntersectionLattice((pair,))


def test_append_blocks_checks_the_budget_first(monkeypatch):
    monkeypatch.setattr(lattice, "MAX_RANK", 6)
    assert append_blocks(H, SPLIT_BLOCK, ("V", "W"), 2).rank == 6
    with pytest.raises(LatticeError, match="budget"):
        append_blocks(H, SPLIT_BLOCK, ("V", "W"), 3)
    # A count far beyond the budget fails before any name or row is built.
    with pytest.raises(LatticeError, match="budget"):
        append_blocks(H, SPLIT_BLOCK, ("V", "W"), 10**18)


def test_elliptic_surface_layout_is_pinned():
    lat = elliptic_surface(3, 1, 1).lattice
    assert lattice_names(lat) == (
        "f", "T1_1", "D1_1", "R_1", "DR_1", "T1_2", "D1_2", "R_2", "DR_2"
    )
    assert lattice_rows(lat) == (
        (), ((2, 1),), ((1, 1), (2, -2)), ((4, 1),), ((3, 1), (4, -2)),
        ((6, 1),), ((5, 1), (6, -2)), ((8, 1),), ((7, 1), (8, -2)),
    )


def test_surface_bundle_layout_is_pinned():
    lat = surface_bundle_y(2, 1).lattice
    assert lattice_names(lat) == ("Sigma_S", "Sigma_F", "V_1", "W_1", "V_2", "W_2")
    assert lattice_rows(lat) == (
        ((1, 1),), ((0, 1),), ((2, 2), (3, 1)), ((2, 1),), ((4, 2), (5, 1)), ((4, 1),)
    )


def test_coefficient_gcd_examples():
    assert coefficient_gcd(class_vector((9, 6))) == 3
    assert coefficient_gcd(class_vector((0, 0))) == 0
    # Odd/odd canonical class with m = k = 1: ((2m+1)(2k+1), 2(2k+1)).
    m = k = 1
    v = class_vector(((2 * m + 1) * (2 * k + 1), 2 * (2 * k + 1)))
    assert dense(v) == (9, 6)
    assert coefficient_gcd(v) == 3


def test_coefficient_gcd_scaling():
    rng = random.Random(11)
    for _ in range(50):
        v = class_vector(tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 6))))
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
