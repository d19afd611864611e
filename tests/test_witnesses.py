"""Witness runs against a flat reference that stores one Witness per surface."""

import random
import tracemalloc
from dataclasses import replace
from math import gcd

import pytest
from conftest import random_descriptor, witness
from hypothesis import given, settings
from hypothesis import strategies as st

from symgeo import lattice
from symgeo.errors import ConstructionError
from symgeo.geography import (
    certify_class,
    homotopy_elliptic,
    inequivalent_family,
    negative_c1,
    nonspin_surface,
    spin_surface,
    validate,
)
from symgeo.lattice import (
    ClassVector,
    Witness,
    WitnessRun,
    append_witness_run,
    dot,
    split_witnesses,
    witness_dots,
)
from symgeo.manifolds import elliptic_surface
from symgeo.recipes import REGISTRY
from symgeo.surgery import blow_up, fibre_sum


def _flat_spheres(lat, first):
    """The sphere witnesses of E(n), one Witness per dual sphere from basis
    index ``first`` on, each named after the torus before it."""
    return tuple(
        Witness(f"sphere_{lat.name(i - 1)}", lat.row(i), 0, -2) for i in range(first, lat.rank, 2)
    )


def flat_replay(recipe):
    """The descriptor of ``recipe`` with every witness stored on its own:
    each node is built by its operation, and the nodes that add repeated
    spheres (elliptic_surface, log_transform and blow_up) are given them
    one Witness per copy, built copy by copy from the lattice."""
    children = [flat_replay(child) for child in recipe.inputs]
    out = REGISTRY[recipe.operation].constructor(*children, **dict(recipe.params))
    if recipe.operation in ("elliptic_surface", "log_transform"):
        flat = out.witness_items[:1] + _flat_spheres(out.lattice, 2)
    elif recipe.operation == "blow_up":
        m = children[0]
        flat = m.witnesses + tuple(
            Witness(f"exceptional_{out.lattice.name(i)}", ((i, -1),), 0, -1)
            for i in range(m.lattice.rank, out.lattice.rank)
        )
    else:
        flat = out.witnesses
    assert not any(isinstance(w, WitnessRun) for w in flat)
    return replace(out, witness_items=flat, recipe=recipe)


def laid_out_dots(items, v):
    """``witness_dots`` spread over the laid-out witnesses, 0 where a run
    lists no pair; its gcd is checked on the way."""
    values = []
    dots, bound = witness_dots(items, v)
    for w, pairs in zip(items, dots):
        if not isinstance(w, WitnessRun):
            values.append(pairs)
            continue
        row = [0] * (w.count * len(w.spheres))
        for k, value in pairs:
            row[k] = value
        values += row
    assert bound == gcd(*values)
    return values


def descriptors():
    """Random construction trees and small points of the four families
    whose lattices carry repeated blocks."""
    trees = st.integers(0, 10**6).map(lambda seed: random_descriptor(random.Random(seed)))
    elliptic = st.tuples(st.integers(1, 9), st.integers(1, 7)).filter(
        lambda p: p[0] % 2 == 0 or p[1] % 2 == 1
    ).map(lambda p: homotopy_elliptic(*p))
    spin = st.tuples(st.sampled_from([2, 4]), st.integers(1, 3), st.integers(1, 2)).map(
        lambda p: spin_surface(*p))
    nonspin = st.tuples(st.sampled_from([1, 3]), st.integers(2, 6), st.integers(1, 2)).map(
        lambda p: nonspin_surface(*p))
    blown = st.tuples(st.integers(1, 5), st.integers(1, 12)).map(lambda p: negative_c1(*p))
    return st.one_of(trees, elliptic, spin, nonspin, blown)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(m=descriptors(), data=st.data())
def test_runs_match_a_flat_reference(m, data):
    flat = flat_replay(m.recipe)
    assert m.witnesses == flat.witnesses
    assert len(m.witnesses) == len(flat.witness_items)
    # A class with a few entries anywhere, so that runs are split and
    # paired at copies other than the first.
    positions = data.draw(st.lists(st.integers(0, m.lattice.rank - 1), max_size=4, unique=True))
    shift = ClassVector(m.lattice.rank, sorted(
        (i, data.draw(st.sampled_from([-3, -1, 1, 2]))) for i in positions
    ))
    for k in (m.canonical, m.canonical + shift, shift):
        assert laid_out_dots(m.witness_items, k) == [dot(k, w) for w in m.witnesses]
        assert certify_class(m, k) == certify_class(flat, k)
        pieces = split_witnesses(m.lattice, m.witness_items, k)
        spread = []
        for w, value in pieces:
            if isinstance(w, WitnessRun):
                assert value == 0
                spread += lattice.lay_out_witnesses(m.lattice, (w,))
            else:
                assert value == dot(k, w)
                spread.append(w)
        assert tuple(spread) == m.witnesses
    assert validate(m) == validate(flat)


def test_a_named_witness_outside_the_run_is_missing():
    m = blow_up(elliptic_surface(3, 1, 1))
    assert witness(m, "sphere_R_2") == m.witnesses[-2]
    assert witness(m, "exceptional_E_1") == m.witnesses[-1]
    names = ("sphere_D1_1", "sphere_R_3", "sphere_f", "sphere_E_1", "exceptional_R_1", "sphere_")
    for name in names:
        with pytest.raises(KeyError):
            witness(m, name)


def test_a_run_past_the_rank_is_rejected():
    m = negative_c1(1, 2)
    *head, run = m.witness_items
    assert run.stop == m.lattice.rank
    with pytest.raises(ConstructionError, match="witness run 'exceptional_' pairing length"):
        replace(m, witness_items=(*head, run._replace(count=3)))


def test_only_a_continued_run_joins_the_last_one():
    run = WitnessRun(1, 2, (((0, -1),),), ((0, 0),), "exceptional_")
    assert append_witness_run((run,), run._replace(start=3)) == (run._replace(count=4),)
    assert append_witness_run((run,), run._replace(start=4)) == (run, run._replace(start=4))
    assert append_witness_run((run,), run._replace(start=3, count=0)) == (run,)


def test_untouched_spheres_that_fail_adjunction_are_listed():
    # With E_2 taken out of K, the sphere E_2 pairs 0 with K and fails
    # adjunction; validation names it as the flat reference does.
    m = negative_c1(2, 3)
    i = m.lattice.index_of("E_2")
    k = ClassVector(m.lattice.rank, [(j, c) for j, c in m.canonical.entries if j != i])
    moved = replace(m, canonical=k)
    report = validate(moved)
    assert ("adjunction_witnesses", False, "violations: exceptional_E_2") in report.entries
    assert report == validate(replace(flat_replay(m.recipe), canonical=k))


def test_blow_ups_validate_in_linear_work(monkeypatch):
    # The entries every sparse_dot walks while certifying and validating
    # r blow-ups grow linearly in r: four times the blow-ups, about four
    # times the work (sixteen times when each exceptional sphere is
    # paired with the whole canonical class).  A fibre sum carries the
    # exceptional spheres on as one run, so the same holds after it.
    walked = []
    inner = lattice.sparse_dot

    def counted(a, b):
        walked.append(len(a) + len(b))
        return inner(a, b)

    def summed(r):
        m, e1 = negative_c1(2, r), elliptic_surface(1, 1, 1)
        f, f1 = m.lattice.basis_vector("f"), e1.lattice.basis_vector("f")
        return fibre_sum(m, e1, 1, f, "+", True, f1, "+", True, no_rim_tori=True)

    def work(build, r):
        m = build(r)
        walked.clear()
        monkeypatch.setattr(lattice, "sparse_dot", counted)
        try:
            assert validate(m).ok
            assert certify_class(m, m.canonical).certified
        finally:
            monkeypatch.setattr(lattice, "sparse_dot", inner)
        return sum(walked)

    for build in (lambda r: negative_c1(1, r), summed):
        assert work(build, 4000) <= 5 * work(build, 1000)


def test_families_keep_their_witness_runs():
    # The triple surgeries carry E(n)'s dual spheres on as runs, so a
    # family stores as many witness items at any n or t.
    def items(regime, **size):
        d, divisors = (3, [3, 1]) if regime == "c1sq_zero" else (8, [8, 2, 4])
        m = inequivalent_family(d, divisors, regime, **size).descriptor
        assert len(m.witness_items) < len(m.witnesses)
        return len(m.witness_items)

    assert items("c1sq_zero", n=500) == items("c1sq_zero", n=4000)
    assert items("spin_positive", m=6, t=1) == items("spin_positive", m=6, t=16)


def test_build_and_validate_lay_out_no_sphere():
    # E(n)'s dual spheres are stored as one run: building and validating
    # a homotopy elliptic surface never lay out a witness or a block, and
    # 16 times the spheres cost no memory.
    def peak(n):
        tracemalloc.start()
        try:
            m = homotopy_elliptic(n, 3)
            report = validate(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert "witnesses" not in vars(m) and len(m.witness_items) == 4
        return peak

    assert peak(32_000) <= 1.5 * peak(2_000)
