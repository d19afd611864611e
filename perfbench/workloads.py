"""Seeded command lists for the three workloads.

Each generator returns the fixed list of CLI argv vectors one pass runs,
each paired with the oracle spec that checks its result.  The seed picks
parameters inside fixed strata (which ranks, which regimes, how many
patterns), so every seed gives the same cost profile with different
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracle


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    spec: tuple


def _construct(name: str, params, expect: dict, recipe: str | None = None) -> Command:
    argv = ("construct", name, *map(str, params))
    if recipe is not None:
        argv += ("--recipe", recipe)
    return Command(argv, ("descriptor", expect, recipe))


def _verify(recipe: str) -> Command:
    return Command(("verify", recipe), ("verify", recipe))


# (d, t) of each spin_surface point: ranks about 4 t (d/2)^2, from 0.9k to
# 3.2k.  With seven strata the pooled 50th latency percentile falls in the
# fourth and the 90th in the seventh; each of those costs at least 1.4
# times its cheaper neighbour, so noise does not move a percentile across
# strata.  A pass stays short enough for the 15 passes a run needs.
SPIN_LADDER = ((12, 6), (16, 4), (12, 8), (16, 8), (20, 6), (24, 4), (20, 8))


def spin_rank(rng: random.Random, workdir: Path) -> list[Command]:
    """construct spin_surface d m t --recipe F, then verify F, per stratum."""
    pairs = []
    for i, (d, t) in enumerate(SPIN_LADDER):
        m = rng.randint(1, 6)
        recipe = str(workdir / f"spin{i}.txt")
        pairs.append(
            [_construct("spin_surface", (d, m, t), oracle.spin_surface(d, m, t), recipe),
             _verify(recipe)]
        )
    rng.shuffle(pairs)
    return [c for pair in pairs for c in pair]


def _inadmissible(rng: random.Random) -> Command:
    kind = rng.randrange(5)
    if kind == 0:  # spin parity obstruction: odd chi_h, even divisibility
        argv = ("homotopy_elliptic", 2 * rng.randint(1, 30) - 1, 2 * rng.randint(1, 5))
    elif kind == 1:  # spin family needs even divisibility
        argv = ("spin_surface", 2 * rng.randint(1, 5) - 1, rng.randint(1, 4), rng.randint(1, 3))
    elif kind == 2:  # non-spin family needs odd divisibility
        argv = ("nonspin_surface", 2 * rng.randint(1, 5), rng.randint(2, 20), rng.randint(1, 2))
    elif kind == 3:  # non-spin family needs n >= 2
        argv = ("nonspin_surface", 2 * rng.randint(1, 3) - 1, 1, rng.randint(1, 2))
    else:  # blow-up count must be positive
        argv = ("negative_c1", rng.randint(1, 40), 0)
    return Command(("construct", *map(str, argv)), ("inadmissible",))


def small_sweep(rng: random.Random, workdir: Path) -> list[Command]:
    """About 250 single-point constructs, mostly homotopy elliptic surfaces."""
    cmds = []
    for n in range(1, 61):
        choices = list(range(1, 11, 2 if n % 2 else 1))
        for d in rng.sample(choices, 3):
            cmds.append(_construct("homotopy_elliptic", (n, d), oracle.homotopy_elliptic(n, d)))
    for i in range(20):
        n, r = 3 * (i // 2) + rng.randint(1, 3), rng.randint(1, 4)
        cmds.append(_construct("negative_c1", (n, r), oracle.negative_c1(n, r)))
    for i in range(20):
        d, t = ((1, 1), (1, 2), (3, 1), (3, 2), (5, 1), (5, 2))[i % 6]
        n = rng.randint(2, 20)
        cmds.append(_construct("nonspin_surface", (d, n, t), oracle.nonspin_surface(d, n, t)))
    rows = [(base, row[0], row[1]) for base, table in oracle.TABLE_ROWS.items() for row in table]
    for base, d, m in rng.sample(rows, 6):
        cmds.append(_construct("pluricanonical_cover", (base, d, m),
                               oracle.pluricanonical_cover(base, d, m)))
    for _ in range(6):
        n, m = rng.randint(3, 12), rng.randint(3, 12)
        cmds.append(_construct("singular_double_cover", (n, m), oracle.singular_double_cover(n, m)))
    cmds += [Command(("tables", "--which", "both"), ("tables",))] * 2
    cmds += [_inadmissible(rng) for _ in range(13)]
    rng.shuffle(cmds)
    return cmds


# Divisibilities the c1^2 = 0 slots draw d from.  Their cost is set by N
# and chi_h, not by d or the divisor list.
ODD_D = (45, 63, 75, 105, 135, 225, 315)
EVEN_D = (36, 60, 84, 90, 180)

# (regime, divisibility choices, tail, chi_h or (m, t)).  A tail is the
# number N of divisors beyond d, drawn by the seed, or a fixed multiset of
# N divisors that the seed shuffles.  The positive regimes use the fixed
# form: there the divisor list changes the cost by up to a quarter.  Six
# slots make 19 commands a pass.  The pooled 50th latency percentile falls
# in the middle of the 10th cheapest command, among neighbours of about
# the same cost.  The 90th falls at the cheap end of the 18th (the
# spin_positive construct), which costs over twice as much as the 17th.
FAMILY_SLOTS = (
    ("c1sq_zero", ODD_D, 10, (40,)),
    ("spin_positive", (8,), (2, 2, 2, 4, 4, 4, 8, 8, 8), (15, 1)),
    ("c1sq_zero", EVEN_D, 8, (30,)),
    ("nonspin_positive", (5,), (1, 1, 1, 1, 5, 5, 5), (16, 1)),
    ("c1sq_zero", ODD_D, 6, (20,)),
    ("nonspin_positive", (3,), (1, 1, 1, 3, 3, 3), (14, 1)),
)
BIG_QSET_D, BIG_QSET_N = 315, 16


def _divisor_list(rng: random.Random, d: int, tail) -> tuple[int, ...]:
    if isinstance(tail, tuple):
        return (d, *rng.sample(tail, len(tail)))
    pool = [x for x in range(1, d + 1) if d % x == 0 and (d % 2 or x % 2 == 0)]
    return (d, *(rng.choice(pool) for _ in range(tail)))


def _qset(d: int, divisors: tuple[int, ...]) -> Command:
    return Command(("qset", str(d), ",".join(map(str, divisors))), ("qset", d, divisors))


def family_patterns(rng: random.Random, workdir: Path) -> list[Command]:
    """construct inequivalent_family + verify + qset per slot, one big qset."""
    groups = []
    for i, (regime, ds, tail, extra) in enumerate(FAMILY_SLOTS):
        d = rng.choice(ds)
        divisors = _divisor_list(rng, d, tail)
        recipe = str(workdir / f"family{i}.txt")
        argv = ("construct", "inequivalent_family", str(d), ",".join(map(str, divisors)),
                regime, *map(str, extra), "--recipe", recipe)
        groups.append([Command(argv, ("family", d, divisors, recipe)),
                       _verify(recipe), _qset(d, divisors)])
    groups.append([_qset(BIG_QSET_D, _divisor_list(rng, BIG_QSET_D, BIG_QSET_N))])
    rng.shuffle(groups)
    return [c for group in groups for c in group]


WORKLOADS = {
    "spin_rank": spin_rank,
    "small_sweep": small_sweep,
    "family_patterns": family_patterns,
}
