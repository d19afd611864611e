"""Correctness oracle for the benchmark, independent of the code under test.

Every expectation is computed here from closed forms, from a brute-force
subset enumeration, or from frozen reference rows; nothing is imported
from ``symgeo``.  ``check`` returns a list of problems (empty when the
command's exit code and output are right).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

# ``tables --which both``: the two branched-cover invariant tables, frozen.
TABLE_HEADER = "d,m,ma,Delta,e,c1_sq,chi_h,b2_plus,sigma"
TABLE_ROWS = {
    "barlow": (
        (3, 2, 4, 10, 42, 18, 5, 9, -22),
        (3, 3, 3, 8, 57, 27, 7, 13, -29),
        (4, 2, 6, 21, 64, 32, 8, 15, -32),
        (4, 4, 4, 15, 104, 64, 14, 27, -48),
        (5, 2, 8, 36, 94, 50, 12, 23, -46),
        (5, 3, 6, 28, 117, 75, 16, 31, -53),
        (5, 5, 5, 24, 175, 125, 25, 49, -75),
        (6, 2, 10, 55, 132, 72, 17, 33, -64),
        (6, 6, 6, 35, 276, 216, 41, 81, -112),
    ),
    "lee_park": (
        (3, 2, 4, 10, 60, 36, 8, 15, -28),
        (3, 3, 3, 8, 78, 54, 11, 21, -34),
        (4, 2, 6, 21, 104, 64, 14, 27, -48),
        (4, 4, 4, 15, 160, 128, 24, 47, -64),
        (5, 2, 8, 36, 164, 100, 22, 43, -76),
        (5, 3, 6, 28, 198, 150, 29, 57, -82),
        (5, 5, 5, 24, 290, 250, 45, 89, -110),
        (6, 2, 10, 55, 240, 144, 32, 63, -112),
        (6, 6, 6, 35, 480, 432, 76, 151, -176),
    ),
}
TABLES_BOTH = "".join(
    f"# {base}\n{TABLE_HEADER}\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
    for base, rows in TABLE_ROWS.items()
)

# Lines 3..13 of a descriptor block (e .. validation); the first two name
# the constructor and its parameters, which ``verify`` reports differently.
DESCRIPTOR_KEYS = (
    "e", "sigma", "c1_sq", "chi_h", "b2_plus", "spin", "simply_connected",
    "minimal", "divisibility", "certified", "validation",
)


def subset_gcds(d: int, divisors: tuple[int, ...]) -> frozenset[int]:
    """Gcds of all non-empty subsets, by enumerating every subset mask.

    When 4 divides d, entries not divisible by 4 are doubled first."""
    entries = [x if d % 4 != 0 or x % 4 == 0 else 2 * x for x in divisors]
    g = [0] * (1 << len(entries))
    for mask in range(1, len(g)):
        low = mask & -mask
        g[mask] = gcd(g[mask ^ low], entries[low.bit_length() - 1])
    return frozenset(g[1:])


@lru_cache(maxsize=None)
def q_line(d: int, divisors: tuple[int, ...]) -> str:
    """Subset gcds in the CLI's order: descending, space separated.

    Cached: a pass checks the same lists again, and the first check runs
    in the warm-up pass."""
    return " ".join(map(str, sorted(subset_gcds(d, divisors), reverse=True)))


def spin_surface(d: int, m: int, t: int) -> dict[str, int]:
    e, sigma = t * d * d + 24 * m, -16 * m
    return {"e": e, "sigma": sigma, "c1_sq": 2 * t * d * d, "divisibility": d, "certified": "true"}


def nonspin_surface(d: int, n: int, t: int) -> dict[str, int]:
    e, sigma = 4 * t * d * d + 12 * n, -8 * n
    return {"e": e, "sigma": sigma, "c1_sq": 8 * t * d * d, "divisibility": d, "certified": "true"}


def homotopy_elliptic(n: int, d: int) -> dict[str, int]:
    return {"chi_h": n, "c1_sq": 0, "divisibility": d, "certified": "true"}


def negative_c1(n: int, r: int) -> dict[str, int]:
    return {"chi_h": n, "c1_sq": -r, "divisibility": 1}


def singular_double_cover(n: int, m: int) -> dict[str, int]:
    return {
        "e": 6 + 2 * (2 * m - 1) * (2 * n - 1),
        "sigma": -4 * m * n,
        "divisibility": gcd(n - 2, m - 2),
    }


def pluricanonical_cover(base: str, d: int, m: int) -> dict[str, int]:
    for row in TABLE_ROWS[base]:
        if row[:2] == (d, m):
            e, c1_sq, chi_h, b2_plus, sigma = row[4:]
            return {"e": e, "c1_sq": c1_sq, "chi_h": chi_h, "b2_plus": b2_plus, "sigma": sigma}
    raise KeyError((base, d, m))


def _fields(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _descriptor_problems(lines: list[str], expect: dict[str, int]) -> list[str]:
    if [line.partition(":")[0] for line in lines[2:13]] != list(DESCRIPTOR_KEYS):
        return ["descriptor block malformed"]
    f = _fields(lines[:13])
    problems = []
    if f["validation"] != "VALID":
        problems.append(f"validation {f['validation']}")
    try:
        e, sigma, c1_sq = int(f["e"]), int(f["sigma"]), int(f["c1_sq"])
        chi_h, b2_plus = int(f["chi_h"]), int(f["b2_plus"])
    except ValueError:
        return problems + ["non-integer invariant"]
    if c1_sq != 2 * e + 3 * sigma or 4 * chi_h != e + sigma or 2 * b2_plus != e - 2 + sigma:
        problems.append("invariants inconsistent")
    for key, want in expect.items():
        if f[key] != str(want):
            problems.append(f"{key} {f[key]} != {want}")
    return problems


def check(spec: tuple, rc: int, out: str, err: str, constructed: dict[str, list[str]]) -> list[str]:
    """Problems with one command's result.

    ``spec`` is ``(kind, *data)`` as built by the workload generator.
    ``constructed`` maps recipe paths to the descriptor lines the writing
    ``construct`` printed; ``verify`` output is compared against it.
    """
    kind = spec[0]
    if kind == "inadmissible":
        if rc == 2 and not out and err.startswith("error:"):
            return []
        return [f"inadmissible point: exit {rc}, stdout {len(out)} chars"]
    if rc != 0:
        return [f"exit {rc}: {err.strip()[:200]}"]
    lines = out.splitlines()
    if kind == "descriptor":
        _, expect, recipe = spec
        problems = _descriptor_problems(lines, expect)
        if recipe is not None:
            constructed[recipe] = lines[2:13]
        return problems
    if kind == "verify":
        want = constructed.get(spec[1])
        if want is None:
            return ["verify of a recipe no construct wrote"]
        return [] if lines[2:13] == want and len(lines) == 13 else ["verify differs from construct"]
    if kind == "family":
        _, d, divisors, recipe = spec
        q, n_patterns = q_line(d, divisors), 1 << (len(divisors) - 1)
        problems = _descriptor_problems(lines, {})
        patterns = [line for line in lines[14:-1] if line.startswith("pattern ")]
        if lines[13:14] != [f"q_set: {q}"]:
            problems.append("q_set line differs from brute force")
        if len(patterns) != n_patterns or len(lines) != 15 + n_patterns:
            problems.append(f"{len(patterns)} pattern lines, want {n_patterns}")
        if lines[-1:] != [f"divisibilities: {q}"]:
            problems.append("realized divisibilities differ from brute-force subset gcds")
        constructed[recipe] = lines[2:13]
        return problems
    if kind == "qset":
        return [] if out == q_line(*spec[1:]) + "\n" else ["qset differs from brute force"]
    if kind == "tables":
        return [] if out == TABLES_BOTH else ["tables differ from frozen rows"]
    raise ValueError(f"unknown check kind {kind!r}")
