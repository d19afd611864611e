"""Command-line front end.

Subcommands: ``construct`` (run a constructor, print the certified
descriptor, optionally write its recipe), ``verify`` (re-execute a recipe
file and validate), ``scan`` (enumerate realized lattice points as CSV),
``tables`` (the branched-cover invariant tables), ``qset`` (subset gcd
sets) and ``phi`` (the geography transport).  Exit codes: 0 success,
1 validation failure, 2 usage or parameter error.  All output is exact
integer arithmetic.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from pathlib import Path

from . import coverings, geography, manifolds
from .errors import InadmissibleError, SymgeoError
from .lattice import q_set
from .manifolds import ManifoldDescriptor, derived_invariants
from .recipes import execute_recipe, parse_recipe, serialize_recipe

CSV_HEADER = "constructor,params,chi_h,c1_sq,e,sigma,spin,divisibility,certified"

# Most points one scan may enumerate; its CSV rows are held in memory.
MAX_SCAN_POINTS = 100_000

TABLE_ROWS = ((3, 2), (3, 3), (4, 2), (4, 4), (5, 2), (5, 3), (5, 5), (6, 2), (6, 6))
TABLE_HEADER = "d,m,ma,Delta,e,c1_sq,chi_h,b2_plus,sigma"


def _bool_str(x: bool | None) -> str:
    return "unknown" if x is None else "true" if x else "false"


def _print_descriptor(name: str, params: str, m: ManifoldDescriptor) -> bool:
    """Print the descriptor of ``m``; return whether it validates."""
    inv = derived_invariants(m)
    report = geography.validate(m)
    cert = report.certificate
    lines = [
        f"constructor: {name}",
        f"params: {params}",
        f"e: {m.e}",
        f"sigma: {m.sigma}",
        f"c1_sq: {inv.c1_squared}",
        f"chi_h: {inv.chi_h if inv.chi_h is not None else 'undefined'}",
        f"b2_plus: {inv.b2_plus if inv.b2_plus is not None else 'undefined'}",
        f"spin: {_bool_str(m.spin)}",
        f"simply_connected: {_bool_str(m.simply_connected)}",
        f"minimal: {m.minimal}",
        f"divisibility: {cert.value}",
        f"certified: {_bool_str(cert.certified)}",
    ]
    if report.ok:
        lines.append("validation: VALID")
    else:
        lines.append("validation: INVALID " + ",".join(report.failures()))
    print("\n".join(lines))
    return report.ok


def _csv_row(name: str, params: str, m: ManifoldDescriptor) -> str:
    inv = derived_invariants(m)
    cert = geography.divisibility(m)
    return ",".join(
        [
            name,
            params,
            str(inv.chi_h),
            str(inv.c1_squared),
            str(m.e),
            str(m.sigma),
            _bool_str(m.spin),
            str(cert.value),
            _bool_str(cert.certified),
        ]
    )


def _parse_range(text: str) -> range:
    if ":" in text:
        lo, _, hi = text.partition(":")
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_recipe(path: str | None, m: ManifoldDescriptor) -> None:
    """Write m's recipe to ``path`` if one is given.  Called before anything
    is printed, so a recipe that cannot be written exits 2 with nothing on
    standard output."""
    if path:
        Path(path).write_text(serialize_recipe(m.recipe), encoding="utf-8")


# --- subcommands -------------------------------------------------------------

# CLI name -> Operation of each constructor that takes integers only: the
# recipe operations without inputs and the existence constructors.
_CONSTRUCTORS = {
    **{name: op for name, op in manifolds.OPERATIONS.items() if not op.arity},
    **geography.EXISTENCE,
}


def _catalog(words: list[str]) -> ManifoldDescriptor:
    return manifolds.catalog(words[0], *[int(x) for x in words[1:]])


def _cmd_construct(args) -> int:
    name = args.constructor
    p = args.params
    if name == "inequivalent_family":
        return _construct_family(p, args)
    if name == "catalog":
        if not p:
            print("catalog needs an entry name", file=sys.stderr)
            return 2
        m = _catalog(p)
        params = " ".join(p)
    elif name == "pluricanonical_cover":
        if len(p) < 3:
            print("usage: construct pluricanonical_cover <base> [base params...] <d> <m>",
                  file=sys.stderr)
            return 2
        *base, d, degree = p
        m = coverings.pluricanonical_cover(_catalog(base), int(degree), int(d))
        params = f"base={' '.join(base)} d={d} m={degree}"
    elif name in _CONSTRUCTORS:
        op = _CONSTRUCTORS[name]
        if len(p) != len(op.names):
            print(f"{name} needs {len(op.names)} integer parameters", file=sys.stderr)
            return 2
        m = op.constructor(*[int(x) for x in p])
        params = " ".join(p)
    else:
        print(f"unknown constructor {name!r}", file=sys.stderr)
        return 2
    _write_recipe(args.recipe, m)
    return 0 if _print_descriptor(name, params, m) else 1


def _construct_family(p: list[str], args) -> int:
    if len(p) < 4 or (p[2] == "c1sq_zero" and len(p) != 4):
        print(
            "usage: construct inequivalent_family <d> <d0,..,dN> <regime> <n|m> [t]",
            file=sys.stderr,
        )
        return 2
    d = int(p[0])
    divisors = [int(x) for x in p[1].split(",")]
    regime = p[2]
    if regime == "c1sq_zero":
        result = geography.inequivalent_family(d, divisors, regime, n=int(p[3]))
    else:
        if len(p) != 5:
            print("positive-c1^2 regimes need m and t", file=sys.stderr)
            return 2
        result = geography.inequivalent_family(
            d, divisors, regime, m=int(p[3]), t=int(p[4])
        )
    w = result.descriptor
    _write_recipe(args.recipe, w)
    _print_descriptor("inequivalent_family", " ".join(p), w)
    print("q_set: " + " ".join(str(q) for q in sorted(result.q, reverse=True)))
    certs = result.certificates
    # Sign i of pattern m is "-" when bit i of m is set: its first half is
    # low[m & mask], the rest high[m >> half], so the 2^N patterns are
    # never held at once.
    half = len(result.shifts) // 2
    low, high = (["".join(p[::-1]) for p in itertools.product("+-", repeat=bits)]
                 for bits in (half, len(result.shifts) - half))
    mask = (1 << half) - 1
    tails = {c: f"divisibility {c.value} certified {_bool_str(c.certified)}" for c in set(certs)}
    sys.stdout.writelines(
        f"pattern {low[m & mask]}{high[m >> half]}: {tails[c]}\n" for m, c in enumerate(certs))
    realized = set(result.divisibilities)
    print(f"divisibilities: {' '.join(str(v) for v in sorted(realized, reverse=True))}")
    return 0 if realized == set(result.q) else 1


def _cmd_verify(args) -> int:
    text = Path(args.recipe_file).read_text(encoding="utf-8")
    recipe = parse_recipe(text)
    m = execute_recipe(recipe)
    return 0 if _print_descriptor(recipe.operation, "from recipe", m) else 1


def _cmd_scan(args) -> int:
    """CSV rows of the range points, in signature order, that the
    regime's constructor builds."""
    name = geography.FAMILIES[args.regime][0]
    op = _CONSTRUCTORS[name]
    ranges = [_parse_range(getattr(args, p)) for p in op.names]
    if math.prod(max(0, r.stop - r.start) for r in ranges) > MAX_SCAN_POINTS:
        print(f"scan ranges span more than {MAX_SCAN_POINTS} points", file=sys.stderr)
        return 2
    rows = [CSV_HEADER]
    recipes_dir = Path(args.recipes) if args.recipes else None
    if recipes_dir:
        recipes_dir.mkdir(parents=True, exist_ok=True)
    for values in itertools.product(*ranges):
        try:
            m = op.constructor(*values)
        except InadmissibleError:
            continue
        params = ";".join(f"{p}={v}" for p, v in zip(op.names, values))
        rows.append(_csv_row(name, params, m))
        if recipes_dir:
            stem = f"{name}_{params.replace('=', '').replace(';', '_')}.txt"
            (recipes_dir / stem).write_text(serialize_recipe(m.recipe), encoding="utf-8")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _table_lines(which: str) -> list[str]:
    base = manifolds.catalog(which)
    lines = [f"# {which}", TABLE_HEADER]
    for d, m in TABLE_ROWS:
        p = coverings.CoverParams(m, d)
        cover = coverings.pluricanonical_cover(base, m, d)
        inv = derived_invariants(cover)
        lines.append(
            ",".join(
                str(v)
                for v in (d, m, p.n, p.delta, cover.e, inv.c1_squared, inv.chi_h,
                          inv.b2_plus, cover.sigma)
            )
        )
    return lines


# tables --which value -> catalog bases, in output order.
_TABLES = {"barlow": ("barlow",), "leepark": ("lee_park",), "both": ("barlow", "lee_park")}


def _cmd_tables(args) -> int:
    lines = [line for base in _TABLES[args.which] for line in _table_lines(base)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_qset(args) -> int:
    divisors = [int(x) for x in args.divisors.split(",")]
    q = q_set(args.d, divisors)
    print(" ".join(str(v) for v in sorted(q, reverse=True)))
    return 0


def _cmd_phi(args) -> int:
    p = coverings.CoverParams(args.m, args.d)
    if args.inverse:
        e, c = coverings.phi_inverse(p, args.e, args.c)
        if e.denominator != 1 or c.denominator != 1:
            print("point is not in the image of the transport", file=sys.stderr)
            return 2
        print(f"{int(e)} {int(c)}")
        return 0
    e_bar, c_bar = coverings.phi_map(p, args.e, args.c)
    print(f"{e_bar} {c_bar}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgeo",
        description="Exact-arithmetic constructor for simply-connected symplectic "
        "4-manifolds with certified canonical-class divisibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run a constructor and print the descriptor")
    c.add_argument("constructor")
    c.add_argument("params", nargs="*")
    c.add_argument("--recipe", help="write the construction recipe to this path")
    c.set_defaults(fn=_cmd_construct)

    v = sub.add_parser("verify", help="re-execute a recipe file and validate")
    v.add_argument("recipe_file")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("scan", help="enumerate realized lattice points as CSV")
    s.add_argument("--regime", required=True,
                   choices=list(geography.FAMILIES))
    # A range such as -1:3 is a value, not an option, as argparse takes -1.
    s._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$")
    ranges = {"--n": "1:4", "--d": "1:4", "--m": "1:2", "--t": "1:2", "--r": "1:2"}
    for option, default in ranges.items():
        s.add_argument(option, default=default, help=f"value or lo:hi (default {default})")
    s.add_argument("--out")
    s.add_argument("--recipes", help="also write one recipe file per row into this directory")
    s.set_defaults(fn=_cmd_scan)

    t = sub.add_parser("tables", help="print the branched-cover invariant tables")
    t.add_argument("--which", required=True, choices=list(_TABLES))
    t.add_argument("--out")
    t.set_defaults(fn=_cmd_tables)

    q = sub.add_parser("qset", help="subset gcd set of a divisor list")
    q.add_argument("d", type=int)
    q.add_argument("divisors")
    q.set_defaults(fn=_cmd_qset)

    ph = sub.add_parser("phi", help="apply the geography transport (e, c1^2)")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--d", type=int, required=True)
    ph.add_argument("--inverse", action="store_true")
    ph.add_argument("e", type=int)
    ph.add_argument("c", type=int)
    ph.set_defaults(fn=_cmd_phi)

    return parser


# Built once, at import: parse_args leaves the parser unchanged, and usage
# errors and --help look up the output streams and terminal width when they
# print, so every command of a process can share it.
_PARSER = build_parser()


def run_command(argv: list[str]) -> int:
    """Run one CLI command in-process and return its exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (SymgeoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
