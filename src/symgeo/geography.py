"""Geography validators, divisibility certificates and the existence
constructors.

A divisibility certificate bounds the maximal divisibility of the
canonical class from both sides: the coefficient gcd over a primitive
basis divides it, and the gcd of its pairings with tracked witness
surfaces is divisible by it.  When the two meet the divisibility is
certified exactly.  For simply-connected non-spin manifolds the witness
bound is intersected with the parity constraint (an even canonical class
would make the manifold spin), which is how several odd-divisibility
constructions are certified without an explicit odd-pairing surface.
One decision, ``_certificate``, turns the two raw bounds into a
certificate.  ``certify_class`` computes the bounds of one class;
``inequivalent_family`` doubles per-bit gcds over the N positions where
its 2^N sign patterns differ from one base class, in O(1) per pattern.

Each existence constructor alone decides which parameters it builds.  They
register in ``EXISTENCE`` with ``manifolds.operation``.  ``realizable``
checks ``_OBSTRUCTIONS``, then tries the ``FAMILIES`` rows, which name an
``EXISTENCE`` key and are also the CLI's ``scan`` regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .coverings import singular_double_cover
from .errors import ConstructionError, InadmissibleError, LatticeError
from .lattice import (
    ClassVector,
    WitnessRun,
    coefficient_gcd,
    dot,
    odd_part,
    q_set,
    sparse_sum,
    split_witnesses,
    witness_dots,
    witness_failures,
)
from .manifolds import (
    ManifoldDescriptor,
    Operation,
    elliptic_surface,
    operation,
    triple_names,
    with_recipe_notes,
)
from .surgery import (
    blow_up,
    generalized_knot_surgery,
    knot_surgery,
    lagrangian_triple_surgery,
)


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Two-sided bound on the divisibility of a canonical class."""

    lower: int
    upper: int
    certified: bool
    parity_note: str

    @property
    def value(self) -> int:
        return self.lower


def certify_class(m: ManifoldDescriptor, k: ClassVector) -> DivisibilityCertificate:
    """Certificate for an arbitrary canonical class vector over m's lattice."""
    if k.rank != m.lattice.rank:
        raise LatticeError("basis mismatch")
    return _certificate(m, coefficient_gcd(k), witness_dots(m.witness_items, k)[1])


def _certificate(m: ManifoldDescriptor, lower: int, upper: int) -> DivisibilityCertificate:
    """Decide the certificate of a class over m's lattice from its two raw
    bounds: ``lower`` its coefficient gcd (zero exactly for the zero
    class) and ``upper`` the gcd of its pairings with m's witnesses."""
    if lower == 0:
        return DivisibilityCertificate(0, 0, True, "canonical class is zero")
    if not m.witness_items:
        return DivisibilityCertificate(lower, 0, False, "no witnesses")
    parity_note = "no parity constraint"
    consistent = True
    if m.simply_connected and m.symplectic:
        if m.spin:
            parity_note = "spin: divisibility must be even"
            if lower % 2 != 0:
                parity_note = "inconsistent: spin with odd coefficient gcd"
                consistent = False
        elif m.spin is False:
            stripped = odd_part(upper)
            if stripped != upper:
                parity_note = "non-spin: even part of witness bound discarded"
                upper = stripped
            else:
                parity_note = "non-spin: divisibility must be odd"
    certified = m.lattice.primitive_summand and upper != 0 and lower == upper and consistent
    return DivisibilityCertificate(lower, upper, certified, parity_note)


def divisibility(m: ManifoldDescriptor) -> DivisibilityCertificate:
    return certify_class(m, m.canonical)


@dataclass(frozen=True)
class ValidationReport:
    """Ordered list of (constraint name, passed, detail), and the
    divisibility certificate the checks were decided with."""

    entries: tuple[tuple[str, bool, str], ...]
    certificate: DivisibilityCertificate

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.entries)

    def failures(self) -> list[str]:
        return [name for name, passed, _ in self.entries if not passed]


def validate(m: ManifoldDescriptor) -> ValidationReport:
    """Run every applicable numerical constraint; report, never raise."""
    entries: list[tuple[str, bool, str]] = []
    c1 = m.c1_squared
    # K pairs once with each witness: the certificate and adjunction share it.
    k_dots, upper = witness_dots(m.witness_items, m.canonical)
    cert = _certificate(m, coefficient_gcd(m.canonical), upper)
    d = cert.lower if m.lattice.primitive_summand else 0

    def add(name: str, passed: bool, detail: str) -> None:
        entries.append((name, passed, detail))

    def skip(name: str) -> None:
        entries.append((name, True, "not applicable"))

    add("chi_h_integral", (m.e + m.sigma) % 4 == 0, f"e+sigma = {m.e + m.sigma}")
    add("c1sq_sigma_mod8", (c1 - m.sigma) % 8 == 0, f"c1^2 - sigma = {c1 - m.sigma}")

    if m.symplectic and m.simply_connected and (m.e + m.sigma) % 4 == 0:
        add("b2_plus_odd", m.b2_plus % 2 == 1, f"b2+ = {m.b2_plus}")
    else:
        skip("b2_plus_odd")

    if m.spin:
        add("rochlin", m.sigma % 16 == 0, f"sigma = {m.sigma}")
    else:
        skip("rochlin")

    if m.simply_connected and d >= 1:
        need = d * d if d % 2 == 1 else 2 * d * d
        add("divisibility_square", c1 % need == 0, f"{need} | {c1}")
    else:
        skip("divisibility_square")

    if m.simply_connected and m.symplectic and m.sigma % 8 == 0 and d >= 1:
        u = odd_part(d)
        add("signature_eight", c1 % (8 * u * u) == 0, f"{8 * u * u} | {c1}")
    else:
        skip("signature_eight")

    def violations(fails) -> list[str]:
        return witness_failures(m.lattice, m.witness_items, k_dots, fails)

    bad = violations(lambda genus, square, k_w: 2 * genus - 2 != k_w + square)
    add("adjunction_witnesses", not bad, "violations: " + ",".join(bad) if bad else "ok")

    if d >= 1:
        bad = violations(lambda genus, square, _: square == 0 and (2 * genus - 2) % d != 0)
        add("square_zero_genus", not bad, "violations: " + ",".join(bad) if bad else "ok")
    else:
        skip("square_zero_genus")

    k_sq = m.canonical_square()
    add("canonical_square", k_sq == c1, f"K^2 = {k_sq}, 2e+3sigma = {c1}")

    if cert.certified and cert.value >= 2:
        add("minimality", m.minimal != "no", f"divisibility {cert.value}")
    else:
        skip("minimality")

    if m.simply_connected and m.symplectic and cert.certified and (m.e + m.sigma) % 4 == 0:
        reason = _obstruction((m.e + m.sigma) // 4, c1, cert.value)
        add("obstructions", reason is None, reason or "none")
    else:
        skip("obstructions")

    return ValidationReport(tuple(entries), cert)


# --- constructors -----------------------------------------------------------

# The existence constructors, name -> Operation.  They are not recipe
# operations: a recipe replays the operations their results are built from.
EXISTENCE: dict[str, Operation] = {}


def surgered_homotopy_elliptic(n: int, d: int) -> ManifoldDescriptor:
    """Homotopy elliptic surface with divisibility d built by knot surgery
    on the fibre and on a rim torus, following the parity of (n, d).

    This variant keeps the rim-torus geometry explicit, which the
    positive-c1^2 constructors build on; the public ``homotopy_elliptic``
    prefers genuine elliptic surfaces for chi_h <= 2.
    """
    if n < 1 or d < 1:
        raise InadmissibleError("chi_h and divisibility must be positive")
    if n % 2 == 1 and d % 2 == 0:
        raise InadmissibleError("spin parity obstruction")
    if n == 1:
        k = (d - 1) // 2
        base = elliptic_surface(1, 1, 1)
        return knot_surgery(base, base.lattice.basis_vector("f"), k + 1, "+", True)
    if n % 2 == 0 and d % 2 == 0:
        m, k = n // 2, d // 2
        g1, g2 = m * (k - 1) + 1, k
        base = elliptic_surface(n, 1, 1)
    elif n % 2 == 1:
        m, k = (n - 1) // 2, (d - 1) // 2
        g1, g2 = 2 * k * m + k + 1, 2 * k + 1
        base = elliptic_surface(n, 1, 1)
    else:
        m, k = n // 2, (d - 1) // 2
        g1, g2 = 4 * k * m + k + 2, 2 * k + 1
        base = elliptic_surface(n, 2, 1)
    step1 = knot_surgery(base, base.lattice.basis_vector("f"), g1, "+", True)
    rim = step1.lattice.basis_vector(triple_names(1)[2])
    return knot_surgery(step1, rim, g2, "+", True)


@operation(table=EXISTENCE)
def homotopy_elliptic(n: int, d: int) -> ManifoldDescriptor:
    """Simply-connected symplectic manifold with chi_h = n, c1^2 = 0 and
    certified canonical divisibility exactly d; rejects odd n with even d.
    """
    if n < 1 or d < 1:
        raise InadmissibleError("chi_h and divisibility must be positive")
    if n % 2 == 1 and d % 2 == 0:
        raise InadmissibleError("spin parity obstruction")
    if n == 1:
        out = elliptic_surface(1, d + 2, 2)
        return with_recipe_notes(out, "alternative:knot surgery on the fibre of E(1)")
    if n == 2:
        out = elliptic_surface(2, d + 1, 1)
        return with_recipe_notes(out, "alternative:knot surgery on fibre and rim torus of E(2)")
    return surgered_homotopy_elliptic(n, d)


def _rim_neighbourhood_surface(m: ManifoldDescriptor) -> ClassVector:
    """Class of a square-zero surface with simply-connected complement:
    rim torus + its dual sphere of the first triple, after the rim torus
    has been knot surgered."""
    _, _, r, dr = triple_names(1)
    return m.lattice.basis_vector(r) + m.lattice.basis_vector(dr)


@operation(table=EXISTENCE)
def spin_surface(d: int, m: int, t: int) -> ManifoldDescriptor:
    """Spin manifold with c1^2 = 2 t d^2, e = t d^2 + 24 m, sigma = -16 m
    and certified divisibility d (d even)."""
    if d < 2 or d % 2 != 0:
        raise InadmissibleError("spin construction requires even divisibility")
    if m < 1 or t < 1:
        raise InadmissibleError("parameters must be positive")
    k = d // 2
    base = surgered_homotopy_elliptic(2 * m, d)
    return generalized_knot_surgery(base, _rim_neighbourhood_surface(base), k + 1, t * k, True)


@operation(table=EXISTENCE)
def nonspin_surface(d: int, n: int, t: int) -> ManifoldDescriptor:
    """Non-spin manifold with c1^2 = 8 t d^2, e = 4 t d^2 + 12 n,
    sigma = -8 n and certified divisibility d (d odd, n >= 2)."""
    if d < 1 or d % 2 != 1:
        raise InadmissibleError("non-spin construction requires odd divisibility")
    if n < 2 or t < 1:
        raise InadmissibleError("requires n >= 2 and t >= 1")
    base = surgered_homotopy_elliptic(n, d)
    return generalized_knot_surgery(base, _rim_neighbourhood_surface(base), d + 1, t * d, True)


@operation(table=EXISTENCE)
def negative_c1(n: int, r: int) -> ManifoldDescriptor:
    """(chi_h, c1^2) = (n, -r) by blowing up E(n) r times in one
    ``blow_up`` node; divisibility 1."""
    if n < 1 or r < 1:
        raise InadmissibleError("parameters must be positive")
    return blow_up(elliptic_surface(n, 1, 1), r)


# --- inequivalent symplectic structures -------------------------------------


# Most sign patterns one inequivalent_family may enumerate; each gets a
# certificate and a printed line.  Read at call time.
MAX_SIGN_PATTERNS = 1 << 12


@dataclass(frozen=True)
class FamilyResult:
    """One manifold, one canonical class per sign pattern, and the set of
    certified divisibilities (which equals the subset-gcd set Q).

    The class of sign pattern ``mask`` is the descriptor's canonical class
    with ``shift`` added at ``position`` for every set bit of ``mask``,
    where bit ``i`` is ``shifts[i] = (position, shift)``.  Only these
    shifts are stored; ``canonical_classes`` builds the 2^N sparse classes
    when read.
    """

    descriptor: ManifoldDescriptor
    shifts: tuple[tuple[int, int], ...]
    certificates: tuple[DivisibilityCertificate, ...]
    divisibilities: tuple[int, ...]
    q: frozenset[int]

    @property
    def canonical_classes(self) -> tuple[ClassVector, ...]:
        k = self.descriptor.canonical
        return tuple(
            ClassVector(k.rank, sparse_sum(
                [(1, k.entries)]
                + [(1, (step,)) for bit, step in enumerate(self.shifts) if mask >> bit & 1]
            ))
            for mask in range(1 << len(self.shifts))
        )


def _pattern_certificates(
    w: ManifoldDescriptor, shifts: list[tuple[int, int]]
) -> list[DivisibilityCertificate]:
    """The certificate of every sign pattern's class, in mask order, as
    deltas of the base class ``w.canonical`` (see ``FamilyResult``).

    The coefficients outside the shifted positions, and the pairings of
    the witnesses that miss them, are the same for every pattern, so their
    gcds are taken once.  Each bit gives a (clear, set) pair of gcds: its
    moved coefficient, and the pairings of the witnesses that meet only
    its position.  Doubling over the bits, the clear half first, spreads
    them to all 2^N patterns in O(2^N) work; a witness meeting several
    positions gets its 2^N pairings the same way.  Patterns with equal
    bounds share one certificate.
    """
    base = dict(w.canonical.entries)
    moved = {pos: (bit, shift) for bit, (pos, shift) in enumerate(shifts)}
    lower_fixed = gcd(*(c for i, c in base.items() if i not in moved))
    fixed, several, upper_pairs = [], [], [(0, 0)] * len(shifts)
    at_shifts = ClassVector(w.lattice.rank, tuple((pos, 1) for pos in sorted(moved)))
    for wit, _ in split_witnesses(w.lattice, w.witness_items, at_shifts):
        # A run piece holds the copies that miss every shifted position.
        pairs = () if isinstance(wit, WitnessRun) else wit.pairings
        steps = {moved[i][0]: moved[i][1] * p for i, p in pairs if i in moved}
        if len(steps) == 1:
            [(bit, step)] = steps.items()
            value = dot(w.canonical, wit)
            clear, set_ = upper_pairs[bit]
            upper_pairs[bit] = gcd(clear, value), gcd(set_, value + step)
        elif steps:
            several.append((dot(w.canonical, wit), steps))
        else:
            fixed.append(wit)
    upper_fixed = witness_dots(tuple(fixed), w.canonical)[1]
    lowers = _doubled(gcd, lower_fixed, [(base.get(i, 0), base.get(i, 0) + s) for i, s in shifts])
    uppers = _doubled(gcd, upper_fixed, upper_pairs)
    for value, steps in several:
        values = _doubled(int.__add__, value, [(0, steps.get(b, 0)) for b in range(len(shifts))])
        uppers = list(map(gcd, uppers, values))
    shared = {pair: _certificate(w, *pair) for pair in set(zip(lowers, uppers))}
    return [shared[pair] for pair in zip(lowers, uppers)]


def _doubled(op, first: int, pairs: list[tuple[int, int]]) -> list[int]:
    """At index ``mask``, ``first`` folded by ``op`` with ``pairs[b][0]``
    for each clear bit b of ``mask`` and ``pairs[b][1]`` for each set one."""
    out = [first]
    for clear, set_ in pairs:
        out = [op(x, clear) for x in out] + [op(x, set_) for x in out]
    return out


def _triple_parameters(d: int, tail: list[int]) -> tuple[int, int, list[tuple[int, int]]]:
    """(em, h, [(a_i, h_i)]) for the per-triple surgeries realizing the
    divisor list; exactness of every halving is guaranteed by the parity
    preconditions on the list."""
    if d % 2 == 1:
        em, h = 1, (d - 1) // 2
        params = [(d + di, (d - di) // 2) for di in tail]
        return em, h, params
    k = d // 2
    em, h = 2, k - 1
    params = []
    for di in tail:
        ki = di // 2
        if d % 4 != 0 or di % 4 == 0:
            a_i, h_i = (k + ki) // 2, (k - ki) // 2
        else:
            a_i, h_i = (k + 2 * ki) // 2, (k - 2 * ki) // 2
        params.append((a_i, h_i))
    return em, h, params


def inequivalent_family(
    d: int,
    divisors: list[int] | tuple[int, ...],
    regime: str = "c1sq_zero",
    *,
    n: int | None = None,
    m: int | None = None,
    t: int | None = None,
) -> FamilyResult:
    """Build one manifold carrying a symplectic structure for every subset
    gcd of the divisor list.

    Each divisor beyond the first is realized on its own rim-torus triple
    by a fibre sum with an elliptic piece and two knot surgeries; flipping
    the sign of the first knot surgery toggles the triple between
    contributing d and contributing (twice) the divisor.  The 2^N sign
    patterns give 2^N canonical classes whose certified divisibilities,
    as a set, are exactly q_set(d, divisors).  They are certified from the
    base class and the N per-bit shifts, without building their classes.
    More than ``MAX_SIGN_PATTERNS`` patterns raise before anything is built.

    Structures of different divisibility are inequivalent (arXiv:0901.2734):
    a deformation keeps c1, and an orientation-preserving diffeomorphism
    pulls c1 back, so both keep its divisibility.
    """
    divisors = list(divisors)
    q = q_set(d, divisors)
    tail = divisors[1:]
    big_n = len(tail)
    if big_n < 1:
        raise ConstructionError("need at least one divisor besides d")
    if 1 << big_n > MAX_SIGN_PATTERNS:
        raise ConstructionError(
            f"{1 << big_n} sign patterns exceed the budget of {MAX_SIGN_PATTERNS}"
        )
    em, h, params = _triple_parameters(d, tail)

    if regime == "c1sq_zero":
        if n is None:
            raise ConstructionError("c1sq_zero regime needs the target chi_h")
        if d % 2 == 1:
            if n < 2 * big_n + 1:
                raise ConstructionError("need chi_h >= 2N+1 for odd divisibility")
            length = n - big_n
        else:
            if n % 2 != 0 or n < 3 * big_n + 1:
                raise ConstructionError("need even chi_h >= 3N+1 for even divisibility")
            length = n - 2 * big_n
        w, first = elliptic_surface(length, 1, 1), 1
    elif regime == "spin_positive":
        if m is None or t is None:
            raise ConstructionError("spin_positive regime needs m and t")
        if d % 2 != 0:
            raise ConstructionError("spin_positive regime requires even divisibility")
        if 2 * m < 3 * big_n + 2:
            raise ConstructionError("need 2m >= 3N+2")
        length = 2 * m - 2 * big_n
        w, first = spin_surface(d, length // 2, t), 2
    elif regime == "nonspin_positive":
        if m is None or t is None:
            raise ConstructionError("nonspin_positive regime needs m and t")
        if d % 2 != 1 or d < 3:
            raise ConstructionError("nonspin_positive regime requires odd divisibility >= 3")
        if m < 2 * big_n + 2:
            raise ConstructionError("need m >= 2N+2")
        length = m - big_n
        w, first = nonspin_surface(d, length, t), 2
    else:
        raise ConstructionError(f"unknown regime {regime!r}")

    # spin_surface and nonspin_surface have surgered triple 1 already.
    triples = range(first, first + big_n)
    for idx, (a_i, h_i) in zip(triples, params):
        w = lagrangian_triple_surgery(w, idx, a_i, em, h_i, h, "+")
    if regime == "c1sq_zero":
        g_final = (length * (d - 1) + 2) // 2
        w = knot_surgery(w, w.lattice.basis_vector("f"), g_final, "+", True)

    shifts = [
        (w.lattice.index_of(triple_names(idx)[0]), -4 * h_i)
        for idx, (_, h_i) in zip(triples, params)
    ]
    certificates = tuple(_pattern_certificates(w, shifts))
    divisibilities = tuple(c.value for c in certificates)
    return FamilyResult(w, tuple(shifts), certificates, divisibilities, q)


# --- realizability meta-query ------------------------------------------------


@dataclass(frozen=True)
class Realizability:
    status: str  # "yes" | "no" | "unknown"
    detail: str
    descriptor: ManifoldDescriptor | None = None


# (holds(chi_h, c1^2, d), message) for every simply-connected symplectic
# manifold; sigma = c1^2 - 8 chi_h, and an even canonical class is spin.
_OBSTRUCTIONS = (
    (lambda chi, c1, d: chi >= 1, "chi_h must be positive for b1 = 0"),
    (lambda chi, c1, d: d >= 1 or (chi, c1, d) == (2, 0, 0),
     "divisibility is a non-negative integer, 0 only for K = 0"),
    (lambda chi, c1, d: c1 >= 0 or d == 1,
     "negative c1^2 forces a blown-up, indivisible canonical class"),
    (lambda chi, c1, d: c1 % (d * d * (2 - d % 2)) == 0 if d else c1 == 0,
     "divisibility d needs d^2 | c1^2, and 2d^2 | c1^2 for even d"),
    (lambda chi, c1, d: d % 2 == 1 or (c1 - 8 * chi) % 16 == 0,
     "even divisibility needs Rochlin's 16 | c1^2 - 8 chi_h"),
)


def _obstruction(chi_h: int, c1_sq: int, d: int) -> str | None:
    """Message of the first obstruction the point fails, or None."""
    return next((msg for holds, msg in _OBSTRUCTIONS if not holds(chi_h, c1_sq, d)), None)


# scan regime -> (EXISTENCE name, solve).  At a point that passes the
# obstructions, solve(chi_h, c1^2, d) is None or parameters that the
# constructor rejects or builds at that point; sigma is -16 m or -8 n.
FAMILIES = {
    "homotopy_elliptic": ("homotopy_elliptic", lambda chi, c1, d: (chi, d) if c1 == 0 else None),
    "spin": ("spin_surface", lambda chi, c1, d: (d, (8 * chi - c1) // 16, c1 // (2 * d * d))),
    "nonspin": ("nonspin_surface", lambda chi, c1, d: (
        None if c1 % (8 * d * d) else (d, (8 * chi - c1) // 8, c1 // (8 * d * d)))),
    "negative_c1": ("negative_c1", lambda chi, c1, d: (chi, -c1) if d == 1 else None),
}


def realizable(chi_h: int, c1_sq: int, d: int) -> Realizability:
    """Search the constructors and obstruction lemmas for a simply-connected
    symplectic manifold at (chi_h, c1^2) with canonical divisibility d.

    Not a completeness claim: points outside the constructive families and
    unhit by an obstruction return "unknown".
    """
    reason = _obstruction(chi_h, c1_sq, d)
    if reason is not None:
        return Realizability("no", reason)
    if (chi_h, c1_sq, d) == (2, 0, 0):
        return Realizability("yes", "K3 surface, K = 0", singular_double_cover(2, 2))
    for name, solve in FAMILIES.values():
        params = solve(chi_h, c1_sq, d)
        try:
            if params is not None:
                m = EXISTENCE[name].constructor(*params)
                return Realizability("yes", f"{name}{params}", m)
        except InadmissibleError:
            pass
    return Realizability("unknown", "no constructor covers this point")
