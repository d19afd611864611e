import random

from symgeo.errors import LatticeError, SymgeoError
from symgeo.lattice import ClassVector, pairing
from symgeo.manifolds import elliptic_surface
from symgeo.surgery import (
    blow_up,
    fibre_sum,
    generalized_knot_surgery,
    knot_surgery,
    lagrangian_triple_surgery,
    log_transform,
)


def expand(pairs, rank):
    """Dense tuple of length ``rank`` from sparse ``(index, value)`` pairs."""
    out = [0] * rank
    for i, p in pairs:
        out[i] = p
    return tuple(out)


def dense(v):
    """The dense coefficient tuple of a class vector."""
    return expand(v.entries, v.rank)


def class_vector(coefficients):
    """A class vector from its dense coefficients."""
    return ClassVector(len(coefficients), tuple((i, c) for i, c in enumerate(coefficients) if c))


def lattice_names(lat):
    """The names of the basis classes, read one by one through ``lat.name``."""
    return tuple(lat.name(i) for i in range(lat.rank))


def lattice_rows(lat):
    """The sparse rows of the basis classes, read through ``lat.row``."""
    return tuple(lat.row(i) for i in range(lat.rank))


def gram(lat):
    """The dense Gram matrix of a lattice; O(rank^2), for small lattices."""
    return tuple(expand(row, lat.rank) for row in lattice_rows(lat))


def dense_dot(v, w):
    """Dense reference for ``lattice.dot``: the class vector and the
    witness's pairings both expanded to the rank, then summed."""
    return sum(a * p for a, p in zip(dense(v), expand(w.pairings, v.rank)))


def witness(m, name):
    """The first laid-out witness of ``m`` named ``name``; KeyError when
    none is."""
    for w in m.witnesses:
        if w.name == name:
            return w
    raise KeyError(name)


def has_class(m, name):
    """Whether the lattice of ``m`` has a basis class named ``name``."""
    try:
        m.lattice.index_of(name)
    except LatticeError:
        return False
    return True


def random_descriptor(rng: random.Random):
    """Small random construction tree over the registered operations.  A
    draw the tree cannot take is skipped: a fibre sum after a log
    transform (the fibre dual has unknown square), a triple surgery on a
    triple already summed away, a surgery that fails adjunction."""
    n = rng.randint(1, 4)
    base = elliptic_surface(n, 1, 1)
    for _ in range(rng.randint(0, 3)):
        move = rng.choice(["knot", "blow", "log", "sum", "rim", "triple", "gks"])
        try:
            if move == "knot":
                f = base.lattice.basis_vector("f")
                base = knot_surgery(base, f, rng.randint(0, 4), rng.choice("+-"), True)
            elif move == "blow":
                base = blow_up(base, rng.randint(1, 3))
            elif move == "log" and base.recipe.operation == "elliptic_surface":
                base = log_transform(base, rng.randint(1, 4))
            elif move == "sum" and has_class(base, "f"):
                other = elliptic_surface(rng.randint(1, 2), 1, 1)
                base = fibre_sum(
                    base, other, 1,
                    base.lattice.basis_vector("f"), "+", True,
                    other.lattice.basis_vector("f"), "+", True,
                    no_rim_tori=True,
                )
            elif move in ("rim", "gks") and has_class(base, "DR_1"):
                rim = base.lattice.basis_vector("R_1")
                base = knot_surgery(base, rim, rng.randint(1, 3), "+", True)
                if move == "gks":
                    # R_1 + DR_1 after the rim surgery; K.Sigma = 2g - 2.
                    surface = rim + base.lattice.basis_vector("DR_1")
                    genus = (pairing(base.lattice, base.canonical, surface) + 2) // 2
                    base = generalized_knot_surgery(base, surface, genus, rng.randint(1, 2), True)
            elif move == "triple":
                a, em = rng.randint(1, 3), rng.randint(1, 2)
                h1, h2 = rng.randint(0, 2), rng.randint(0, 2)
                base = lagrangian_triple_surgery(base, 1, a, em, h1, h2, rng.choice("+-"))
        except SymgeoError:
            continue
    return base
