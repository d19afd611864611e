import random

from symgeo.errors import ConstructionError
from symgeo.lattice import ClassVector
from symgeo.manifolds import elliptic_surface
from symgeo.surgery import blow_up, fibre_sum, knot_surgery, log_transform


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


def gram(lat):
    """The dense Gram matrix of a lattice; O(rank^2), for small lattices."""
    return tuple(expand(row, lat.rank) for row in lat.rows)


def dense_dot(v, w):
    """Dense reference for ``lattice.dot``: the class vector and the
    witness's pairings both expanded to the rank, then summed."""
    return sum(a * p for a, p in zip(dense(v), expand(w.pairings, v.rank)))


def random_descriptor(rng: random.Random):
    """Small random construction tree over the registered operations."""
    n = rng.randint(1, 4)
    base = elliptic_surface(n, 1, 1)
    for _ in range(rng.randint(0, 3)):
        move = rng.choice(["knot", "blow", "log", "sum", "rim"])
        if move == "knot":
            f = base.lattice.basis_vector("f")
            base = knot_surgery(base, f, rng.randint(0, 4), rng.choice("+-"), True)
        elif move == "blow":
            base = blow_up(base, rng.randint(1, 3))
        elif move == "log" and base.recipe.operation == "elliptic_surface":
            base = log_transform(base, rng.randint(1, 4))
        elif move == "sum" and "f" in base.lattice.basis_names:
            other = elliptic_surface(rng.randint(1, 2), 1, 1)
            try:
                base = fibre_sum(
                    base, other, 1,
                    base.lattice.basis_vector("f"), "+", True,
                    other.lattice.basis_vector("f"), "+", True,
                    no_rim_tori=True,
                )
            except ConstructionError:
                # After a log transform the fibre dual has unknown square
                # and the sum is rightly rejected; skip the move.
                continue
        elif move == "rim" and "DR_1" in base.lattice.basis_names:
            rim = base.lattice.basis_vector("R_1")
            base = knot_surgery(base, rim, rng.randint(1, 3), "+", True)
    return base
