import gc
import hashlib
import importlib
import inspect
import random
import sys
import time
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgeo.coverings import branched_cover, pluricanonical_cover, singular_double_cover
from symgeo.errors import ConstructionError, RecipeError
from symgeo.geography import (
    divisibility,
    homotopy_elliptic,
    negative_c1,
    nonspin_surface,
    spin_surface,
    validate,
)
from symgeo.manifolds import (
    CATALOG,
    OPERATIONS,
    ConstructionRecipe,
    catalog,
    elliptic_surface,
    knot_product,
    surface_bundle_y,
)
from symgeo.recipes import REGISTRY, execute_recipe, parse_recipe, serialize_recipe
from symgeo.surgery import (
    blow_up,
    fibre_sum,
    generalized_knot_surgery,
    knot_surgery,
    lagrangian_triple_surgery,
    log_transform,
)

GOLDEN_RECIPES = Path(__file__).parent / "golden" / "recipes"


def roundtrip(m):
    text = serialize_recipe(m.recipe)
    parsed = parse_recipe(text)
    assert parsed == m.recipe
    rebuilt = execute_recipe(parsed)
    assert rebuilt == m
    assert serialize_recipe(parsed) == text
    return text


class TestRoundTrip:
    def test_homotopy_elliptic(self):
        roundtrip(homotopy_elliptic(3, 3))

    def test_nested_fibre_sum(self):
        e1 = elliptic_surface(1, 1, 1)
        f = e1.lattice.basis_vector("f")
        x = fibre_sum(e1, e1, 1, f, "+", True, f, "+", True, no_rim_tori=True)
        text = roundtrip(x)
        assert text.count("op: elliptic_surface") == 2
        assert "op: fibre_sum" in text

    def test_catalog_and_cover(self):
        m = pluricanonical_cover(catalog("barlow"), 2, 3)
        roundtrip(m)

    def test_blow_up_chain(self):
        m = blow_up(blow_up(elliptic_surface(2, 1, 1)))
        roundtrip(m)

    def test_blow_up_count(self):
        text = roundtrip(blow_up(elliptic_surface(2, 1, 1), 70))
        assert text.count("op: blow_up") == 1 and "count: 70\n" in text

    def test_log_transform(self):
        roundtrip(log_transform(elliptic_surface(3, 1, 1), 2))

    def test_positive_c1_constructors(self):
        roundtrip(spin_surface(2, 2, 1))
        roundtrip(nonspin_surface(3, 2, 1))

    def test_family_descriptor(self):
        from symgeo.geography import inequivalent_family

        res = inequivalent_family(5, [5, 1], "c1sq_zero", n=4)
        roundtrip(res.descriptor)


class TestNestedBlowUps:
    """Recipes written before ``blow_up`` took a count nest one node per
    blow-up and carry no ``count:`` line; the parameter's default reads
    them unchanged."""

    OLD = (GOLDEN_RECIPES / "negative_c1_2_3_nested.txt").read_text(encoding="utf-8")

    def test_text_round_trips_byte_for_byte(self):
        assert serialize_recipe(parse_recipe(self.OLD)) == self.OLD

    def test_replays_like_one_blow_up_node(self):
        old = parse_recipe(self.OLD)
        assert old.params == () and old.inputs[0].operation == "blow_up"
        replayed = execute_recipe(old)
        new = negative_c1(2, 3)
        assert replace(replayed, recipe=new.recipe) == new


class TestStrictParsing:
    def test_unknown_operation(self):
        text = "version: 1\nop: mystery\n"
        with pytest.raises(RecipeError, match="unknown operation"):
            parse_recipe(text)

    def test_unknown_parameter(self):
        text = "version: 1\nop: knot_product\nh: 2\nweight: 3\n"
        with pytest.raises(RecipeError, match="unknown or out-of-order"):
            parse_recipe(text)

    def test_missing_parameter(self):
        text = "version: 1\nop: elliptic_surface\nn: 2\nq: 1\n"
        with pytest.raises(RecipeError, match="missing parameter 'p'"):
            parse_recipe(text)

    def test_missing_version(self):
        with pytest.raises(RecipeError, match="version"):
            parse_recipe("op: knot_product\nh: 2\n")

    def test_wrong_version(self):
        with pytest.raises(RecipeError, match="unsupported schema version"):
            parse_recipe("version: 9\nop: knot_product\nh: 2\n")

    def test_type_errors_carry_line_numbers(self):
        text = "version: 1\nop: knot_product\nh: two\n"
        with pytest.raises(RecipeError, match="line 3"):
            parse_recipe(text)

    def test_duplicate_parameter(self):
        text = "version: 1\nop: knot_product\nh: 2\nh: 3\n"
        with pytest.raises(RecipeError, match="unknown or out-of-order"):
            parse_recipe(text)

    def test_wrong_input_arity(self):
        text = "version: 1\nop: blow_up\n"
        with pytest.raises(RecipeError, match="expects 1 inputs"):
            parse_recipe(text)

    def test_depth_guard(self):
        lines = ["version: 1"]
        for depth in range(70):
            pad = "  " * depth
            lines.append(f"{pad}op: blow_up")
            lines.append(f"{pad}input:")
        with pytest.raises(RecipeError, match="nesting"):
            parse_recipe("\n".join(lines) + "\n")

    def test_trailing_content(self):
        text = "version: 1\nop: knot_product\nh: 2\nop: knot_product\nh: 1\n"
        with pytest.raises(RecipeError, match="trailing content"):
            parse_recipe(text)

    def test_tab_rejected(self):
        with pytest.raises(RecipeError, match="tabs"):
            parse_recipe("version: 1\nop: knot_product\n\th: 2\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# provenance file\nversion: 1\n\nop: knot_product\nh: 2\n"
        assert parse_recipe(text).operation == "knot_product"

    @pytest.mark.parametrize("op,line", [
        ("knot_product", "h: {}"),
        ("knot_surgery", "torus: 1,{}\nh: 1\nsign: +\ncomplement: true"),
    ])
    def test_over_long_integers_carry_line_numbers(self, op, line):
        # int() refuses a string one digit past the interpreter's limit.
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        text = f"version: 1\nop: {op}\n{line.format(digits)}\n"
        with pytest.raises(RecipeError, match="^line 3: integer has more digits"):
            parse_recipe(text)

    def test_parse_time_is_linear_in_the_lines(self):
        # A parser that copies the lines still to read at every line takes
        # time quadratic in their number: 5.6 s for 40,000 note lines.
        text = (GOLDEN_RECIPES / "knot_product_2.txt").read_text(encoding="utf-8")
        start = time.perf_counter()
        recipe = parse_recipe(text + "note: x\n" * 100_000)
        assert time.perf_counter() - start < 5
        assert len(recipe.notes) == 100_004 and recipe.notes[-1] == "x"


from conftest import random_descriptor


def test_randomized_recipe_determinism():
    rng = random.Random(2024)
    for _ in range(60):
        m = random_descriptor(rng)
        text = serialize_recipe(m.recipe)
        again = execute_recipe(parse_recipe(text))
        assert again == m
        assert serialize_recipe(again.recipe) == text


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6))
def test_random_trees_replay_validate_and_certify(seed):
    # Four properties of any construction tree: every node's notes start
    # with the full-canonical marker, its recipe text replays to an equal
    # descriptor, it passes validation, and its certificate's lower bound
    # divides the upper one.
    m = random_descriptor(random.Random(seed))
    nodes = [m.recipe]
    while nodes:
        node = nodes.pop()
        assert node.notes[:1] == ("full-canonical",), node.operation
        nodes.extend(node.inputs)
    assert execute_recipe(parse_recipe(serialize_recipe(m.recipe))) == m
    report = validate(m)
    assert report.ok, report.failures()
    cert = divisibility(m)
    assert cert.upper % cert.lower == 0 if cert.lower else cert.upper == 0


def test_random_trees_reach_every_operation():
    # Each operation random_descriptor draws is in at least 10 of the
    # trees of seeds 0-199, so the tree properties above reach them all.
    trees = Counter()
    for seed in range(200):
        nodes, ops = [random_descriptor(random.Random(seed)).recipe], set()
        while nodes:
            node = nodes.pop()
            ops.add(node.operation)
            nodes.extend(node.inputs)
        trees.update(ops)
    operations = (
        "elliptic_surface", "knot_surgery", "blow_up", "log_transform", "fibre_sum",
        "lagrangian_triple_surgery", "generalized_knot_surgery",
    )
    assert {op: trees[op] for op in operations if trees[op] < 10} == {}


def test_execute_rejects_unknown_node():
    node = ConstructionRecipe("mystery", (("n", 1),))
    with pytest.raises(RecipeError, match="unknown operation"):
        execute_recipe(node)


def test_knot_product_roundtrip():
    roundtrip(knot_product(3))


# One valid parameter tuple per catalog entry.
CATALOG_SAMPLES = {
    "barlow": (),
    "lee_park": (),
    "enriques_k1_pg1": (),
    "enriques_k2_pg1": (),
    "godeaux_like": (2, 3),
    "horikawa_spin": (3,),
    "horikawa_nonspin": (2,),
    "persson": (4, 8),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_entry_roundtrip(name):
    assert set(CATALOG_SAMPLES) == set(CATALOG)
    m = catalog(name, *CATALOG_SAMPLES[name])
    assert [key for key, _ in m.recipe.params] == ["name", *CATALOG[name].params]
    roundtrip(m)


def test_catalog_rejects_wrong_parameter_count():
    with pytest.raises(ConstructionError, match="takes parameters"):
        catalog("barlow", 7)
    with pytest.raises(ConstructionError, match=r"takes parameters \(k_sq, p_g\)"):
        catalog("godeaux_like", 1)


def test_catalog_schema_follows_table_order():
    op = REGISTRY["catalog"]
    assert op.names == ("name", "k_sq", "p_g", "r", "s", "x", "y")
    assert op.kinds == (str,) + (int,) * 6 and op.required == (True,) + (False,) * 6


# Ops replayed by calling the constructor with the recipe parameters as
# keywords, each with a sample descriptor it builds: every op but catalog.
def _generic_samples():
    # Parameters of one type take distinct values where they can, so a
    # node that records two of them swapped writes different text.
    e1 = elliptic_surface(1, 1, 1)
    e2 = elliptic_surface(2, 1, 1)
    f1, f2 = e1.lattice.basis_vector("f"), e2.lattice.basis_vector("f")
    return {
        "elliptic_surface": (elliptic_surface, elliptic_surface(2, 3, 5)),
        "knot_product": (knot_product, knot_product(2)),
        "surface_bundle_Y": (surface_bundle_y, surface_bundle_y(2, 3)),
        "singular_double_cover": (singular_double_cover, singular_double_cover(3, 5)),
        "log_transform": (log_transform, log_transform(e2, 3)),
        "blow_up": (blow_up, blow_up(e2)),
        "lagrangian_triple_surgery": (
            lagrangian_triple_surgery, lagrangian_triple_surgery(e2, 1, 2, 3, 4, 5, "-")),
        "branched_cover": (branched_cover, branched_cover(e2, 4, -4, 2)),
        "fibre_sum": (
            fibre_sum,
            fibre_sum(e1, e2, 1, f1, "+", True, f2, "-", False, no_rim_tori=False)),
        "knot_surgery": (knot_surgery, knot_surgery(e2, f2, 3, "-", True)),
        # spin_surface(2, 1, 1) is a generalized knot surgery at the root.
        "generalized_knot_surgery": (generalized_knot_surgery, spin_surface(2, 1, 1)),
        "pluricanonical_cover": (
            pluricanonical_cover, pluricanonical_cover(catalog("barlow"), 2, 3)),
    }


# sha256 of each sample's recipe text: a node that records two parameters
# swapped, or under other names, writes different bytes.
RECIPE_SHA256 = {
    "elliptic_surface": "1b2e59649839f05e82861c1f9f7d1342f491fe124bd7fe4993564a66b43740f3",
    "knot_product": "8799a92205269616f68e8178dfe89e46a073466a9850463020f15ed8041c0bb5",
    "surface_bundle_Y": "e417b32b193ed6852c3d386c1026cb96c86cbac05376bc4293a6363e0cb09fc0",
    "singular_double_cover": "aecc7bac297f00840ae1bff5fa14d371be20e64653ecc406f850159fa963f066",
    "log_transform": "b70fe4ecae5ffea370058da114d1d79ce7e2f5dc74eb95ee3879db1be59d2b45",
    "blow_up": "f7ccf53ea24df763e5fa24ad81ee1913791fe1dbefff8c3fb72cab1c528aaaeb",
    "lagrangian_triple_surgery": "2a8c0c9fea6e1fa61d3e7dd848c0ac2df0862484f9cae1294c492a068669e99f",
    "branched_cover": "041b3c7d5471274a4646525ec7d4db31896204b97c4af9bdd6da04b48580d202",
    "fibre_sum": "e9e7c680ec74daf62b9f3282fe23cbd9f2c2fa0f03b1c47b69f7cdfd4dff5cb6",
    "knot_surgery": "546b763abe101b60dffa452aed2f00fab56e6c087854d0f377dfe8fd419e86a2",
    "generalized_knot_surgery": "945f3f6b305c94b97a313732d11333c7887aee17652a49647e7d01b070425532",
    "pluricanonical_cover": "296eae90a84eac83289eb96cbc3021cc6435827b3a2f9e09d1963ad02055cba9",
}


def test_only_blow_up_count_is_optional():
    # A missing optional parameter replays with its constructor default,
    # so a default is a recipe-format decision: blow_up's count is the one.
    optional = {
        (op, name) for op, o in REGISTRY.items() if op != "catalog"
        for name, required in zip(o.names, o.required) if not required
    }
    assert optional == {("blow_up", "count")}


def test_every_op_but_catalog_is_read_from_its_signature():
    generic = {op for op in REGISTRY if REGISTRY[op] is OPERATIONS.get(op)}
    assert generic == set(REGISTRY) - {"catalog"}
    assert set(_generic_samples()) == set(RECIPE_SHA256) == generic


def test_registry_is_the_registered_operations_and_catalog():
    assert set(REGISTRY) == set(OPERATIONS) | {"catalog"} and len(REGISTRY) == 13
    # Registering returns the constructor itself, not a wrapper.
    for op, (fn, _) in _generic_samples().items():
        assert OPERATIONS[op].constructor is fn


@pytest.mark.parametrize("op", sorted(set(REGISTRY) - {"catalog"}))
def test_generic_op_schema_is_constructor_signature(op):
    fn, sample = _generic_samples()[op]
    names = list(inspect.signature(fn).parameters)[REGISTRY[op].arity:]
    assert list(REGISTRY[op].names) == names
    assert [key for key, _ in sample.recipe.params] == names
    text = roundtrip(sample)
    assert hashlib.sha256(text.encode()).hexdigest() == RECIPE_SHA256[op]


def test_a_fresh_import_of_symgeo_is_garbage_collected():
    # A cache outside symgeo that holds one of its classes, such as a
    # module-level typing subscript, would keep a fresh copy of the whole
    # package alive after its modules are dropped.
    def ours():
        return [name for name in sys.modules if name == "symgeo" or name.startswith("symgeo.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        fresh = importlib.import_module("symgeo.cli")
        assert fresh.manifolds is not saved["symgeo.manifolds"]
        ref = weakref.ref(fresh.manifolds.ManifoldDescriptor)
        del fresh
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert ref() is None
