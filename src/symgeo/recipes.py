"""Construction recipes as a strict, versioned text format.

A recipe document is the reproducibility artifact: a tree of registered
operations with typed parameters.  The format is line-based nested
key-value text, two-space indentation per nesting level, with ``note:``
lines carrying provenance strings and ``input:`` blocks holding child
recipes.  Parsing is strict: unknown operations or parameters, wrong
types, duplicates, out-of-order keys and over-deep nesting are all
rejected with the offending line number.  The format has no reference
syntax, so cyclic documents cannot be expressed; nesting is capped at 64.

Executing a parsed recipe replays the construction and yields a
descriptor identical to the original, including its provenance.  No
check reads a note: checks read descriptor fields, which replay derives
from the operations alone.  A node's marker notes
(``manifolds.gating_notes``) must still be the ones its replay produces.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import replace
from typing import Callable

from . import coverings, manifolds, surgery
from .errors import RecipeError
from .lattice import ClassVector
from .manifolds import ConstructionRecipe, ManifoldDescriptor, ParamValue, gating_notes

SCHEMA_VERSION = 1
MAX_DEPTH = 64

_INT = "int"
_CLASS = "class"
_STR = "str"
_BOOL = "bool"

_KINDS = {int: _INT, str: _STR, bool: _BOOL, ClassVector: _CLASS}

# op -> (ordered (param, type, required), input arity, builder)
_Builder = Callable[[ConstructionRecipe, list[ManifoldDescriptor]], ManifoldDescriptor]


def _signature_op(module, attr: str) -> tuple[tuple[tuple[str, str, bool], ...], int, _Builder]:
    """Registry entry of an op whose recipe parameters are exactly its
    constructor's parameters after the descriptor inputs, in order; every
    op but ``catalog`` is one.  A parameter's kind is read from its
    annotation (``int``, ``str``, ``bool`` or ``ClassVector``), and the
    arity is the number of ``ManifoldDescriptor`` parameters in front.
    A parameter is optional exactly when the constructor gives it a
    default, and a node that omits it replays with that default.

    The schema and arity are read from the signature once; the constructor
    is fetched from its module at each call, so a wrapper installed on the
    module attribute sees recipe replays too.
    """
    params = list(inspect.signature(getattr(module, attr), eval_str=True).parameters.values())
    arity = sum(1 for p in params if p.annotation is ManifoldDescriptor)
    schema = tuple((p.name, _KINDS[p.annotation], p.default is p.empty) for p in params[arity:])

    def build(node, children):
        return getattr(module, attr)(*children, **dict(node.params))

    return schema, arity, build


def _build_catalog(node, children):
    name = node.param("name")
    entry = manifolds.CATALOG.get(name)
    given = tuple(key for key, _ in node.params if key != "name")
    if entry is not None and given != entry.params:
        raise RecipeError(
            f"catalog entry {name!r} takes parameters ({', '.join(entry.params)}), "
            f"got ({', '.join(given)})"
        )
    return manifolds.catalog(name, *(node.param(key) for key in given))


# Catalog parameters in table order; each entry takes exactly its own.
_CATALOG_PARAMS = tuple(dict.fromkeys(p for e in manifolds.CATALOG.values() for p in e.params))

REGISTRY: dict[str, tuple[tuple[tuple[str, str, bool], ...], int, _Builder]] = {
    "elliptic_surface": _signature_op(manifolds, "elliptic_surface"),
    "knot_product": _signature_op(manifolds, "knot_product"),
    "surface_bundle_Y": _signature_op(manifolds, "surface_bundle_y"),
    "catalog": (
        (("name", _STR, True),) + tuple((p, _INT, False) for p in _CATALOG_PARAMS),
        0, _build_catalog),
    "singular_double_cover": _signature_op(coverings, "singular_double_cover"),
    "fibre_sum": _signature_op(surgery, "fibre_sum"),
    "knot_surgery": _signature_op(surgery, "knot_surgery"),
    "generalized_knot_surgery": _signature_op(surgery, "generalized_knot_surgery"),
    "log_transform": _signature_op(surgery, "log_transform"),
    "blow_up": _signature_op(surgery, "blow_up"),
    "lagrangian_triple_surgery": _signature_op(surgery, "lagrangian_triple_surgery"),
    "branched_cover": _signature_op(coverings, "branched_cover"),
    "pluricanonical_cover": _signature_op(coverings, "pluricanonical_cover"),
}

_STR_VALUE = re.compile(r"^[A-Za-z0-9_.+-]+$")
_INT_VALUE = re.compile(r"^-?[0-9]+$")


def _format_value(value: ParamValue, kind: str) -> str:
    if kind == _INT:
        return str(value)
    if kind == _BOOL:
        return "true" if value else "false"
    if kind == _CLASS:
        # Class vectors are sparse in memory and dense in the text.
        dense = [0] * value.rank
        for i, c in value.entries:
            dense[i] = c
        return ",".join(map(str, dense))
    return str(value)


def serialize_recipe(recipe: ConstructionRecipe) -> str:
    """Render a recipe tree to the canonical text form."""
    lines = [f"version: {SCHEMA_VERSION}"]
    _serialize_node(recipe, 0, lines)
    return "\n".join(lines) + "\n"


def _serialize_node(node: ConstructionRecipe, depth: int, lines: list[str]) -> None:
    if depth >= MAX_DEPTH:
        raise RecipeError("recipe nesting exceeds the supported depth")
    if node.operation not in REGISTRY:
        raise RecipeError(f"unknown operation {node.operation!r}")
    schema, arity, _ = REGISTRY[node.operation]
    kinds = {name: kind for name, kind, _ in schema}
    pad = "  " * depth
    lines.append(f"{pad}op: {node.operation}")
    given = dict(node.params)
    for name, kind, required in schema:
        if name in given:
            lines.append(f"{pad}{name}: {_format_value(given[name], kind)}")
        elif required:
            raise RecipeError(f"operation {node.operation!r} missing parameter {name!r}")
    for note in node.notes:
        lines.append(f"{pad}note: {note}")
    if len(node.inputs) != arity:
        raise RecipeError(f"operation {node.operation!r} expects {arity} inputs")
    for child in node.inputs:
        lines.append(f"{pad}input:")
        _serialize_node(child, depth + 1, lines)


class _Line:
    __slots__ = ("number", "indent", "key", "value")

    def __init__(self, number: int, indent: int, key: str, value: str):
        self.number = number
        self.indent = indent
        self.key = key
        self.value = value


def _lex(text: str) -> list[_Line]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        stripped = raw.lstrip(" ")
        pad = len(raw) - len(stripped)
        if pad % 2 != 0:
            raise RecipeError("indentation must be a multiple of two spaces", number)
        if "\t" in raw:
            raise RecipeError("tabs are not allowed", number)
        if ":" not in stripped:
            raise RecipeError("expected 'key: value'", number)
        key, _, value = stripped.partition(":")
        out.append(_Line(number, pad // 2, key.strip(), value.strip()))
    return out


def _parse_value(kind: str, raw: str, number: int) -> ParamValue:
    if kind == _INT:
        if not _INT_VALUE.match(raw):
            raise RecipeError(f"expected an integer, got {raw!r}", number)
        return int(raw)
    if kind == _BOOL:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise RecipeError(f"expected true or false, got {raw!r}", number)
    if kind == _CLASS:
        parts = raw.split(",")
        if not all(_INT_VALUE.match(p.strip()) for p in parts):
            raise RecipeError(f"expected a comma-separated integer vector, got {raw!r}", number)
        values = [int(p) for p in parts]
        return ClassVector(len(values), tuple((i, c) for i, c in enumerate(values) if c))
    if not _STR_VALUE.match(raw):
        raise RecipeError(f"invalid string value {raw!r}", number)
    return raw


def parse_recipe(text: str) -> ConstructionRecipe:
    """Parse the canonical text form back into a recipe tree."""
    lines = _lex(text)
    if not lines:
        raise RecipeError("empty document")
    head = lines[0]
    if head.indent != 0 or head.key != "version":
        raise RecipeError("document must start with a version line", head.number)
    if head.value != str(SCHEMA_VERSION):
        raise RecipeError(f"unsupported schema version {head.value!r}", head.number)
    node, rest = _parse_node(lines[1:], 0)
    if rest:
        raise RecipeError("trailing content after the root recipe", rest[0].number)
    return node


def _parse_node(lines: list[_Line], depth: int) -> tuple[ConstructionRecipe, list[_Line]]:
    if depth >= MAX_DEPTH:
        raise RecipeError("recipe nesting exceeds the supported depth",
                          lines[0].number if lines else None)
    if not lines:
        raise RecipeError("expected an 'op:' line, found end of document")
    first = lines[0]
    if first.indent != depth:
        raise RecipeError(f"expected indentation level {depth}", first.number)
    if first.key != "op":
        raise RecipeError("a recipe node must start with 'op:'", first.number)
    op = first.value
    if op not in REGISTRY:
        raise RecipeError(f"unknown operation {op!r}", first.number)
    schema, arity, _ = REGISTRY[op]

    params: list[tuple[str, ParamValue]] = []
    notes: list[str] = []
    inputs: list[ConstructionRecipe] = []
    rest = lines[1:]
    cursor = 0  # position in the schema; parameters must come in order
    stage = "params"
    while rest:
        line = rest[0]
        if line.indent < depth:
            break
        if line.indent > depth:
            raise RecipeError("unexpected indentation", line.number)
        if line.key == "op":
            break
        if line.key == "input":
            if line.value:
                raise RecipeError("'input:' takes no value", line.number)
            child, rest = _parse_node(rest[1:], depth + 1)
            inputs.append(child)
            stage = "inputs"
            continue
        if line.key == "note":
            if stage == "inputs":
                raise RecipeError("notes must precede inputs", line.number)
            if not line.value:
                raise RecipeError("empty note", line.number)
            notes.append(line.value)
            stage = "notes"
            rest = rest[1:]
            continue
        if stage != "params":
            raise RecipeError("parameters must precede notes and inputs", line.number)
        while cursor < len(schema) and schema[cursor][0] != line.key:
            if schema[cursor][2]:
                raise RecipeError(
                    f"operation {op!r} missing parameter {schema[cursor][0]!r}", line.number)
            cursor += 1
        if cursor >= len(schema):
            raise RecipeError(f"unknown or out-of-order parameter {line.key!r}", line.number)
        name, kind, _ = schema[cursor]
        params.append((name, _parse_value(kind, line.value, line.number)))
        cursor += 1
        rest = rest[1:]
    while cursor < len(schema):
        if schema[cursor][2]:
            raise RecipeError(f"operation {op!r} missing parameter {schema[cursor][0]!r}",
                              first.number)
        cursor += 1
    if len(inputs) != arity:
        raise RecipeError(
            f"operation {op!r} expects {arity} inputs, got {len(inputs)}", first.number)
    return ConstructionRecipe(op, tuple(params), tuple(inputs), tuple(notes)), rest


def execute_recipe(recipe: ConstructionRecipe, _depth: int = 0) -> ManifoldDescriptor:
    """Replay a recipe tree; the result carries the given tree as its
    provenance, so re-executing a descriptor's recipe reproduces it."""
    if _depth >= MAX_DEPTH:
        raise RecipeError("recipe nesting exceeds the supported depth")
    if recipe.operation not in REGISTRY:
        raise RecipeError(f"unknown operation {recipe.operation!r}")
    schema, arity, builder = REGISTRY[recipe.operation]
    if len(recipe.inputs) != arity:
        raise RecipeError(f"operation {recipe.operation!r} expects {arity} inputs")
    children = [execute_recipe(child, _depth + 1) for child in recipe.inputs]
    descriptor = builder(recipe, children)
    given, replayed = gating_notes(recipe.notes), gating_notes(descriptor.recipe.notes)
    if given != replayed:
        raise RecipeError(
            f"operation {recipe.operation!r}: gating notes ({', '.join(given) or 'none'}) "
            f"differ from the replay's ({', '.join(replayed) or 'none'})"
        )
    return replace(descriptor, recipe=recipe)
