"""Construction recipes as a strict, versioned text format.

A recipe document is the reproducibility artifact: a tree of registered
operations with typed parameters.  The format is line-based nested
key-value text, two-space indentation per nesting level, with ``note:``
lines carrying provenance strings and ``input:`` blocks holding child
recipes.  Parsing is strict: unknown operations or parameters, wrong
types, duplicates, out-of-order keys and over-deep nesting are all
rejected with the offending line number.  The format has no reference
syntax, so cyclic documents cannot be expressed; nesting is capped at 64.

An operation's schema is its constructor's signature, registered with
``manifolds.operation`` where the constructor is defined: the leading
descriptor parameters are the node's inputs, the rest its parameters in
order, optional exactly when defaulted.  ``REGISTRY`` holds those
``manifolds.Operation`` records as they are, and one for ``catalog``,
which takes its parameters from its table; a node replays by calling its
operation's constructor.
Parsing walks the lines once, so its time is linear in the document.

Executing a parsed recipe replays the construction and yields a
descriptor identical to the original, including its provenance.  No
check reads a note: checks read descriptor fields, which replay derives
from the operations alone.  A node's marker notes
(``manifolds.gating_notes``) must still be the ones its replay produces.
"""

from __future__ import annotations

import re
import sys
from dataclasses import replace

# ``coverings`` and ``surgery`` are imported so that their operations
# register themselves in ``manifolds.OPERATIONS``.
from . import coverings, manifolds, surgery
from .errors import RecipeError
from .lattice import ClassVector
from .manifolds import ConstructionRecipe, ManifoldDescriptor, ParamValue, gating_notes

SCHEMA_VERSION = 1
MAX_DEPTH = 64


def _catalog(name: str, **params: int) -> ManifoldDescriptor:
    """Replay of a ``catalog`` node, which names exactly its entry's parameters."""
    entry = manifolds.CATALOG.get(name)
    if entry is not None and tuple(params) != entry.params:
        raise RecipeError(
            f"catalog entry {name!r} takes parameters ({', '.join(entry.params)}), "
            f"got ({', '.join(params)})"
        )
    return manifolds.catalog(name, *params.values())


# Catalog parameters in table order; each entry takes exactly its own.
_CATALOG_KEYS = tuple(dict.fromkeys(p for e in manifolds.CATALOG.values() for p in e.params))

# op -> Operation: ``manifolds.OPERATIONS`` and ``catalog``.  A node replays
# as its constructor called with its inputs, then its parameters as keywords:
# a node that omits an optional parameter replays with its default.
REGISTRY: dict[str, manifolds.Operation] = {
    **manifolds.OPERATIONS,
    "catalog": manifolds.Operation(
        sys.modules[__name__], "_catalog", 0, ("name", *_CATALOG_KEYS),
        (str,) + (int,) * len(_CATALOG_KEYS), (True,) + (False,) * len(_CATALOG_KEYS)),
}

_STR_VALUE = re.compile(r"^[A-Za-z0-9_.+-]+$")
_INT_VALUE = re.compile(r"^-?[0-9]+$")


def _format_value(value: ParamValue, kind: type) -> str:
    if kind is bool:
        return "true" if value else "false"
    if kind is ClassVector:
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
    op = REGISTRY[node.operation]
    pad = "  " * depth
    lines.append(f"{pad}op: {node.operation}")
    given = dict(node.params)
    for name, kind, required in zip(op.names, op.kinds, op.required):
        if name in given:
            lines.append(f"{pad}{name}: {_format_value(given[name], kind)}")
        elif required:
            raise RecipeError(f"operation {node.operation!r} missing parameter {name!r}")
    for note in node.notes:
        lines.append(f"{pad}note: {note}")
    if len(node.inputs) != op.arity:
        raise RecipeError(f"operation {node.operation!r} expects {op.arity} inputs")
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


def _ints(parts: list[str], number: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise RecipeError("integer has more digits than the interpreter converts",
                          number) from None


def _parse_value(kind: type, raw: str, number: int) -> ParamValue:
    if kind is int:
        if not _INT_VALUE.match(raw):
            raise RecipeError(f"expected an integer, got {raw!r}", number)
        return _ints([raw], number)[0]
    if kind is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise RecipeError(f"expected true or false, got {raw!r}", number)
    if kind is ClassVector:
        parts = raw.split(",")
        if not all(_INT_VALUE.match(p.strip()) for p in parts):
            raise RecipeError(f"expected a comma-separated integer vector, got {raw!r}", number)
        values = _ints(parts, number)
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
    node, end = _parse_node(lines, 1, 0)
    if end < len(lines):
        raise RecipeError("trailing content after the root recipe", lines[end].number)
    return node


def _parse_node(lines: list[_Line], start: int, depth: int) -> tuple[ConstructionRecipe, int]:
    """The node whose 'op:' line is ``lines[start]``, and the index of the
    line after it.  The lines are walked by index, never copied."""
    if depth >= MAX_DEPTH:
        raise RecipeError("recipe nesting exceeds the supported depth",
                          lines[start].number if start < len(lines) else None)
    if start >= len(lines):
        raise RecipeError("expected an 'op:' line, found end of document")
    first = lines[start]
    if first.indent != depth:
        raise RecipeError(f"expected indentation level {depth}", first.number)
    if first.key != "op":
        raise RecipeError("a recipe node must start with 'op:'", first.number)
    op = first.value
    if op not in REGISTRY:
        raise RecipeError(f"unknown operation {op!r}", first.number)
    schema = REGISTRY[op]
    names, kinds, required = schema.names, schema.kinds, schema.required

    params: list[tuple[str, ParamValue]] = []
    notes: list[str] = []
    inputs: list[ConstructionRecipe] = []
    at = start + 1
    cursor = 0  # position in the schema; parameters must come in order
    stage = "params"
    while at < len(lines):
        line = lines[at]
        if line.indent < depth:
            break
        if line.indent > depth:
            raise RecipeError("unexpected indentation", line.number)
        if line.key == "op":
            break
        if line.key == "input":
            if line.value:
                raise RecipeError("'input:' takes no value", line.number)
            child, at = _parse_node(lines, at + 1, depth + 1)
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
            at += 1
            continue
        if stage != "params":
            raise RecipeError("parameters must precede notes and inputs", line.number)
        while cursor < len(names) and names[cursor] != line.key:
            if required[cursor]:
                raise RecipeError(
                    f"operation {op!r} missing parameter {names[cursor]!r}", line.number)
            cursor += 1
        if cursor >= len(names):
            raise RecipeError(f"unknown or out-of-order parameter {line.key!r}", line.number)
        params.append((line.key, _parse_value(kinds[cursor], line.value, line.number)))
        cursor += 1
        at += 1
    while cursor < len(names):
        if required[cursor]:
            raise RecipeError(f"operation {op!r} missing parameter {names[cursor]!r}",
                              first.number)
        cursor += 1
    if len(inputs) != schema.arity:
        raise RecipeError(
            f"operation {op!r} expects {schema.arity} inputs, got {len(inputs)}", first.number)
    return ConstructionRecipe(op, tuple(params), tuple(inputs), tuple(notes)), at


def execute_recipe(recipe: ConstructionRecipe, _depth: int = 0) -> ManifoldDescriptor:
    """Replay a recipe tree; the result carries the given tree as its
    provenance, so re-executing a descriptor's recipe reproduces it."""
    if _depth >= MAX_DEPTH:
        raise RecipeError("recipe nesting exceeds the supported depth")
    if recipe.operation not in REGISTRY:
        raise RecipeError(f"unknown operation {recipe.operation!r}")
    op = REGISTRY[recipe.operation]
    if len(recipe.inputs) != op.arity:
        raise RecipeError(f"operation {recipe.operation!r} expects {op.arity} inputs")
    children = [execute_recipe(child, _depth + 1) for child in recipe.inputs]
    descriptor = op.constructor(*children, **dict(recipe.params))
    given, replayed = gating_notes(recipe.notes), gating_notes(descriptor.recipe.notes)
    if given != replayed:
        raise RecipeError(
            f"operation {recipe.operation!r}: gating notes ({', '.join(given) or 'none'}) "
            f"differ from the replay's ({', '.join(replayed) or 'none'})"
        )
    return replace(descriptor, recipe=recipe)
