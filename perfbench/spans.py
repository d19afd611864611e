"""Per-layer tracing by wrapping symgeo functions at every binding.

``from .lattice import dot`` copies ``dot`` into ``geography`` and
``surgery``; the tracer replaces the function at every ``symgeo.*`` module
attribute that is bound to it, so calls through any module are recorded.
Methods are replaced on their class.  Spans are kept in memory as
``(name, start, end, parent, op)`` tuples and written out at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

# label -> (home module, attribute path); a dotted path names a method.
TRACED = {
    "cli.run_command": ("symgeo.cli", "run_command"),
    "recipes.serialize_recipe": ("symgeo.recipes", "serialize_recipe"),
    "recipes.parse_recipe": ("symgeo.recipes", "parse_recipe"),
    "recipes.execute_recipe": ("symgeo.recipes", "execute_recipe"),
    "geography.homotopy_elliptic": ("symgeo.geography", "homotopy_elliptic"),
    "geography.spin_surface": ("symgeo.geography", "spin_surface"),
    "geography.nonspin_surface": ("symgeo.geography", "nonspin_surface"),
    "geography.negative_c1": ("symgeo.geography", "negative_c1"),
    "geography.inequivalent_family": ("symgeo.geography", "inequivalent_family"),
    "geography.certify_class": ("symgeo.geography", "certify_class"),
    "geography.validate": ("symgeo.geography", "validate"),
    "surgery.fibre_sum": ("symgeo.surgery", "fibre_sum"),
    "surgery.knot_surgery": ("symgeo.surgery", "knot_surgery"),
    "surgery.generalized_knot_surgery": ("symgeo.surgery", "generalized_knot_surgery"),
    "surgery.lagrangian_triple_surgery": ("symgeo.surgery", "lagrangian_triple_surgery"),
    "surgery.blow_up": ("symgeo.surgery", "blow_up"),
    "manifolds.elliptic_surface": ("symgeo.manifolds", "elliptic_surface"),
    "manifolds.derived_invariants": ("symgeo.manifolds", "derived_invariants"),
    "coverings.pluricanonical_cover": ("symgeo.coverings", "pluricanonical_cover"),
    "coverings.singular_double_cover": ("symgeo.coverings", "singular_double_cover"),
    "lattice.IntersectionLattice": ("symgeo.lattice", "IntersectionLattice.__post_init__"),
    "lattice.pairing_row": ("symgeo.lattice", "IntersectionLattice.pairing_row"),
    "lattice.pairing": ("symgeo.lattice", "pairing"),
    "lattice.dot": ("symgeo.lattice", "dot"),
    "lattice.block_diagonal": ("symgeo.lattice", "block_diagonal"),
    "lattice.q_set": ("symgeo.lattice", "q_set"),
}
ENTRY = "cli.run_command"


def _symgeo_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "symgeo" or name.startswith("symgeo."))]


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a traced name, or None once the
    program no longer has it; such a name reports no calls."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if attr not in getattr(owner, "__dict__", {}):
        return None
    return owner, attr, vars(owner)[attr]


def bindings():
    """Every (label, owner, attribute, original) where a traced function is bound."""
    out = []
    modules = _symgeo_modules()
    for label, (module, path) in TRACED.items():
        found = _resolve(module, path)
        if found is None:
            continue
        owner, attr, original = found
        if owner is not sys.modules[module]:
            out.append((label, owner, attr, original))
            continue
        for mod in modules:
            for name, value in vars(mod).items():
                if value is original:
                    out.append((label, mod, name, original))
    return out


def assert_untraced(binds) -> None:
    """Raise unless every traced binding holds its original function."""
    stale = [f"{owner.__name__}.{attr}" for _, owner, attr, original in binds
             if vars(owner)[attr] is not original]
    if stale:
        raise RuntimeError("traced wrappers left in place: " + ", ".join(stale))


class Tracer:
    """Installs span-recording wrappers; ``restore`` puts the originals back."""

    def __init__(self, binds):
        self.binds = binds
        self.spans: list[tuple] = []
        self.returned: list[tuple[int, int]] = []  # (rank, witnesses) reaching the CLI
        self.op = 0
        self._stack: list[tuple[int, str]] = []
        self._wrappers = {}
        for label, _, _, original in binds:
            if label not in self._wrappers:
                self._wrappers[label] = self._wrap(label, original)

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        returned = self.returned

        def traced(*args, **kwargs):
            parent, parent_label = stack[-1] if stack else (-1, "")
            index = len(spans)
            spans.append(None)
            stack.append((index, label))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op)
            if parent_label == ENTRY:
                desc = getattr(result, "descriptor", result)  # a family returns its manifold
                if hasattr(desc, "lattice") and hasattr(desc, "witnesses"):
                    returned.append((desc.lattice.rank, len(desc.witnesses)))
            return result

        return traced

    def install(self) -> None:
        for label, owner, attr, _ in self.binds:
            setattr(owner, attr, self._wrappers[label])

    def restore(self) -> None:
        for _, owner, attr, original in self.binds:
            setattr(owner, attr, original)
        assert_untraced(self.binds)

    def per_label(self) -> dict[str, tuple[int, float]]:
        """label -> (calls, self time in seconds); self time is a span's
        duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (label, start, end, _, _), child in zip(self.spans, covered):
            calls[label] += 1
            self_s[label] += end - start - child
        return {label: (calls[label], self_s[label]) for label in TRACED}

    def write(self, path: Path) -> None:
        """Spans as TSV: name, start and end in ns from the first span, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (label, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{label}\t{round((start - t0) * 1e9)}\t"
                         f"{round((end - t0) * 1e9)}\t{parent}\t{op}\n")
