"""Replay the golden CLI corpus in-process.

``golden/cases.json`` lists CLI commands with their exit code and standard
output; a ``construct --recipe`` case also names the recipe text it writes,
stored under ``golden/recipes/``.  The ``verify`` cases replay those
recipe files, plus six written by hand and one frozen in an older form.
The hand-written ones are a bare fibre sum, two knot surgeries of sign
``-`` (the one on the fibre of E(4), ``knot_surgery_minus_k_zero.txt``,
leaves K = 0 at chi_h = 4 and fails the ``obstructions`` check, exit 1),
and a double cover of Barlow's surface branched over D with D^2 = 16,
K.D = 4 (``branched_cover_barlow_16_4_2.txt``), next to its variants
with D = 2K (D^2 = 4, K.D = 2, spin unknown) and with D^2 = 1, K.D = 0,
whose branch data are inconsistent (exit 2).  The
frozen one, ``negative_c1_2_3_nested.txt``, blows up one class per nested
``blow_up`` node, without the ``count:`` line that ``construct`` writes
today.  The exit-2 cases carry no standard output.  In an argument,
``{recipe}`` stands for a fresh output path and ``{recipes}`` for the
stored recipe directory.
"""

import json
from pathlib import Path

import pytest

from symgeo.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_command(case, capsys, tmp_path):
    written = tmp_path / "recipe.txt"
    argv = [
        a.replace("{recipe}", str(written)).replace("{recipes}", str(GOLDEN / "recipes"))
        for a in case["argv"]
    ]
    code = run_command(argv)
    out = capsys.readouterr().out
    assert (code, out.splitlines()) == (case["exit"], case["stdout"])
    if "recipe" in case:
        expected = (GOLDEN / "recipes" / case["recipe"]).read_text(encoding="utf-8")
        assert written.read_text(encoding="utf-8") == expected
