"""Replay the golden CLI corpus in-process.

``golden/cases.json`` lists CLI commands with their exit code and standard
output; a ``construct --recipe`` case also names the recipe text it writes,
stored under ``golden/recipes/``.  The ``verify`` cases replay those
recipe files, plus two written by hand (a bare fibre sum and a knot
surgery of sign ``-``) and one frozen in an older form:
``negative_c1_2_3_nested.txt`` blows up one class per nested ``blow_up``
node, without the ``count:`` line that ``construct`` writes today.  In an argument, ``{recipe}`` stands for a fresh
output path and ``{recipes}`` for the stored recipe directory.
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
