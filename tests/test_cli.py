import itertools
import sys
import tracemalloc
from pathlib import Path

import pytest

from symgeo import cli, geography
from symgeo.cli import run_command
from symgeo.errors import ConstructionError
from symgeo.manifolds import derived_invariants

GOLDEN_RECIPES = Path(__file__).parent / "golden" / "recipes"
BARLOW_ROW_D3_M2 = "3,2,4,10,42,18,5,9,-22"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_run(capsys, *argv):
    """Exit code, standard output and tracemalloc peak of one command."""
    tracemalloc.start()
    try:
        code = run_command(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().out, peak


class TestTables:
    def test_barlow_has_nine_exact_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "barlow")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "# barlow"
        assert len(lines) == 11
        assert BARLOW_ROW_D3_M2 in lines
        assert lines[-1] == "6,6,6,35,276,216,41,81,-112"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "tables", "--which", "both")
        _, second, _ = run(capsys, "tables", "--which", "both")
        assert first == second
        assert first.count("# ") == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(capsys, "tables", "--which", "leepark", "--out", str(target))
        assert code == 0 and out == ""
        body = target.read_text(encoding="utf-8")
        assert "6,6,6,35,480,432,76,151,-176" in body


class TestQset:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "qset", "45", "45,15,9,5")
        assert code == 0 and out.strip() == "45 15 9 5 3 1"

    def test_invalid_list(self, capsys):
        code, _, err = run(capsys, "qset", "6", "6,3")
        assert code == 2 and "invalid divisor list" in err


class TestConstruct:
    def test_homotopy_elliptic(self, capsys):
        code, out, _ = run(capsys, "construct", "homotopy_elliptic", "4", "2")
        assert code == 0
        assert "chi_h: 4" in out and "c1_sq: 0" in out
        assert "divisibility: 2" in out and "certified: true" in out
        assert "validation: VALID" in out

    def test_writes_recipe(self, capsys, tmp_path):
        target = tmp_path / "r.txt"
        code, _, _ = run(capsys, "construct", "homotopy_elliptic", "5", "5",
                         "--recipe", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("version: 1")

    def test_certifies_the_canonical_class_once(self, capsys, monkeypatch):
        # The printed certificate is the one validation decided with, and
        # validation pairs K with the stored witnesses once.
        from symgeo import geography

        decided, paired = [], []
        decide, pair = geography._certificate, geography.witness_dots
        monkeypatch.setattr(
            geography, "_certificate", lambda m, lo, up: decided.append(m) or decide(m, lo, up)
        )
        monkeypatch.setattr(
            geography, "witness_dots", lambda items, k: paired.append(items) or pair(items, k)
        )
        code, out, _ = run(capsys, "construct", "homotopy_elliptic", "4", "2")
        assert code == 0 and "divisibility: 2" in out
        assert len(decided) == 1
        assert paired == [decided[0].witness_items]

    def test_parameter_error(self, capsys):
        code, _, err = run(capsys, "construct", "homotopy_elliptic", "3", "2")
        assert code == 2 and "spin parity obstruction" in err

    def test_unknown_constructor(self, capsys):
        code, _, err = run(capsys, "construct", "octonion_surface")
        assert code == 2

    @pytest.mark.parametrize("name, k", [
        ("homotopy_elliptic", 2), ("spin_surface", 3), ("nonspin_surface", 3),
        ("negative_c1", 2), ("elliptic_surface", 3), ("knot_product", 1),
        ("surface_bundle_Y", 2), ("singular_double_cover", 2),
    ])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_integer_constructor_parameter_count(self, capsys, name, k, extra):
        params = ["1"] * (k + extra)
        code, out, err = run(capsys, "construct", name, *params)
        assert (code, out, err) == (2, "", f"{name} needs {k} integer parameters\n")

    @pytest.mark.parametrize("argv, message", [
        # An operation with inputs is a recipe op, not a CLI constructor.
        (("fibre_sum", "2"), "unknown constructor 'fibre_sum'"),
        (("catalog",), "catalog needs an entry name"),
    ])
    def test_usage_messages(self, capsys, argv, message):
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out, err) == (2, "", message + "\n")

    def test_catalog_rejects_extra_parameter(self, capsys):
        code, out, err = run(capsys, "construct", "catalog", "barlow", "7")
        assert code == 2 and out == ""
        assert "catalog entry 'barlow' takes parameters ()" in err

    def test_cover_of_parametrized_base(self, capsys):
        code, out, _ = run(
            capsys, "construct", "pluricanonical_cover", "godeaux_like", "2", "1", "3", "2"
        )
        assert code == 0
        assert "divisibility: 3" in out and "certified: true" in out

    def test_cover_of_divisible_base(self, capsys):
        # The base has K = 2A, so the cover's K = 3 phi*K = 6 phi*A.
        code, out, _ = run(
            capsys, "construct", "pluricanonical_cover", "horikawa_spin", "1", "3", "2"
        )
        assert code == 0
        assert "divisibility: 6" in out and "spin: true" in out
        assert "certified: true" in out and "validation: VALID" in out

    def test_cover_of_base_with_open_divisibility(self, capsys):
        # persson's K_M is not known primitive, so its divisibility (1 or 2)
        # is open, and the cover's (3 or 6) must stay open too.
        code, out, _ = run(capsys, "construct", "catalog", "persson", "4", "4")
        assert code == 0 and "certified: false" in out
        code, out, _ = run(
            capsys, "construct", "pluricanonical_cover", "persson", "4", "4", "3", "2"
        )
        assert code == 0
        assert "divisibility: 3" in out and "certified: false" in out
        assert "validation: VALID" in out

    def test_unserializable_recipe_prints_nothing(self, capsys, tmp_path):
        # A recipe that cannot be written (here, into a missing directory)
        # must fail the command before it prints a descriptor.
        target = tmp_path / "missing" / "r.txt"
        code, out, err = run(capsys, "construct", "negative_c1", "2", "3",
                             "--recipe", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert not target.parent.exists()

    def test_many_blow_ups_write_and_verify(self, capsys, tmp_path):
        # r blow-ups are one recipe node, so r >= 64 (the nesting cap) is
        # no limit.
        target = tmp_path / "r.txt"
        code, built, _ = run(capsys, "construct", "negative_c1", "2", "64",
                             "--recipe", str(target))
        assert code == 0
        assert "count: 64\n" in target.read_text(encoding="utf-8")
        code, replayed, _ = run(capsys, "verify", str(target))
        assert code == 0
        # Only the constructor and params lines differ.
        assert replayed.splitlines()[2:] == built.splitlines()[2:]
        assert "validation: VALID" in replayed

    def test_inadmissible_blow_up_count(self, capsys):
        code, out, _ = run(capsys, "construct", "negative_c1", "2", "0")
        assert code == 2 and out == ""

    def test_family(self, capsys):
        code, out, _ = run(
            capsys, "construct", "inequivalent_family", "45", "45,15,9,5",
            "c1sq_zero", "7",
        )
        assert code == 0
        assert "q_set: 45 15 9 5 3 1" in out
        assert "divisibilities: 45 15 9 5 3 1" in out
        assert out.count("pattern ") == 8

    @pytest.mark.parametrize("big_n", [1, 5, 9])
    @pytest.mark.parametrize("regime", ["c1sq_zero", "spin_positive", "nonspin_positive"])
    def test_family_pattern_lines(self, capsys, regime, big_n):
        # Each pattern line against its class certified afresh: sign k of
        # the pattern is "-" exactly when bit k of its mask is set.
        if regime == "c1sq_zero":
            d, tail, params = 3, [1] * big_n, {"n": 2 * big_n + 1}
        elif regime == "spin_positive":
            d, tail, params = 8, [(2, 4, 8)[i % 3] for i in range(big_n)], {
                "m": (3 * big_n + 3) // 2, "t": 1}
        else:
            d, tail, params = 5, [(1, 5)[i % 2] for i in range(big_n)], {
                "m": 2 * big_n + 2, "t": 1}
        divisors = [d] + tail
        code, out, _ = run(
            capsys, "construct", "inequivalent_family", str(d), ",".join(map(str, divisors)),
            regime, *map(str, params.values()),
        )
        res = geography.inequivalent_family(d, divisors, regime, **params)
        expected = []
        for mask, vec in enumerate(res.canonical_classes):
            cert = geography.certify_class(res.descriptor, vec)
            signs = "".join("-" if mask >> bit & 1 else "+" for bit in range(big_n))
            expected.append(
                f"pattern {signs}: divisibility {cert.value} certified {str(cert.certified).lower()}"
            )
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("pattern ")] == expected

    def test_family_pattern_lines_are_streamed(self, monkeypatch):
        # The 4096 pattern lines go to a writer that keeps nothing, so the
        # traced peak shows whether the 2^12 patterns are held at once.
        lines = []

        class Discard:
            def write(self, text):
                lines.append(text.count("\npattern ") + text.startswith("pattern "))
                return len(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        argv = ["construct", "inequivalent_family", "3", "3" + ",1" * 12, "c1sq_zero", "26"]
        tracemalloc.start()
        try:
            code = run_command(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sum(lines) == 4096
        assert peak <= 300_000

    def test_family_c1sq_zero_takes_no_t(self, capsys):
        code, out, err = run(
            capsys, "construct", "inequivalent_family", "15", "15,5,3", "c1sq_zero", "5", "9"
        )
        assert code == 2 and out == ""
        assert err.startswith("usage: construct inequivalent_family")


class TestSizeBudget:
    """Over-budget input exits 2 with nothing on standard output, having
    allocated next to nothing.  Sizes are predicted, never built."""

    @pytest.mark.parametrize("argv", [
        "construct negative_c1 1 100000000",         # 10^8 blow-ups
        "construct spin_surface 1000 1 1000",        # about 10^9 split classes
        "construct elliptic_surface 1000000000 1 1",  # 4 * 10^9 nucleus classes
        "construct surface_bundle_Y 100000 100000",  # about 4 * 10^10 classes
        "scan --regime negative_c1 --n 1:100000 --r 1:100000",  # 10^10 points
        "construct inequivalent_family 3 3" + ",1" * 13 + " c1sq_zero 27",  # 2^13 patterns
    ])
    def test_exits_2_before_allocating(self, capsys, argv):
        code, out, peak = traced_run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert peak < 1 << 20

    def test_recipe_count_is_checked(self, capsys, tmp_path):
        text = (GOLDEN_RECIPES / "negative_c1_2_3.txt").read_text(encoding="utf-8")
        target = tmp_path / "r.txt"
        target.write_text(text.replace("count: 3\n", "count: 100000000\n"), encoding="utf-8")
        code, out, peak = traced_run(capsys, "verify", str(target))
        assert (code, out) == (2, "")
        assert peak < 1 << 20

    def test_scan_point_count_is_checked_before_any_build(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 4)
        code, out, _ = run(capsys, "scan", "--regime", "negative_c1", "--n", "1:2", "--r", "1:2")
        assert code == 0 and len(out.splitlines()) == 5
        monkeypatch.setattr(geography, "negative_c1", None)  # any build would fail
        code, out, err = run(capsys, "scan", "--regime", "negative_c1", "--n", "1:2", "--r", "1:3")
        assert (code, out) == (2, "") and "more than 4 points" in err

    def test_sign_pattern_count_is_checked_before_any_build(self, capsys, monkeypatch):
        monkeypatch.setattr(geography, "MAX_SIGN_PATTERNS", 4)
        code, out, _ = run(
            capsys, "construct", "inequivalent_family", "3", "3,1,1", "c1sq_zero", "5"
        )
        assert code == 0 and out.count("\npattern ") == 4
        monkeypatch.setattr(geography, "elliptic_surface", None)  # any build would fail
        code, out, err = run(
            capsys, "construct", "inequivalent_family", "3", "3,1,1,1", "c1sq_zero", "7"
        )
        assert (code, out) == (2, "") and "8 sign patterns exceed the budget of 4" in err


class TestVerify:
    def test_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "r.txt"
        run(capsys, "construct", "nonspin_surface", "3", "2", "1", "--recipe", str(target))
        code, out, _ = run(capsys, "verify", str(target))
        assert code == 0
        assert "c1_sq: 72" in out and "validation: VALID" in out

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("version: 1\nop: wizardry\n", encoding="utf-8")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "unknown operation" in err

    @pytest.mark.parametrize("op, body", [
        ("homotopy_elliptic", "n: 4\nd: 2\n"),
        ("spin_surface", "d: 2\nm: 1\nt: 1\n"),
        ("nonspin_surface", "d: 3\nn: 2\nt: 1\n"),
        ("negative_c1", "n: 1\nr: 1\n"),
    ])
    def test_existence_constructors_are_not_recipe_operations(self, capsys, tmp_path, op,
                                                              body):
        # The CLI builds them, but a recipe replays only the operations
        # their results are made of.
        path = tmp_path / "r.txt"
        path.write_text(f"version: 1\nop: {op}\n{body}", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "") and f"unknown operation {op!r}" in err

    @pytest.mark.parametrize(
        "body,expected",
        [
            ("name: horikawa_spin\nk_sq: 3\n", "takes parameters (r), got (k_sq)"),
            ("name: barlow\nr: 3\n", "takes parameters (), got (r)"),
        ],
    )
    def test_catalog_parameter_names_checked(self, capsys, tmp_path, body, expected):
        bad = tmp_path / "bad.txt"
        bad.write_text("version: 1\nop: catalog\n" + body, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert expected in err

    @pytest.mark.parametrize(
        "recipe,old,new,expected",
        [
            ("fibre_sum_e2_e1", "sign_m: +", "sign_m: x", "sign must be + or -"),
            ("fibre_sum_e2_e1", "genus: 1", "genus: -1", "genus must be non-negative"),
            ("fibre_sum_e2_e1", "genus: 1", "genus: 5", "violates the adjunction identity"),
            ("knot_surgery_minus", "sign: -", "sign: x", "sign must be + or -"),
            ("negative_c1_2_3", "count: 3", "count: 0", "count must be positive"),
            ("negative_c1_2_3", "count: 3", "count: -1", "count must be positive"),
        ],
    )
    def test_surface_parameters_checked(self, capsys, tmp_path, recipe, old, new, expected):
        # The parser takes any string sign and any integer genus or count;
        # the operation itself rejects them.
        text = (GOLDEN_RECIPES / f"{recipe}.txt").read_text(encoding="utf-8")
        assert text.count(f"\n{old}\n") == 1
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert expected in err

    def test_over_long_integer_exits_2_with_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        bad.write_text(f"version: 1\nop: knot_product\nh: {digits}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, "") and "line 3: integer has more digits" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_deleted_gating_note_rejected(self, capsys, tmp_path):
        # No check reads the markers, yet a file that drops one does not replay.
        target = tmp_path / "r.txt"
        run(capsys, "construct", "spin_surface", "4", "2", "2", "--recipe", str(target))
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if line.strip() != "note: full-canonical"]
        assert len(kept) < len(lines)
        target.write_text("".join(kept), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(target))
        assert code == 2 and out == ""
        assert "gating notes" in err

    def test_added_gating_note_rejected(self, capsys, tmp_path):
        target = tmp_path / "r.txt"
        run(capsys, "construct", "elliptic_surface", "2", "1", "1", "--recipe", str(target))
        text = target.read_text(encoding="utf-8")
        target.write_text(
            text.replace("q: 1\n", "q: 1\nnote: pi1-normally-generated-by:f\n", 1),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "verify", str(target))
        assert code == 2 and out == ""
        assert "pi1-normally-generated-by:f" in err


class TestScan:
    def test_csv_shape_and_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--regime", "homotopy_elliptic",
                           "--n", "1:3", "--d", "1:2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "constructor,params,chi_h,c1_sq,e,sigma,spin,divisibility,certified"
        assert "homotopy_elliptic,n=2;d=2,2,0,24,-16,true,2,true" in lines
        # The odd chi_h / even divisibility points are skipped.
        assert not any("n=1;d=2" in line or "n=3;d=2" in line for line in lines)

    def test_rows_reverify_from_recipes(self, capsys, tmp_path):
        rdir = tmp_path / "recipes"
        code, out, _ = run(capsys, "scan", "--regime", "nonspin", "--d", "1:3",
                           "--n", "2:3", "--t", "1:1", "--recipes", str(rdir))
        assert code == 0
        rows = {tuple(line.split(",")[2:]) for line in out.strip().splitlines()[1:]}
        reverified = set()
        for path in sorted(rdir.iterdir()):
            code2, out2, _ = run(capsys, "verify", str(path))
            assert code2 == 0
            fields = dict(
                line.split(": ", 1) for line in out2.strip().splitlines() if ": " in line
            )
            reverified.add(
                (fields["chi_h"], fields["c1_sq"], fields["e"], fields["sigma"],
                 fields["spin"], fields["divisibility"], fields["certified"])
            )
        assert rows == reverified

    def test_negative_regime(self, capsys):
        code, out, _ = run(capsys, "scan", "--regime", "negative_c1",
                           "--n", "2:2", "--r", "3:3")
        assert code == 0
        assert "negative_c1,n=2;r=3,2,-3,27,-19,false,1,true" in out

    @pytest.mark.parametrize("value", ["-1:3", "-3:-1", "-2"])
    def test_a_negative_range_is_a_value(self, capsys, value):
        # A range that starts below 0 may follow its option as the next
        # word, as a negative number may; the rows are those of --n=value.
        spaced = run(capsys, "scan", "--regime", "negative_c1", "--n", value, "--r", "1")
        joined = run(capsys, "scan", "--regime", "negative_c1", f"--n={value}", "--r", "1")
        assert spaced == joined and spaced[0] == 0 and spaced[1].startswith("constructor,")

    def test_negative_regime_recipes_past_the_nesting_cap(self, capsys, tmp_path):
        rdir = tmp_path / "recipes"
        code, out, _ = run(capsys, "scan", "--regime", "negative_c1",
                           "--n", "1:2", "--r", "60:70", "--recipes", str(rdir))
        assert code == 0
        paths = sorted(rdir.iterdir())
        assert len(paths) == len(out.strip().splitlines()) - 1 == 22
        for path in paths:
            code, verified, _ = run(capsys, "verify", str(path))
            assert code == 0 and "validation: VALID" in verified, path.name

    @pytest.mark.parametrize("regime, constructor, names", [
        ("homotopy_elliptic", "homotopy_elliptic", "nd"),
        ("spin", "spin_surface", "dmt"),
        ("nonspin", "nonspin_surface", "dnt"),
        ("negative_c1", "negative_c1", "nr"),
    ])
    def test_rows_are_the_points_the_constructor_builds(self, capsys, regime, constructor,
                                                        names):
        # Every range holds negative values and 0; a row is printed exactly
        # where the constructor builds, in the constructor's parameter order.
        ranges = {"n": (-1, 3), "d": (-1, 4), "m": (-1, 1), "t": (-1, 1), "r": (-1, 2)}
        argv = ["scan", "--regime", regime]
        for p, (lo, hi) in ranges.items():
            argv.append(f"--{p}={lo}:{hi}")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected = []
        for values in itertools.product(*(range(ranges[p][0], ranges[p][1] + 1) for p in names)):
            try:
                m = getattr(geography, constructor)(*values)
            except ConstructionError:
                continue
            inv = derived_invariants(m)
            params = ";".join(f"{p}={v}" for p, v in zip(names, values))
            expected.append(f"{constructor},{params},{inv.chi_h},{inv.c1_squared},{m.e},{m.sigma}")
        rows = [",".join(line.split(",")[:6]) for line in out.strip().splitlines()[1:]]
        assert rows == expected and expected

    def test_failure_inside_a_build_exits_2(self, capsys, monkeypatch):
        # Only a rejected parameter skips a point; any other construction
        # error stops the scan.  The constructor is looked up at call time.
        def broken(d, m, t):
            raise ConstructionError("broken build")
        monkeypatch.setattr(geography, "spin_surface", broken)
        code, out, err = run(capsys, "scan", "--regime", "spin", "--d", "2", "--m", "1",
                             "--t", "1")
        assert (code, out) == (2, "") and "broken build" in err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "scan", "--regime", "spin", "--d", "2:4",
                          "--m", "1:2", "--t", "1:2")
        _, second, _ = run(capsys, "scan", "--regime", "spin", "--d", "2:4",
                           "--m", "1:2", "--t", "1:2")
        assert first == second


class TestPhi:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "phi", "--m", "2", "--d", "3", "11", "1")
        assert code == 0 and out.strip() == "42 18"

    def test_inverse(self, capsys):
        code, out, _ = run(capsys, "phi", "--m", "2", "--d", "3", "--inverse", "42", "18")
        assert code == 0 and out.strip() == "11 1"

    def test_inverse_outside_image(self, capsys):
        code, _, err = run(capsys, "phi", "--m", "2", "--d", "3", "--inverse", "43", "18")
        assert code == 2 and "not in the image" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transmogrify")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out == cli.build_parser().format_help()


class TestSharedParser:
    def test_run_command_builds_no_parser(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("run_command built a parser")

        monkeypatch.setattr(cli, "build_parser", fail)
        code, out, _ = run(capsys, "qset", "45", "45,15,9,5")
        assert code == 0 and out == "45 15 9 5 3 1\n"

    def test_usage_errors_leave_the_parser_unchanged(self, capsys):
        argv = ("construct", "homotopy_elliptic", "4", "2")
        alone = run(capsys, *argv)
        assert run(capsys, "construct")[0] == 2
        assert run(capsys, "scan", "--regime", "bogus")[0] == 2
        assert run(capsys, *argv) == alone


class TestCallTimeLookup:
    def test_every_caller_calls_the_module_attribute(self, capsys, monkeypatch, tmp_path):
        # A wrapper installed on a constructor's module attribute, as the
        # benchmark's tracer installs one, sees each call made through the
        # constructor table; none calls a function captured at import.
        from symgeo import manifolds

        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(geography, "spin_surface")
        counting(manifolds, "elliptic_surface")
        assert run(capsys, "construct", "spin_surface", "2", "1", "1")[0] == 0
        assert calls == ["spin_surface"]
        calls.clear()
        assert geography.realizable(6, 32, 4).status == "yes"
        assert calls == ["spin_surface"]
        calls.clear()
        recipe = tmp_path / "e.txt"
        assert run(capsys, "construct", "elliptic_surface", "2", "1", "1",
                   "--recipe", str(recipe))[0] == 0
        assert calls == ["elliptic_surface"]
        calls.clear()
        assert run(capsys, "verify", str(recipe))[0] == 0
        assert calls == ["elliptic_surface"]
