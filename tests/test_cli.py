"""Command-line surface: exit codes, stdout contracts, JSON pipelines."""

import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from packpoly import cantor1, cantor2, pack_m
from packpoly.cli import _build_parser, cli_dispatch

# Without an installed console script, run the package from this checkout.
PACKPOLY = shutil.which("packpoly")
COMMAND = [PACKPOLY] if PACKPOLY else [sys.executable, "-m", "packpoly"]
SRC = str(Path(__file__).resolve().parent.parent / "src")
PROC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv, stdin=None):
    proc = subprocess.run(
        [*COMMAND, *argv], capture_output=True, text=True, input=stdin, env=PROC_ENV
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestPairingCommands:
    def test_two_variable_round_trips(self, capsys):
        rng = random.Random(5)
        for _ in range(150):
            x, y = rng.randint(0, 10**6), rng.randint(0, 10**6)
            variant = rng.choice(["c1", "c2"])
            code, out, _ = run_cli(capsys, "pack2", "--variant", variant, str(x), str(y))
            assert code == 0
            n = int(out)
            oracle = cantor1 if variant == "c1" else cantor2
            assert n == oracle(x, y)
            code, out, _ = run_cli(capsys, "unpack2", "--variant", variant, str(n))
            assert code == 0
            assert tuple(map(int, out.split())) == (x, y)

    def test_multi_dimensional_round_trips(self, capsys):
        rng = random.Random(6)
        for dim in (1, 2, 3, 4):
            for _ in range(30):
                coords = [rng.randint(0, 10**4) for _ in range(dim)]
                code, out, _ = run_cli(
                    capsys, "pack", "--dim", str(dim), *map(str, coords)
                )
                assert code == 0
                assert int(out) == pack_m(coords)
                code, out, _ = run_cli(capsys, "unpack", "--dim", str(dim), out.strip())
                assert code == 0
                assert list(map(int, out.split())) == coords

    def test_huge_inputs_survive_the_text_surface(self, capsys):
        x, y = 2**200 + 17, 3**127
        code, out, _ = run_cli(capsys, "pack2", str(x), str(y))
        assert code == 0
        code, out, _ = run_cli(capsys, "unpack2", out.strip())
        assert tuple(map(int, out.split())) == (x, y)

    def test_coordinate_count_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "pack", "--dim", "3", "1", "2")
        assert code == 2
        assert "expected 3" in err

    def test_negative_coordinate_rejected(self, capsys):
        code, _, err = run_cli(capsys, "pack2", "--", "-1", "0")
        assert code == 2


class TestClassifyCommand:
    def test_confirmations_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1", "1", "1", "1", "3", "0")
        assert (code, out.strip()) == (0, "IsCantor1")
        code, out, _ = run_cli(capsys, "classify", "1", "1", "1", "3", "1", "0")
        assert (code, out.strip()) == (0, "IsCantor2")

    @pytest.mark.parametrize(
        "coeffs,token",
        [
            (("1", "0", "1", "1", "1", "0"), "ModularGap"),
            (("1", "1", "1", "1", "1", "0"), "Collision"),
            (("1", "1", "1", "1", "3", "2"), "Gap"),
            (("1", "-2", "1", "1", "1", "0"), "StructuralFail"),
        ],
    )
    def test_refutations_exit_one_with_token(self, capsys, coeffs, token):
        code, out, _ = run_cli(capsys, "classify", *coeffs)
        assert code == 1
        assert out.splitlines()[0] == token

    def test_no_quadratic_part_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "0", "0", "0", "2", "4", "1")
        assert code == 2
        assert "refute_linear" in err

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "1", "1", "1")
        assert code == 2

    def test_discriminant_past_the_trial_bound_is_refuted(self, capsys):
        # D = -1000003 * 1000033 has no prime factor below the trial bound
        code, out, err = run_cli(
            capsys, "classify", "1000003", "0", "1000033", "1", "1", "0"
        )
        assert (code, out.splitlines()[0], err) == (1, "ModularGap", "")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_exhausted_search_is_inconclusive(self, capsys, json_flag):
        coeffs = ("1", "1", "1", "10001", "3", "5000")
        code, out, err = run_cli(capsys, "classify", *json_flag, *coeffs)
        assert (code, out, err) == (
            3,
            "",
            "inconclusive: no collision or certified gap within 600 diagonals\n",
        )

    def test_b4_box_output_is_byte_identical(self, capsys):
        # SHA-256 over the 23,680 B=4 candidates (search_quadratics' order)
        # of each exit code and newline, then the `classify --json` stdout;
        # taken at commit 93462c4.
        B = 4
        digest = hashlib.sha256()
        count = 0
        for a, b, c, d, e, f in itertools.product(
            range(B + 1), range(-B, B + 1), range(B + 1),
            range(-B, B + 1), range(-B, B + 1), range(B + 1),
        ):
            if (a, b, c) == (0, 0, 0) or (a - d) % 2 or (c - e) % 2:
                continue
            coeffs = map(str, (a, b, c, d, e, f))
            code, out, _ = run_cli(capsys, "classify", "--json", "--", *coeffs)
            digest.update(f"{code}\n{out}".encode())
            count += 1
        assert count == 23680
        assert digest.hexdigest() == (
            "5ff5f21382ed208839d8737f3bf6df282ee2d66b5085913c87f634a6acdc91d9"
        )


class TestCertificatePipeline:
    def classify_json(self, capsys, *coeffs):
        code, out, _ = run_cli(capsys, "classify", "--json", *coeffs)
        json.loads(out)  # well-formed
        return code, out

    def test_document_round_trip_through_file(self, capsys, tmp_path):
        _, text = self.classify_json(capsys, "1", "0", "1", "1", "1", "0")
        path = tmp_path / "cert.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify-cert", str(path))
        assert (code, out.strip()) == (0, "valid")

    def test_document_round_trip_through_stdin(self, capsys, monkeypatch):
        _, text = self.classify_json(capsys, "1", "1", "1", "1", "3", "0")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "verify-cert", "-")
        assert (code, out.strip()) == (0, "valid")

    def test_single_digit_tampering_flips_the_verdict(self, capsys, monkeypatch):
        _, text = self.classify_json(capsys, "1", "0", "1", "1", "1", "0")
        assert '"s": "8"' in text
        for tampered in (
            text.replace('"s": "8"', '"s": "9"'),
            text.replace('"b": "0"', '"b": "2"'),
            text.replace('"p": "11"', '"p": "13"'),
        ):
            monkeypatch.setattr(sys, "stdin", io.StringIO(tampered))
            code, out, _ = run_cli(capsys, "verify-cert", "-")
            assert code == 1
            assert out.startswith("invalid")

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_non_integer_version_reports_invalid(self, capsys, monkeypatch, version):
        _, text = self.classify_json(capsys, "1", "0", "1", "1", "1", "0")
        assert '"version": 1' in text
        tampered = text.replace('"version": 1', f'"version": {version}')
        monkeypatch.setattr(sys, "stdin", io.StringIO(tampered))
        code, out, _ = run_cli(capsys, "verify-cert", "-")
        assert code == 1
        assert out.startswith("invalid: unsupported document version")

    def test_malformed_document_reports_invalid(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"format": "nope"}'))
        code, out, _ = run_cli(capsys, "verify-cert", "-")
        assert code == 1
        assert out.startswith("invalid")

    def test_deeply_nested_document_reports_invalid(self, capsys, monkeypatch):
        _, text = self.classify_json(capsys, "1", "1", "1", "1", "1", "0")
        document = json.loads(text)
        document["certificate"]["value"] = "@"
        nested = json.dumps(document).replace('"@"', "[" * 100000 + "]" * 100000)
        for stdin in ("[" * 200000, nested):
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            code, out, err = run_cli(capsys, "verify-cert", "-")
            assert (code, out, err) == (1, "invalid: document is nested too deeply\n", "")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify-cert", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err


class TestGapBoxCommand:
    @staticmethod
    def gap_document(box):
        return json.dumps({
            "certificate": {"box_bound": str(box), "kind": "gap", "value": "0"},
            "format": "packing-certificate",
            "subject": {
                "coefficients": dict(zip("abcdef", ["1", "1", "1", "1", "3", "1"])),
                "kind": "quadratic",
            },
            "version": 1,
        })

    def test_huge_claimed_box_verifies_fast(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.gap_document(10**9)))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify-cert", "-")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "valid\n")

    def test_box_below_the_least_box_is_rejected(self, capsys, monkeypatch):
        # 5 is the least box beyond which (1, 1, 1, 1, 3, 1) provably exceeds 0
        for box, expected in ((4, 1), (5, 0)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(self.gap_document(box)))
            code, _, _ = run_cli(capsys, "verify-cert", "-")
            assert code == expected, box


class TestLinearCommand:
    def test_refutation_prints_collision_and_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "refute-linear", "--ell", "5", "--", "3", "-4", "7", "2"
        )
        assert code == 1
        assert out.splitlines()[0] == "Collision"

    def test_json_document_verifies(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "refute-linear", "--json", "--", "1", "2", "0"
        )
        assert code == 1
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run_cli(capsys, "verify-cert", "-")
        assert (code, out.strip()) == (0, "valid")

    def test_too_few_numbers_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "refute-linear", "5", "3")
        assert code == 2


# `sector verify` frontier bounds of F and G, recorded from the CLI, for
# --points 3000 and --points 500; covered_upto is one below each.
SECTOR_VERIFY_GOLDEN = {
    (1, 2): ((1539, 1485), (253, 253)),
    (1, 3): ((1034, 990), (171, 171)),
    (1, 4): ((779, 741), (136, 136)),
    (1, 5): ((629, 595), (105, 105)),
    (1, 6): ((527, 496), (91, 91)),
    (2, 3): ((1024, 1024), (169, 169)),
    (2, 5): ((625, 625), (100, 100)),
    (3, 4): ((782, 782), (144, 117)),
    (3, 7): ((425, 425), (70, 70)),
    (4, 9): ((325, 325), (66, 66)),
    (5, 11): ((286, 286), (55, 55)),
    (4, 13): ((231, 231), (45, 45)),
}


class TestSectorCommands:
    @pytest.mark.parametrize("points", [3000, 500])
    @pytest.mark.parametrize("r,s", list(SECTOR_VERIFY_GOLDEN))
    def test_verify_output_is_pinned(self, capsys, r, s, points):
        frontiers = SECTOR_VERIFY_GOLDEN[(r, s)][0 if points == 3000 else 1]
        expected = "".join(
            f"{label}: injective, every value in [0, {bound - 1}] attained "
            f"exactly once (frontier bound {bound})\n"
            for label, bound in zip("FG", frontiers)
        )
        code, out, _ = run_cli(
            capsys, "sector", "verify", "--r", str(r), "--s", str(s),
            "--points", str(points),
        )
        assert (code, out) == (0, expected)

    def test_verify_output_is_byte_identical(self, capsys):
        # SHA-256 of each exit code and newline, then the stdout, of
        # `sector verify` for every slope of SECTOR_VERIFY_GOLDEN (in its
        # order), variants f, g and both, and five prefix lengths; taken
        # at commit 008cefd.
        digest = hashlib.sha256()
        for r, s in SECTOR_VERIFY_GOLDEN:
            for variant in (["--variant", "f"], ["--variant", "g"], []):
                for points in (1, 2, 57, 500, 3000):
                    code, out, _ = run_cli(
                        capsys, "sector", "verify", "--r", str(r), "--s", str(s),
                        "--points", str(points), *variant,
                    )
                    digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "337356a875c65d61590806416b3c8cf099819db8f76b826c7f28ee52bd2fda39"
        )

    def test_pack_and_unpack_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "sector", "pack", "--r", "1", "--s", "2", "4", "2"
        )
        assert (code, out.strip()) == (0, "5")
        code, out, _ = run_cli(
            capsys, "sector", "unpack", "--r", "1", "--s", "2", "5"
        )
        assert (code, out.strip()) == (0, "4 2")
        code, out, _ = run_cli(
            capsys,
            "sector", "pack", "--r", "2", "--s", "3", "--variant", "g", "7", "4",
        )
        value = out.strip()
        code, out, _ = run_cli(
            capsys, "sector", "unpack", "--r", "2", "--s", "3", "--variant", "g", value
        )
        assert (code, out.strip()) == (0, "7 4")

    def test_point_outside_sector_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sector", "pack", "--r", "1", "--s", "2", "1", "1"
        )
        assert code == 2

    def test_invalid_spec_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "sector", "pack", "--r", "3", "--s", "5", "5", "0"
        )
        assert code == 2

    def test_verify_reports_both_polynomials(self, capsys):
        code, out, _ = run_cli(
            capsys, "sector", "verify", "--r", "1", "--s", "2", "--points", "400"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("F: injective")
        assert lines[1].startswith("G: injective")

    def test_unpack_at_any_size(self, capsys):
        n = "7" * 600
        code, out, _ = run_cli(
            capsys, "sector", "unpack", "--r", "3", "--s", "7", "--variant", "g", n
        )
        assert code == 0
        x, y = out.split()
        code, out, _ = run_cli(
            capsys, "sector", "pack", "--r", "3", "--s", "7", "--variant", "g", x, y
        )
        assert (code, out.strip()) == (0, n)

    def test_verify_single_variant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sector", "verify", "--r", "2", "--s", "5", "--variant", "g",
            "--points", "400",
        )
        assert code == 0
        assert out.splitlines() == [out.strip()]
        assert out.startswith("G: injective")

    def test_verify_needs_a_point(self, capsys):
        code, out, err = run_cli(
            capsys, "sector", "verify", "--r", "1", "--s", "2", "--points", "0"
        )
        assert (code, out, err) == (2, "", "error: need at least one point, got 0\n")


class TestSearchCommand:
    def test_small_bound_finds_nothing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search-quadratics", "--coeff-bound", "1", "--box", "40", "--values", "200",
        )
        assert (code, out.strip()) == (0, "")

    def test_negative_box_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "search-quadratics", "--coeff-bound", "4", "--box", "-5", "--values", "500",
        )
        assert (code, out) == (2, "")
        assert err == "error: region bound must be nonnegative, got -5\n"

    def test_bound_three_finds_both(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search-quadratics", "--coeff-bound", "3", "--box", "60", "--values", "300",
        )
        assert code == 0
        assert out.splitlines() == [
            "1 1 1 1 3 0  IsCantor1",
            "1 1 1 3 1 0  IsCantor2",
        ]

    def test_json_documents_verify(self, capsys):
        from packpoly import document_from_json, verify_document

        code, out, _ = run_cli(
            capsys,
            "search-quadratics",
            "--coeff-bound", "3", "--box", "60", "--values", "300", "--json",
        )
        assert code == 0
        nodes = json.loads(out)
        assert len(nodes) == 2
        for node in nodes:
            subject, cert = document_from_json(json.dumps(node))
            assert verify_document(subject, cert)


class TestNumberTheoryCommands:
    def test_nonresidue_prime_output(self, capsys):
        code, out, _ = run_cli(capsys, "nonresidue-prime", "--", "-1", "8")
        assert (code, out.strip()) == (0, "11")
        code, out, _ = run_cli(capsys, "nonresidue-prime", "2", "8")
        assert (code, out.strip()) == (0, "13")

    def test_discriminant_past_the_trial_bound_gets_a_prime(self, capsys):
        # D = -1000003 * 1000033 has no prime factor below the trial bound
        code, out, err = run_cli(capsys, "nonresidue-prime", "--", "-1000036000099", "8")
        assert (code, out, err) == (0, "11\n", "")
        # the witness prime in classify's certificate for (1000003, 0, 1000033, 1, 1, 0)
        code, out, err = run_cli(
            capsys, "nonresidue-prime", "--", "-1000036000099", "8000024"
        )
        assert (code, out, err) == (0, "8000033\n", "")

    def test_square_discriminant_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "nonresidue-prime", "9", "1")
        assert code == 2

    def test_region_counts_output(self, capsys):
        code, out, _ = run_cli(capsys, "region-counts", "2")
        assert code == 0
        assert out.splitlines() == [
            "N1 100",
            "N2 675",
            "N3 160",
            "N4 207",
            "N5 8",
            "total 1150",
        ]

    def test_region_counts_needs_m_at_least_two(self, capsys):
        code, _, _ = run_cli(capsys, "region-counts", "1")
        assert code == 2


class TestUsageSurface:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_non_integer_token(self, capsys):
        assert run_cli(capsys, "pack2", "four", "2")[0] == 2

    def test_cached_parser_carries_no_state(self, capsys):
        # the parser is built once per process; no call may see another's options
        calls = [
            ("classify", "--json", "1", "0", "1", "1", "1", "0"),
            ("classify", "1", "0", "1", "1", "1", "0"),
            ("classify", "1", "1", "1"),
            ("--help",),
            ("sector", "unpack", "--r", "2", "--s", "3", "--variant", "g", "11"),
        ]
        alone = []
        for argv in calls:
            _build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        _build_parser.cache_clear()
        in_sequence = [run_cli(capsys, *argv) for argv in calls]
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [1, 1, 2, 0, 0]
        assert alone[1][1].startswith("ModularGap\n")
        assert alone[4][1] == "7 4\n"


class TestInstalledExecutable:
    def test_round_trip(self):
        code, out, _ = run_proc("pack2", "--variant", "c2", "90", "7")
        assert code == 0
        code, out, _ = run_proc("unpack2", "--variant", "c2", out.strip())
        assert (code, out.strip()) == (0, "90 7")

    def test_huge_round_trip(self):
        x, y = 2**200 + 3, 2**199 + 11
        code, out, _ = run_proc("pack2", str(x), str(y))
        assert code == 0
        code, out, _ = run_proc("unpack2", out.strip())
        assert tuple(map(int, out.split())) == (x, y)

    def test_round_trip_past_the_int_str_limit(self):
        x, y = "1" + "0" * 4999 + "7", "3" * 4400
        code, out, _ = run_proc("pack2", x, y)
        assert code == 0 and len(out.strip()) > 9000
        code, out, _ = run_proc("unpack2", out.strip())
        assert (code, out) == (0, f"{x} {y}\n")

    def test_classification_exit_codes(self):
        assert run_proc("classify", "1", "1", "1", "1", "3", "0")[0] == 0
        assert run_proc("classify", "1", "0", "1", "1", "1", "0")[0] == 1
        assert run_proc("classify", "1", "1", "1")[0] == 2

    def test_certificate_pipe(self):
        code, text, _ = run_proc("classify", "--json", "1", "0", "1", "1", "1", "0")
        assert code == 1
        code, out, _ = run_proc("verify-cert", "-", stdin=text)
        assert (code, out.strip()) == (0, "valid")
        tampered = text.replace('"s": "8"', '"s": "3"')
        code, out, _ = run_proc("verify-cert", "-", stdin=tampered)
        assert code == 1
        assert out.startswith("invalid")

    def test_module_invocation_matches(self):
        proc = subprocess.run(
            [sys.executable, "-m", "packpoly", "pack2", "90", "7"],
            capture_output=True,
            text=True,
            env=PROC_ENV,
        )
        assert proc.returncode == 0
        code, out, _ = run_proc("pack2", "90", "7")
        assert proc.stdout == out

    def test_sector_verify_and_unpack(self):
        code, out, _ = run_proc(
            "sector", "verify", "--r", "3", "--s", "4", "--points", "500"
        )
        assert code == 0
        assert "injective" in out
        code, out, _ = run_proc("sector", "unpack", "--r", "1", "--s", "2", "2")
        assert (code, out.strip()) == (0, "2 1")

    def test_region_counts_and_prime(self):
        assert run_proc("region-counts", "2")[1].splitlines()[0] == "N1 100"
        assert run_proc("nonresidue-prime", "--", "-1", "8")[1].strip() == "11"
