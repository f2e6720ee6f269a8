import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import urllib.error
import urllib.request
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiderange.bigint import to_decimal
from multiderange import cli
from multiderange.cli import build_parser, decimal_approx, main
from multiderange.counting import classic_derangement, uniform_count, uniform_prefix
from multiderange.recurrences import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_ORDER,
    guess_and_extend_uniform,
    recurrence_to_json,
    uniform_table,
)
from multiderange.sequences import (
    SequenceSlice,
    format_bfile,
    format_plain,
    parse_bfile,
    parse_terms_file,
)

D52 = "29672484407795138298279444403649511427278111361911893663894333196201"
DECK = "1493804444499093354916284290188948031229880469556"
COMMANDS = ("derange", "multi", "deck", "prob", "table", "guess", "oeis-check")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_env(**env):
    """os.environ with env added and the package's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))


def run_python(*argv, stdout=subprocess.PIPE, **env):
    """`python ...` in a fresh interpreter that imports the package from src,
    with env added to the environment; stdout is captured unless given."""
    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=python_env(**env), timeout=60,
    )


def run_module(*argv):
    """`python -m multiderange ...` in a fresh interpreter."""
    return run_python("-m", "multiderange", *argv)


class TestDecimalApprox:
    def test_repeating_ninth(self):
        assert decimal_approx(Fraction(1, 9)) == "0.111111111111111"

    def test_exact_half(self):
        assert decimal_approx(Fraction(1, 2)) == "0.5"

    def test_zero(self):
        assert decimal_approx(Fraction(0)) == "0"

    def test_rounding(self):
        assert decimal_approx(Fraction(2, 3)) == "0.666666666666667"
        # exact half-way ties round to the even digit
        assert decimal_approx(Fraction(1234567890123445, 10**16)) == "0.123456789012344"
        assert decimal_approx(Fraction(1234567890123455, 10**16)) == "0.123456789012346"

    def test_integers(self):
        assert decimal_approx(Fraction(10**20)) == "100000000000000000000"
        assert decimal_approx(Fraction(10**60)) == "1" + "0" * 60
        assert decimal_approx(Fraction(10**61)) == "1e+61"

    def test_negative(self):
        assert decimal_approx(Fraction(-1, 8)) == "-0.125"

    def test_tiny_goes_scientific(self):
        assert decimal_approx(Fraction(1, 10**70)) == "1e-70"
        assert decimal_approx(Fraction(1, 10**61)) == "1e-61"

    def test_fifteen_significant_digits(self):
        assert decimal_approx(Fraction(123456789123456789, 10**18)) == "0.123456789123457"


class TestDerange:
    def test_card_deck(self, capsys):
        code, out, _ = run_cli(capsys, "derange", "52")
        assert code == 0
        assert out == D52 + "\n"

    def test_one(self, capsys):
        assert run_cli(capsys, "derange", "1")[1] == "0\n"

    def test_zero(self, capsys):
        assert run_cli(capsys, "derange", "0")[1] == "1\n"

    def test_negative_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["derange", "-5"])
        assert info.value.code == 2

    @pytest.mark.parametrize("text", ["1_0", "\u0663", " 5", "5 ", "5.0", ""])
    def test_integer_outside_the_bfile_grammar_is_usage_error(self, capsys, text):
        # int() takes the first four (10, 3, 5, 5); a b-file line does not.
        with pytest.raises(SystemExit) as info:
            main(["derange", text])
        assert info.value.code == 2
        assert f"invalid int value: {text!r}" in capsys.readouterr().err

    def test_signed_integer_is_the_bfile_grammar(self, capsys):
        assert run_cli(capsys, "derange", "+5")[1] == "44\n"

    def test_bfile_format(self, capsys):
        assert run_cli(capsys, "derange", "6", "--format", "bfile")[1] == "6 265\n"

    def test_structured(self, capsys):
        _, out, _ = run_cli(capsys, "derange", "4", "--format", "structured")
        assert json.loads(out) == {"n": 4, "value": "9"}


class TestMulti:
    def test_three_pairs(self, capsys):
        assert run_cli(capsys, "multi", "2", "2", "2")[1] == "10\n"

    def test_deck_multiset(self, capsys):
        assert run_cli(capsys, "multi", *["4"] * 13)[1] == DECK + "\n"

    def test_single_symbol(self, capsys):
        assert run_cli(capsys, "multi", "5")[1] == "0\n"

    def test_nonpositive_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["multi", "0", "2"])
        assert info.value.code == 2

    def test_underscore_digits_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["multi", "2", "1_0"])
        assert info.value.code == 2


class TestDeck:
    def test_plain(self, capsys):
        assert run_cli(capsys, "deck")[1] == DECK + "\n"

    def test_bfile_indexes_by_denominations(self, capsys):
        assert run_cli(capsys, "deck", "--format", "bfile")[1] == f"13 {DECK}\n"

    def test_structured_carries_multiset(self, capsys):
        _, out, _ = run_cli(capsys, "deck", "--format", "structured")
        document = json.loads(out)
        assert document["multiset"] == [4] * 13
        assert document["value"] == DECK

    @pytest.mark.parametrize("fmt", ["plain", "bfile", "structured"])
    def test_matches_multi(self, capsys, fmt):
        deck_out = run_cli(capsys, "deck", "--format", fmt)[1]
        multi_out = run_cli(capsys, "multi", *["4"] * 13, "--format", fmt)[1]
        assert deck_out == multi_out


class TestProb:
    def test_three_pairs(self, capsys):
        assert run_cli(capsys, "prob", "2", "2", "2")[1] == "1/9 ≈ 0.111111111111111\n"

    def test_two_distinct(self, capsys):
        assert run_cli(capsys, "prob", "1", "1")[1] == "1/2 ≈ 0.5\n"

    def test_single_symbol(self, capsys):
        assert run_cli(capsys, "prob", "3")[1] == "0 ≈ 0\n"

    def test_structured(self, capsys):
        _, out, _ = run_cli(capsys, "prob", "2", "2", "2", "--format", "structured")
        document = json.loads(out)
        assert document["numerator"] == "1"
        assert document["denominator"] == "9"


class TestTable:
    def test_fixed_k_four_reaches_deck_number(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--fixed", "k", "--value", "4", "--upto", "13")
        assert out.splitlines()[-1] == DECK

    def test_fixed_n_two_is_all_ones(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--fixed", "n", "--value", "2", "--upto", "50")
        assert out.splitlines() == ["1"] * 51

    def test_fixed_n_one_extends_unsigned_zeros(self, capsys):
        # guessed as s(n+1) = 0; the extended zeros must not print as -0
        code, out, _ = run_cli(capsys, "table", "--fixed", "n", "--value", "1", "--upto", "100")
        assert code == 0
        assert out == "1\n" + "0\n" * 100

    def test_franel_bfile_line(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--fixed", "n", "--value", "3", "--upto", "10",
            "--format", "bfile",
        )
        assert "4 346" in out.splitlines()

    def test_guessing_path_matches_direct(self, capsys):
        code, guessed, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", "--upto", "120",
            "--seed", "40",
        )
        assert code == 0
        expected = "".join(f"{classic_derangement(n)}\n" for n in range(121))
        assert guessed == expected
        assert '"coeff_polys"' in err  # recurrence serialized on stderr

    def test_direct_only_agrees_with_guessing(self, capsys):
        direct = run_cli(
            capsys, "table", "--fixed", "k", "--value", "2", "--upto", "60",
            "--seed", "61",
        )[1]
        guessed = run_cli(
            capsys, "table", "--fixed", "k", "--value", "2", "--upto", "60",
            "--seed", "40",
        )[1]
        assert direct == guessed

    def test_recurrence_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "rec.json"
        code, _, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", "--upto", "80",
            "--seed", "40", "--recurrence-out", str(out_file),
        )
        assert code == 0
        assert err == ""
        document = json.loads(out_file.read_text())
        assert document["order"] == 2

    def test_unwritable_recurrence_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", "--upto", "80",
            "--seed", "40", "--recurrence-out", str(tmp_path / "missing" / "rec.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ")

    def test_fallback_when_caps_too_small(self, capsys):
        # order-2 target with order capped at 1 cannot be guessed
        code, out, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", "--upto", "60",
            "--seed", "40", "--max-order", "1", "--max-degree", "1",
        )
        assert code == 0
        assert "computing directly" in err
        assert out.splitlines()[-1] == str(classic_derangement(60))

    def test_fallback_continues_the_seed(self, capsys, monkeypatch):
        from multiderange import counting

        calls = []
        count = counting.uniform_count
        monkeypatch.setattr(counting, "uniform_count", lambda n, k: calls.append(k) or count(n, k))
        code, out, err = run_cli(
            capsys, "table", "--fixed", "n", "--value", "3", "--upto", "30",
            "--seed", "25", "--max-order", "1", "--max-degree", "0",
        )
        assert code == 0
        assert "computing directly" in err
        assert calls == list(range(31))  # each term once
        assert out.split() == [str(count(3, k)) for k in range(31)]

    @pytest.mark.parametrize("argv", [
        ("--upto", "80", "--seed", "81"),
        ("--upto", "30", "--seed", "40"),
        ("--upto", "20", "--seed", "5", "--max-order", "1", "--max-degree", "1"),
    ], ids=["direct-only", "upto-below-seed", "seed-grows-into-table"])
    def test_recurrence_out_is_null_when_nothing_is_guessed(self, capsys, tmp_path, argv):
        out_file = tmp_path / "rec.json"
        out_file.write_text('{"stale": true}\n')
        code, out, _ = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", *argv,
            "--recurrence-out", str(out_file),
        )
        assert code == 0
        assert json.loads(out_file.read_text()) is None
        assert out.split() == [str(classic_derangement(n)) for n in range(int(argv[1]) + 1)]

    @pytest.fixture
    def draws(self, monkeypatch):
        """Counts the terms the table draws from the family iterator."""
        from multiderange import counting

        real, drawn = counting.uniform_terms, []

        def counted(direction, value):
            for term in real(direction, value):
                drawn.append(term)
                yield term

        monkeypatch.setattr(counting, "uniform_terms", counted)
        return drawn

    def test_default_seed_grows_once_for_k4(self, capsys, draws):
        argv = ("table", "--fixed", "k", "--value", "4", "--upto", "300")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert len(draws) == 120
        failed, recurrence = err.splitlines()
        # the 50 shown terms cannot fit order 6, degree 7, which needs 72
        assert failed == (
            "guessing failed on 60 seed terms (no recurrence found with order <= 12 and "
            "coefficient degree <= 12; the scan stopped short of the caps for lack of terms); "
            "growing the seed to 120 terms"
        )
        # 120 terms fit the minimal-order shape (5, 10)
        polys = json.loads(recurrence)["coeff_polys"]
        assert (len(polys) - 1, max(map(len, polys)) - 1) == (5, 10)
        assert out == run_cli(capsys, *argv, "--seed", "301")[1]

    def test_k6_grows_to_every_feasible_candidate(self, capsys, draws):
        code, out, err = run_cli(capsys, "table", "--fixed", "k", "--value", "6", "--upto", "250")
        assert code == 0
        assert len(draws) == 201
        assert err.count("guessing failed") == 2
        terms = out.split()
        assert len(terms) == 251
        assert [terms[210], terms[250]] == [str(uniform_count(n, 6)) for n in (210, 250)]

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_tiny_seed_grows_into_the_direct_table(self, capsys, draws, seed):
        code, out, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "2", "--upto", "20", "--seed", seed,
        )
        assert code == 0
        assert len(draws) == 21
        # the seed counts its held-out terms: 13 shown ones plus 10
        assert err.splitlines()[-1] == (
            "guessing failed on 16 seed terms "
            "(need at least 23 terms to attempt a fit, got 16); computing directly"
        )
        assert out.split() == [str(uniform_count(n, 2)) for n in range(21)]

    def test_no_fallback_fails_on_the_first_seed(self, capsys, draws):
        code, out, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "4", "--upto", "300", "--no-fallback",
        )
        assert code == 3
        assert len(draws) == 60
        assert out == ""
        assert err.startswith("error: no recurrence found")
        assert "guessing failed" not in err

    def test_no_fallback_makes_failure_fatal(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", "--upto", "60",
            "--seed", "40", "--max-order", "1", "--max-degree", "1", "--no-fallback",
        )
        assert code == 3
        assert "error" in err

    def test_structured_document(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--fixed", "n", "--value", "3", "--upto", "8",
            "--format", "structured",
        )
        document = json.loads(out)
        assert document["terms"][4] == "346"
        assert document["recurrence"] is None  # direct path inside the seed

    def test_bfile_round_trips_through_parser(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--fixed", "n", "--value", "3", "--upto", "12",
            "--format", "bfile",
        )
        parsed = parse_terms_file(out)
        plain = run_cli(
            capsys, "table", "--fixed", "n", "--value", "3", "--upto", "12",
        )[1]
        assert parsed == SequenceSlice(0, tuple(int(v) for v in plain.split()))


class TestGuessCommand:
    def test_derangement_terms(self, capsys, tmp_path):
        terms_file = tmp_path / "terms.txt"
        terms_file.write_text("".join(f"{classic_derangement(n)}\n" for n in range(30)))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s(n+2) - (n + 1)*s(n+1) - (n + 1)*s(n) = 0"
        assert json.loads(lines[1])["order"] == 2

    def test_all_ones(self, capsys, tmp_path):
        terms_file = tmp_path / "ones.txt"
        terms_file.write_text("1\n" * 20)
        _, out, _ = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert out.splitlines()[0] == "s(n+1) - s(n) = 0"

    def test_insufficient_data_names_minimum(self, capsys, tmp_path):
        terms_file = tmp_path / "short.txt"
        terms_file.write_text("1\n2\n6\n")
        code, out, err = run_cli(
            capsys, "guess", "--terms-file", str(terms_file), "--max-order", "5"
        )
        assert (code, out) == (3, "")
        # a term file has no held-out terms: the count is the file's
        assert err == "error: need at least 13 terms to attempt a fit, got 3\n"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "guess", "--terms-file", str(tmp_path / "nope"))
        assert code == 2

    def test_unparseable_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("one two three\n")
        assert run_cli(capsys, "guess", "--terms-file", str(bad))[0] == 2

    def test_integer_outside_the_grammar_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "underscore.txt"
        bad.write_text("".join(f"{n} {n}\n" for n in range(30)) + "30 3_1\n")
        assert run_cli(capsys, "guess", "--terms-file", str(bad))[0] == 2

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"1\n2\n\xff\n")
        code, _, err = run_cli(capsys, "guess", "--terms-file", str(bad))
        assert code == 2
        assert err.startswith("error: cannot read ")

    def test_lower_order_relation_on_broken_tail_is_not_found(self, capsys, tmp_path):
        terms_file = tmp_path / "broken_tail.txt"
        terms_file.write_text("".join(f"{2**i}\n" for i in range(30)) + "999\n")
        code, out, err = run_cli(
            capsys, "guess", "--terms-file", str(terms_file),
            "--max-order", "2", "--max-degree", "0",
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: no recurrence found with order <= 2 and coefficient degree <= 0\n"
        )

    def test_bfile_input_autodetected(self, capsys, tmp_path):
        terms_file = tmp_path / "terms_b.txt"
        terms_file.write_text("".join(f"{n} {classic_derangement(n)}\n" for n in range(30)))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert code == 0
        assert json.loads(out.splitlines()[1])["order"] == 2


    @pytest.mark.parametrize("offset", [10**30, 2**63 - 10])
    def test_bfile_offset_past_int64(self, capsys, tmp_path, offset):
        terms_file = tmp_path / "rising_b.txt"
        lines, term = [], 1
        for n in range(offset, offset + 30):
            lines.append(f"{n} {term}\n")
            term *= n + 1
        terms_file.write_text("".join(lines))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert code == 0
        assert out.splitlines()[0] == "s(n+1) - (n + 1)*s(n) = 0"

class TestOeisCheck:
    def test_derangements_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A000166", "--fixed", "k", "--value", "1",
            "--count", "20",
        )
        assert code == 0
        assert "match over 20 terms" in out

    def test_deck_column_matches_published_overlap(self, capsys):
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A059074", "--fixed", "k", "--value", "4",
            "--count", "14",
        )
        assert code == 0
        assert "match over 13 terms" in out  # published entries end at n = 12

    def test_malformed_id_rejected_before_network(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oeis-check", "--id", "X123", "--fixed", "k", "--value", "1",
                  "--count", "5"])
        assert info.value.code == 2

    def test_non_ascii_digit_id_is_a_usage_error(self, capsys):
        sequence_id = "A\u0660\u0660\u0660\u0661\u0666\u0666"  # Arabic-Indic 000166
        with pytest.raises(SystemExit) as info:
            main(["oeis-check", "--id", sequence_id, "--fixed", "k", "--value", "1",
                  "--count", "5"])
        assert info.value.code == 2
        assert "malformed sequence id" in capsys.readouterr().err

    def test_corrupted_cache_mismatch_exit(self, capsys, tmp_path):
        corrupted = "".join(
            f"{n} {classic_derangement(n) + (n == 3)}\n" for n in range(10)
        )
        (tmp_path / "b000166.txt").write_text(corrupted)
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A000166", "--fixed", "k", "--value", "1",
            "--count", "10", "--cache-dir", str(tmp_path),
        )
        assert code == 4
        assert "mismatch at n=3" in out

    def test_non_utf8_cache_is_computation_error(self, capsys, tmp_path):
        (tmp_path / "b000166.txt").write_bytes(b"\xff\xfe0 1\n")
        code, out, err = run_cli(
            capsys, "oeis-check", "--id", "A000166", "--fixed", "k", "--value", "1",
            "--count", "5", "--cache-dir", str(tmp_path),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_non_utf8_download_is_computation_error(self, capsys, tmp_path, monkeypatch):
        requests = []

        def urlopen(url, timeout):
            requests.append(url)
            return io.BytesIO(b"\xff0 1\n1 0\n2 1\n")

        monkeypatch.delenv("MULTIDERANGE_OFFLINE", raising=False)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        code, out, err = run_cli(
            capsys, "oeis-check", "--id", "A999991", "--fixed", "k", "--value", "1",
            "--count", "3", "--online", "--cache-dir", str(tmp_path),
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert len(requests) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["cache dir is a file", "cache entry is a directory"])
    def test_unwritable_cache_is_usage_error(self, capsys, tmp_path, monkeypatch, blocked):
        monkeypatch.delenv("MULTIDERANGE_OFFLINE", raising=False)
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda url, timeout: io.BytesIO(b"0 1\n1 0\n2 1\n")
        )
        cache_dir = tmp_path / "cache"
        if blocked == "cache dir is a file":
            cache_dir.write_text("")
        else:
            (cache_dir / "b999991.txt").mkdir(parents=True)
        code, out, err = run_cli(
            capsys, "oeis-check", "--id", "A999991", "--fixed", "k", "--value", "1",
            "--count", "3", "--online", "--cache-dir", str(cache_dir),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot use the OEIS cache {cache_dir}: ")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_unreadable_cache_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # Patched: root reads a file whatever its mode.
        def read_bytes(path):
            raise PermissionError(13, "Permission denied", str(path))

        cached = tmp_path / "b000166.txt"
        cached.write_bytes(b"0 1\n")
        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        code, out, err = run_cli(
            capsys, "oeis-check", "--id", "A000166", "--fixed", "k", "--value", "1",
            "--count", "5", "--cache-dir", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot use the OEIS cache {tmp_path}: "
            f"[Errno 13] Permission denied: '{cached}'\n"
        )

    def test_unknown_remote_id_is_not_found(self, capsys, tmp_path, monkeypatch):
        def urlopen(url, timeout):
            raise urllib.error.HTTPError(url, 404, "Not Found", {}, None)

        monkeypatch.delenv("MULTIDERANGE_OFFLINE", raising=False)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        code, out, err = run_cli(
            capsys, "oeis-check", "--id", "A999991", "--fixed", "k", "--value", "1",
            "--count", "3", "--online", "--cache-dir", str(tmp_path),
        )
        assert code == 3
        assert out == "A999991: not found in the remote database\n"
        assert err == ""

    def test_unknown_uncached_id_reports_offline(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIDERANGE_OEIS_CACHE", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A999990", "--fixed", "k", "--value", "1",
            "--count", "5",
        )
        assert code == 0
        assert "offline" in out

    @pytest.fixture
    def draws(self, monkeypatch):
        """Counts the local terms oeis-check draws from uniform_terms."""
        from multiderange import cli

        real, drawn = cli.uniform_terms, []

        def counted(direction, value):
            for term in real(direction, value):
                drawn.append(term)
                yield term

        monkeypatch.setattr(cli, "uniform_terms", counted)
        return drawn

    def test_long_count_computes_only_the_published_terms(self, capsys, draws):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A059073", "--fixed", "k", "--value", "3",
            "--count", "2000",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == "A059073: match over 13 terms (local offset 0, remote offset 0)\n"
        assert len(draws) == 13
        assert elapsed < 2.0, f"took {elapsed:.2f} s"  # all 2000 terms would take ~30 s

    def test_long_count_offline_computes_nothing(self, capsys, tmp_path, monkeypatch, draws):
        monkeypatch.setenv("MULTIDERANGE_OFFLINE", "1")
        monkeypatch.setenv("MULTIDERANGE_OEIS_CACHE", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A999990", "--fixed", "k", "--value", "3",
            "--count", "2000",
        )
        assert code == 0
        assert out == "A999990: offline (no cached terms; rerun with --online)\n"
        assert draws == []

    def test_structured_report(self, capsys):
        _, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A000459", "--fixed", "k", "--value", "2",
            "--count", "10", "--format", "structured",
        )
        document = json.loads(out)
        assert document["verdict"] == "match"
        assert document["compared"] == 10

    def test_structured_report_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIDERANGE_OFFLINE", "1")
        corrupted = "".join(
            f"{n} {classic_derangement(n) + (n == 3)}\n" for n in range(10)
        )
        (tmp_path / "b000166.txt").write_text(corrupted)
        lines = [
            run_cli(
                capsys, "oeis-check", "--id", sequence_id, "--fixed", "k", "--value", "1",
                "--count", "10", "--cache-dir", str(tmp_path), "--format", "structured",
            )[:2]
            for sequence_id in ("A000166", "A999990")
        ]
        assert lines == [
            (4, '{"compared": 10, "local_offset": 0, "mismatch_index": 3, '
                '"remote_offset": 0, "sequence_id": "A000166", "verdict": "mismatch_at"}\n'),
            (0, '{"compared": 0, "local_offset": 0, "mismatch_index": null, '
                '"remote_offset": null, "sequence_id": "A999990", "verdict": "offline"}\n'),
        ]


class TestGoldenOutput:
    """stdout SHA-256 of the benchmark's three fixed workloads."""

    def test_big_multi(self, capsys):
        code, out, _ = run_cli(capsys, "multi", *["4"] * 500)
        assert code == 0
        assert _sha256(out) == "f545922f6e3e85bd70e37fd9af72acc1c038906733ba8f3473bd7cbdafe5d3c6"

    def test_table_k4(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--fixed", "k", "--value", "4", "--upto", "1000", "--seed", "110"
        )
        assert code == 0
        assert _sha256(out) == "71a72fddabd053f3906cb829e3545767d27f730e22e47d93869577a11700f42f"

    def test_guess_k6(self, capsys, tmp_path):
        terms_file = tmp_path / "k6.txt"
        terms = uniform_prefix("fixed_k", 6, 190)
        terms_file.write_text(format_bfile(SequenceSlice(0, tuple(terms))))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert code == 0
        assert _sha256(out) == "6afb8c9a6d340cd251adfeef02013e72f597a4c5c3bdfb3b6205f822c9329b04"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestDeterminismAndFormats:
    def test_byte_identical_reruns(self, capsys):
        first = run_cli(capsys, "table", "--fixed", "n", "--value", "3", "--upto", "20")
        second = run_cli(capsys, "table", "--fixed", "n", "--value", "3", "--upto", "20")
        assert first == second

    def test_plain_and_bfile_carry_identical_integers(self, capsys):
        plain = run_cli(capsys, "table", "--fixed", "k", "--value", "2", "--upto", "15")[1]
        bfile = run_cli(
            capsys, "table", "--fixed", "k", "--value", "2", "--upto", "15",
            "--format", "bfile",
        )[1]
        assert [int(v) for v in plain.split()] == list(parse_bfile(bfile).terms)


class TestTableTextMatchesIntTerms:
    """The table prints its extended terms from Decimals; the text must be
    exactly that of the int terms guess_and_extend_uniform returns."""

    ARGV = ("table", "--fixed", "k", "--value", "4", "--upto", "300", "--seed", "110")

    @pytest.fixture(scope="class")
    def int_terms(self):
        return guess_and_extend_uniform("fixed_k", 4, 110, 300)

    @pytest.mark.parametrize("fmt", ["plain", "bfile", "structured"])
    def test_same_bytes(self, capsys, int_terms, fmt):
        extended, rec = int_terms
        expected = {
            "plain": format_plain(extended),
            "bfile": format_bfile(extended),
            "structured": json.dumps({
                "fixed": "k",
                "value": 4,
                "offset": 0,
                "terms": [to_decimal(t) for t in extended.terms],
                "recurrence": json.loads(recurrence_to_json(rec)),
            }, sort_keys=True) + "\n",
        }[fmt]
        code, out, err = run_cli(capsys, *self.ARGV, "--format", fmt)
        assert code == 0
        assert out == expected
        assert err == recurrence_to_json(rec) + "\n"


class CharCount(io.TextIOBase):
    """A text stream that keeps nothing and counts the characters written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestStreamedTable:
    """`table` writes its text as it renders it: the output never exists
    whole, and its bytes are those of the one-shot renderers."""

    @pytest.fixture(scope="class")
    def warmed_up(self):
        # A guessed table first, so that the lazy imports (numpy) and the
        # shared parser are in place before anything is traced.
        argv = ["table", "--fixed", "k", "--value", "2", "--upto", "40", "--seed", "25"]
        with contextlib.redirect_stdout(CharCount()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0

    @pytest.mark.parametrize("fmt", ["plain", "bfile", "structured"])
    def test_traced_peak_stays_below_the_text(self, warmed_up, fmt):
        """In every format the traced peak of a 600-term k = 4 table (1.7 MB
        of text) stays below the size of its text: the exact terms, as
        Decimals, take about 0.45 byte per digit, and rendering adds a line
        (or a JSON piece) and one write of 64 K characters or more.  Joining the
        whole text held it at least twice, and the structured document held
        a list of every term's text as well."""
        sink = CharCount()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = main(["table", "--fixed", "k", "--value", "4", "--upto", "600",
                             "--seed", "110", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chars > 1_700_000
        assert peak < sink.chars

    @given(
        fixed=st.sampled_from(["k", "n"]),
        value=st.integers(min_value=0, max_value=6),
        upto=st.integers(min_value=0, max_value=40),
        option=st.sampled_from([(), ("--seed", "0"), ("--seed", "41")]),  # 41: past every upto
        fmt=st.sampled_from(["plain", "bfile", "structured"]),
    )
    def test_same_bytes_as_the_one_shot_renderers(self, fixed, value, upto, option, fmt):
        seed = int(option[1]) if option else cli.DEFAULT_SEED
        table = uniform_table(
            f"fixed_{fixed}", value, upto, seed, max_order=DEFAULT_MAX_ORDER,
            max_degree=DEFAULT_MAX_DEGREE, fallback=True, number=Decimal,
        )
        rec = table.recurrence
        expected = {
            "plain": format_plain(table.terms),
            "bfile": format_bfile(table.terms),
            "structured": json.dumps({
                "fixed": fixed,
                "value": value,
                "offset": 0,
                "terms": [to_decimal(t) for t in table.terms.terms],
                "recurrence": None if rec is None else json.loads(recurrence_to_json(rec)),
            }, sort_keys=True) + "\n",
        }[fmt]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["table", "--fixed", fixed, "--value", str(value), "--upto", str(upto),
                         *option, "--format", fmt])
        assert code == 0
        assert out.getvalue() == expected


class TestTextUnderDefaultDigitLimit:
    def test_prob_plain_with_long_numerator(self, capsys, default_digit_limit, limit_free_text):
        n = 1700
        expected = Fraction(classic_derangement(n), math.factorial(n))
        assert len(limit_free_text(expected.numerator)) > 4300
        code, out, _ = run_cli(capsys, "prob", *["1"] * n)
        assert code == 0
        assert out == (
            f"{limit_free_text(expected.numerator)}/{limit_free_text(expected.denominator)}"
            " ≈ 0.367879441171442\n"
        )

    def test_table_structured_with_long_last_term(
        self, capsys, default_digit_limit, limit_free_text
    ):
        code, out, _ = run_cli(
            capsys, "table", "--fixed", "k", "--value", "2", "--upto", "1000",
            "--format", "structured",
        )
        assert code == 0
        last = json.loads(out)["terms"][-1]
        assert len(last) > 4300
        assert last == limit_free_text(uniform_count(1000, 2))

    @pytest.mark.parametrize("fmt", ["plain", "bfile"])
    def test_table_text_with_long_last_term(
        self, capsys, default_digit_limit, limit_free_text, fmt
    ):
        code, out, _ = run_cli(
            capsys, "table", "--fixed", "k", "--value", "2", "--upto", "1000",
            "--format", fmt,
        )
        assert code == 0
        last = out.splitlines()[-1].split()[-1]
        assert len(last) > 4300
        assert last == limit_free_text(uniform_count(1000, 2))


LIMITED_CLI_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from multiderange.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestNumbersPastTheDigitCap:
    """Numbers past the interpreter's int -> str cap in arguments, term files
    and cached b-files keep the exit-code contract: one error: line, and
    text rendered through bigint."""

    FAR = 10**5000
    CAP = 10**4400  # 4401 digits

    @staticmethod
    def primes(count):
        found = []
        n = 2
        while len(found) < count:
            if all(n % p for p in found):
                found.append(n)
            n += 1
        return found

    def test_negative_argument_names_its_value(self, capsys, default_digit_limit, limit_free_text):
        with pytest.raises(SystemExit) as info:
            main(["derange", limit_free_text(-self.FAR)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"argument n: must be at least 0, got {limit_free_text(-self.FAR)}\n"
        )

    def test_guess_index_that_breaks_the_run(
        self, capsys, tmp_path, default_digit_limit, limit_free_text
    ):
        terms_file = tmp_path / "far_b.txt"
        terms_file.write_text(f"0 1\n{limit_free_text(self.FAR)} 1\n")
        code, out, err = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {terms_file}: line 2: index {limit_free_text(self.FAR)} "
            "breaks the run (expected 1)\n"
        )

    def test_guess_with_a_cap_past_the_digit_cap(
        self, capsys, tmp_path, default_digit_limit, limit_free_text
    ):
        terms_file = tmp_path / "primes.txt"
        terms_file.write_text("".join(f"{p}\n" for p in self.primes(30)))
        code, out, err = run_cli(
            capsys, "guess", "--terms-file", str(terms_file),
            "--max-order", limit_free_text(self.CAP),
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: no recurrence found with order <= {limit_free_text(self.CAP)} "
            f"and coefficient degree <= {DEFAULT_MAX_DEGREE}; "
            "the scan stopped short of the caps for lack of terms\n"
        )

    def test_table_failure_line_names_the_cap(
        self, capsys, default_digit_limit, limit_free_text
    ):
        code, out, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "9", "--upto", "30", "--seed", "25",
            "--max-order", limit_free_text(self.CAP),
        )
        assert code == 0
        assert out == "".join(f"{uniform_count(n, 9)}\n" for n in range(31))
        assert err.startswith("guessing failed on 25 seed terms (no recurrence found with order "
                              f"<= {limit_free_text(self.CAP)} and coefficient degree <= 12")
        assert err.endswith("; computing directly\n")
        assert err.count("\n") == 1

    def test_table_document_with_a_far_value(
        self, capsys, default_digit_limit, limit_free_text
    ):
        code, out, _ = run_cli(
            capsys, "table", "--fixed", "n", "--value", limit_free_text(self.FAR), "--upto", "0",
            "--format", "structured",
        )
        assert code == 0
        assert out == (
            '{"fixed": "n", "offset": 0, "recurrence": null, "terms": ["1"], '
            f'"value": {limit_free_text(self.FAR)}}}\n'
        )

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_oeis_check_against_a_far_cached_index(
        self, capsys, tmp_path, default_digit_limit, limit_free_text, fmt
    ):
        cached = tmp_path / "b000166.txt"
        cached.write_text(f"{limit_free_text(self.FAR)} 1\n")
        code, out, err = run_cli(
            capsys, "oeis-check", "--id", "A000166", "--fixed", "k", "--value", "1",
            "--count", "5", "--cache-dir", str(tmp_path), "--format", fmt,
        )
        assert (code, out) == (3, "")
        assert err == f"error: {cached}: an index does not fit in 63 bits\n"

    @pytest.mark.parametrize("argv", [
        ["multi", "99999999999999999999"],
        ["prob", "2", "99999999999999999999"],
        ["table", "--fixed", "k", "--value", "99999999999999999999", "--upto", "2"],
        ["oeis-check", "--id", "A000166", "--fixed", "k", "--value", "99999999999999999999",
         "--count", "3"],
    ], ids=["multi", "prob", "table", "oeis-check"])
    def test_multiplicity_past_maxsize_is_a_computation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            f"error: multiplicity 99999999999999999999 exceeds sys.maxsize ({sys.maxsize})\n"
        )

    @pytest.mark.parametrize("argv", [
        ["table", "--fixed", "n", "--value", "100000000000000000000", "--upto", "1"],
        ["oeis-check", "--id", "A000166", "--fixed", "n", "--value", "100000000000000000000",
         "--count", "3"],
    ], ids=["table", "oeis-check"])
    def test_symbol_count_past_maxsize_is_a_computation_error(self, argv):
        # under a 1 GB address-space limit, so a count that tries to form a
        # number with ~10^20 bits ends in MemoryError, not in the host's memory
        done = run_python("-c", LIMITED_CLI_SCRIPT, *argv)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: symbol count 100000000000000000000 exceeds sys.maxsize ({sys.maxsize})\n"
        )


class TestOutOfMemory:
    """A computation that runs out of memory is a computation error: exit 3,
    nothing on stdout and one error: line."""

    def test_memory_error_is_a_computation_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "uniform_table", exhausted)
        code, out, err = run_cli(capsys, "table", "--fixed", "k", "--value", "4", "--upto", "9")
        assert (code, out, err) == (3, "", "error: out of memory\n")

    def test_symbol_count_past_memory_is_a_computation_error(self):
        # a 250 MB address-space limit on the child only; this path never
        # imports numpy, whose import would need more
        import resource

        limit = 250 << 20
        done = subprocess.run(
            [sys.executable, "-m", "multiderange", "table", "--fixed", "n",
             "--value", "1000000000000", "--upto", "1"],
            capture_output=True, text=True, env=python_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert "Traceback" not in done.stderr
        assert done.stderr == "error: out of memory\n"


class TestSearchCapValidation:
    @pytest.mark.parametrize("flag, value", [("--max-order", "0"), ("--max-degree", "-1")])
    def test_guess_rejects_bad_cap(self, tmp_path, flag, value):
        terms_file = tmp_path / "ones.txt"
        terms_file.write_text("1\n" * 20)
        with pytest.raises(SystemExit) as info:
            main(["guess", "--terms-file", str(terms_file), flag, value])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--max-order", "0"), ("--max-degree", "-1"), ("--seed", "-5")]
    )
    def test_table_rejects_bad_cap(self, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["table", "--fixed", "k", "--value", "2", "--upto", "80", flag, value])
        assert info.value.code == 2


class TestSharedParser:
    """One parser serves every call in a process; calls stay independent."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_every_default_is_immutable(self):
        _, commands = build_parser()
        assert sorted(commands) == sorted(COMMANDS)
        for sub in commands.values():
            defaults = [*sub._defaults.values(), *(a.default for a in sub._actions)]
            for value in defaults:
                hash(value)  # lists, dicts and sets would be shared across calls

    def test_usage_error_leaves_next_call_alone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oeis-check", "--id", "X123", "--fixed", "k", "--value", "1",
                  "--count", "5"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "oeis-check: error: argument --id: malformed sequence id 'X123'" in err
        code, out, _ = run_cli(capsys, "deck")
        assert code == 0
        assert out == run_module("deck").stdout

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: multiderange {command} ")


TABLE_K4 = ("table", "--fixed", "k", "--value", "4", "--upto", "20")
OEIS_CHECK = ("oeis-check", "--id", "A000166", "--fixed", "n", "--value", "1", "--count", "5")

# argvs that parse to a namespace
PARSES = [
    ("derange", "5"), ("derange", "0", "--format", "bfile"), ("derange", "--form", "bfile", "7"),
    ("derange", "-0"), ("derange", "--", "3"), ("derange", "--format=structured", "2"),
    ("multi", "4", "4", "2"), ("multi", "2", "--", "3"), ("multi", "--form", "structured", "3"),
    ("multi", "12", "+3"),
    ("deck",), ("deck", "--form", "bfile"), ("deck", "--format", "structured"),
    ("prob", "3", "3"), ("prob", "--format", "structured", "2", "2"),
    ("prob", "--fo", "plain", "1"),
    TABLE_K4, (*TABLE_K4, "--seed", "8", "--seed", "21", "--format", "bfile"),
    (*TABLE_K4, "--no-f", "--rec", "rec.json", "--max-o", "3", "--max-d", "2"),
    ("table", "--upto=0", "--value=-0", "--fixed=n", "--form", "structured"),
    ("guess", "--terms-file", "terms.txt"), ("guess", "--terms=t.txt", "--max-order", "3"),
    OEIS_CHECK, (*OEIS_CHECK, "--online", "--cache-dir", "c", "--format", "structured"),
]

# argvs that end in SystemExit: usage errors (exit 2) and help (exit 0)
EXITS = [
    (), ("-h",), ("--help",), ("--version",), ("unknown",), ("der", "5"), ("Deck",),
    ("--format", "plain", "deck"), ("-h", "deck"), ("--", "deck"),
    ("derange",), ("multi",), ("prob",), ("guess",), ("table",), ("oeis-check",),
    ("derange", "-5"), ("derange", "1_0"), ("derange", " 5"), ("derange", "5", "6"),
    ("derange", "5", "--", "6"), ("multi", "0"), ("multi", "2", "--bogus"), ("multi", "--", "-1"),
    ("deck", "extra"), ("deck", "--"), ("deck", "--format", "xml"), ("deck", "-x"),
    ("deck", "--form"),
    ("prob", "2", "--format", "bfile"), ("prob", "2", "--format"),
    TABLE_K4[:-2], ("table", "--fixed", "m", "--value", "1", "--upto", "3"),
    (*TABLE_K4, "--f", "k"), (*TABLE_K4, "--m", "3"), (*TABLE_K4, "--seed", "-1"),
    (*TABLE_K4, "--max-order", "0"), (*TABLE_K4, "extra", "--bogus=1"),
    (*TABLE_K4, "--direct-only"),
    ("guess", "--terms-file"), ("guess", "--terms-file", "t", "--max-degree", "-1"),
    ("oeis-check", "--id", "X123", *OEIS_CHECK[3:]), (*OEIS_CHECK[:-1], "0"),
    OEIS_CHECK[:-2], (*OEIS_CHECK, "--format", "bfile"),
    *((command, "--help") for command in COMMANDS), ("deck", "-h"), ("table", "--he"),
]


def _outcome(parse, argv, capsys):
    """What parse(argv) returns or exits with, and what it printed."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = f"exit {exc.code}"
    return result, capsys.readouterr()


class TestDispatchedParse:
    """A call whose first token names a command is parsed once, by that
    command's parser, and means what the full parser makes of it."""

    @pytest.mark.parametrize("argv", PARSES, ids=" ".join)
    def test_namespace_equals_full_parse(self, capsys, argv):
        parsed = _outcome(cli._parse_args, argv, capsys)
        assert parsed == _outcome(build_parser()[0].parse_args, argv, capsys)
        assert parsed[0]["command"] == argv[0]
        assert parsed[1] == ("", "")

    @pytest.mark.parametrize("argv", EXITS, ids=" ".join)
    def test_exit_and_text_equal_full_parse(self, capsys, argv):
        parsed = _outcome(cli._parse_args, argv, capsys)
        assert parsed == _outcome(build_parser()[0].parse_args, argv, capsys)
        code, printed = parsed
        assert code in ("exit 0", "exit 2")
        assert (printed.out if code == "exit 0" else printed.err).startswith("usage: ")

    @pytest.fixture
    def full_parse_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the full parser parsed a command argv")

        parser, _ = build_parser()
        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)

    def test_command_argv_skips_the_full_parse(self, capsys, full_parse_refused):
        assert run_cli(capsys, "deck") == (0, DECK + "\n", "")
        assert run_cli(capsys, "multi", "4", "4", "2", "--format", "bfile")[:2] == (0, "3 44\n")

    def test_trailing_extra_is_a_top_level_usage_error(self, capsys, full_parse_refused):
        with pytest.raises(SystemExit) as info:
            main(["deck", "extra"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: multiderange [-h] {derange,")
        assert err.endswith("multiderange: error: unrecognized arguments: extra\n")

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch, full_parse_refused):
        monkeypatch.setattr(sys, "argv", ["multiderange", "derange", "5"])
        assert main() == 0
        assert capsys.readouterr().out == "44\n"


# -- the exit-code contract ---------------------------------------------------
# Whatever the argv, main returns 0, 2, 3 or 4, and only argparse's own
# SystemExit(0 or 2) escapes it.  Argvs are drawn from the seven commands'
# grammar, with malformed tokens, bad choices, unknown flags and odd files
# mixed in; sizes stay small (--upto <= 40, caps <= 4, counts <= 30).

def _rarely(bad, good):
    """A draw from good, or one time in ten from bad.  Shrinking moves the
    selector toward 0, so toward good."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 1 else good)


def _int_token(low, high):
    """The text of an int in low..high, or now and then a malformed or too
    small one."""
    return _rarely(
        st.sampled_from([str(low - 1), "-1", "1_0", "+3", "\u0663", "\uff13", " 5", "", "x"]),
        st.integers(low, high).map(str),
    )


FORMATS = _rarely(st.just("xml"), st.sampled_from(["plain", "bfile", "structured"]))
FIXED = _rarely(st.just("m"), st.sampled_from(["k", "n"]))
SEQUENCE_IDS = _rarely(
    st.sampled_from(["X123", "A12345", "a000166", "A0001666",
                     "A\u0660\u0660\u0660\u0661\u0666\u0666"]),
    st.sampled_from(["A000166", "A000459", "A059074", "A999999"]),
)
JUNK = st.sampled_from(["--bogus", "--bogus=1", "-x", "extra", "--", "--form", "-h"])
# Under the contract's work directory: a readable file of each kind, a file
# drawn per example, a missing file, the directory itself, a path under a
# file and a path under a missing directory.
TERMS_FILES = st.sampled_from([
    "derangements.txt", "bfile.txt", "empty.txt", "latin1.txt", "garbage.txt",
    "arabic.txt", "short.txt", "gaps.txt", "drawn.txt", "missing.txt", ".",
])
RECURRENCE_OUTS = _rarely(
    st.sampled_from([".", "derangements.txt/rec.json", "missing/rec.json"]), st.just("rec.json")
)
CACHE_DIRS = _rarely(st.sampled_from(["derangements.txt", "missing-cache"]), st.just("cache"))


def _argvs(workdir):
    """Argvs of every command; path options name entries of workdir."""
    def under(names):
        return names.map(lambda name: str(workdir / name))

    caps = {"--max-order": _int_token(1, 4), "--max-degree": _int_token(0, 4)}
    multiplicities = _rarely(st.just([]), st.lists(_int_token(1, 6), min_size=1, max_size=6))
    text_formats = _rarely(
        st.sampled_from(["bfile", "xml"]), st.sampled_from(["plain", "structured"])
    )
    grammar = {
        "derange": (st.lists(_int_token(0, 300), min_size=1, max_size=1), {"--format": FORMATS}),
        "multi": (multiplicities, {"--format": FORMATS}),
        "deck": (st.just([]), {"--format": FORMATS}),
        "prob": (multiplicities, {"--format": text_formats}),
        "table": (st.just([]), {
            "--fixed": FIXED, "--value": _int_token(0, 6), "--upto": _int_token(0, 40),
            "--seed": _int_token(0, 40), "--no-fallback": None,
            "--recurrence-out": under(RECURRENCE_OUTS), **caps, "--format": FORMATS,
        }),
        "guess": (st.just([]), {"--terms-file": under(TERMS_FILES), **caps}),
        "oeis-check": (st.just([]), {
            "--id": SEQUENCE_IDS, "--fixed": FIXED, "--value": _int_token(0, 6),
            "--count": _int_token(1, 30), "--online": None,
            "--cache-dir": under(CACHE_DIRS), "--format": text_formats,
        }),
    }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from([*COMMANDS, "bogus"]))
        positional, options = grammar.get(command, (st.just([]), {}))
        tokens = [command, *draw(positional)]
        pieces = []
        for flag, values in options.items():
            if draw(_rarely(st.just(False), st.just(True))):  # else the option is left out
                pieces.append([flag] if values is None else [flag, draw(values)])
        for piece in draw(st.permutations(pieces)):
            tokens += piece
        return tokens + draw(_rarely(st.lists(JUNK, min_size=1, max_size=1), st.just([])))

    return argv()


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("contract")
    files = {
        "derangements.txt": "".join(f"{classic_derangement(n)}\n" for n in range(30)),
        "bfile.txt": format_bfile(SequenceSlice(0, tuple(uniform_prefix("fixed_k", 2, 30)))),
        "empty.txt": "",
        "garbage.txt": "1\nx\n",
        "arabic.txt": "\u0661\n\u0662\n",
        "short.txt": "1\n2\n",
        "gaps.txt": "0 1\n2 3\n",
    }
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "latin1.txt").write_bytes(b"\xff\xfe1\n")
    (workdir / "cache").mkdir()
    return workdir


@settings(max_examples=200)
@given(data=st.data(), drawn_terms=st.lists(st.integers(-10**6, 10**6), max_size=30))
def test_every_argv_keeps_the_exit_code_contract(contract_dir, data, drawn_terms):
    (contract_dir / "drawn.txt").write_text("".join(f"{t}\n" for t in drawn_terms))
    argv = data.draw(_argvs(contract_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    env = {"MULTIDERANGE_OFFLINE": "1",
           "MULTIDERANGE_OEIS_CACHE": str(contract_dir / "env-cache")}
    no_network = AssertionError("the contract runs offline")
    with mock.patch.dict(os.environ, env), \
            mock.patch("urllib.request.urlopen", side_effect=no_network), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue()


def test_python_dash_m_entry_point():
    done = run_module("derange", "5")
    assert done.returncode == 0
    assert done.stdout == "44\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        done = run_python("-m", "multiderange", "deck", stdout=write_end)
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == -signal.SIGPIPE


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_reader_leaving_mid_table_ends_by_sigpipe_without_a_traceback():
    # 1.7 MB of text, far more than a pipe holds, so the table is still being
    # written when the reader leaves; --seed 110 guesses at once, so nothing
    # reaches stderr before the table.
    with subprocess.Popen(
        [sys.executable, "-m", "multiderange", "table", "--fixed", "k", "--value", "4",
         "--upto", "600", "--seed", "110"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=python_env(),
    ) as proc:
        assert proc.stdout.readline() == "1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == ""
    assert code == -signal.SIGPIPE


# Runs the commands that guess nothing, then guess, in one fresh interpreter,
# and reports which of the heavy modules each part loaded.
LAZY_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
from multiderange.cli import main
heavy = ("numpy", "urllib.request", "http.client", "ssl")
runs = [
    ["deck"], ["multi", "4", "4", "2"], ["prob", "3", "3"], ["derange", "20"],
    ["oeis-check", "--id", "A059074", "--fixed", "k", "--value", "4", "--count", "12"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
    loaded = [name for name in heavy if name in sys.modules]
    codes.append(main(["guess", "--terms-file", sys.argv[1]]))
print(json.dumps({"codes": codes, "loaded": loaded, "guess_numpy": "numpy" in sys.modules}))
"""


def test_only_guessing_loads_numpy_and_nothing_offline_loads_the_network(tmp_path):
    terms_file = tmp_path / "terms.txt"
    terms_file.write_text("".join(f"{classic_derangement(n)}\n" for n in range(30)))
    done = run_python(
        "-c", LAZY_IMPORTS_SCRIPT, str(terms_file),
        MULTIDERANGE_OFFLINE="1", MULTIDERANGE_OEIS_CACHE=str(tmp_path / "cache"),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == [0] * 6
    assert report["loaded"] == []
    assert report["guess_numpy"]
