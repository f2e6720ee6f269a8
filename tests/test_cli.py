import io
import json
import math
import os
import subprocess
import sys
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest

from multiderange.bigint import to_decimal
from multiderange.cli import build_parser, decimal_approx, main
from multiderange.counting import classic_derangement, uniform_count
from multiderange.recurrences import guess_and_extend_uniform, recurrence_to_json
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


def run_module(*argv):
    """`python -m multiderange ...` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-m", "multiderange", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


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
            "--seed", "40", "--direct-only",
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
        code, _, err = run_cli(
            capsys, "table", "--fixed", "k", "--value", "1", "--upto", "80",
            "--seed", "40", "--recurrence-out", str(tmp_path / "missing" / "rec.json"),
        )
        assert code == 2
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
        code, _, err = run_cli(
            capsys, "guess", "--terms-file", str(terms_file), "--max-order", "5"
        )
        assert code == 3
        assert "13" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "guess", "--terms-file", str(tmp_path / "nope"))
        assert code == 2

    def test_unparseable_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("one two three\n")
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
        assert err.startswith("not found: ")

    def test_bfile_input_autodetected(self, capsys, tmp_path):
        terms_file = tmp_path / "terms_b.txt"
        terms_file.write_text("".join(f"{n} {classic_derangement(n)}\n" for n in range(30)))
        code, out, _ = run_cli(capsys, "guess", "--terms-file", str(terms_file))
        assert code == 0
        assert json.loads(out.splitlines()[1])["order"] == 2


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

    def test_unknown_uncached_id_reports_offline(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIDERANGE_OEIS_CACHE", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A999990", "--fixed", "k", "--value", "1",
            "--count", "5",
        )
        assert code == 0
        assert "offline" in out

    def test_structured_report(self, capsys):
        _, out, _ = run_cli(
            capsys, "oeis-check", "--id", "A000459", "--fixed", "k", "--value", "2",
            "--count", "10", "--format", "structured",
        )
        document = json.loads(out)
        assert document["verdict"] == "match"
        assert document["compared"] == 10


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
        (commands,) = build_parser()._subparsers._group_actions
        for sub in commands.choices.values():
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


def test_python_dash_m_entry_point():
    done = run_module("derange", "5")
    assert done.returncode == 0
    assert done.stdout == "44\n"
