"""Acceptance suite: one test per release criterion, each printing a
PASS line (visible under pytest -s / -v) once its assertions hold.

Golden numbers are frozen here on purpose; they are the contract.
"""
import json
import math
import time
from fractions import Fraction

from multiderange.cli import main
from multiderange.counting import (
    brute_force_count,
    classic_derangement,
    macmahon_count,
    multiset_derangement,
    total_arrangements,
    uniform_count,
    wrong_rank_probability,
)
from multiderange.laguerre import exp_moment, laguerre
from multiderange.oeis import OeisClient
from multiderange.polys import add, mul, poly, power, product
from multiderange.recurrences import (
    Recurrence,
    guess_and_extend_uniform,
    guess_recurrence,
    verify_recurrence,
)
from multiderange.sequences import SequenceSlice, format_bfile, parse_bfile

DECK_NUMBER = 1493804444499093354916284290188948031229880469556
D52 = 29672484407795138298279444403649511427278111361911893663894333196201

GUESS_SEEDS = {1: 40, 2: 40, 3: 60, 4: 110, 5: 150, 6: 200}


def _pass(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_c01_deck_golden_number(capsys):
    start = time.perf_counter()
    code_multi, out_multi = _cli(capsys, "multi", *["4"] * 13)
    code_deck, out_deck = _cli(capsys, "deck")
    elapsed = time.perf_counter() - start
    assert code_multi == code_deck == 0
    assert out_multi == out_deck == f"{DECK_NUMBER}\n"
    assert elapsed < 5.0, f"deck computation took {elapsed:.2f}s"
    _pass(1, "deck golden number")


def test_c02_distinct_deck_golden_number(capsys):
    start = time.perf_counter()
    value = classic_derangement(52)
    elapsed = time.perf_counter() - start
    assert value == D52
    assert elapsed < 0.1, f"D_52 took {elapsed:.3f}s"
    code, out = _cli(capsys, "derange", "52")
    assert code == 0 and out == f"{D52}\n"
    _pass(2, "distinct-deck golden number")


def test_c03_three_pairs_by_all_methods():
    assert multiset_derangement((2, 2, 2)) == 10
    assert brute_force_count((2, 2, 2)) == 10
    assert macmahon_count((2, 2, 2)) == 10
    _pass(3, "M(2,2,2) = 10 three ways")


def test_c04_triple_oracle_sweep():
    start = time.perf_counter()
    instances = 0
    for total in range(9):
        for m in compositions(total):
            expected = brute_force_count(m)
            assert multiset_derangement(m) == expected, m
            assert macmahon_count(m, max_symbols=8, max_multiplicity=8) == expected, m
            instances += 1
    elapsed = time.perf_counter() - start
    assert instances == 256
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _pass(4, f"triple-oracle sweep over {instances} instances")


def test_c05_two_symbol_family_identically_one():
    for k in range(201):
        assert uniform_count(2, k) == 1, k
    _pass(5, "F[2](k) = 1 for k <= 200")


def test_c06_three_symbol_family_is_franel():
    for k in range(101):
        expected = sum(math.comb(k, j) ** 3 for j in range(k + 1))
        assert uniform_count(3, k) == expected, k
    _pass(6, "F[3](k) = Franel(k) for k <= 100")


def test_c07_multiplicity_one_reduces_to_classic():
    for n in range(301):
        assert uniform_count(n, 1) == classic_derangement(n), n
    _pass(7, "F[n](1) = D_n for n <= 300")


def test_c08_orthonormality():
    for j in range(31):
        for k in range(31):
            moment = exp_moment(mul(laguerre(j), laguerre(k)))
            assert moment == (1 if j == k else 0), (j, k)
    _pass(8, "Laguerre orthonormality up to degree 30")


def test_c09_recurrence_engine():
    thirty = SequenceSlice(0, tuple(classic_derangement(n) for n in range(30)))
    rec = guess_recurrence(thirty, max_order=12, max_degree=12)
    assert rec == Recurrence(((-1, -1), (-1, -1), (1,)))
    hundred = SequenceSlice(0, tuple(classic_derangement(n) for n in range(101)))
    assert verify_recurrence(rec, hundred).ok

    for k, seed in GUESS_SEEDS.items():
        extended, guessed = guess_and_extend_uniform(
            "fixed_k", k, seed, seed + 20, max_order=12, max_degree=14
        )
        for n in (seed + 1, seed + 2, seed + 5, seed + 10, seed + 20):
            assert extended.term(n) == uniform_count(n, k), (k, n)
    _pass(9, "guessed recurrences reproduce direct counts for k = 1..6")


def test_c10_thousand_symbol_scale_check():
    start = time.perf_counter()
    direct = uniform_count(1000, 4)
    direct_time = time.perf_counter() - start

    start = time.perf_counter()
    extended, _ = guess_and_extend_uniform("fixed_k", 4, 110, 1000)
    recurrence_time = time.perf_counter() - start

    assert extended.term(1000) == direct
    assert direct_time < 300.0, f"direct path took {direct_time:.1f}s"
    assert recurrence_time < 10.0, f"recurrence path took {recurrence_time:.1f}s"
    _pass(10, f"F[1000](4) direct ({direct_time:.1f}s) = extended ({recurrence_time:.1f}s)")


def test_c11_oeis_fixtures(tmp_path):
    client = OeisClient(cache_dir=tmp_path, online=False)  # bundled data only

    checks = [
        ("A000166", 1, 21, 21),
        ("A000459", 2, 20, 20),
        ("A059073", 3, 14, 13),  # published entries stop at n = 12
        ("A059074", 4, 14, 13),  # published entries stop at n = 12
        ("A123297", 5, 13, 12),  # published entries stop at n = 11
    ]
    for sequence_id, k, count, expected_overlap in checks:
        local = SequenceSlice(
            0, tuple(uniform_count(n, k) if k > 1 else classic_derangement(n)
                     for n in range(count))
        )
        report = client.cross_check(local.terms, sequence_id, len(local))
        assert report.verdict == "match", (sequence_id, report)
        assert report.compared == expected_overlap, (sequence_id, report)

    # the deck number continues the k=4 column right past its published end
    assert uniform_count(13, 4) == DECK_NUMBER
    _pass(11, "offline OEIS fixtures match, deck number extends A059074")


def test_c12_property_spot_checks(capsys):
    # ring axioms on a deterministic grid (full randomized suites live in
    # the module tests and run in the same session)
    polys = [poly([1, -1]), poly([Fraction(1, 2), 3]), poly([0, 0, 5]), ()]
    for p in polys:
        for q in polys:
            assert add(p, q) == add(q, p)
            assert mul(p, q) == mul(q, p)
            for r in polys:
                assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert power(poly([1, -1]), 5) == product([poly([1, -1])] * 5)

    # symmetry and pigeonhole vanishing
    assert multiset_derangement((1, 3, 2)) == multiset_derangement((3, 2, 1))
    for total in range(1, 13):
        for m in compositions(total):
            if max(m) > total - max(m):
                assert multiset_derangement(m) == 0, m

    # counts stay within range and probabilities reduce
    assert 0 <= multiset_derangement((3, 2)) <= total_arrangements((3, 2))
    assert wrong_rank_probability((2, 2, 2)) == Fraction(1, 9)

    # byte determinism of a full command, and b-file round-trip
    first = _cli(capsys, "table", "--fixed", "n", "--value", "3", "--upto", "12",
                 "--format", "bfile")
    second = _cli(capsys, "table", "--fixed", "n", "--value", "3", "--upto", "12",
                  "--format", "bfile")
    assert first == second
    emitted = first[1]
    parsed = parse_bfile(emitted)
    assert format_bfile(parsed) == emitted

    # structured output is valid JSON with the same integers
    _, structured = _cli(capsys, "table", "--fixed", "n", "--value", "3",
                         "--upto", "12", "--format", "structured")
    document = json.loads(structured)
    assert [int(t) for t in document["terms"]] == list(parsed.terms)
    _pass(12, "module property spot checks")