"""The command line's output over scripts/output_digest.py's grid of calls
is pinned: every line of the listing equals tests/data/output_digest.txt."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "output_digest.txt"


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_listing_equals_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MULTIDERANGE_OFFLINE", "1")
    expected = PINNED.read_text().splitlines()
    got = list(_load_script().listing())
    for n, (line, pinned) in enumerate(zip(got, expected), start=1):
        assert line == pinned, f"line {n} of {PINNED.name}"
    assert len(got) == len(expected)
