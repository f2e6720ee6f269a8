"""scripts/code_lines.py counts the lines that hold code tokens."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""A module docstring
over two lines."""
import os  # a comment after code

# a comment on its own line
TEXT = """a string
that is not a docstring"""


class Point:
    """A class docstring."""

    def shifted(self, x):
        """A function docstring."""
        return (x +
                1)
'''


def _load_script():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, both lines of TEXT, class, def and both lines of the return
    assert _load_script().code_lines(SOURCE) == 7
