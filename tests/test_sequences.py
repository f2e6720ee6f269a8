import pytest

from multiderange.errors import SequenceParseError
from multiderange.sequences import (
    SequenceSlice,
    format_bfile,
    format_plain,
    parse_bfile,
    parse_plain,
    parse_terms_file,
)


class TestSequenceSlice:
    def test_absolute_indexing(self):
        s = SequenceSlice(3, (10, 11, 12))
        assert s.term(3) == 10
        assert s.term(5) == 12
        assert s.end == 6
        assert len(s) == 3

    def test_out_of_range(self):
        s = SequenceSlice(0, (1, 2))
        with pytest.raises(IndexError):
            s.term(2)
        with pytest.raises(IndexError):
            s.term(-1)


class TestNumbersPastTheDigitCap:
    """Indices render through bigint.to_decimal, past the interpreter's cap."""

    FAR = 10**5000

    def test_term_outside_the_slice(self, default_digit_limit, limit_free_text):
        with pytest.raises(IndexError) as info:
            SequenceSlice(self.FAR, (1,)).term(0)
        assert str(info.value) == (
            f"index 0 outside [{limit_free_text(self.FAR)}, {limit_free_text(self.FAR + 1)})"
        )

    def test_index_that_breaks_the_run(self, default_digit_limit, limit_free_text):
        with pytest.raises(SequenceParseError) as info:
            parse_bfile(f"0 1\n{limit_free_text(self.FAR)} 2\n")
        assert str(info.value) == (
            f"line 2: index {limit_free_text(self.FAR)} breaks the run (expected 1)"
        )

    def test_bfile_lines_at_a_far_offset(self, default_digit_limit, limit_free_text):
        text = format_bfile(SequenceSlice(self.FAR, (7, 8)))
        assert text == f"{limit_free_text(self.FAR)} 7\n{limit_free_text(self.FAR + 1)} 8\n"
        assert parse_bfile(text) == SequenceSlice(self.FAR, (7, 8))


class TestBFileFormat:
    def test_format(self):
        s = SequenceSlice(0, (1, 0, 1, 2))
        assert format_bfile(s) == "0 1\n1 0\n2 1\n3 2\n"

    def test_format_nonzero_offset(self):
        s = SequenceSlice(5, (-7, 8))
        assert format_bfile(s) == "5 -7\n6 8\n"

    def test_roundtrip(self):
        s = SequenceSlice(2, (4, -5, 6000000000000000000000000007))
        assert parse_bfile(format_bfile(s)) == s

    def test_parse_skips_comments_and_blanks(self):
        text = "# header\n\n0 1\n1 5\n\n# trailing\n"
        assert parse_bfile(text) == SequenceSlice(0, (1, 5))

    def test_parse_rejects_gap(self):
        with pytest.raises(SequenceParseError):
            parse_bfile("0 1\n2 9\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(SequenceParseError):
            parse_bfile("0 1\nx y\n")
        with pytest.raises(SequenceParseError):
            parse_bfile("0 1 2\n")
        with pytest.raises(SequenceParseError):
            parse_bfile("# nothing\n")

    @pytest.mark.parametrize("line", ["0 1_0", "0 \u0663", "0 +-1", "0_0 1", "\u0660 1"])
    def test_parse_rejects_integers_outside_the_grammar(self, line):
        # Only an optional sign and ASCII digits, as at every length:
        # int() alone would read "1_0" as 10 and the Arabic-Indic digits
        # as 3 and 0.
        with pytest.raises(SequenceParseError):
            parse_bfile(f"{line}\n1 2\n")


class TestPlainFormat:
    def test_roundtrip(self):
        s = SequenceSlice(0, (1, 1, 2, 6, 24))
        assert parse_plain(format_plain(s)) == s

    def test_parse_empty_rejected(self):
        with pytest.raises(SequenceParseError):
            parse_plain("\n\n")

    @pytest.mark.parametrize("line", ["1_0", "\u0663", "1 0", "0x10"])
    def test_parse_rejects_integers_outside_the_grammar(self, line):
        with pytest.raises(SequenceParseError):
            parse_plain(f"1\n{line}\n")

    def test_parse_takes_signs_and_surrounding_space(self):
        assert parse_plain(" +3 \n-04\n") == SequenceSlice(0, (3, -4))


class TestAutodetect:
    def test_two_field_lines_mean_bfile(self):
        assert parse_terms_file("7 1\n8 4\n") == SequenceSlice(7, (1, 4))

    def test_single_field_lines_mean_plain(self):
        assert parse_terms_file("1\n4\n9\n") == SequenceSlice(0, (1, 4, 9))

    def test_leading_comment_ignored_for_detection(self):
        assert parse_terms_file("# c\n5 3\n6 1\n") == SequenceSlice(5, (3, 1))

    def test_empty_rejected(self):
        with pytest.raises(SequenceParseError):
            parse_terms_file("")


def _int_error(lineno, text):
    return f"line {lineno}: invalid literal for int() with base 10: {text!r}"


def _fields_error(lineno, raw):
    return f"line {lineno}: expected 'n a(n)', got {raw!r}"


# Each text with what parse_bfile, parse_plain and parse_terms_file give:
# the parsed slice, or the exact SequenceParseError message, whose line
# numbers count blank and comment lines too.
PARSE_GRID = [
    ("# header\n0 1\n1 x\n", _int_error(3, "x"), _int_error(2, "0 1"), _int_error(3, "x")),
    ("0 1\n1 2 # note\n",
     _fields_error(2, "1 2 # note"), _int_error(1, "0 1"), _fields_error(2, "1 2 # note")),
    ("1\n2 # two\n", _fields_error(1, "1"), _int_error(2, "2 # two"), _int_error(2, "2 # two")),
    ("   \n\t\n0 1\n \t \n1 2\n2\n",
     _fields_error(6, "2"), _int_error(3, "0 1"), _fields_error(6, "2")),
    ("\n0 1\n\t1 2 3 \n",
     _fields_error(3, "\t1 2 3 "), _int_error(2, "0 1"), _fields_error(3, "\t1 2 3 ")),
    ("# c\n\n0 1_0\n", _int_error(3, "1_0"), _int_error(3, "0 1_0"), _int_error(3, "1_0")),
    ("# c\n\n1_0\n", _fields_error(3, "1_0"), _int_error(3, "1_0"), _int_error(3, "1_0")),
    ("0_0 1\n", _int_error(1, "0_0"), _int_error(1, "0_0 1"), _int_error(1, "0_0")),
    ("\t\n0 1\n1 ٣\n",
     _int_error(3, "٣"), _int_error(2, "0 1"), _int_error(3, "٣")),
    ("\n \n٣\n", _fields_error(3, "٣"), _int_error(3, "٣"), _int_error(3, "٣")),
    ("0 1\n# c\n2 9\n",
     "line 3: index 2 breaks the run (expected 1)", _int_error(1, "0 1"),
     "line 3: index 2 breaks the run (expected 1)"),
    ("", "no terms found", "no terms found", "no terms found"),
    ("# only\n \t\n", "no terms found", "no terms found", "no terms found"),
    ("# c\n\t0\t5\n \n1  6\n",
     SequenceSlice(0, (5, 6)), _int_error(2, "0\t5"), SequenceSlice(0, (5, 6))),
    (" +3 \n\t\n-04\n",
     _fields_error(1, " +3 "), SequenceSlice(0, (3, -4)), SequenceSlice(0, (3, -4))),
]


@pytest.mark.parametrize("text, bfile, plain, terms_file", PARSE_GRID)
def test_parsers_report_each_line_as_before(text, bfile, plain, terms_file):
    for parse, expected in ((parse_bfile, bfile), (parse_plain, plain),
                            (parse_terms_file, terms_file)):
        if isinstance(expected, SequenceSlice):
            assert parse(text) == expected
        else:
            with pytest.raises(SequenceParseError) as info:
                parse(text)
            assert str(info.value) == expected
