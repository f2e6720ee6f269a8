import io
import os
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multiderange import oeis
from multiderange.counting import (
    classic_derangement,
    uniform_prefix,
    uniform_terms,
)
from multiderange.errors import NetworkUnavailable, SequenceParseError, UnknownSequence
from multiderange.oeis import OeisClient, OeisReport, default_cache_dir
from multiderange.sequences import SequenceSlice, format_bfile


def local_derangements(count):
    return SequenceSlice(0, tuple(classic_derangement(n) for n in range(count)))


# Bundled b-files and the k whose fixed-k column each one publishes.
BUNDLED_FIXED_K = {"A000166": 1, "A000459": 2, "A059073": 3, "A059074": 4, "A123297": 5}


class DrawCounter:
    """An iterator over terms that counts how many were drawn from it."""

    def __init__(self, terms):
        self._terms = iter(terms)
        self.drawn = 0

    def __iter__(self):
        return self

    def __next__(self):
        term = next(self._terms)
        self.drawn += 1
        return term


class FixedRemote(OeisClient):
    """A client whose published terms are given, or whose fetch raises."""

    def __init__(self, remote):
        super().__init__(cache_dir=os.devnull)
        self.remote = remote

    def fetch_terms(self, sequence_id):
        if isinstance(self.remote, Exception):
            raise self.remote
        return self.remote


def eager_report(client, local, sequence_id):
    """The comparison with every local term in hand: one loop over the
    overlap of a whole SequenceSlice, as cross_check ran before it drew
    local terms lazily."""
    try:
        remote = client.fetch_terms(sequence_id)
    except NetworkUnavailable:
        return OeisReport(sequence_id, "offline", 0, None, local.offset, None)
    except UnknownSequence:
        return OeisReport(sequence_id, "not_found", 0, None, local.offset, None)
    lo = max(local.offset, remote.offset)
    hi = min(local.end, remote.end)
    compared = max(0, hi - lo)
    for n in range(lo, hi):
        if local.term(n) != remote.term(n):
            return OeisReport(sequence_id, "mismatch_at", compared, n, local.offset, remote.offset)
    return OeisReport(sequence_id, "match", compared, None, local.offset, remote.offset)


class CountingTransport:
    """Serves canned b-file bytes and counts the requests it sees."""

    def __init__(self, payload):
        self.payload = payload
        self.calls = 0

    def __call__(self, url):
        self.calls += 1
        if isinstance(self.payload, Exception):
            raise self.payload
        return self.payload


class TestFetch:
    def test_bundled_fixture(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        terms = client.fetch_terms("A000166")
        assert terms.offset == 0
        assert terms.terms[:6] == (1, 0, 1, 2, 9, 44)

    def test_malformed_id_rejected_before_any_io(self):
        client = OeisClient(online=True, transport=CountingTransport(b"0 1\n"))
        with pytest.raises(ValueError):
            client.fetch_terms("X123")
        with pytest.raises(ValueError):
            client.fetch_terms("A12345")

    def test_non_ascii_digits_rejected_before_any_io(self, tmp_path):
        # Arabic-Indic digits match \d; an id must be ASCII like every number.
        transport = CountingTransport(b"0 1\n")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        with pytest.raises(ValueError, match="malformed sequence id"):
            client.fetch_terms("A\u0660\u0660\u0660\u0661\u0666\u0666")
        assert transport.calls == 0

    def test_offline_without_cache(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path, online=False)
        with pytest.raises(NetworkUnavailable):
            client.fetch_terms("A999998")

    def test_fetch_writes_cache_and_reuses_it(self, tmp_path):
        transport = CountingTransport(b"0 5\n1 7\n2 11\n")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        first = client.fetch_terms("A999998")
        assert transport.calls == 1
        assert (tmp_path / "b999998.txt").is_file()
        second = client.fetch_terms("A999998")
        assert transport.calls == 1  # served from disk
        assert first == second == SequenceSlice(0, (5, 7, 11))

    def test_non_utf8_cache_is_malformed(self, tmp_path):
        (tmp_path / "b000166.txt").write_bytes(b"\xff\xfe0 1\n")
        client = OeisClient(cache_dir=tmp_path)
        with pytest.raises(SequenceParseError):
            client.fetch_terms("A000166")

    @pytest.mark.parametrize("offset, count, fits", [
        (2**63 - 2, 2, True),
        (2**63 - 1, 2, False),
        (1 - 2**63, 1, True),
        (-(2**63), 1, False),
        (10**5000, 1, False),
    ], ids=["2^63-2", "2^63-1", "1-2^63", "-2^63", "10^5000"])
    def test_indices_must_fit_in_63_bits(
        self, tmp_path, default_digit_limit, limit_free_text, offset, count, fits
    ):
        text = "".join(f"{limit_free_text(offset + i)} {i}\n" for i in range(count))
        (tmp_path / "b000166.txt").write_text(text)
        client = OeisClient(cache_dir=tmp_path)
        if fits:
            assert client.fetch_terms("A000166") == SequenceSlice(offset, tuple(range(count)))
        else:
            with pytest.raises(SequenceParseError, match="an index does not fit in 63 bits"):
                client.fetch_terms("A000166")

    def test_download_past_63_bits_is_malformed_and_not_cached(self, tmp_path):
        transport = CountingTransport(f"{2**63} 1\n".encode())
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        with pytest.raises(SequenceParseError, match="A999998: an index does not fit"):
            client.fetch_terms("A999998")
        assert not (tmp_path / "b999998.txt").exists()

    def test_non_utf8_download_is_malformed_and_not_cached(self, tmp_path):
        transport = CountingTransport(b"\xff0 1\n1 0\n2 1\n")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        with pytest.raises(SequenceParseError):
            client.fetch_terms("A999991")
        assert transport.calls == 1  # a malformed file is not a network failure
        assert list(tmp_path.iterdir()) == []

    def test_download_is_cached_verbatim(self, tmp_path):
        payload = b"# A999988\r\n0 5\r\n1 7\r\n"
        client = OeisClient(
            cache_dir=tmp_path, online=True, transport=CountingTransport(payload)
        )
        assert client.fetch_terms("A999988") == SequenceSlice(0, (5, 7))
        assert (tmp_path / "b999988.txt").read_bytes() == payload

    def test_unknown_sequence_passes_through(self, tmp_path):
        transport = CountingTransport(UnknownSequence("A999997"))
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        with pytest.raises(UnknownSequence):
            client.fetch_terms("A999997")

    def test_transient_failure_retries_then_degrades(self, tmp_path):
        transport = CountingTransport(OSError("connection reset"))
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        with pytest.raises(NetworkUnavailable):
            client.fetch_terms("A999996")
        assert transport.calls == 2  # one retry

    def test_offline_env_overrides_online_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIDERANGE_OFFLINE", "1")
        transport = CountingTransport(b"0 1\n")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        with pytest.raises(NetworkUnavailable):
            client.fetch_terms("A999995")
        assert transport.calls == 0

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIDERANGE_OEIS_CACHE", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_xdg_cache_home_counts_only_when_absolute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIDERANGE_OEIS_CACHE", "")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        home_cache = tmp_path / "home" / ".cache" / "multiderange" / "oeis"
        for value, expected in [
            ("", home_cache),
            ("rel/dir", home_cache),
            (str(tmp_path / "xdg"), tmp_path / "xdg" / "multiderange" / "oeis"),
        ]:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
            assert default_cache_dir() == expected, value


class TestCrossCheck:
    def test_derangements_match(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        local = local_derangements(21)
        report = client.cross_check(local.terms, "A000166", len(local))
        assert report.verdict == "match"
        assert report.compared == 21
        assert (report.local_offset, report.remote_offset) == (0, 0)

    def test_uniform_families_match_fixtures(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        for sequence_id, k in (("A000459", 2), ("A059073", 3), ("A059074", 4), ("A123297", 5)):
            local = SequenceSlice(0, tuple(uniform_prefix("fixed_k", k, 10)))
            report = client.cross_check(local.terms, sequence_id, len(local))
            assert report.verdict == "match", sequence_id
            assert report.compared == 10

    def test_overlap_is_capped_by_remote_range(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        local = SequenceSlice(0, tuple(uniform_prefix("fixed_k", 3, 20)))
        report = client.cross_check(local.terms, "A059073", len(local))
        assert report.verdict == "match"
        assert report.compared == 13  # published entries stop at n = 12

    def test_corrupted_local_term_reports_first_mismatch(self, tmp_path):
        terms = list(classic_derangement(n) for n in range(15))
        terms[7] += 1
        client = OeisClient(cache_dir=tmp_path)
        report = client.cross_check(terms, "A000166", len(terms))
        assert report.verdict == "mismatch_at"
        assert report.mismatch_index == 7

    def test_offset_shifts_alignment_not_remote_data(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        base = tuple(classic_derangement(n) for n in range(10))
        shifted = SequenceSlice(1, base)  # claims D_0 sits at index 1
        report = client.cross_check(shifted.terms, "A000166", len(shifted), offset=shifted.offset)
        assert report.verdict == "mismatch_at"
        assert report.remote_offset == 0

    def test_offline_verdict(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        report = client.cross_check((1, 2), "A999994", 2)
        assert report.verdict == "offline"
        assert report.compared == 0

    def test_not_found_verdict(self, tmp_path):
        transport = CountingTransport(UnknownSequence("gone"))
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        report = client.cross_check((1, 2), "A999993", 2)
        assert report.verdict == "not_found"

    def test_cached_bfile_equals_emitted_format(self, tmp_path):
        # the disk cache is the interchange format itself
        text = format_bfile(SequenceSlice(2, (7, 9, 13)))
        (tmp_path / "b999992.txt").write_text(text)
        client = OeisClient(cache_dir=tmp_path)
        assert client.fetch_terms("A999992") == SequenceSlice(2, (7, 9, 13))

    def test_empty_local_rejected(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        with pytest.raises(ValueError):
            client.cross_check((), "A000166", 0)

class TestLazyCrossCheck:
    """An iterator of local terms is drawn only over the overlap with the
    published range, and no further than the first mismatch."""

    @pytest.mark.parametrize("sequence_id", sorted(BUNDLED_FIXED_K))
    def test_bundled_ids_draw_only_the_published_overlap(self, tmp_path, sequence_id):
        client = OeisClient(cache_dir=tmp_path)
        k = BUNDLED_FIXED_K[sequence_id]
        end = client.fetch_terms(sequence_id).end
        for count in (1, end - 1, end, end + 1, 2000):
            local = DrawCounter(uniform_terms("fixed_k", k))
            report = client.cross_check(local, sequence_id, count)
            assert local.drawn == min(count, end), count
            assert report == OeisReport(sequence_id, "match", min(count, end), None, 0, 0)
            if count <= end + 1:
                eager = SequenceSlice(0, tuple(uniform_prefix("fixed_k", k, count)))
                assert report == eager_report(client, eager, sequence_id)

    @pytest.mark.parametrize("count, compared, drawn", [
        (1, 0, 0), (2, 0, 0), (3, 1, 3), (4, 2, 4), (5, 3, 5), (6, 3, 5), (2000, 3, 5),
    ])
    def test_counts_around_the_remote_offset_and_end(self, tmp_path, count, compared, drawn):
        (tmp_path / "b999992.txt").write_text("2 7\n3 9\n4 13\n")  # published n = 2..4
        client = OeisClient(cache_dir=tmp_path)
        local = DrawCounter([0, 0, 7, 9, 13] + [0] * 1995)
        report = client.cross_check(local, "A999992", count)
        assert report == OeisReport("A999992", "match", compared, None, 0, 2)
        assert local.drawn == drawn

    @pytest.mark.parametrize("bad", [2, 3, 4])  # first, middle, last compared index
    def test_no_draws_after_the_first_mismatch(self, tmp_path, bad):
        (tmp_path / "b999992.txt").write_text("2 7\n3 9\n4 13\n")
        terms = [0, 0, 7, 9, 13, 0]
        terms[bad] += 1
        client = OeisClient(cache_dir=tmp_path)
        local = DrawCounter(terms)
        report = client.cross_check(local, "A999992", 6)
        assert report == OeisReport("A999992", "mismatch_at", 3, bad, 0, 2)
        assert local.drawn == bad + 1
        assert report == eager_report(client, SequenceSlice(0, tuple(terms)), "A999992")

    def test_offline_draws_nothing(self, tmp_path):
        local = DrawCounter(uniform_terms("fixed_k", 3))
        report = OeisClient(cache_dir=tmp_path).cross_check(local, "A999994", 2000)
        assert report == OeisReport("A999994", "offline", 0, None, 0, None)
        assert local.drawn == 0

    def test_not_found_draws_nothing(self, tmp_path):
        transport = CountingTransport(UnknownSequence("gone"))
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        local = DrawCounter(uniform_terms("fixed_k", 3))
        report = client.cross_check(local, "A999993", 2000)
        assert report == OeisReport("A999993", "not_found", 0, None, 0, None)
        assert local.drawn == 0

    def test_iterator_shorter_than_its_count_is_an_error(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="short of the count"):
            client.cross_check(iter([1, 0, 1]), "A000166", 10)

    def test_count_past_the_digit_cap_in_the_message(
        self, tmp_path, default_digit_limit, limit_free_text
    ):
        client = OeisClient(cache_dir=tmp_path)
        count = 10**5000
        with pytest.raises(ValueError) as info:
            client.cross_check(iter([1, 0, 1]), "A000166", count)
        assert str(info.value) == (
            f"local terms end at index 3, short of the count {limit_free_text(count)}"
        )

    def test_count_goes_with_an_iterable_only(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        with pytest.raises(TypeError):
            client.cross_check(iter([1, 0, 1]), "A000166")
        with pytest.raises(ValueError):
            client.cross_check(iter([1, 0, 1]), "A000166", 0)

    @given(
        remote=st.one_of(
            st.builds(SequenceSlice, st.integers(0, 4),
                      st.lists(st.integers(0, 9), min_size=1, max_size=8).map(tuple)),
            st.sampled_from([NetworkUnavailable("off"), UnknownSequence("gone")]),
        ),
        local_offset=st.integers(0, 4),
        count=st.integers(1, 14),
        changed=st.sets(st.integers(0, 13), max_size=3),
    )
    @example(remote=SequenceSlice(2, (7, 9, 13)), local_offset=0, count=2, changed=set())
    @example(remote=SequenceSlice(2, (7, 9, 13)), local_offset=0, count=5, changed={4})
    @example(remote=SequenceSlice(2, (7, 9, 13)), local_offset=0, count=6, changed={2, 3})
    def test_lazy_report_equals_the_eager_loop(self, remote, local_offset, count, changed):
        """Local terms agree with the published ones except at `changed`
        positions; the lazy report from index 0, and the report of terms
        from any offset, equal the eager loop's."""
        client = FixedRemote(remote)
        published = {} if isinstance(remote, Exception) else dict(
            zip(range(remote.offset, remote.end), remote.terms)
        )

        def terms_from(offset):
            return tuple(published.get(offset + i, 0) + (i in changed) for i in range(count))

        local = DrawCounter(terms_from(0))
        report = client.cross_check(local, "A999999", count)
        assert report == eager_report(client, SequenceSlice(0, terms_from(0)), "A999999")
        if report.verdict == "mismatch_at":
            assert local.drawn == report.mismatch_index + 1
        elif report.compared:
            assert local.drawn == min(count, remote.end)
        else:
            assert local.drawn == 0

        shifted = SequenceSlice(local_offset, terms_from(local_offset))
        report = client.cross_check(shifted.terms, "A999999", count, offset=local_offset)
        assert report == eager_report(client, shifted, "A999999")


class TestCacheWrite:
    def test_concurrent_fills_of_one_id_use_their_own_temp_files(self, tmp_path, monkeypatch):
        """Writer B fills the cache between writer A's write and rename:
        both renames succeed, each moves a whole file, and no temp file
        is left behind."""
        first = OeisClient(cache_dir=tmp_path, online=True,
                           transport=CountingTransport(b"0 5\n1 7\n2 11\n"))
        second = OeisClient(cache_dir=tmp_path, online=True,
                            transport=CountingTransport(b"0 5\n1 7\n2 11\n3 1234567\n"))
        real_replace = os.replace
        renamed, fetched = [], []

        def replace(src, dst):
            renamed.append(os.path.basename(src))
            if len(renamed) == 1:
                fetched.append(second.fetch_terms("A999987"))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert first.fetch_terms("A999987") == SequenceSlice(0, (5, 7, 11))
        assert fetched == [SequenceSlice(0, (5, 7, 11, 1234567))]
        assert len(set(renamed)) == 2
        assert (tmp_path / "b999987.txt").read_bytes() == b"0 5\n1 7\n2 11\n"
        assert [p.name for p in tmp_path.iterdir()] == ["b999987.txt"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        client = OeisClient(cache_dir=tmp_path, online=True,
                            transport=CountingTransport(b"0 5\n1 7\n"))
        with pytest.raises(OSError, match="disk full"):
            client.fetch_terms("A999986")
        assert list(tmp_path.iterdir()) == []


class TestEndpointOverride:
    def test_base_url_env_var_controls_request_url(self, tmp_path, monkeypatch):
        seen = []

        def transport(url):
            seen.append(url)
            return b"0 1\n1 2\n"

        monkeypatch.setenv("MULTIDERANGE_OEIS_BASE_URL", "https://mirror.test")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        client.fetch_terms("A999991")
        assert seen == ["https://mirror.test/A999991/b999991.txt"]

    def test_empty_base_url_env_var_means_the_default(self, tmp_path, monkeypatch):
        seen = []

        def transport(url):
            seen.append(url)
            return b"0 1\n1 2\n"

        monkeypatch.setenv("MULTIDERANGE_OEIS_BASE_URL", "")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        client.fetch_terms("A999990")
        assert seen == ["https://oeis.org/A999990/b999990.txt"]


class TestHttpGet:
    """The default transport waits 10 s, maps a 404 to UnknownSequence and
    lets every other HTTP error through."""

    def test_default_transport_waits_ten_seconds(self, tmp_path, monkeypatch):
        timeouts = []

        def urlopen(url, timeout):
            timeouts.append(timeout)
            return io.BytesIO(b"0 1\n1 2\n")

        monkeypatch.delenv("MULTIDERANGE_OFFLINE", raising=False)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        OeisClient(cache_dir=tmp_path, online=True).fetch_terms("A999984")
        assert timeouts == [10.0]

    @staticmethod
    def failing_urlopen(code):
        def urlopen(url, timeout):
            raise urllib.error.HTTPError(url, code, "status", {}, None)
        return urlopen

    def test_not_found_is_unknown_sequence(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", self.failing_urlopen(404))
        with pytest.raises(UnknownSequence):
            oeis._http_get("https://example.invalid/b999999.txt")

    def test_server_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", self.failing_urlopen(500))
        with pytest.raises(urllib.error.HTTPError) as info:
            oeis._http_get("https://example.invalid/b000166.txt")
        assert info.value.code == 500
