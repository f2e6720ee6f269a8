import urllib.error
import urllib.request

import pytest

from multiderange import oeis
from multiderange.counting import classic_derangement, uniform_fixed_k_prefix
from multiderange.errors import NetworkUnavailable, SequenceParseError, UnknownSequence
from multiderange.oeis import OeisClient, default_cache_dir
from multiderange.sequences import SequenceSlice, format_bfile


def local_derangements(count):
    return SequenceSlice(0, tuple(classic_derangement(n) for n in range(count)))


class CountingTransport:
    """Serves canned b-file bytes and counts the requests it sees."""

    def __init__(self, payload):
        self.payload = payload
        self.calls = 0

    def __call__(self, url, timeout):
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


class TestCrossCheck:
    def test_derangements_match(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        report = client.cross_check(local_derangements(21), "A000166")
        assert report.verdict == "match"
        assert report.compared == 21
        assert (report.local_offset, report.remote_offset) == (0, 0)

    def test_uniform_families_match_fixtures(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        for sequence_id, k in (("A000459", 2), ("A059073", 3), ("A059074", 4), ("A123297", 5)):
            local = SequenceSlice(0, tuple(uniform_fixed_k_prefix(k, 10)))
            report = client.cross_check(local, sequence_id)
            assert report.verdict == "match", sequence_id
            assert report.compared == 10

    def test_overlap_is_capped_by_remote_range(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        local = SequenceSlice(0, tuple(uniform_fixed_k_prefix(3, 20)))
        report = client.cross_check(local, "A059073")
        assert report.verdict == "match"
        assert report.compared == 13  # published entries stop at n = 12

    def test_corrupted_local_term_reports_first_mismatch(self, tmp_path):
        terms = list(classic_derangement(n) for n in range(15))
        terms[7] += 1
        client = OeisClient(cache_dir=tmp_path)
        report = client.cross_check(SequenceSlice(0, tuple(terms)), "A000166")
        assert report.verdict == "mismatch_at"
        assert report.mismatch_index == 7

    def test_offset_shifts_alignment_not_remote_data(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        base = tuple(classic_derangement(n) for n in range(10))
        shifted = SequenceSlice(1, base)  # claims D_0 sits at index 1
        report = client.cross_check(shifted, "A000166")
        assert report.verdict == "mismatch_at"
        assert report.remote_offset == 0

    def test_offline_verdict(self, tmp_path):
        client = OeisClient(cache_dir=tmp_path)
        report = client.cross_check(SequenceSlice(0, (1, 2)), "A999994")
        assert report.verdict == "offline"
        assert report.compared == 0

    def test_not_found_verdict(self, tmp_path):
        transport = CountingTransport(UnknownSequence("gone"))
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        report = client.cross_check(SequenceSlice(0, (1, 2)), "A999993")
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
            client.cross_check(SequenceSlice(0, ()), "A000166")

class TestEndpointOverride:
    def test_base_url_env_var_controls_request_url(self, tmp_path, monkeypatch):
        seen = []

        def transport(url, timeout):
            seen.append(url)
            return b"0 1\n1 2\n"

        monkeypatch.setenv("MULTIDERANGE_OEIS_BASE_URL", "https://mirror.test")
        client = OeisClient(cache_dir=tmp_path, online=True, transport=transport)
        client.fetch_terms("A999991")
        assert seen == ["https://mirror.test/A999991/b999991.txt"]

    def test_explicit_base_url_beats_default(self, tmp_path):
        seen = []

        def transport(url, timeout):
            seen.append(url)
            return b"0 1\n1 2\n"

        client = OeisClient(
            cache_dir=tmp_path, online=True, base_url="http://localhost:9", transport=transport
        )
        client.fetch_terms("A999989")
        assert seen == ["http://localhost:9/A999989/b999989.txt"]


class TestHttpGet:
    """The default transport maps a 404 to UnknownSequence and lets every
    other HTTP error through."""

    @staticmethod
    def failing_urlopen(code):
        def urlopen(url, timeout):
            raise urllib.error.HTTPError(url, code, "status", {}, None)
        return urlopen

    def test_not_found_is_unknown_sequence(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", self.failing_urlopen(404))
        with pytest.raises(UnknownSequence):
            oeis._http_get("https://example.invalid/b999999.txt", 1.0)

    def test_server_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", self.failing_urlopen(500))
        with pytest.raises(urllib.error.HTTPError) as info:
            oeis._http_get("https://example.invalid/b000166.txt", 1.0)
        assert info.value.code == 500
