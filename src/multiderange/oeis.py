"""Offline-first client for cross-checking local terms against the On-Line
Encyclopedia of Integer Sequences.

Term sources are tried in order: the on-disk cache, b-files shipped with the
package, and finally (only when explicitly enabled) an HTTPS fetch of the
published b-file.  Fetched files are cached verbatim in b-file format, so
cached artifacts stay human-auditable and every later run is reproducible
without a network.

A cross-check fetches the published terms before it looks at the local
ones, an iterable of `count` terms from index `offset`.  Only the overlap
with the published range is compared, the terms are drawn no further than
that overlap or the first mismatch, and an offline or not-found verdict
draws nothing.  So a long --count costs only the terms the published b-file
has.

A client takes a cache directory, an online switch and a transport: a
callable from the b-file URL to its bytes (default: urllib, 10 s timeout).

Environment variables (an empty value counts as unset):
  MULTIDERANGE_OEIS_BASE_URL  override the remote endpoint (fixture servers)
  MULTIDERANGE_OEIS_CACHE     override the cache directory
  MULTIDERANGE_OFFLINE        any nonempty value disables network globally
  XDG_CACHE_HOME              the default cache's parent, if an absolute path
                              (else ~/.cache, as the XDG Base Directory spec says)
"""
from __future__ import annotations

import os
import re
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Callable

from .bigint import to_decimal
from .errors import NetworkUnavailable, SequenceParseError, UnknownSequence
from .sequences import SequenceSlice, parse_bfile

_ID_PATTERN = re.compile(r"\AA[0-9]{6}\Z")
DEFAULT_BASE_URL = "https://oeis.org"
DEFAULT_TIMEOUT = 10.0

Transport = Callable[[str], bytes]


@dataclass(frozen=True)
class OeisReport:
    sequence_id: str
    verdict: str  # match | mismatch_at | not_found | offline
    compared: int
    mismatch_index: int | None
    local_offset: int
    remote_offset: int | None


def default_cache_dir() -> Path:
    override = os.environ.get("MULTIDERANGE_OEIS_CACHE")
    if override:
        return Path(override)
    base = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not base.is_absolute():
        base = Path.home() / ".cache"
    return base / "multiderange" / "oeis"


class OeisClient:
    """Fetch published terms and compare local slices against them.

    One logical request at a time; a single retry on transient network
    failure; never goes online unless constructed with online=True and the
    global offline switch is unset.
    """

    def __init__(
        self,
        cache_dir: Path | str | None = None,
        *,
        online: bool = False,
        transport: Transport | None = None,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.online = online and not os.environ.get("MULTIDERANGE_OFFLINE")
        self.base_url = os.environ.get("MULTIDERANGE_OEIS_BASE_URL") or DEFAULT_BASE_URL
        self._transport = transport or _http_get

    def fetch_terms(self, sequence_id: str) -> SequenceSlice:
        """Published terms for the id, from cache, bundled data, or network."""
        _check_id(sequence_id)
        name = _bfile_name(sequence_id)
        cache_file = self.cache_dir / name
        for source in (cache_file, resources.files("multiderange").joinpath("data", "oeis", name)):
            if source.is_file():
                return _parse_bfile_bytes(source.read_bytes(), source)
        if not self.online:
            raise NetworkUnavailable(
                f"{sequence_id} is not cached and network access is disabled"
            )
        data = self._download(sequence_id)
        slice_ = _parse_bfile_bytes(data, sequence_id)  # validate before caching
        self._write_cache(cache_file, data)
        return slice_

    def cross_check(
        self, terms: Iterable[int], sequence_id: str, count: int, *, offset: int = 0
    ) -> OeisReport:
        """Compare local terms against published terms over their overlap.

        The first `count` items of `terms` are the local terms from index
        `offset`.  The published terms are fetched first; local terms are
        then drawn in order, only up to the end of the overlap, and none
        after the first mismatch.
        """
        if count < 1:
            raise ValueError("local terms must be nonempty")
        try:
            remote = self.fetch_terms(sequence_id)
        except NetworkUnavailable:
            return OeisReport(sequence_id, "offline", 0, None, offset, None)
        except UnknownSequence:
            return OeisReport(sequence_id, "not_found", 0, None, offset, None)
        lo = max(offset, remote.offset)
        hi = min(offset + count, remote.end)
        compared = max(0, hi - lo)
        stop = hi if compared else offset  # draw nothing when nothing overlaps
        drawn = offset
        for n, term in enumerate(islice(terms, stop - offset), offset):
            if n >= lo and term != remote.term(n):
                return OeisReport(sequence_id, "mismatch_at", compared, n, offset, remote.offset)
            drawn = n + 1
        if drawn < stop:
            raise ValueError(f"local terms end at index {to_decimal(drawn)}, "
                             f"short of the count {to_decimal(count)}")
        return OeisReport(sequence_id, "match", compared, None, offset, remote.offset)

    def _download(self, sequence_id: str) -> bytes:
        url = f"{self.base_url}/{sequence_id}/{_bfile_name(sequence_id)}"
        last_error: Exception | None = None
        for _ in range(2):  # one retry
            try:
                return self._transport(url)
            except UnknownSequence:
                raise
            except Exception as exc:  # noqa: BLE001 - any transport failure degrades
                last_error = exc
        raise NetworkUnavailable(f"fetching {url} failed: {last_error}")

    def _write_cache(self, cache_file: Path, data: bytes) -> None:
        """Store data as cache_file by renaming a temp file of this writer's
        own: readers never see a partial file, and concurrent fills of one
        id each rename a whole file."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"{cache_file.name}.", suffix=".tmp", dir=self.cache_dir
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, cache_file)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise


def _check_id(sequence_id: str) -> None:
    if not _ID_PATTERN.match(sequence_id):
        raise ValueError(f"malformed sequence id {sequence_id!r} (want A followed by 6 digits)")


def _bfile_name(sequence_id: str) -> str:
    return f"b{sequence_id[1:]}.txt"


def _parse_bfile_bytes(data: bytes, source) -> SequenceSlice:
    """Parse a cached, bundled or downloaded b-file; bytes that are not
    UTF-8, and indices that do not fit in 63 bits, are malformed.  So every
    offset and index an OeisReport carries prints as a plain int."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SequenceParseError(f"{source}: not UTF-8 ({exc})") from exc
    terms = parse_bfile(text)
    if max(abs(terms.offset), abs(terms.end - 1)) >> 63:
        raise SequenceParseError(f"{source}: an index does not fit in 63 bits")
    return terms


def _http_get(url: str) -> bytes:
    # Imported here: the network stack costs more to import than an offline
    # command takes to run.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=DEFAULT_TIMEOUT) as response:
            return response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise UnknownSequence(url) from exc
        raise
