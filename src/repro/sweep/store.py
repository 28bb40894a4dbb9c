"""Persistent results store: resumable JSON-lines cache of cell results.

One line per completed cell, appended (and flushed) the moment the cell
finishes, keyed by the content hash of the cell's spec + derived seed
(:meth:`~repro.sweep.spec.Cell.key`). Because the key covers everything
that determines a cell's result, a store hit is interchangeable with a
fresh computation — which gives the two behaviors the orchestrator builds
on:

* **resume after interrupt** — a killed sweep leaves a valid line per
  finished cell (at worst one truncated tail line, which loading skips);
  re-running the same sweep recomputes only the missing cells;
* **skip-if-cached** — re-running a fully-stored sweep executes nothing,
  and editing any knob of a cell (seed, trials, budget, protocol
  parameters) changes its key, so stale entries can never be served.

The file format is self-describing (each line carries the full cell spec
alongside its payload), so a store doubles as a flat archive of everything
a machine has ever computed for a grid — later lines win when a key was
recomputed (``--force``). Every appended record additionally carries a
**provenance stamp** (host, Python version, package version, UTC timestamp)
so long-lived stores stay auditable: a surprising cached number can be
traced to the machine and software that produced it. Records written before
the stamp existed load unchanged.

Indexed lookup: loading builds an in-memory **key → (byte offset, length)
index** over the file rather than materializing every record — ``get`` is
one seek + one line parse and ``has`` one dict probe, so a long-lived
store (the run service keeps one open for its whole lifetime) costs memory
proportional to the number of *keys*, not to the accumulated payload
bytes. The run-service dedup path (:mod:`repro.service.queue`) and the
orchestrator's skip-if-cached resume path both resolve through this index.

Integrity and durability: every appended record carries a ``checksum``
(:func:`record_checksum`, SHA-256 over its canonical JSON) verified at load
— a line whose content was silently altered (bit rot, hand edits) parses as
valid JSON but is refused and counted in ``checksum_failures`` instead of
being served as a cached result; legacy records without the field load
unchanged. Opening the store with ``durable=True`` adds an ``fsync`` per
append so records survive machine crashes, not just process kills.

Thread and process safety: a single :class:`threading.RLock` guards the
index and the append path, so the run service's worker threads can share
one store (concurrent ``get``/``put``/``has`` interleave safely). Across
processes — a CLI sweep appending to the store a running service holds —
every append and every compaction holds an exclusive ``fcntl.flock`` on the
file and indexes its line at the file's real end, read under that lock, so
store objects over one file never index each other's bytes; ``get`` also
checks the served line's ``key``. Distinct store objects see each other's
new records only on reload.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import platform
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO

from ..telemetry import catalog
from ..telemetry.events import emit_event
from ..telemetry.registry import current_registry

__all__ = ["ResultsStore", "provenance_stamp", "record_checksum"]


def record_checksum(record: dict) -> str:
    """SHA-256 over the record's canonical JSON, minus the checksum itself.

    Covers everything the line persists — key, cell spec, payload (or
    failure record), provenance — serialized exactly as :meth:`ResultsStore.put`
    writes it (``sort_keys=True``), so a loaded record re-hashes to the same
    digest iff no byte of its content was silently altered.
    """
    body = {key: value for key, value in record.items() if key != "checksum"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def provenance_stamp() -> dict:
    """Where/when/what produced a record: host, Python, package, UTC time."""
    # Deferred import: the package root imports repro.sweep, so importing it
    # back at module load would be circular.
    from .. import __version__

    return {
        "host": platform.node(),
        "python": platform.python_version(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class ResultsStore:
    """Append-only JSON-lines store mapping cell keys to result records.

    Lookups go through an in-memory key → (offset, length) index built at
    load: ``has(key)`` is O(1), ``get(key)`` is O(1) plus one seek-and-parse
    of the single matching line. Records are *not* kept in memory, so a
    store holding years of sweep history costs bytes per key, not per
    payload.

    ``durable=True`` adds an ``fsync`` after every appended line, so a
    record survives a *machine* crash (power loss, kernel panic), not just
    a process kill — ``flush()`` alone only moves bytes into the page
    cache. The cost is one disk barrier per cell (typically 1–10 ms, well
    under any real cell's compute time); leave it off for throwaway stores
    in tight test loops.
    """

    def __init__(self, path: str | Path, *, durable: bool = False) -> None:
        self.path = Path(path)
        self.durable = durable
        #: key -> (byte offset of the line, byte length incl. newline)
        self._index: dict[str, tuple[int, int]] = {}
        self.corrupt_lines = 0
        self.checksum_failures = 0
        self._loaded_lines = 0
        self._lock = threading.RLock()
        if self.path.exists():
            with self._flocked("rb", fcntl.LOCK_SH) as handle:
                self._load(handle)

    @contextmanager
    def _flocked(self, mode: str, operation: int = fcntl.LOCK_EX) -> Iterator[BinaryIO]:
        """The store file opened in ``mode`` under an ``flock`` ``operation``.

        :meth:`compact` swaps the file by rename, so a lock won on the
        inode it replaced is dropped and taken again on the current one.
        Closing the handle releases the lock.
        """
        while True:
            handle = self.path.open(mode)
            try:
                fcntl.flock(handle, operation)
                if os.path.samestat(os.fstat(handle.fileno()), os.stat(self.path)):
                    break
            except FileNotFoundError:
                pass
            except BaseException:
                handle.close()
                raise
            handle.close()
        with handle:
            yield handle

    def _load(self, handle: BinaryIO) -> None:
        """Index every valid line of the open (locked) store file."""
        offset = 0
        while True:
            raw = handle.readline()
            if not raw:
                break
            start, offset = offset, offset + len(raw)
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                key = record["key"]
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError):
                # Interrupted mid-append: the tail line is torn. Keep the
                # valid prefix; the lost cell simply gets recomputed.
                self.corrupt_lines += 1
                continue
            checksum = record.get("checksum")
            if checksum is not None and checksum != record_checksum(record):
                # Valid JSON whose content no longer matches its stamp —
                # bit rot or a hand edit. Refuse to serve it; the cell
                # recomputes like any miss. (Legacy records without the
                # field predate checksums and load unchanged.)
                self.checksum_failures += 1
                metrics = current_registry()
                if metrics is not None:
                    catalog.STORE_CHECKSUM_FAILURES.on(metrics).inc()
                continue
            self._loaded_lines += 1
            self._index[key] = (start, len(raw))

    # ---------------------------------------------------------------- access

    def has(self, key: str) -> bool:
        """Whether a record for ``key`` is present — one index probe, no IO."""
        with self._lock:
            return key in self._index

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or ``None`` on a miss.

        Served through the offset index: a hit seeks to the record's line
        and parses just that line (the line was validated — JSON and
        checksum — when the index was built, at load or append time).
        """
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                return None
            offset, length = entry
            try:
                with self.path.open("rb") as handle:
                    handle.seek(offset)
                    line = handle.read(length)
                record = json.loads(line.decode("utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                record = None
            # The file changed under the index (truncated, or rewritten by a
            # compaction elsewhere): bytes that are not this key's record are
            # a miss — the cell recomputes — rather than another cell's result.
            if not isinstance(record, dict) or record.get("key") != key:
                return None
            return record

    def put(self, key: str, record: dict) -> None:
        """Persist ``record`` under ``key``: append one line and flush.

        Flushing per cell keeps the on-disk file a valid resume point
        throughout a run, not only after a clean exit (a ``durable`` store
        additionally fsyncs, surviving machine crashes). The appended line
        is stamped with :func:`provenance_stamp` (callers may pass their
        own ``provenance`` to override, e.g. when copying records verbatim)
        and carries a ``checksum`` over its content so silent corruption is
        caught at load time instead of being served as a cached result.
        """
        record = dict(record)
        record["key"] = key
        record.setdefault("provenance", provenance_stamp())
        record["checksum"] = record_checksum(record)
        payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._flocked("a+b") as handle:
                # The real end, not one cached at load: another process may
                # have appended since.
                start = handle.seek(0, os.SEEK_END)
                if start:
                    # A file killed mid-append can end without a newline; a
                    # record concatenated onto the torn tail would be lost.
                    handle.seek(start - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                        start += 1
                handle.write(payload)
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            self._index[key] = (start, len(payload))
            self._loaded_lines += 1
        metrics = current_registry()
        if metrics is not None:
            catalog.STORE_APPENDS.on(metrics).inc()
        emit_event("store.append", key=key, failed="error" in record)

    def compact(self) -> dict:
        """Rewrite the file keeping only the latest record per key.

        Long-lived stores accumulate superseded lines (``--force`` reruns)
        and the occasional torn tail from an interrupted append; compaction
        rewrites the surviving indexed view — exactly what :meth:`get`
        already serves, last write winning — in insertion order, copying
        each surviving line's bytes verbatim (provenance stamps included).

        The replace is atomic and torn-tail-safe: records stream to a
        ``<name>.compact.tmp`` sibling first (same filesystem, so the final
        ``os.replace`` is a single atomic rename), the temporary file is
        flushed and fsynced before the swap, and a failure midway leaves
        the original store untouched. A reader therefore sees either the
        old file or the complete compacted one, never a partial rewrite.
        The file is re-read and rewritten under the same exclusive
        ``flock`` every append takes, so records other processes appended
        since this store object loaded are kept, and none lands between the
        re-read and the rename. Other store objects' indexes go stale: their
        ``get`` misses rather than serve another key's line, and a reload
        sees the compacted file.

        Returns a summary dict: ``lines_before`` (valid lines read,
        i.e. including superseded duplicates), ``corrupt_lines`` and
        ``checksum_failures`` dropped, and ``records`` kept.
        """
        with self._lock:
            if not self.path.exists():
                return self._summary()
            tmp = self.path.with_name(self.path.name + ".compact.tmp")
            new_index: dict[str, tuple[int, int]] = {}
            with self._flocked("rb") as source, tmp.open("wb") as handle:
                # Pick up records other store handles appended after our load.
                self._index = {}
                self.corrupt_lines = 0
                self.checksum_failures = 0
                self._loaded_lines = 0
                self._load(source)
                summary = self._summary()
                position = 0
                for key, (offset, length) in self._index.items():
                    source.seek(offset)
                    line = source.read(length)
                    if not line.endswith(b"\n"):
                        line += b"\n"
                    handle.write(line)
                    new_index[key] = (position, len(line))
                    position += len(line)
                handle.flush()
                os.fsync(handle.fileno())
                os.replace(tmp, self.path)
            self._index = new_index
            self._loaded_lines = len(self._index)
            self.corrupt_lines = 0
            self.checksum_failures = 0
        metrics = current_registry()
        if metrics is not None:
            for reason, dropped in (
                ("superseded", summary["lines_before"] - summary["records"]),
                ("corrupt", summary["corrupt_lines"]),
                ("checksum", summary["checksum_failures"]),
            ):
                if dropped:
                    catalog.STORE_COMPACT_DROPPED.on(metrics, reason=reason).inc(dropped)
        return summary

    def _summary(self) -> dict:
        return {
            "lines_before": self._loaded_lines,
            "corrupt_lines": self.corrupt_lines,
            "checksum_failures": self.checksum_failures,
            "records": len(self._index),
        }

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._index)

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultsStore(path={str(self.path)!r}, entries={len(self)})"
