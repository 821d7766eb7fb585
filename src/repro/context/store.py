"""The durable L2 plan store and the tiered cache built on it.

The in-process :class:`~repro.context.plancache.PlanCache` (L1) dies with
its process; :class:`DurableStore` is the crash-safe L2 beneath it — an
append-only record log holding one record per ``sig|k{k}|fp`` cache entry.
Crash safety is *by construction*, not by protocol:

* every record is framed as ``u32 length | u32 crc32(payload) | payload``
  (little-endian), so a reader never has to trust anything but arithmetic;
* the first record is a header carrying the **store epoch** — a string
  derived from the cost-model version, the fingerprint scheme (WL rounds +
  quantization steps) and the top-k key semantics.  A log written under a
  different epoch is never replayed: replaying a plan priced by an old
  cost model, or keyed by an incompatible fingerprint, would be silently
  wrong in exactly the way CRCs cannot catch;
* appends go through one fsync-disciplined path (:meth:`DurableStore.append`);
  a failed append *poisons* the writer — the in-file tail may be torn, so
  the only honest continuation is to stop appending and let the next
  open repair the file.

**Open-time recovery** scans the log front to back and keeps the longest
valid prefix: a short frame or a length running past EOF is a *torn tail*
(the crash the log is designed for) and is truncated away; a CRC or JSON
mismatch is *corruption* — the record's bytes are quarantined to a
``<path>.quarantine`` sidecar (never replayed, never silently dropped)
and the file is truncated back to the last good record.  Either way the
store reopens writable with every surviving entry warm.

:class:`TieredPlanCache` stitches the tiers together: L1 stays the plain
LRU; misses consult the recovered warm map (decode + promote to L1);
puts admit to L2 by *cold-work provenance* (:class:`AdmissionPolicy`) so
the log holds plans that were expensive to compute, not every lookup.
Every L2 interaction is guarded by a ``plan_store``
:class:`~repro.service.breaker.CircuitBreaker` and fails open to L1-only
behaviour — an injected or organic store fault may cost durability,
never a wrong plan and never an optimization failure.

Sharded layout (single-writer discipline): each shard appends to its own
``shard-<id>.rpl`` segment and warms from a shared read-only
``snapshot.rpl`` plus its own recovered segment; the offline
``repro-cache compact`` tool (:mod:`repro.context.storecli`) merges
segments into a fresh snapshot.  No file ever has two writers.

:func:`atomic_write_text` is the repo-wide fsync-disciplined helper for
whole-file artifacts (reports, JSON exports); the ``durable-write`` lint
rule points writers here.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.context.fingerprint import QUANT_STEPS
from repro.context.plancache import (
    DEFAULT_CACHE_CAPACITY,
    CachedPlan,
    PlanCache,
)
from repro.errors import (
    ReproError,
    StoreCorruptionError,
    StoreEpochError,
    StoreError,
)
from repro.plans.join_tree import JoinNode, JoinTree, LeafNode

__all__ = [
    "STORE_MAGIC",
    "RECORD_FORMAT_VERSION",
    "default_store_epoch",
    "encode_plan",
    "decode_plan",
    "encode_entry",
    "decode_entry",
    "RecoveryReport",
    "DurableStore",
    "AdmissionPolicy",
    "TieredPlanCache",
    "atomic_write_text",
    "fsync_directory",
]

#: First bytes of every store file; anything else is not a plan log.
STORE_MAGIC = b"RPLG"

#: Bump when the record framing or payload schema changes shape.
RECORD_FORMAT_VERSION = 1

#: ``u32 payload length | u32 crc32(payload)``, little-endian.
_FRAME = struct.Struct("<II")

#: Sanity bound on a single record; a length field beyond this is treated
#: as tail garbage, not as an instruction to allocate gigabytes.
_MAX_RECORD_BYTES = 64 * 1024 * 1024


def default_store_epoch(cost_model_version: str = "haas-v1") -> str:
    """The epoch string new stores are stamped with.

    Every component that could make an old entry *silently wrong* for a
    new reader is folded in: the record schema, the fingerprint scheme
    (WL refinement + ``QUANT_STEPS`` quantization — a different scheme
    changes which queries share a key), the top-k key semantics from the
    ranked-entry work, and the cost-model version (stored trees replay
    through the live cost model, but admission provenance and ranked
    lists are priced under the writer's model).
    """
    return (
        f"record:v{RECORD_FORMAT_VERSION}"
        f"|fp:wl-q{QUANT_STEPS}"
        f"|topk:v1"
        f"|cost:{cost_model_version}"
    )


# ---------------------------------------------------------------------------
# plan (de)serialization — bit-exact via float hex round-trips
# ---------------------------------------------------------------------------


def encode_plan(tree: JoinTree) -> list:
    """Nested-list encoding of a join tree with bit-exact floats.

    Floats travel as ``float.hex()`` strings so a decode → re-encode round
    trip is the identity: the warm-hit bit-identity guarantee starts here.
    """
    if isinstance(tree, LeafNode):
        return ["L", tree.relation, float(tree.cardinality).hex(), tree.name]
    if isinstance(tree, JoinNode):
        return [
            "J",
            encode_plan(tree.left),
            encode_plan(tree.right),
            float(tree.cardinality).hex(),
            float(tree.operator_cost).hex(),
        ]
    raise StoreError(f"cannot encode join-tree node {type(tree).__name__}")


def decode_plan(obj: object) -> JoinTree:
    """Inverse of :func:`encode_plan`; raises :class:`StoreCorruptionError`
    on any structural surprise (a CRC-valid record can still be from a
    buggy writer — never let it crash the reader with a ``TypeError``)."""
    try:
        tag = obj[0]  # type: ignore[index]
        if tag == "L":
            _, relation, cardinality, name = obj  # type: ignore[misc]
            return LeafNode(int(relation), float.fromhex(cardinality), str(name))
        if tag == "J":
            _, left, right, cardinality, operator_cost = obj  # type: ignore[misc]
            return JoinNode(
                decode_plan(left),
                decode_plan(right),
                float.fromhex(cardinality),
                float.fromhex(operator_cost),
            )
    except StoreCorruptionError:
        raise
    except Exception as error:
        raise StoreCorruptionError(f"malformed plan encoding: {error}") from error
    raise StoreCorruptionError(f"unknown plan node tag {obj!r:.40}")


def encode_entry(key: str, entry: CachedPlan) -> Dict[str, object]:
    """Record payload for one cache entry (canonical numbering throughout)."""
    return {
        "key": key,
        "payload": entry.payload,
        "plan": encode_plan(entry.canonical_plan),
        "ranked": [encode_plan(tree) for tree in entry.canonical_ranked],
        "cold_seconds": float(entry.cold_seconds).hex(),
        "expansions": int(entry.expansions),
    }


def decode_entry(record: Dict[str, object]) -> Tuple[str, CachedPlan]:
    """Rebuild ``(key, CachedPlan)`` from a record payload."""
    try:
        key = record["key"]
        payload = record["payload"]
        ranked = record.get("ranked", ())
        cold = float.fromhex(record.get("cold_seconds", "0x0.0p+0"))
        expansions = int(record.get("expansions", 0))
    except Exception as error:
        raise StoreCorruptionError(f"malformed store record: {error}") from error
    if not isinstance(key, str) or not isinstance(payload, str):
        raise StoreCorruptionError("store record key/payload must be strings")
    plan = decode_plan(record.get("plan"))
    canonical_ranked = tuple(decode_plan(item) for item in ranked)
    return key, CachedPlan(
        plan,
        payload,
        canonical_ranked,
        cold_seconds=cold,
        expansions=expansions,
    )


# ---------------------------------------------------------------------------
# fsync-disciplined write helpers
# ---------------------------------------------------------------------------


def fsync_directory(path: str) -> None:
    """fsync the directory holding ``path`` so a rename/create is durable.

    Best-effort: some filesystems refuse ``O_DIRECTORY`` opens; losing the
    directory sync degrades durability of the *name*, never correctness.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # repro: disable=no-silent-fallback
        pass  # directory fsync unsupported here; file data is still synced
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically and durably.

    The fsync-disciplined whole-file writer the ``durable-write`` lint
    rule demands: data goes to a same-directory temp file, is fsynced,
    and is renamed over the target, so readers see the old contents or
    the new contents — never a torn mix — and a crash straight after
    return cannot lose the write.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    data = text.encode(encoding)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # repro: disable=no-silent-fallback
            pass  # temp already gone; the original target is untouched
        raise
    fsync_directory(path)


# ---------------------------------------------------------------------------
# the record log
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What one open-time recovery scan found and did."""

    path: str
    #: Entries replayed from the valid prefix (last-wins per key).
    entries_replayed: int = 0
    #: Distinct keys among the replayed entries.
    keys_recovered: int = 0
    #: Records whose CRC or payload failed — preserved in the sidecar.
    quarantined_records: int = 0
    #: True when a partial frame / short payload was truncated away.
    torn_tail: bool = False
    #: True when the header epoch (or magic/header itself) mismatched and
    #: the whole log was set aside rather than replayed.
    stale_epoch: bool = False
    #: Bytes removed from the tail by repair (0 for read-only opens).
    truncated_bytes: int = 0
    #: True when the file did not exist and was freshly created.
    created: bool = False
    #: Recovery wall time (diagnostics only; never part of any decision).
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "entries_replayed": self.entries_replayed,
            "keys_recovered": self.keys_recovered,
            "quarantined_records": self.quarantined_records,
            "torn_tail": self.torn_tail,
            "stale_epoch": self.stale_epoch,
            "truncated_bytes": self.truncated_bytes,
            "created": self.created,
            "elapsed_seconds": self.elapsed_seconds,
        }


class DurableStore:
    """An append-only, CRC-framed, epoch-stamped record log.

    Opening *is* recovery: the constructor scans the existing file,
    truncates a torn tail, quarantines corrupt records, and leaves
    ``self.records`` holding the surviving entries (last-wins per key).

    Parameters
    ----------
    path:
        The log file.  Created (with a fresh header) when missing and
        ``writable``.
    epoch:
        Expected store epoch; a file stamped otherwise is quarantined
        whole and re-created rather than replayed.  Defaults to
        :func:`default_store_epoch`.
    writable:
        ``False`` opens read-only (shared snapshots): recovery still
        classifies damage but repairs nothing on disk and ``append``
        refuses to run.
    fault_injector:
        Optional seeded store-fault source (duck-typed:
        ``wrap_handle(file)`` and ``epoch_fires()`` — see
        :class:`repro.resilience.faults.StoreFaultInjector`).  Wraps only
        the *writer* handle: recovery must stay an honest reader.
    fsync:
        Disable only in tests that measure something other than
        durability; the default is the point of the class.
    """

    def __init__(
        self,
        path: str,
        epoch: Optional[str] = None,
        writable: bool = True,
        fault_injector=None,
        fsync: bool = True,
    ):
        self.path = os.fspath(path)
        self.epoch = epoch if epoch is not None else default_store_epoch()
        self.writable = writable
        self.fsync = fsync
        self._faults = fault_injector
        self._lock = threading.Lock()
        self._handle = None
        self._failed = False
        self.appended = 0
        self.append_errors = 0
        #: key -> decoded record payload dict, last-wins, valid prefix only.
        self.records: "Dict[str, Dict[str, object]]" = {}
        self.report = self._recover()

    # -- recovery -------------------------------------------------------

    def _recover(self) -> RecoveryReport:
        started = time.perf_counter()
        report = RecoveryReport(path=self.path)
        exists = os.path.exists(self.path)
        if not exists:
            if self.writable:
                self._create_fresh()
                report.created = True
            report.elapsed_seconds = time.perf_counter() - started
            self._open_writer()
            return report

        with open(self.path, "rb") as handle:  # repro: disable=durable-write
            data = handle.read()

        good_end, stale = self._scan(data, report)
        if stale:
            # Wrong magic, unreadable header, or a mismatched epoch: the
            # whole file is from another world.  Set it aside untouched
            # (operators can inspect or re-epoch it) and start fresh.
            report.stale_epoch = True
            # Recovery runs from __init__, before any other thread
            # can hold a reference to this store.
            self.records.clear()  # repro: unguarded-ok
            if self.writable:
                os.replace(self.path, f"{self.path}.stale")
                fsync_directory(self.path)
                self._create_fresh()
        elif good_end < len(data) and self.writable:
            report.truncated_bytes = len(data) - good_end
            with open(self.path, "r+b") as handle:  # repro: disable=durable-write
                handle.truncate(good_end)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        elif good_end < len(data):
            report.truncated_bytes = len(data) - good_end

        report.entries_replayed = self._replayed
        report.keys_recovered = len(self.records)  # repro: unguarded-ok
        report.elapsed_seconds = time.perf_counter() - started
        self._open_writer()
        return report

    def _scan(self, data: bytes, report: RecoveryReport) -> Tuple[int, bool]:
        """Walk the frames; returns (end of valid prefix, stale flag)."""
        self._replayed = 0
        if not data.startswith(STORE_MAGIC):
            return 0, True
        offset = len(STORE_MAGIC)
        header, end = self._read_frame(data, offset)
        if header is None:
            # A file so torn its header never made it to disk carries no
            # epoch promise at all; treat as stale rather than guessing.
            return 0, True
        try:
            meta = json.loads(header)
        except ValueError:
            return 0, True
        if not isinstance(meta, dict) or meta.get("epoch") != self.epoch:
            return 0, True
        offset = end
        while offset < len(data):
            payload, end = self._read_frame(data, offset)
            if payload is None:
                if end < 0:
                    # CRC mismatch: corruption inside the frame.  Preserve
                    # the bytes, then keep only the prefix before it —
                    # anything after an acknowledged-corrupt region is
                    # unordered rubble as far as replay trust goes.
                    self._quarantine(data[offset:], offset, "crc-mismatch")
                    report.quarantined_records += 1
                else:
                    report.torn_tail = True
                return offset, False
            try:
                record = json.loads(payload)
                if not isinstance(record, dict):
                    raise ValueError("record payload is not an object")
                key = record["key"]
                if not isinstance(key, str):
                    raise ValueError("record key is not a string")
            except (ValueError, KeyError) as error:
                # CRC-valid but semantically broken: a buggy or hostile
                # writer, not a torn disk.  Same quarantine discipline.
                self._quarantine(
                    data[offset:end], offset, f"bad-payload: {error}"
                )
                report.quarantined_records += 1
                return offset, False
            self.records[key] = record  # repro: unguarded-ok
            self._replayed += 1
            offset = end
        return offset, False

    @staticmethod
    def _read_frame(data: bytes, offset: int) -> Tuple[Optional[bytes], int]:
        """One frame at ``offset``.

        Returns ``(payload, next_offset)``; ``(None, next_offset)`` for a
        torn tail (short frame/payload or absurd length) and ``(None, -1)``
        for a CRC mismatch.
        """
        if offset + _FRAME.size > len(data):
            return None, len(data)
        length, crc = _FRAME.unpack_from(data, offset)
        if length > _MAX_RECORD_BYTES:
            return None, len(data)
        start = offset + _FRAME.size
        if start + length > len(data):
            return None, len(data)
        payload = data[start : start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return None, -1
        return payload, start + length

    def _quarantine(self, blob: bytes, offset: int, reason: str) -> None:
        """Preserve rejected bytes in the sidecar; never replay them."""
        line = json.dumps(
            {"offset": offset, "reason": reason, "hex": blob.hex()},
            sort_keys=True,
        )
        # Plain append: the sidecar is evidence, not state — a torn
        # sidecar line loses forensics, never correctness.
        with open(f"{self.path}.quarantine", "a", encoding="utf-8") as handle:  # repro: disable=durable-write
            handle.write(line + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def _create_fresh(self) -> None:
        header = json.dumps(
            {
                "store": "repro-plan-store",
                "version": RECORD_FORMAT_VERSION,
                "epoch": self.epoch,
            },
            sort_keys=True,
        ).encode("utf-8")
        frame = _FRAME.pack(len(header), zlib.crc32(header) & 0xFFFFFFFF)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(STORE_MAGIC + frame + header)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        except BaseException:
            raise
        fsync_directory(self.path)

    def _open_writer(self) -> None:
        if not self.writable:
            return
        handle = open(self.path, "ab")  # repro: disable=durable-write
        if self._faults is not None:
            handle = self._faults.wrap_handle(handle)
        self._handle = handle  # repro: unguarded-ok

    # -- appends --------------------------------------------------------

    def append(self, key: str, entry: CachedPlan) -> None:
        """Durably append one entry; raises :class:`StoreError` on failure.

        A failed append poisons the store: the on-disk tail may be torn,
        so further appends are refused until the next open repairs the
        file.  Callers (the tiered cache) treat every failure as a
        fail-open signal, never as fatal.
        """
        payload = json.dumps(
            encode_entry(key, entry), sort_keys=True
        ).encode("utf-8")
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        with self._lock:
            if not self.writable:
                raise StoreError(f"store {self.path} is read-only")
            if self._failed or self._handle is None:
                raise StoreError(
                    f"store {self.path} is poisoned by an earlier failed "
                    "append; reopen to repair"
                )
            if self._faults is not None and self._faults.epoch_fires():
                self._failed = True
                self.append_errors += 1
                raise StoreEpochError(
                    f"[injected] store {self.path} epoch went stale "
                    "under the writer"
                )
            try:
                self._handle.write(frame + payload)
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except Exception as error:
                self._failed = True
                self.append_errors += 1
                raise StoreError(
                    f"append to {self.path} failed: {error}"
                ) from error
            self.appended += 1
            self.records[key] = json.loads(payload.decode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:  # repro: disable=no-silent-fallback
                    pass  # close-time flush of a poisoned handle; repaired at next open
                self._handle = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def poisoned(self) -> bool:
        with self._lock:
            return self._failed

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "path": self.path,
                "epoch": self.epoch,
                "writable": self.writable,
                "entries": len(self.records),
                "appended": self.appended,
                "append_errors": self.append_errors,
                "poisoned": self._failed,
                "recovery": self.report.as_dict(),
            }

    def __repr__(self) -> str:
        state = "poisoned" if self._failed else "ok"  # repro: unguarded-ok
        return (
            f"DurableStore({self.path!r}, entries={len(self.records)}, "  # repro: unguarded-ok
            f"{state})"
        )


# ---------------------------------------------------------------------------
# admission + the tiered cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionPolicy:
    """Cost-aware L2 admission: persist only work worth re-losing a crash over.

    An entry is admitted when its cold run met *both* thresholds; the
    defaults admit everything.  ``min_expansions`` is the deterministic
    lever (ccp expansions enumerated cold — identical across runs and
    machines); ``min_cold_seconds`` is the operator-facing one.
    """

    min_cold_seconds: float = 0.0
    min_expansions: int = 0

    def admits(self, entry: CachedPlan) -> bool:
        return (
            entry.cold_seconds >= self.min_cold_seconds
            and entry.expansions >= self.min_expansions
        )


def _plan_store_breaker():
    """The L2 guard: three consecutive failures open it for one second."""
    # Deferred: repro.service imports this package at module load.
    from repro.service.breaker import CircuitBreaker

    return CircuitBreaker("plan_store", failure_threshold=3, cooldown_seconds=1.0)


class TieredPlanCache(PlanCache):
    """L1 LRU + durable L2, fail-open by construction.

    Drop-in for :class:`PlanCache` everywhere (optimizer, service,
    shards): ``get``/``put`` keep their signatures, and every L2 fault —
    injected or organic — degrades the instance to exactly the L1
    behaviour the rest of the stack was already tested against.

    Use :meth:`open` to build one from a segment path (+ optional shared
    snapshots); the plain constructor accepts an already-opened store.
    """

    __slots__ = (
        "_store",
        "_warm",
        "_warm_lock",
        "_persisted",
        "_admission",
        "_breaker",
        "_telemetry",
        "l2_hits",
        "l2_misses",
        "store_errors",
        "fail_open_skips",
        "admission_skips",
        "decode_errors",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        store: Optional[DurableStore] = None,
        warm_records: Optional[Dict[str, Dict[str, object]]] = None,
        admission: Optional[AdmissionPolicy] = None,
        breaker=None,
        telemetry=None,
    ):
        super().__init__(capacity)
        self._store = store
        self._warm: Dict[str, Dict[str, object]] = dict(warm_records or {})
        if store is not None:
            self._warm.update(store.records)
        self._warm_lock = threading.Lock()
        self._persisted = set(self._warm)
        self._admission = admission if admission is not None else AdmissionPolicy()
        self._breaker = breaker if breaker is not None else _plan_store_breaker()
        self._telemetry = telemetry
        self.l2_hits = 0
        self.l2_misses = 0
        self.store_errors = 0
        self.fail_open_skips = 0
        self.admission_skips = 0
        self.decode_errors = 0
        if telemetry is not None:
            telemetry.registry.counter(
                "repro_cache_store_warm_entries_total",
                "entries recovered warm from the durable store at open",
            ).inc(len(self._warm))

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        epoch: Optional[str] = None,
        snapshot_paths: Sequence[str] = (),
        admission: Optional[AdmissionPolicy] = None,
        fault_injector=None,
        telemetry=None,
        breaker=None,
        fsync: bool = True,
    ) -> "TieredPlanCache":
        """Open (recovering) a writable segment plus read-only snapshots.

        Missing snapshots are skipped; a snapshot or segment that cannot
        be opened at all degrades this instance to fewer warm entries or
        to L1-only — opening *never* raises for store-side reasons.
        """
        warm: Dict[str, Dict[str, object]] = {}
        if breaker is None:
            breaker = _plan_store_breaker()
        for snapshot_path in snapshot_paths:
            if not os.path.exists(snapshot_path):
                continue
            try:
                snapshot = DurableStore(
                    snapshot_path, epoch=epoch, writable=False, fsync=fsync
                )
                warm.update(snapshot.records)
                if telemetry is not None:
                    telemetry.event(
                        "store_snapshot_warmed", **snapshot.report.as_dict()
                    )
            except (ReproError, OSError, ValueError):
                breaker.record_failure()
        store: Optional[DurableStore] = None
        try:
            store = DurableStore(
                path,
                epoch=epoch,
                writable=True,
                fault_injector=fault_injector,
                fsync=fsync,
            )
            if telemetry is not None:
                with telemetry.span("store_open", path=path) as span:
                    span.set(**store.report.as_dict())
        except (ReproError, OSError, ValueError):
            # Fail open: no durable tier, but serving is unaffected.
            breaker.record_failure()
            if telemetry is not None:
                telemetry.registry.counter(
                    "repro_cache_store_errors_total",
                    "durable-store operations that failed (failed open)",
                ).inc()
        cache = cls(
            capacity,
            store=store,
            warm_records=warm,
            admission=admission,
            breaker=breaker,
            telemetry=telemetry,
        )
        if store is None:
            cache.store_errors += 1
        return cache

    # -- metrics helpers ------------------------------------------------

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                f"repro_cache_store_{name}", help_text
            ).inc(amount)

    # -- tiered get/put -------------------------------------------------

    def get(self, key: str) -> Optional[CachedPlan]:
        entry = super().get(key)
        if entry is not None:
            return entry
        with self._warm_lock:
            record = self._warm.get(key)
        if record is None:
            with self._warm_lock:
                self.l2_misses += 1
            return None
        try:
            _, cached = decode_entry(record)
        except (ReproError, OSError) as error:
            # A record that survived the CRC but will not decode: drop it
            # from the warm map (it can never serve) and fail open.
            with self._warm_lock:
                self._warm.pop(key, None)
                self.decode_errors += 1
                self.l2_misses += 1
            self._breaker.record_failure()
            self._count(
                "decode_errors_total",
                "warm records that failed to decode (dropped, failed open)",
            )
            if self._telemetry is not None:
                self._telemetry.event(
                    "store_decode_error", key=key, error=str(error)
                )
            return None
        super().put(key, cached)
        with self._warm_lock:
            self.l2_hits += 1
        self._count("l2_hits_total", "plan-cache hits served from the durable tier")
        return cached.clone()

    def put(self, key: str, entry: CachedPlan) -> None:
        super().put(key, entry)
        if self._store is None:
            return
        if not self._admission.admits(entry):
            with self._warm_lock:
                self.admission_skips += 1
            self._count(
                "admission_skips_total",
                "entries kept L1-only by the admission policy",
            )
            return
        with self._warm_lock:
            if key in self._persisted:
                return
        if not self._breaker.allow():
            with self._warm_lock:
                self.fail_open_skips += 1
            self._count(
                "fail_open_total",
                "L2 writes skipped while the store breaker was open",
            )
            return
        try:
            self._store.append(key, entry)
        except (ReproError, OSError) as error:
            with self._warm_lock:
                self.store_errors += 1
            self._breaker.record_failure()
            self._count(
                "errors_total",
                "durable-store operations that failed (failed open)",
            )
            if self._telemetry is not None:
                self._telemetry.event(
                    "store_append_failed", key=key, error=str(error)
                )
            return
        except BaseException:
            # Record the outcome before propagating: a half-open breaker
            # admits one probe, and only an outcome hands its slot back.
            self._breaker.record_failure()
            raise
        self._breaker.record_success()
        with self._warm_lock:
            self._persisted.add(key)
            self._warm[key] = self._store.records[key]
        self._count("appends_total", "entries durably appended to the L2 store")

    # -- lifecycle / introspection --------------------------------------

    @property
    def store(self) -> Optional[DurableStore]:
        return self._store

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    def warm_keys(self) -> List[str]:
        with self._warm_lock:
            return sorted(self._warm)

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    def snapshot(self) -> Dict[str, object]:
        base = super().snapshot()
        with self._warm_lock:
            base["l2"] = {
                "warm_entries": len(self._warm),
                "hits": self.l2_hits,
                "misses": self.l2_misses,
                "store_errors": self.store_errors,
                "fail_open_skips": self.fail_open_skips,
                "admission_skips": self.admission_skips,
                "decode_errors": self.decode_errors,
                "breaker": self._breaker.snapshot(),
                "store": (
                    self._store.snapshot() if self._store is not None else None
                ),
            }
        return base
