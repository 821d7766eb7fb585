"""DurableStore framing, recovery, and the crash-corruption sweep."""

import json
import os
import struct
import zlib

import pytest

from repro.context import (
    CachedPlan,
    DurableStore,
    OptimizationContext,
    fingerprint,
    replay_plan,
)
from repro.context.store import (
    RECORD_FORMAT_VERSION,
    STORE_MAGIC,
    atomic_write_text,
    decode_entry,
    decode_plan,
    default_store_epoch,
    encode_entry,
    encode_plan,
)
from repro.context.storecli import compact_store_dir, inspect_store
from repro.core.optimizer import run_dpccp
from repro.errors import StoreCorruptionError, StoreError
from repro.workload.generator import QueryGenerator

_FRAME = struct.Struct("<II")


@pytest.fixture
def query():
    return QueryGenerator(seed=33).generate("star", 6)


def _entry_for(query, cold_seconds=0.25, expansions=99):
    plan = run_dpccp(query).plan
    fp = fingerprint(query)
    return fp.key, CachedPlan(
        plan.relabel(fp.mapping),
        fp.payload,
        cold_seconds=cold_seconds,
        expansions=expansions,
    )


def _frames(path):
    """Parse ``path`` with an independent reader; returns payload list."""
    data = open(path, "rb").read()
    assert data.startswith(STORE_MAGIC)
    offset = len(STORE_MAGIC)
    payloads = []
    while offset < len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        payload = data[start : start + length]
        assert zlib.crc32(payload) & 0xFFFFFFFF == crc
        payloads.append(payload)
        offset = start + length
    return payloads


class TestEncoding:
    def test_plan_round_trip_is_bit_exact(self, query):
        plan = run_dpccp(query).plan
        again = decode_plan(encode_plan(plan))
        assert again.sexpr() == plan.sexpr()
        assert again.cost.hex() == plan.cost.hex()
        assert encode_plan(again) == encode_plan(plan)

    def test_entry_round_trip_preserves_provenance_and_ranked(self, query):
        ranked = run_dpccp(query, topk=3).ranked
        fp = fingerprint(query)
        canonical = tuple(p.relabel(fp.mapping) for p in ranked)
        entry = CachedPlan(
            canonical[0],
            fp.payload,
            canonical,
            cold_seconds=0.125,
            expansions=7,
            algorithm=("dpccp", "dpccp"),
        )
        key, back = decode_entry(encode_entry("k", entry))
        assert key == "k"
        assert back.payload == fp.payload
        assert back.cold_seconds == 0.125 and back.expansions == 7
        assert back.algorithm == ("dpccp", "dpccp")
        assert [p.sexpr() for p in back.canonical_ranked] == [
            p.sexpr() for p in canonical
        ]

    def test_record_without_an_algorithm_decodes_to_none(self, query):
        fp = fingerprint(query)
        plan = run_dpccp(query).plan.relabel(fp.mapping)
        record = encode_entry("k", CachedPlan(plan, fp.payload))
        del record["algorithm"]
        _, back = decode_entry(record)
        assert back.algorithm is None

    def test_decode_rejects_a_malformed_algorithm(self, query):
        fp = fingerprint(query)
        plan = run_dpccp(query).plan.relabel(fp.mapping)
        record = encode_entry("k", CachedPlan(plan, fp.payload))
        for bad in (["dpccp"], [1, 2], "dpccp"):
            record["algorithm"] = bad
            with pytest.raises(StoreCorruptionError):
                decode_entry(record)

    def test_decode_rejects_malformed_structures(self):
        for bad in (["X", 1, "0x1p+0", "R1"], [], {"key": 1}, None):
            with pytest.raises(StoreCorruptionError):
                decode_plan(bad)
        with pytest.raises(StoreCorruptionError):
            decode_entry({"key": 3, "payload": "p", "plan": ["L"]})

    def test_epoch_folds_in_schema_and_cost_model(self):
        epoch = default_store_epoch()
        assert f"record:v{RECORD_FORMAT_VERSION}" in epoch
        assert "cost:haas-v1" in epoch
        assert default_store_epoch("other-v2") != epoch


class TestStoreLifecycle:
    def test_fresh_store_has_header_and_created_report(self, tmp_path):
        store = DurableStore(str(tmp_path / "seg.rpl"))
        assert store.report.created
        assert store.records == {}
        header = json.loads(_frames(store.path)[0])
        assert header["epoch"] == store.epoch
        store.close()

    def test_append_then_reopen_replays_last_wins(self, tmp_path, query):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        with DurableStore(path) as store:
            store.append(key, entry)
            store.append("other", entry)
            store.append(key, entry)  # duplicate key: last wins
            assert store.appended == 3
        again = DurableStore(path)
        assert again.report.entries_replayed == 3
        assert again.report.keys_recovered == 2
        assert sorted(again.records) == sorted([key, "other"])
        _, decoded = decode_entry(again.records[key])
        assert decoded.canonical_plan.sexpr() == entry.canonical_plan.sexpr()
        again.close()

    def test_replayed_entry_serves_an_isomorphic_query(self, tmp_path, query):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        with DurableStore(path) as store:
            store.append(key, entry)
        again = DurableStore(path)
        _, decoded = decode_entry(again.records[key])
        context = OptimizationContext.for_query(query)
        replayed = replay_plan(
            decoded.canonical_plan, fingerprint(query).mapping, context
        )
        assert replayed.cost.hex() == run_dpccp(query).plan.cost.hex()
        again.close()

    def test_stale_epoch_sets_file_aside_and_starts_fresh(
        self, tmp_path, query
    ):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        with DurableStore(path, epoch="epoch-A") as store:
            store.append(key, entry)
        reopened = DurableStore(path, epoch="epoch-B")
        assert reopened.report.stale_epoch
        assert reopened.records == {}
        # The old log is preserved verbatim for operators, never replayed.
        assert os.path.exists(path + ".stale")
        old = DurableStore(path + ".stale", epoch="epoch-A", writable=False)
        assert key in old.records
        reopened.close()

    def test_read_only_open_classifies_but_never_repairs(
        self, tmp_path, query
    ):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        with DurableStore(path) as store:
            store.append(key, entry)
        size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # torn tail
        snapshot = DurableStore(path, writable=False)
        assert snapshot.report.torn_tail
        assert snapshot.report.truncated_bytes == 3
        assert key in snapshot.records
        assert os.path.getsize(path) == size + 3  # untouched on disk
        with pytest.raises(StoreError):
            snapshot.append(key, entry)

    def test_failed_append_poisons_until_reopen(self, tmp_path, query):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        store = DurableStore(path)
        store.append(key, entry)
        store._handle.close()  # simulate the disk yanking the handle
        with pytest.raises(StoreError):
            store.append("k2", entry)
        assert store.poisoned
        with pytest.raises(StoreError):  # refuses fast, no second write
            store.append("k3", entry)
        repaired = DurableStore(path)
        assert not repaired.poisoned
        assert key in repaired.records
        repaired.append("k2", entry)
        repaired.close()


class TestCrashSweep:
    """Property-style: truncate/corrupt the last record at *every* byte.

    Whatever single byte of the final record a crash tears or a disk
    flips, recovery must end in one of exactly two honest states — the
    record truncated away (torn tail) or quarantined (corruption) — and
    the surviving prefix must replay byte-identically.  No third outcome,
    no exceptions, ever.
    """

    @pytest.fixture
    def prepared(self, tmp_path, query):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        with DurableStore(path) as store:
            store.append("first", entry)
            store.append("second", entry)
            store.append(key, entry)
        data = open(path, "rb").read()
        # Walk frames to find where the last record's bytes begin.
        offset = len(STORE_MAGIC)
        starts = []
        while offset < len(data):
            starts.append(offset)
            length, _ = _FRAME.unpack_from(data, offset)
            offset = offset + _FRAME.size + length
        last_start = starts[-1]  # skip header frame at starts[0]
        return path, data, last_start, {"first", "second"}

    def test_truncation_at_every_offset_recovers_the_prefix(
        self, prepared, tmp_path
    ):
        path, data, last_start, prefix_keys = prepared
        victim = str(tmp_path / "victim.rpl")
        for cut in range(last_start, len(data)):
            with open(victim, "wb") as handle:
                handle.write(data[:cut])
            store = DurableStore(victim, fsync=False)
            assert set(store.records) == prefix_keys, f"cut={cut}"
            if cut > last_start:
                assert store.report.torn_tail, f"cut={cut}"
                assert store.report.truncated_bytes == cut - last_start
            assert store.report.quarantined_records == 0, f"cut={cut}"
            # Repaired in place: a second open is clean and appendable.
            store.close()
            again = DurableStore(victim, fsync=False)
            assert set(again.records) == prefix_keys, f"cut={cut}"
            assert not again.report.torn_tail, f"cut={cut}"
            assert os.path.getsize(victim) == last_start, f"cut={cut}"
            again.close()

    def test_corruption_at_every_offset_quarantines_or_tears(
        self, prepared, tmp_path
    ):
        path, data, last_start, prefix_keys = prepared
        victim = str(tmp_path / "victim.rpl")
        quarantines = 0
        for index in range(last_start, len(data)):
            corrupted = bytearray(data)
            corrupted[index] ^= 0xFF
            with open(victim, "wb") as handle:
                handle.write(bytes(corrupted))
            sidecar = victim + ".quarantine"
            if os.path.exists(sidecar):
                os.unlink(sidecar)
            store = DurableStore(victim, fsync=False)
            # The two honest outcomes; never a third, never a crash.
            assert set(store.records) == prefix_keys, f"index={index}"
            torn = store.report.torn_tail or store.report.truncated_bytes
            quarantined = store.report.quarantined_records
            assert torn or quarantined, f"index={index}"
            if quarantined:
                quarantines += 1
                assert os.path.exists(sidecar), f"index={index}"
                evidence = [
                    json.loads(line)
                    for line in open(sidecar, encoding="utf-8")
                ]
                assert evidence[0]["offset"] == last_start
            store.close()
        # Flips inside the payload body must be caught by the CRC, so the
        # sweep has to quarantine many times, not just tear.
        assert quarantines > (len(data) - last_start) // 2


class TestCompactionCli:
    def test_compact_merges_segments_and_prunes(self, tmp_path, query):
        store_dir = str(tmp_path)
        key, entry = _entry_for(query)
        with DurableStore(os.path.join(store_dir, "shard-0.rpl")) as seg:
            seg.append("a", entry)
            seg.append(key, entry)
        with DurableStore(os.path.join(store_dir, "shard-1.rpl")) as seg:
            seg.append("b", entry)
        summary = compact_store_dir(store_dir, prune=True)
        assert summary["entries"] == 3
        assert len(summary["pruned_segments"]) == 2
        snapshot = DurableStore(
            os.path.join(store_dir, "snapshot.rpl"), writable=False
        )
        assert sorted(snapshot.records) == sorted(["a", "b", key])
        # Pruned segments are valid empty logs, ready for their shard.
        for name in ("shard-0.rpl", "shard-1.rpl"):
            seg = DurableStore(os.path.join(store_dir, name), writable=False)
            assert seg.records == {}

    def test_inspect_reports_recovery_and_keys(self, tmp_path, query):
        path = str(tmp_path / "seg.rpl")
        key, entry = _entry_for(query)
        with DurableStore(path) as store:
            store.append(key, entry)
        summary = inspect_store(path)
        assert summary["keys"] == [key]
        assert summary["undecodable"] == []
        assert summary["recovery"]["keys_recovered"] == 1


class TestAtomicWriteText:
    def test_writes_and_replaces_atomically(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "one")
        atomic_write_text(str(target), "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter
