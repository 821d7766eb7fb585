"""``repro-cache`` — offline tooling for the durable plan store.

Two subcommands:

``repro-cache compact --store-dir DIR``
    Merge the shared ``snapshot.rpl`` (if any) and every
    ``shard-*.rpl`` segment into a fresh snapshot, last-writer-wins per
    key in (snapshot, then segments sorted by name) order.  The new
    snapshot is built in a temp file and renamed into place atomically,
    so shards warming mid-compaction see the old snapshot or the new one,
    never a half-written file.  ``--prune`` truncates the merged segments
    back to empty (header-only) afterwards — only safe while the shards
    are down, which is the whole point of *offline* compaction.

``repro-cache inspect PATH``
    Open a store file read-only (recovery classifies damage but repairs
    nothing) and print its recovery report and keys as JSON.

Every record travels through the same :class:`~repro.context.store.DurableStore`
framing/recovery path the serving tier uses: compaction cannot replay a
record that recovery would quarantine.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.context.store import (
    DurableStore,
    decode_entry,
    default_store_epoch,
    fsync_directory,
)
from repro.errors import ReproError

__all__ = ["main", "compact_store_dir", "inspect_store", "merge_store_dir"]

SNAPSHOT_NAME = "snapshot.rpl"
SEGMENT_GLOB = "shard-*.rpl"


def merge_store_dir(
    store_dir: str, epoch: Optional[str] = None
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Replay a store directory's files into one record map.

    The snapshot (if any) comes first, then the ``shard-*.rpl`` segments
    sorted by name.  Each file re-opens read-only through recovery, the
    last writer wins per key, and a record that fails
    :func:`~repro.context.store.decode_entry` is dropped.  Returns the
    merged records and, per file in that order, its ``path``, its
    ``entries`` count, its ``recovery`` report and its dropped records
    (``undecodable``, one ``{"key", "error"}`` each).
    """
    paths = sorted(glob.glob(os.path.join(store_dir, SEGMENT_GLOB)))
    snapshot_path = os.path.join(store_dir, SNAPSHOT_NAME)
    if os.path.exists(snapshot_path):
        paths.insert(0, snapshot_path)
    merged: Dict[str, object] = {}
    sources: List[Dict[str, object]] = []
    for path in paths:
        store = DurableStore(path, epoch=epoch, writable=False)
        undecodable = []
        for key, record in store.records.items():
            try:
                decode_entry(record)
            except ReproError as error:
                undecodable.append({"key": key, "error": str(error)})
            else:
                merged[key] = record
        sources.append(
            {
                "path": path,
                "entries": len(store.records),
                "recovery": store.report.as_dict(),
                "undecodable": undecodable,
            }
        )
        store.close()
    return merged, sources


def compact_store_dir(
    store_dir: str,
    epoch: Optional[str] = None,
    prune: bool = False,
) -> Dict[str, object]:
    """Merge snapshot + segments into a new snapshot; returns a summary."""
    epoch = epoch if epoch is not None else default_store_epoch()
    snapshot_path = os.path.join(store_dir, SNAPSHOT_NAME)
    merged, sources = merge_store_dir(store_dir, epoch)
    paths = [source["path"] for source in sources]
    reports = []
    for source in sources:
        report = source["recovery"]
        if source["undecodable"]:
            report["undecodable"] = source["undecodable"]
        reports.append(report)

    tmp_path = os.path.join(store_dir, f".{SNAPSHOT_NAME}.compacting")
    if os.path.exists(tmp_path):
        os.unlink(tmp_path)
    out = DurableStore(tmp_path, epoch=epoch, writable=True)
    try:
        for key in sorted(merged):
            _, entry = decode_entry(merged[key])
            out.append(key, entry)
    finally:
        out.close()
    os.replace(tmp_path, snapshot_path)
    # Make the rename durable before pruning the data it supersedes.
    fsync_directory(snapshot_path)

    pruned = []
    if prune:
        for path in paths:
            if path == snapshot_path:
                continue
            # Reset each merged segment to an empty (header-only) log so
            # its shard restarts with a clean single-writer file; the
            # entries now live in the snapshot.
            os.unlink(path)
            DurableStore(path, epoch=epoch, writable=True).close()
            pruned.append(path)

    return {
        "store_dir": store_dir,
        "snapshot": snapshot_path,
        "epoch": epoch,
        "sources": paths,
        "entries": len(merged),
        "pruned_segments": pruned,
        "recovery": reports,
    }


def inspect_store(path: str, epoch: Optional[str] = None) -> Dict[str, object]:
    """Recovery report + keys for one store file (read-only)."""
    store = DurableStore(path, epoch=epoch, writable=False)
    undecodable = []
    for key, record in sorted(store.records.items()):
        try:
            decode_entry(record)
        except ReproError as error:
            undecodable.append({"key": key, "error": str(error)})
    return {
        "path": path,
        "recovery": store.report.as_dict(),
        "entries": len(store.records),
        "keys": sorted(store.records),
        "undecodable": undecodable,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="offline durable plan-store tooling (compact / inspect)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compact = sub.add_parser(
        "compact",
        help="merge snapshot + shard segments into a fresh snapshot",
    )
    compact.add_argument("--store-dir", required=True)
    compact.add_argument(
        "--epoch",
        default=None,
        help="expected store epoch (default: the running build's epoch)",
    )
    compact.add_argument(
        "--prune",
        action="store_true",
        help="reset merged segments to empty logs (shards must be down)",
    )

    inspect = sub.add_parser("inspect", help="recovery report for one store file")
    inspect.add_argument("path")
    inspect.add_argument("--epoch", default=None)

    args = parser.parse_args(argv)
    if args.command == "compact":
        summary = compact_store_dir(
            args.store_dir, epoch=args.epoch, prune=args.prune
        )
    else:
        summary = inspect_store(args.path, epoch=args.epoch)
    try:
        print(json.dumps(summary, indent=2, sort_keys=True))
    except BrokenPipeError:
        # `repro-cache inspect big.rpl | head` closes stdout early; the
        # work (compaction!) already happened, so exit clean, not with a
        # traceback.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
