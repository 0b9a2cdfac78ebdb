#!/usr/bin/env python3
"""Tampers with a `repro_bench` run directory, for the crash-smoke job.

    journal_tamper.py forge <run-dir>      forge a worker `evil` whose copy of
                                           one cell differs; prints the cell key
    journal_tamper.py drop <run-dir> <key> drop every WAL record of cell <key>

A forged copy is another cell's text (valid, checksummed) journaled under the
victim's key, so only the merge's cross-worker digest check can catch it.
WAL layout: magic `RBJRNL2\\n`, then frames of [u32 le length][u64 le FNV-1a of
payload][payload]; a cell payload is
`cell <key> <digest> <episodes> <offset> <len> <label>`.
"""
import glob
import os
import shutil
import struct
import sys

MAGIC = b"RBJRNL2\n"


def fnv1a_64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def read_wal(worker):
    path = os.path.join(worker, "wal.bin")
    if not os.path.exists(path):
        return []  # a worker killed before its WAL was in place
    body = open(path, "rb").read()
    assert body.startswith(MAGIC), f"{worker}: no WAL magic"
    body, records = body[len(MAGIC):], []
    while len(body) >= 12:
        length, digest = struct.unpack("<IQ", body[:12])
        payload = body[12 : 12 + length]
        if len(payload) < length or fnv1a_64(payload) != digest:
            break  # torn tail
        records.append(payload.decode())
        body = body[12 + length :]
    return records


def write_wal(worker, records):
    out = bytearray(MAGIC)
    for record in records:
        payload = record.encode()
        out += struct.pack("<IQ", len(payload), fnv1a_64(payload)) + payload
    open(os.path.join(worker, "wal.bin"), "wb").write(out)


def forge(run_dir):
    for worker in sorted(glob.glob(os.path.join(run_dir, "workers", "*"))):
        records = read_wal(worker)
        cells = [r.split(" ", 6) for r in records if r.startswith("cell ")]
        victim = cells[0] if cells else None
        donor = next((c for c in cells if c[2] != victim[2]), None) if cells else None
        if donor is None:
            continue
        evil = os.path.join(run_dir, "workers", "evil")
        os.makedirs(evil)
        shutil.copy(os.path.join(worker, "cells.log"), os.path.join(evil, "cells.log"))
        write_wal(evil, [records[0], " ".join(["cell", victim[1]] + donor[2:6] + victim[6:])])
        print(victim[1])
        return
    sys.exit("no worker journaled two different cells")


def drop(run_dir, key):
    dropped = 0
    for worker in glob.glob(os.path.join(run_dir, "workers", "*")):
        records = read_wal(worker)
        kept = [r for r in records if not r.startswith(f"cell {key} ")]
        if len(kept) < len(records):
            dropped += len(records) - len(kept)
            write_wal(worker, kept)
    assert dropped > 0, f"no WAL journals cell {key}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["forge"] and len(sys.argv) == 3:
        forge(sys.argv[2])
    elif sys.argv[1:2] == ["drop"] and len(sys.argv) == 4:
        drop(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
