//! Property tests of the run journal's write-ahead log: recovery from any
//! truncation point (a SIGKILL mid-append) and from arbitrary single-byte
//! corruption must yield exactly the longest intact record prefix — and
//! never panic.

use proptest::prelude::*;
use repro_bench::journal::{
    encode_frame, scan_frames, JournalHandle, RunHeader, MAGIC, SOLO_WORKER,
};
use std::path::PathBuf;

/// Deterministic synthetic payloads, shaped like real journal records.
fn payloads(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| format!("cell {i:016x} {:016x} {} fig5/agent-{i}", i * 31 + 7, 4 + i))
        .collect()
}

/// A WAL body (no magic) of `count` frames, plus each frame's end offset.
fn body_with_offsets(count: usize) -> (Vec<u8>, Vec<usize>) {
    let mut body = Vec::new();
    let mut ends = Vec::new();
    for p in payloads(count) {
        body.extend_from_slice(&encode_frame(&p));
        ends.push(body.len());
    }
    (body, ends)
}

fn temp(name: &str, tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn header() -> RunHeader {
    RunHeader {
        seed: 10_000,
        config_hash: 0x1234_5678_9abc_def0,
        box_episodes: 4,
        scatter_rounds: 2,
    }
}

proptest! {
    /// Truncating the WAL at ANY byte recovers exactly the frames that fit
    /// completely within the cut, and the reported valid length is stable
    /// (re-scanning the valid prefix reproduces the same records).
    #[test]
    fn truncation_recovers_the_longest_full_prefix(n in any::<u8>(), cut in any::<u16>()) {
        let count = 1 + (n % 8) as usize;
        let (body, ends) = body_with_offsets(count);
        let cut = (cut as usize) % (body.len() + 1);
        let (records, valid_len) = scan_frames(&body[..cut]);
        let expected = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(records.len(), expected);
        prop_assert_eq!(&records[..], &payloads(count)[..expected]);
        prop_assert!(valid_len <= cut);
        let (again, len_again) = scan_frames(&body[..valid_len]);
        prop_assert_eq!(again, records);
        prop_assert_eq!(len_again, valid_len);
    }

    /// Flipping ANY single byte never panics and never yields anything but
    /// a prefix of the original records; every frame that ends before the
    /// flipped byte survives.
    #[test]
    fn corruption_yields_an_intact_prefix(n in any::<u8>(), idx in any::<u16>()) {
        let count = 1 + (n % 8) as usize;
        let (mut body, ends) = body_with_offsets(count);
        let idx = (idx as usize) % body.len();
        body[idx] ^= 0x5a;
        let (records, _) = scan_frames(&body);
        let all = payloads(count);
        let intact = ends.iter().filter(|&&e| e <= idx).count();
        // The scan stops at (or possibly after, if the flip hits a frame
        // whose checksum happens to still match — impossible for FNV over
        // a changed byte, so exactly at) the corrupted frame.
        prop_assert_eq!(&records[..], &all[..intact]);
    }

    /// End-to-end: kill a journal at an arbitrary byte, resume it, append,
    /// and resume again — the journal always comes back with the intact
    /// prefix plus the post-recovery append.
    #[test]
    fn append_after_recovery_survives_the_next_resume(n in any::<u8>(), cut in any::<u16>()) {
        let count = 1 + (n % 4) as usize;
        let tag = (n as u64) << 16 | cut as u64;
        let dir = temp("repro-bench-journal-prop", tag);
        let journal = JournalHandle::create(&dir, header()).unwrap();
        let records: Vec<_> = (0..count)
            .map(|i| drive_sim::record::EpisodeRecord {
                steps: i,
                dt: 0.1,
                ..Default::default()
            })
            .collect();
        for (i, _) in records.iter().enumerate() {
            journal.store_cell(i as u64, &format!("cell-{i}"), count, &records).unwrap();
        }
        drop(journal);

        // Kill: truncate the WAL anywhere past the magic + header frame
        // (cutting into the header is a hard Corrupt error by design,
        // covered by the unit tests).
        let wal = dir.join("workers").join(SOLO_WORKER).join("wal.bin");
        let bytes = std::fs::read(&wal).unwrap();
        let h = header();
        let header_line = format!(
            "run {:016x} {:016x} {} {}",
            h.seed, h.config_hash, h.box_episodes, h.scatter_rounds
        );
        let min = MAGIC.len() + encode_frame(&header_line).len();
        let cut = min + (cut as usize) % (bytes.len() - min + 1);
        std::fs::write(&wal, &bytes[..cut]).unwrap();

        let journal = JournalHandle::resume(&dir, header()).unwrap();
        let recovered = journal.cell_count();
        prop_assert!(recovered <= count);
        journal.store_cell(0xffff, "post-recovery", count, &records).unwrap();
        drop(journal);
        let journal = JournalHandle::resume(&dir, header()).unwrap();
        prop_assert_eq!(journal.cell_count(), recovered + 1);
        prop_assert!(journal.load_cell(0xffff, count).is_some());
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
