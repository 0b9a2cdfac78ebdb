//! Pins the digests that hash a type's `Debug` text.
//!
//! A scenario's fingerprint hashes `format!("{:?}")` of its `Scenario`
//! (and so of its `Road`); the scenario matrix's records checksum hashes
//! `EpisodeRecord`s the same way. The benchmark's expected outputs pin
//! what they produce, so deleting or renaming a field of these types
//! must fail here, in `cargo test`, and not only in the benchmark gate.

use drive_seed::{fnv1a_64, SeedTree};
use drive_sim::record::EpisodeRecord;
use drive_sim::scenario::ScenarioSpec;
use repro_bench::experiments::scenario_matrix::generate_matrix;

#[test]
fn preset_fingerprints_are_pinned() {
    let got: Vec<(String, u64)> = [
        ScenarioSpec::dense_traffic(),
        ScenarioSpec::sparse_traffic(),
        ScenarioSpec::two_lane(),
        ScenarioSpec::on_ramp_merge(),
        ScenarioSpec::lane_drop(),
    ]
    .into_iter()
    .map(|s| (s.name.clone(), s.fingerprint()))
    .collect();
    let want = [
        ("dense_traffic", 0x7f04_454f_615d_d47c),
        ("sparse_traffic", 0xbc6a_9d55_7857_4876),
        ("two_lane", 0x022e_7dc1_af47_4ee3),
        ("on_ramp_merge", 0x0a80_8bae_5e68_99c3),
        ("lane_drop", 0x16be_b4ed_67a9_8435),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|&(n, f)| (n.to_string(), f)).collect();
    assert_eq!(got, want);
}

#[test]
fn first_matrix_scenario_fingerprint_is_pinned() {
    let first = &generate_matrix(&SeedTree::root(10_000).child("scenario-matrix"))[0];
    assert_eq!(
        first.spec.name,
        "straight_sparse_slow_f000_f94c55138b9fe38a"
    );
    assert_eq!(first.spec.fingerprint(), 0x3618_0c22_a5f4_9c7e);
}

#[test]
fn episode_record_debug_digest_is_pinned() {
    let digest = fnv1a_64(format!("{:?}", EpisodeRecord::default()).as_bytes());
    assert_eq!(digest, 0x7186_ac94_b9ff_ce92);
}
