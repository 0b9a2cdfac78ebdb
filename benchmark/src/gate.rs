//! The output gate and the artifact guard.
//!
//! Expected outputs live in `benchmark/expected/<workload>.txt`, one
//! `<seed> <key> <value>` line per output file digest (FNV-1a, hex) or
//! exact count. A run at a seed listed there must reproduce every value;
//! a run at any other seed is held to determinism instead (every iteration
//! of the run must match the first). Each run writes its own values in the
//! same format to `benchmark/work/<workload>/outputs-s<seed>.txt`.

use drive_seed::fnv1a_64;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::SystemTime;

/// Output key -> value (digest or count), as text.
pub type Outputs = BTreeMap<String, String>;

/// FNV-1a digest of a file's bytes, as 16 hex digits.
pub fn file_digest(path: &Path) -> Result<String, String> {
    std::fs::read(path)
        .map(|bytes| format!("{:016x}", fnv1a_64(&bytes)))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The expected outputs for `seed` in an expected-outputs file, or `None`
/// when the file lists nothing for that seed.
pub fn expected_for(text: &str, seed: u64) -> Result<Option<Outputs>, String> {
    let mut out = Outputs::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [s, key, value] = parts[..] else {
            return Err(format!("line {}: expected '<seed> <key> <value>'", n + 1));
        };
        let s: u64 = s
            .parse()
            .map_err(|_| format!("line {}: bad seed '{s}'", n + 1))?;
        if s == seed {
            out.insert(key.to_string(), value.to_string());
        }
    }
    Ok((!out.is_empty()).then_some(out))
}

/// Renders outputs in the expected-file format.
pub fn render(seed: u64, outputs: &Outputs) -> String {
    outputs
        .iter()
        .map(|(k, v)| format!("{seed} {k} {v}\n"))
        .collect()
}

/// The keys of `keys` whose value in `got` differs from `reference`
/// (missing on either side counts as different).
pub fn mismatches<'a>(
    keys: impl IntoIterator<Item = &'a String>,
    got: &Outputs,
    reference: &Outputs,
) -> Vec<String> {
    keys.into_iter()
        .filter(|k| got.get(*k).is_none() || got.get(*k) != reference.get(*k))
        .cloned()
        .collect()
}

/// The checkpoint files `prepare()` loads from the artifacts directory.
pub const ARTIFACT_FILES: [&str; 6] = [
    "victim_e2e.ckpt",
    "attacker_camera.ckpt",
    "attacker_imu.ckpt",
    "adv_rho_1_11.ckpt",
    "adv_rho_1_2.ckpt",
    "pnn_defense.ckpt",
];

/// Digest and modification time of every checked-in checkpoint, taken
/// before the program runs. `prepare()` silently retrains (and rewrites) a
/// checkpoint it cannot load, which would hide minutes of training inside
/// a timed run; the guard fails the run instead.
#[derive(Debug)]
pub struct ArtifactGuard {
    files: Vec<(String, String, SystemTime)>,
}

impl ArtifactGuard {
    /// Hashes every checkpoint in `dir` and checks it against the
    /// `<file> <digest>` lines of `expected` (the checked-in
    /// `benchmark/expected/artifacts.txt`), so a missing or corrupt
    /// checkpoint fails before `prepare()` can retrain it.
    pub fn check(dir: &Path, expected: &str) -> Result<ArtifactGuard, String> {
        let want: BTreeMap<&str, &str> = expected
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(f, d)| (f.trim(), d.trim()))
            .collect();
        let mut files = Vec::new();
        for name in ARTIFACT_FILES {
            let path = dir.join(name);
            let digest = file_digest(&path).map_err(|e| format!("artifact guard: {e}"))?;
            match want.get(name) {
                Some(&d) if d == digest => {}
                Some(&d) => {
                    return Err(format!(
                        "artifact guard: {} has digest {digest}, expected {d}",
                        path.display()
                    ))
                }
                None => return Err(format!("artifact guard: no expected digest for {name}")),
            }
            files.push((name.to_string(), digest, modified(&path)?));
        }
        Ok(ArtifactGuard { files })
    }

    /// Fails if any checkpoint went missing, changed or was rewritten
    /// since [`ArtifactGuard::check`].
    pub fn verify(&self, dir: &Path) -> Result<(), String> {
        for (name, digest, mtime) in &self.files {
            let path = dir.join(name);
            if &file_digest(&path)? != digest {
                return Err(format!(
                    "artifact guard: {} changed during the run",
                    path.display()
                ));
            }
            if &modified(&path)? != mtime {
                return Err(format!(
                    "artifact guard: {} was rewritten during the run",
                    path.display()
                ));
            }
        }
        Ok(())
    }
}

fn modified(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("artifact guard: cannot stat {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_selects_one_seed() {
        let text = "# header\n0 fig4.csv 00000000000000aa\n1 fig4.csv 00000000000000bb\n0 count.slot_steps 42\n";
        let zero = expected_for(text, 0).unwrap().unwrap();
        assert_eq!(zero.len(), 2);
        assert_eq!(zero["count.slot_steps"], "42");
        assert_eq!(
            expected_for(text, 1).unwrap().unwrap()["fig4.csv"],
            "00000000000000bb"
        );
        assert_eq!(expected_for(text, 7).unwrap(), None);
        assert!(expected_for("0 onlytwo\n", 0).is_err());
        let rendered = render(0, &zero);
        assert_eq!(expected_for(&rendered, 0).unwrap().unwrap(), zero);
    }

    #[test]
    fn mismatches_name_changed_and_missing_keys() {
        let reference: Outputs = [("a", "1"), ("b", "2")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into();
        let got: Outputs = [("a", "1"), ("b", "3")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into();
        let keys = ["a".to_string(), "b".to_string(), "c".to_string()];
        assert_eq!(mismatches(&keys, &got, &reference), ["b", "c"]);
        assert!(mismatches(&keys[..1], &got, &reference).is_empty());
    }

    #[test]
    fn artifact_guard_trips_on_a_tampered_checkpoint() {
        let dir =
            std::env::temp_dir().join(format!("drive-benchmark-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut expected = String::new();
        for name in ARTIFACT_FILES {
            std::fs::write(dir.join(name), name).unwrap();
            expected.push_str(&format!("{name} {:016x}\n", fnv1a_64(name.as_bytes())));
        }
        let guard = ArtifactGuard::check(&dir, &expected).expect("pristine copy passes");
        guard.verify(&dir).expect("untouched copy verifies");

        // A corrupt checkpoint fails before the program can retrain it.
        std::fs::write(dir.join(ARTIFACT_FILES[2]), "tampered").unwrap();
        assert!(ArtifactGuard::check(&dir, &expected).is_err());
        // A checkpoint changed or removed during the run fails afterwards.
        assert!(guard.verify(&dir).is_err());
        std::fs::remove_file(dir.join(ARTIFACT_FILES[2])).unwrap();
        assert!(guard.verify(&dir).is_err());
        assert!(ArtifactGuard::check(&dir, &expected).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
