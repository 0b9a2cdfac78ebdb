//! Run manifests: a JSON record emitted next to every experiment's CSVs.
//!
//! A manifest captures enough to re-derive and verify a run: the
//! experiment name, the seed-tree root and namespace path, the scale, a
//! hash of the pipeline configuration, wall-clock and throughput, and an
//! FNV-1a 64 checksum of every output file. `repro-bench
//! validate-manifest <path>` re-reads the listed files and checks sizes
//! and checksums ([`Manifest::verify`]).
//!
//! The workspace has no JSON dependency, so both the emitter and the
//! parser are hand-rolled (shared with bench-compare in `crate::json`).
//! 64-bit values that may exceed the f64-exact integer range (seeds,
//! hashes, checksums) are serialized as hex strings to survive any JSON
//! reader.

use crate::json::{get, get_f64, get_str, get_u64, json_string, Json};
use std::fmt::Write as _;
use std::path::Path;

/// Checksum record for one output file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputEntry {
    /// File name relative to the manifest's directory.
    pub file: String,
    /// Size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the file contents.
    pub fnv64: u64,
}

/// The JSON manifest emitted for every engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Schema tag ([`Manifest::SCHEMA`]).
    pub schema: String,
    /// Registry name of the experiment.
    pub experiment: String,
    /// The experiment's registry description.
    pub description: String,
    /// Root seed of the run's [`SeedTree`](drive_seed::SeedTree).
    pub seed_root: u64,
    /// Seed namespace path of the experiment (e.g. `root/fig4`).
    pub seed_path: String,
    /// Episodes per box-plot cell at the run's scale.
    pub box_episodes: usize,
    /// Rounds per scatter cell at the run's scale.
    pub scatter_rounds: usize,
    /// Worker-thread count the run was pinned to.
    pub jobs: usize,
    /// FNV-1a 64 hash of the pipeline configuration's debug rendering.
    pub config_hash: u64,
    /// Wall-clock seconds for the experiment phase.
    pub wall_secs: f64,
    /// Simulation steps executed during the phase.
    pub steps: u64,
    /// Simulation steps per second.
    pub steps_per_sec: f64,
    /// Checksums of every file the run wrote.
    pub outputs: Vec<OutputEntry>,
}

impl Manifest {
    /// Schema tag stamped into every manifest.
    pub const SCHEMA: &'static str = "repro-bench/manifest-v1";

    /// Renders the manifest as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(&self.schema));
        let _ = writeln!(out, "  \"experiment\": {},", json_string(&self.experiment));
        let _ = writeln!(
            out,
            "  \"description\": {},",
            json_string(&self.description)
        );
        let _ = writeln!(out, "  \"seed_root\": \"{:#018x}\",", self.seed_root);
        let _ = writeln!(out, "  \"seed_path\": {},", json_string(&self.seed_path));
        let _ = writeln!(out, "  \"box_episodes\": {},", self.box_episodes);
        let _ = writeln!(out, "  \"scatter_rounds\": {},", self.scatter_rounds);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"config_hash\": \"{:#018x}\",", self.config_hash);
        let _ = writeln!(out, "  \"wall_secs\": {:.3},", self.wall_secs);
        let _ = writeln!(out, "  \"steps\": {},", self.steps);
        let _ = writeln!(out, "  \"steps_per_sec\": {:.1},", self.steps_per_sec);
        out.push_str("  \"outputs\": [\n");
        for (i, o) in self.outputs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"file\": {}, \"bytes\": {}, \"fnv64\": \"{:#018x}\"}}{}",
                json_string(&o.file),
                o.bytes,
                o.fnv64,
                if i + 1 < self.outputs.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message if the text is not valid JSON, is not a
    /// `manifest-v1` document, or lacks a required field.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object().ok_or("manifest root is not an object")?;
        let schema = get_str(obj, "schema")?;
        if schema != Self::SCHEMA {
            return Err(format!(
                "unsupported manifest schema '{schema}' (expected '{}')",
                Self::SCHEMA
            ));
        }
        let mut outputs = Vec::new();
        for (i, item) in get(obj, "outputs")?
            .as_array()
            .ok_or("'outputs' is not an array")?
            .iter()
            .enumerate()
        {
            let o = item
                .as_object()
                .ok_or_else(|| format!("outputs[{i}] is not an object"))?;
            outputs.push(OutputEntry {
                file: get_str(o, "file")?,
                bytes: get_u64(o, "bytes")?,
                fnv64: get_u64(o, "fnv64")?,
            });
        }
        Ok(Manifest {
            schema,
            experiment: get_str(obj, "experiment")?,
            description: get_str(obj, "description")?,
            seed_root: get_u64(obj, "seed_root")?,
            seed_path: get_str(obj, "seed_path")?,
            box_episodes: get_u64(obj, "box_episodes")? as usize,
            scatter_rounds: get_u64(obj, "scatter_rounds")? as usize,
            jobs: get_u64(obj, "jobs")? as usize,
            config_hash: get_u64(obj, "config_hash")?,
            wall_secs: get_f64(obj, "wall_secs")?,
            steps: get_u64(obj, "steps")?,
            steps_per_sec: get_f64(obj, "steps_per_sec")?,
            outputs,
        })
    }

    /// Loads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable files or invalid JSON.
    pub fn load(path: impl AsRef<Path>) -> Result<Manifest, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Writes the manifest atomically (temp file + rename, the checkpoint
    /// convention), creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed write removes the temp file on a
    /// best-effort basis.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file_name = path.file_name().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("manifest path has no file name: {}", path.display()),
            )
        })?;
        let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
        if let Err(e) = std::fs::write(&tmp, self.to_json()) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, path)
    }

    /// Re-reads every listed output under `dir` and checks size and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns one message per missing, truncated, or corrupted file.
    pub fn verify(&self, dir: &Path) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for o in &self.outputs {
            let path = dir.join(&o.file);
            match std::fs::read(&path) {
                Err(e) => problems.push(format!("{}: {e}", o.file)),
                Ok(bytes) => {
                    if bytes.len() as u64 != o.bytes {
                        problems.push(format!(
                            "{}: size {} != manifest {}",
                            o.file,
                            bytes.len(),
                            o.bytes
                        ));
                    } else {
                        let sum = drive_seed::fnv1a_64(&bytes);
                        if sum != o.fnv64 {
                            problems.push(format!(
                                "{}: checksum {sum:#018x} != manifest {:#018x}",
                                o.file, o.fnv64
                            ));
                        }
                    }
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            schema: Manifest::SCHEMA.to_string(),
            experiment: "fig4".to_string(),
            description: "Attack effectiveness \"box\" plots".to_string(),
            seed_root: 10_000,
            seed_path: "root/fig4".to_string(),
            box_episodes: 30,
            scatter_rounds: 10,
            jobs: 8,
            config_hash: u64::MAX - 7,
            wall_secs: 12.345,
            steps: 987_654,
            steps_per_sec: 80_004.2,
            outputs: vec![
                OutputEntry {
                    file: "fig4.csv".to_string(),
                    bytes: 1234,
                    fnv64: 0xdead_beef_dead_beef,
                },
                OutputEntry {
                    file: "fig4a_nominal.svg".to_string(),
                    bytes: 9,
                    fnv64: 7,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let m = sample();
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn full_range_u64_survives_the_round_trip() {
        let mut m = sample();
        m.config_hash = u64::MAX;
        m.outputs[0].fnv64 = u64::MAX - 1;
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed.config_hash, u64::MAX);
        assert_eq!(parsed.outputs[0].fnv64, u64::MAX - 1);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        let text = sample().to_json().replace("manifest-v1", "manifest-v9");
        assert!(Manifest::from_json(&text).unwrap_err().contains("schema"));
        assert!(Manifest::from_json("not json").is_err());
        assert!(Manifest::from_json("{}").unwrap_err().contains("schema"));
        assert!(Manifest::from_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn write_load_verify_detects_corruption() {
        let dir = crate::test_dir::TestDir::new("repro-bench-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let payload = b"x,y\n1,2\n";
        std::fs::write(dir.join("out.csv"), payload).unwrap();
        let mut m = sample();
        m.outputs = vec![OutputEntry {
            file: "out.csv".to_string(),
            bytes: payload.len() as u64,
            fnv64: drive_seed::fnv1a_64(payload),
        }];
        let path = dir.join("fig4.manifest.json");
        m.write_to(&path).unwrap();
        assert!(!dir.join("fig4.manifest.json.tmp").exists());

        let loaded = Manifest::load(&path).unwrap();
        assert_eq!(loaded, m);
        loaded.verify(&dir).unwrap();

        // Same size, different contents: the checksum must catch it.
        std::fs::write(dir.join("out.csv"), b"x,y\n9,9\n").unwrap();
        let problems = loaded.verify(&dir).unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("checksum"));

        // Missing file.
        std::fs::remove_file(dir.join("out.csv")).unwrap();
        assert!(loaded.verify(&dir).is_err());
    }
}
