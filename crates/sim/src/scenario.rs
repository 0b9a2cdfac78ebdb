//! Scenario configuration: the Town-4-like freeway episode of the paper.
//!
//! The ego vehicle starts in the middle lane at a 16 m/s reference speed and
//! must pass six NPC vehicles cruising at 6 m/s within 180 control steps of
//! 0.1 s each (Section III-A). Spawn positions can be jittered per episode
//! seed for training/evaluation variety.
//!
//! All named scenarios — the paper's freeway plus topology variants — are
//! constructed through [`ScenarioSpec`], the single validated construction
//! path; `Scenario::{dense_traffic, sparse_traffic, two_lane}` remain as
//! thin compatibility wrappers over the specs of the same name.

use crate::road::Road;
use crate::vehicle::VehicleParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Spawn description for one NPC vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NpcSpawn {
    /// Lane index (0 = rightmost).
    pub lane: usize,
    /// Longitudinal start position, meters.
    pub x: f64,
    /// Cruise speed, m/s.
    pub speed: f64,
}

/// Full episode configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Road geometry.
    pub road: Road,
    /// Control period, seconds (0.1 s in the paper).
    pub dt: f64,
    /// Integration substeps per control period.
    pub substeps: usize,
    /// Episode length in control steps (180 in the paper).
    pub max_steps: usize,
    /// Ego spawn lane.
    pub ego_lane: usize,
    /// Ego spawn longitudinal position, meters.
    pub ego_x: f64,
    /// Ego spawn speed, m/s.
    pub ego_speed: f64,
    /// Ego reference (desired cruise) speed, m/s.
    pub ego_ref_speed: f64,
    /// NPC spawns.
    pub npcs: Vec<NpcSpawn>,
    /// Max longitudinal jitter applied per episode, meters.
    pub spawn_jitter_x: f64,
    /// Max speed jitter applied per episode, m/s.
    pub spawn_jitter_speed: f64,
}

impl Default for Scenario {
    /// The paper's freeway overtaking scenario: six 6 m/s NPCs spread over
    /// the three lanes ahead of a 16 m/s ego vehicle.
    fn default() -> Self {
        let npcs = vec![
            NpcSpawn {
                lane: 1,
                x: 30.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 0,
                x: 55.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 2,
                x: 85.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 1,
                x: 110.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 0,
                x: 135.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 2,
                x: 160.0,
                speed: 6.0,
            },
        ];
        Scenario {
            road: Road::default(),
            dt: 0.1,
            substeps: 5,
            max_steps: 180,
            ego_lane: 1,
            ego_x: 0.0,
            ego_speed: 16.0,
            ego_ref_speed: 16.0,
            npcs,
            spawn_jitter_x: 3.0,
            spawn_jitter_speed: 0.5,
        }
    }
}

impl Scenario {
    /// A denser variant: eight NPCs with tighter spacing. Overtaking
    /// requires more lane changes and offers the attacker more critical
    /// windows.
    pub fn dense_traffic() -> Self {
        ScenarioSpec::dense_traffic().into_scenario()
    }

    /// A sparse variant: three NPCs far apart. Fewer critical windows, so
    /// a lurking attacker must stay quiet longer.
    pub fn sparse_traffic() -> Self {
        ScenarioSpec::sparse_traffic().into_scenario()
    }

    /// A two-lane variant (no middle escape lane): lane changes are
    /// all-or-nothing, which favors the attacker.
    pub fn two_lane() -> Self {
        ScenarioSpec::two_lane().into_scenario()
    }

    /// Returns a copy with per-NPC spawn jitter drawn from `rng`.
    ///
    /// Jitter keeps ordering gaps sane: positions move by at most
    /// `spawn_jitter_x` and speeds by at most `spawn_jitter_speed`.
    pub fn jittered<R: Rng>(&self, rng: &mut R) -> Scenario {
        let mut s = self.clone();
        for npc in &mut s.npcs {
            npc.x += rng.gen_range(-self.spawn_jitter_x..=self.spawn_jitter_x);
            npc.speed = (npc.speed
                + rng.gen_range(-self.spawn_jitter_speed..=self.spawn_jitter_speed))
            .max(0.5);
        }
        s
    }

    /// Episode duration in seconds.
    pub fn duration(&self) -> f64 {
        self.max_steps as f64 * self.dt
    }

    /// Validates internal consistency (lanes in range, positive timing).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dt <= 0.0 {
            return Err(format!("dt must be positive, got {}", self.dt));
        }
        if self.substeps == 0 {
            return Err("substeps must be at least 1".into());
        }
        if self.max_steps == 0 {
            return Err("max_steps must be at least 1".into());
        }
        if self.ego_lane >= self.road.num_lanes {
            return Err(format!(
                "ego lane {} out of range for {}-lane road",
                self.ego_lane, self.road.num_lanes
            ));
        }
        for (i, n) in self.npcs.iter().enumerate() {
            if n.lane >= self.road.total_lanes() {
                return Err(format!("npc {i} lane {} out of range", n.lane));
            }
            if !self.road.lane_open_at(n.lane, n.x) {
                return Err(format!(
                    "npc {i} spawns at x={} where lane {} is not drivable",
                    n.x, n.lane
                ));
            }
            if n.speed < 0.0 {
                return Err(format!("npc {i} has negative speed"));
            }
        }
        // No two NPCs may spawn overlapping in the same lane.
        let car_length = VehicleParams::default().length;
        for (i, a) in self.npcs.iter().enumerate() {
            for (j, b) in self.npcs.iter().enumerate().skip(i + 1) {
                if a.lane == b.lane && (a.x - b.x).abs() < car_length {
                    return Err(format!(
                        "npcs {i} and {j} overlap in lane {}: |{} - {}| < car length {}",
                        a.lane, a.x, b.x, car_length
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A named, validated scenario: the single construction path for every
/// preset and generated scenario in the workspace.
///
/// The `name` is a stable label used in artifact file names, manifests and
/// journal keys; the wrapped [`Scenario`] is guaranteed to pass
/// [`Scenario::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Stable label (lowercase, underscore-separated).
    pub name: String,
    scenario: Scenario,
}

impl ScenarioSpec {
    /// Wraps and validates a scenario under a stable name.
    ///
    /// # Errors
    ///
    /// Returns the [`Scenario::validate`] error when the scenario is
    /// inconsistent.
    pub fn new(name: impl Into<String>, scenario: Scenario) -> Result<Self, String> {
        scenario.validate()?;
        Ok(ScenarioSpec {
            name: name.into(),
            scenario,
        })
    }

    /// The validated scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Consumes the spec, returning the validated scenario.
    pub fn into_scenario(self) -> Scenario {
        self.scenario
    }

    /// Stable content fingerprint (FNV-1a over the debug encoding), used to
    /// count distinct scenarios and key per-cell artifacts.
    pub fn fingerprint(&self) -> u64 {
        drive_seed::fnv1a_64(format!("{:?}", self.scenario).as_bytes())
    }

    fn preset(name: &str, scenario: Scenario) -> Self {
        ScenarioSpec::new(name, scenario).expect("preset scenario must validate")
    }

    /// Eight NPCs with tighter spacing on the default freeway.
    pub fn dense_traffic() -> Self {
        let npcs = [
            (1, 28.0),
            (0, 46.0),
            (2, 66.0),
            (1, 88.0),
            (0, 108.0),
            (2, 128.0),
            (1, 148.0),
            (0, 168.0),
        ]
        .into_iter()
        .map(|(lane, x)| NpcSpawn {
            lane,
            x,
            speed: 6.0,
        })
        .collect();
        ScenarioSpec::preset(
            "dense_traffic",
            Scenario {
                npcs,
                ..Scenario::default()
            },
        )
    }

    /// Three NPCs far apart on the default freeway.
    pub fn sparse_traffic() -> Self {
        let npcs = [(1, 40.0), (2, 110.0), (0, 180.0)]
            .into_iter()
            .map(|(lane, x)| NpcSpawn {
                lane,
                x,
                speed: 6.0,
            })
            .collect();
        ScenarioSpec::preset(
            "sparse_traffic",
            Scenario {
                npcs,
                ..Scenario::default()
            },
        )
    }

    /// Two-lane freeway: no middle escape lane.
    pub fn two_lane() -> Self {
        let npcs = [(0, 35.0), (1, 70.0), (0, 105.0), (1, 140.0)]
            .into_iter()
            .map(|(lane, x)| NpcSpawn {
                lane,
                x,
                speed: 6.0,
            })
            .collect();
        ScenarioSpec::preset(
            "two_lane",
            Scenario {
                road: Road::new(2, 3.5, 1500.0),
                ego_lane: 0,
                npcs,
                ..Scenario::default()
            },
        )
    }

    /// On-ramp merge: two faster NPCs enter from an acceleration lane and
    /// must merge into lane 0 across the ego's path.
    pub fn on_ramp_merge() -> Self {
        let road = Road::on_ramp(3, 3.5, 1500.0, 0.0, 250.0, 330.0);
        let ramp = road.ramp_lane().expect("on-ramp road has a ramp lane");
        let npcs = vec![
            NpcSpawn {
                lane: 1,
                x: 35.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 0,
                x: 70.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 2,
                x: 100.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: ramp,
                x: 20.0,
                speed: 9.0,
            },
            NpcSpawn {
                lane: ramp,
                x: 60.0,
                speed: 9.0,
            },
        ];
        ScenarioSpec::preset(
            "on_ramp_merge",
            Scenario {
                road,
                npcs,
                ..Scenario::default()
            },
        )
    }

    /// Lane drop: the leftmost lane ends mid-episode, squeezing its
    /// traffic (and any overtaking ego) into the middle lane.
    pub fn lane_drop() -> Self {
        let road = Road::lane_drop(3, 3.5, 1500.0, 300.0, 380.0);
        let npcs = vec![
            NpcSpawn {
                lane: 1,
                x: 30.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 0,
                x: 65.0,
                speed: 6.0,
            },
            NpcSpawn {
                lane: 2,
                x: 90.0,
                speed: 8.0,
            },
            NpcSpawn {
                lane: 2,
                x: 150.0,
                speed: 8.0,
            },
            NpcSpawn {
                lane: 1,
                x: 130.0,
                speed: 6.0,
            },
        ];
        ScenarioSpec::preset(
            "lane_drop",
            Scenario {
                road,
                npcs,
                ..Scenario::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_scenario_is_valid() {
        let s = Scenario::default();
        assert!(s.validate().is_ok());
        assert_eq!(s.npcs.len(), 6);
        assert!((s.duration() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let s = Scenario::default();
        let mut rng = StdRng::seed_from_u64(7);
        let j1 = s.jittered(&mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let j2 = s.jittered(&mut rng);
        assert_eq!(j1, j2, "same seed must give same jitter");
        for (orig, jit) in s.npcs.iter().zip(&j1.npcs) {
            assert!((orig.x - jit.x).abs() <= s.spawn_jitter_x + 1e-12);
            assert!((orig.speed - jit.speed).abs() <= s.spawn_jitter_speed + 1e-12);
            assert_eq!(orig.lane, jit.lane);
        }
    }

    #[test]
    fn preset_scenarios_are_valid() {
        for s in [
            Scenario::dense_traffic(),
            Scenario::sparse_traffic(),
            Scenario::two_lane(),
        ] {
            assert!(s.validate().is_ok(), "{s:?}");
        }
        assert_eq!(Scenario::dense_traffic().npcs.len(), 8);
        assert_eq!(Scenario::sparse_traffic().npcs.len(), 3);
        assert_eq!(Scenario::two_lane().road.num_lanes, 2);
    }

    #[test]
    fn validate_rejects_overlapping_spawns() {
        let mut s = Scenario::default();
        // Two NPCs in the same lane closer than one car length.
        s.npcs[0] = NpcSpawn {
            lane: 1,
            x: 30.0,
            speed: 6.0,
        };
        s.npcs[3] = NpcSpawn {
            lane: 1,
            x: 33.0,
            speed: 6.0,
        };
        let err = s.validate().unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        // Same |Δx| in different lanes is fine.
        s.npcs[3].lane = 2;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_spawns_on_closed_lanes() {
        let mut s = ScenarioSpec::on_ramp_merge().into_scenario();
        // A ramp spawn past the merge deadline is not drivable.
        s.npcs.push(NpcSpawn {
            lane: 3,
            x: 260.0,
            speed: 8.0,
        });
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::lane_drop().into_scenario();
        s.npcs.push(NpcSpawn {
            lane: 2,
            x: 500.0,
            speed: 8.0,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn specs_are_the_single_construction_path() {
        // The compatibility wrappers must match their specs exactly.
        assert_eq!(
            Scenario::dense_traffic(),
            *ScenarioSpec::dense_traffic().scenario()
        );
        assert_eq!(
            Scenario::sparse_traffic(),
            *ScenarioSpec::sparse_traffic().scenario()
        );
        assert_eq!(Scenario::two_lane(), *ScenarioSpec::two_lane().scenario());
    }

    #[test]
    fn all_presets_validate_with_distinct_fingerprints() {
        let presets = [
            ScenarioSpec::dense_traffic(),
            ScenarioSpec::sparse_traffic(),
            ScenarioSpec::two_lane(),
            ScenarioSpec::on_ramp_merge(),
            ScenarioSpec::lane_drop(),
        ];
        let mut fps: Vec<u64> = presets.iter().map(ScenarioSpec::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), presets.len(), "fingerprints must be distinct");
        for p in &presets {
            assert!(p.scenario().validate().is_ok(), "{}", p.name);
        }
        // Topology presets actually carry their topologies.
        assert_eq!(
            ScenarioSpec::on_ramp_merge()
                .scenario()
                .road
                .topology
                .label(),
            "on_ramp"
        );
        assert_eq!(
            ScenarioSpec::lane_drop().scenario().road.topology.label(),
            "lane_drop"
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let s = Scenario {
            dt: 0.0,
            ..Default::default()
        };
        assert!(s.validate().is_err());

        let s = Scenario {
            ego_lane: 3,
            ..Default::default()
        };
        assert!(s.validate().is_err());

        let mut s = Scenario::default();
        s.npcs[0].lane = 9;
        assert!(s.validate().is_err());
    }
}
