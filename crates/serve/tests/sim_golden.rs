//! Pins the virtual-time twin: for each configuration below, seeds 0..30
//! are simulated and their `ServeReport::render()` strings concatenated
//! and hashed with FNV-1a 64. Any change to dispatch, expiry, fault,
//! ladder or accounting decisions that shows in a report moves a digest.
//!
//! The two heavy-stall configurations are the only ones that reach
//! all-expired batches at the fallback rung.

use drive_nn::gaussian::GaussianPolicy;
use drive_seed::fnv1a_64;
use drive_serve::config::ServeConfig;
use drive_serve::faults::FaultPlanConfig;
use drive_serve::sim::{run_sim, AttackWindow, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn digest(base: &SimConfig) -> String {
    let policy = Arc::new(GaussianPolicy::new(
        6,
        &[32, 32],
        2,
        &mut StdRng::seed_from_u64(42),
    ));
    let mut all = String::new();
    for seed in 0..30 {
        let config = SimConfig {
            seed,
            ..base.clone()
        };
        all.push_str(&run_sim(&policy, &config).render());
    }
    format!("{:016x}", fnv1a_64(all.as_bytes()))
}

fn heavy_stalls() -> SimConfig {
    SimConfig {
        requests: 800,
        interarrival_us: 300,
        faults: FaultPlanConfig {
            kills: 3,
            stalls: 4,
            stall_us: 60_000,
            corrupt_rate: 0.0,
        },
        ..SimConfig::default()
    }
}

#[test]
fn default_config() {
    assert_eq!(digest(&SimConfig::default()), "b0b2955b815494d4");
}

#[test]
fn faulted_and_attacked() {
    let config = SimConfig {
        faults: FaultPlanConfig {
            kills: 2,
            stalls: 2,
            stall_us: 20_000,
            corrupt_rate: 0.2,
        },
        attack: Some(AttackWindow {
            start_us: 100_000,
            delta: 0.5,
        }),
        ..SimConfig::default()
    };
    assert_eq!(digest(&config), "9bddb9e7e858d0d1");
}

#[test]
fn kill_and_corruption() {
    let config = SimConfig {
        requests: 200,
        faults: FaultPlanConfig {
            kills: 1,
            stalls: 0,
            stall_us: 0,
            corrupt_rate: 0.3,
        },
        ..SimConfig::default()
    };
    assert_eq!(digest(&config), "ade12aa38894a49a");
}

#[test]
fn saturated_single_worker() {
    let config = SimConfig {
        requests: 500,
        interarrival_us: 20,
        serve: ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
        ..SimConfig::default()
    };
    assert_eq!(digest(&config), "d264650264365518");
}

#[test]
fn heavy_stalls_reach_expired_fallback_batches() {
    assert_eq!(digest(&heavy_stalls()), "0d2d5e04e8d97d84");
}

#[test]
fn heavy_stalls_under_attack() {
    let config = SimConfig {
        attack: Some(AttackWindow {
            start_us: 50_000,
            delta: 0.6,
        }),
        ..heavy_stalls()
    };
    assert_eq!(digest(&config), "dfba9137a3d7f1b6");
}
