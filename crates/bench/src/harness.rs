//! Shared plumbing for the figure harnesses: building the cast of agents
//! and attackers from pipeline artifacts and collecting attacked episode
//! records.

use attack_core::adv_reward::AdvReward;
use attack_core::budget::AttackBudget;
use attack_core::defense::SimplexSwitcher;
use attack_core::eval::run_attacked_episode_with_faults;
use attack_core::fleet::{FleetEval, FleetVictim};
use attack_core::learned::LearnedAttacker;
use attack_core::pipeline::{Artifacts, PipelineConfig};
use attack_core::sensor::{AttackerSensor, SensorKind};
use drive_agents::e2e::E2eAgent;
use drive_agents::modular::{ModularAgent, ModularConfig};
use drive_agents::Agent;
use drive_nn::batch::BatchPolicy;
use drive_nn::gaussian::GaussianPolicy;
use drive_sim::faults::{FaultInjector, FaultSchedule};
use drive_sim::record::EpisodeRecord;
use drive_sim::scenario::Scenario;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The driving agents evaluated across the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentKind {
    /// The modular planner + PID pipeline.
    Modular,
    /// The original end-to-end agent `pi_ori`.
    E2e,
    /// Fine-tuned `pi_adv, rho = 1/11`.
    AdvRhoSmall,
    /// Fine-tuned `pi_adv, rho = 1/2`.
    AdvRhoHalf,
    /// PNN behind a switcher with `sigma = 0.2`.
    PnnSigma02,
    /// PNN behind a switcher with `sigma = 0.4`.
    PnnSigma04,
}

impl AgentKind {
    /// The agents of Fig. 6 / Fig. 8 (nominal + four enhanced).
    pub fn enhanced_lineup() -> [AgentKind; 5] {
        [
            AgentKind::E2e,
            AgentKind::AdvRhoSmall,
            AgentKind::AdvRhoHalf,
            AgentKind::PnnSigma02,
            AgentKind::PnnSigma04,
        ]
    }

    /// The Simplex threshold `sigma` of a PNN agent's switcher; `None`
    /// for agents without one.
    fn switcher_sigma(&self) -> Option<f64> {
        match self {
            AgentKind::PnnSigma02 => Some(0.2),
            AgentKind::PnnSigma04 => Some(0.4),
            _ => None,
        }
    }

    /// Paper-style display name.
    pub fn label(&self) -> &'static str {
        match self {
            AgentKind::Modular => "modular",
            AgentKind::E2e => "pi_ori",
            AgentKind::AdvRhoSmall => "pi_adv(rho=1/11)",
            AgentKind::AdvRhoHalf => "pi_adv(rho=1/2)",
            AgentKind::PnnSigma02 => "pi_pnn(sigma=0.2)",
            AgentKind::PnnSigma04 => "pi_pnn(sigma=0.4)",
        }
    }
}

/// Builds a fresh agent of the given kind.
///
/// Learned agents run on frozen weights ([`BatchPolicy`] and the
/// switcher's `Arc<PnnPolicy>`), wrapped here once per agent. The PNN
/// agents' Simplex switcher is told the active `budget` (the paper's
/// idealized budget-aware switcher).
pub fn build_agent(
    kind: AgentKind,
    artifacts: &Artifacts,
    config: &PipelineConfig,
    budget: AttackBudget,
    seed: u64,
) -> Box<dyn Agent> {
    let features = config.features.clone();
    match kind {
        AgentKind::Modular => Box::new(ModularAgent::new(ModularConfig::default(), 1)),
        AgentKind::E2e => Box::new(E2eAgent::new(
            BatchPolicy::from(&artifacts.victim),
            features,
            seed,
            true,
        )),
        AgentKind::AdvRhoSmall => Box::new(E2eAgent::new(
            BatchPolicy::from(&artifacts.adv_rho_small),
            features,
            seed,
            true,
        )),
        AgentKind::AdvRhoHalf => Box::new(E2eAgent::new(
            BatchPolicy::from(&artifacts.adv_rho_half),
            features,
            seed,
            true,
        )),
        AgentKind::PnnSigma02 | AgentKind::PnnSigma04 => Box::new(E2eAgent::new(
            SimplexSwitcher::new(
                Arc::clone(&artifacts.pnn),
                kind.switcher_sigma().expect("PNN agents have a switcher"),
                budget.epsilon(),
            ),
            features,
            seed,
            true,
        )),
    }
}

/// The frozen policy the fleet steps for `kind` under `budget`: the
/// learned agent's own policy, or for a PNN agent the column its
/// switcher acts through at this budget. `None` for the modular agent,
/// whose planner branches per step.
fn fleet_victim(
    kind: AgentKind,
    artifacts: &Artifacts,
    budget: AttackBudget,
) -> Option<FleetVictim<'_>> {
    match kind {
        AgentKind::Modular => None,
        AgentKind::E2e => Some(FleetVictim::Gaussian(&artifacts.victim)),
        AgentKind::AdvRhoSmall => Some(FleetVictim::Gaussian(&artifacts.adv_rho_small)),
        AgentKind::AdvRhoHalf => Some(FleetVictim::Gaussian(&artifacts.adv_rho_half)),
        AgentKind::PnnSigma02 | AgentKind::PnnSigma04 => Some(SimplexSwitcher::column(
            &artifacts.pnn,
            kind.switcher_sigma().expect("PNN agents have a switcher"),
            budget.epsilon(),
        )),
    }
}

/// A per-cell scenario override: an evaluation cell that runs on a
/// scenario other than the pipeline's default freeway (the
/// `scenario-matrix` experiment's generated worlds), optionally with a
/// benign fault schedule in the loop.
///
/// The `fingerprint` is mixed into the journal cell key and label so a
/// generated-scenario cell can never replay records from the default
/// scenario (or from a differently generated one).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCell<'a> {
    /// The world the cell's episodes run in.
    pub scenario: &'a Scenario,
    /// Stable content hash of the scenario (see
    /// `drive_sim::scenario::ScenarioSpec::fingerprint`).
    pub fingerprint: u64,
    /// Optional actuation-side fault schedule; `None` or a no-op schedule
    /// leaves the loop fault-free.
    pub faults: Option<&'a FaultSchedule>,
}

impl<'a> ScenarioCell<'a> {
    /// Whether this cell injects actuation faults.
    fn has_faults(&self) -> bool {
        self.faults.is_some_and(|f| !f.is_noop())
    }
}

/// Collects attacked episode records for one `(agent, attack policy,
/// budget)` cell.
///
/// `seeds` is the cell's namespace in the run's seed tree: the agent's
/// exploration stream derives from `seeds/agent`, episode seeds from
/// `seeds/episodes`. A zero budget (or `attack == None`) yields the
/// nominal, unattacked cell.
pub fn attacked_records(
    kind: AgentKind,
    attack: Option<(&GaussianPolicy, SensorKind)>,
    budget: AttackBudget,
    ctx: &crate::engine::RunContext,
    episodes: usize,
    seeds: &drive_seed::SeedTree,
) -> Vec<EpisodeRecord> {
    attacked_records_in(kind, attack, budget, ctx, episodes, seeds, None)
}

/// [`attacked_records`] with an optional [`ScenarioCell`] override.
///
/// With `cell == None` this is byte-identical to [`attacked_records`] —
/// same records, same journal keys — so every pre-existing experiment and
/// journal is unaffected. With an override, the scenario fingerprint (and
/// a fault tag, when scheduled) extends the cell label and journal key.
pub fn attacked_records_in(
    kind: AgentKind,
    attack: Option<(&GaussianPolicy, SensorKind)>,
    budget: AttackBudget,
    ctx: &crate::engine::RunContext,
    episodes: usize,
    seeds: &drive_seed::SeedTree,
    cell: Option<ScenarioCell<'_>>,
) -> Vec<EpisodeRecord> {
    // The journal key pins everything the records are a function of — the
    // seed namespace, the run seed, and the cell's own coordinates — while
    // the run header pins the pipeline config the artifacts derive from.
    let sensor_name = match attack {
        None => "none",
        Some((_, SensorKind::Camera)) => "camera",
        Some((_, SensorKind::Imu)) => "imu",
    };
    // Fleet-stepped cells share the serial key (they are byte-identical —
    // see `attack_core::fleet`). Faulted cells carry per-step injector
    // state that does not batch, so they stay on the serial path.
    let fleet_routable = ctx.fleet.is_some()
        && fleet_victim(kind, ctx.artifacts, budget).is_some()
        && !cell.is_some_and(|c| c.has_faults());
    // Scenario-override cells key on the scenario's content hash (and its
    // fault schedule); the default scenario keeps the tagless legacy key.
    let scenario_tag = match cell {
        None => String::new(),
        Some(c) => {
            let fault_tag = match c.faults.filter(|f| !f.is_noop()) {
                None => String::new(),
                Some(f) => format!(
                    "|flt={:016x}",
                    drive_seed::fnv1a_64_fmt(format_args!("{f:?}"))
                ),
            };
            format!("|scn={:016x}{}", c.fingerprint, fault_tag)
        }
    };
    let cell_label = format!(
        "{}|{}|{}|eps={}|{}ep{}",
        seeds.path(),
        kind.label(),
        sensor_name,
        budget.epsilon(),
        episodes,
        scenario_tag
    );
    let cell_key = drive_seed::fnv1a_64(
        format!(
            "cell|{}|{:016x}|{:?}|{}|{:016x}|{}{}",
            seeds.path(),
            ctx.scale.seed,
            kind,
            sensor_name,
            budget.epsilon().to_bits(),
            episodes,
            scenario_tag
        )
        .as_bytes(),
    );
    // Crash safety: a journaled cell, single-process or sharded, loads a
    // published cell, or is computed under a lease and published, or
    // waits for its current owner. The journal owns its own shutdown safe
    // points.
    if let Some(journal) = &ctx.journal {
        return journal.run_cell(cell_key, &cell_label, episodes, || {
            compute_cell(
                kind,
                attack,
                budget,
                ctx,
                episodes,
                seeds,
                cell,
                fleet_routable,
                &cell_label,
            )
        });
    }
    // Merge replay: load-only, never simulates.
    if let Some(replay) = &ctx.replay {
        return replay.load(cell_key, &cell_label, episodes);
    }
    // Graceful-shutdown safe point between cells of an unjournaled run.
    // The sentinel payload is caught by the top-level driver, never by the
    // episode retry layer.
    if drive_core::shutdown::requested() {
        std::panic::resume_unwind(Box::new(drive_core::shutdown::ShutdownRequested));
    }
    compute_cell(
        kind,
        attack,
        budget,
        ctx,
        episodes,
        seeds,
        cell,
        fleet_routable,
        &cell_label,
    )
    .0
}

/// Fleet cells that panicked and were recomputed on the serial path,
/// process-wide.
static FLEET_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many fleet cells have fallen back to the serial path in this
/// process (reported per phase as `fleet.fallbacks`).
pub fn fleet_fallbacks() -> u64 {
    FLEET_FALLBACKS.load(Ordering::Relaxed)
}

/// Runs one cell through the lockstep fleet, `batch` episodes in flight,
/// on the seed grid `base_seed + e`. A panicking fleet cell returns
/// `None` for the caller to recompute on the serial path, whose
/// per-episode retry can isolate the bad episode; the fallback is counted
/// ([`fleet_fallbacks`]) and reported. Under `cfg(test)` the panic is a
/// hard failure instead, as a fleet panic is a defect the serial retry
/// would hide from tests.
pub(crate) fn run_fleet(
    eval: &FleetEval<'_>,
    episodes: usize,
    base_seed: u64,
    batch: usize,
    cell_label: &str,
) -> Option<Vec<EpisodeRecord>> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eval.run(episodes, base_seed, batch)
    })) {
        Ok(records) => Some(records),
        Err(payload) => {
            // The graceful-shutdown sentinel must reach the top-level
            // driver, not the serial fallback.
            if payload.is::<drive_core::shutdown::ShutdownRequested>() || cfg!(test) {
                std::panic::resume_unwind(payload);
            }
            FLEET_FALLBACKS.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: fleet cell {cell_label} panicked; retrying on the serial path");
            None
        }
    }
}

/// The compute body of one cell: fleet fast path (with a counted serial
/// fallback on panic; see [`run_fleet`]) or the hardened serial
/// executor. Returns the records plus a clean flag (`true` when
/// every episode succeeded), which gates the cell's publication.
#[allow(clippy::too_many_arguments)]
fn compute_cell(
    kind: AgentKind,
    attack: Option<(&GaussianPolicy, SensorKind)>,
    budget: AttackBudget,
    ctx: &crate::engine::RunContext,
    episodes: usize,
    seeds: &drive_seed::SeedTree,
    cell: Option<ScenarioCell<'_>>,
    fleet_routable: bool,
    cell_label: &str,
) -> (Vec<EpisodeRecord>, bool) {
    let artifacts = ctx.artifacts;
    let config = ctx.config;
    let scenario = cell.map_or(&config.scenario, |c| c.scenario);
    let fault_schedule = cell.and_then(|c| c.faults.filter(|f| !f.is_noop()));
    let adv = AdvReward::default();
    // Fleet fast path: frozen victims batch across episodes (one GEMM
    // per layer per lockstep step), byte-identical to the serial loop
    // below, which a panicking fleet cell falls back to.
    if fleet_routable {
        let eval = FleetEval {
            victim: fleet_victim(kind, artifacts, budget).expect("fleet_routable checked"),
            features: config.features.clone(),
            attack,
            imu: config.imu.clone(),
            budget,
            adv: AdvReward::default(),
            scenario: scenario.clone(),
        };
        let (batch, base_seed) = (
            ctx.fleet.expect("fleet_routable checked"),
            seeds.child("episodes").seed(),
        );
        if let Some(records) = run_fleet(&eval, episodes, base_seed, batch, cell_label) {
            return (records, true);
        }
    }
    let mut agent = build_agent(kind, artifacts, config, budget, seeds.child("agent").seed());
    // One frozen copy of the attacker per cell, sharing the artifact's
    // packs; each episode gets an O(1) clone.
    let attack = attack
        .filter(|_| !budget.is_zero())
        .map(|(policy, sensor_kind)| (BatchPolicy::from(policy), sensor_kind));
    // Episodes run behind per-episode panic isolation: one panicking
    // episode is retried with a fresh seed instead of aborting the whole
    // figure run. First attempts use `base + e` off the cell's episode
    // namespace, so healthy cells stay deterministic for any worker count.
    let (records, failures) =
        crate::resilience::run_cell(episodes, seeds.child("episodes").seed(), |seed| {
            let mut attacker = attack.as_ref().map(|(policy, sensor_kind)| {
                let sensor = AttackerSensor::new(*sensor_kind, &config.features, &config.imu, seed);
                LearnedAttacker::new(policy.clone(), sensor, budget, seed, true)
            });
            let mut faults = fault_schedule.map(|s| FaultInjector::for_episode(s, seed));
            run_attacked_episode_with_faults(
                agent.as_mut(),
                attacker
                    .as_mut()
                    .map(|a| a as &mut dyn drive_agents::runner::SteerAttacker),
                &adv,
                scenario,
                seed,
                faults.as_mut(),
            )
        });
    if !failures.is_empty() {
        eprintln!(
            "warning: {}/{episodes} episode(s) of cell {cell_label} failed all {} attempts; continuing with partial results",
            failures.len(),
            crate::resilience::ATTEMPTS,
        );
        for failure in &failures {
            eprintln!("  {failure}");
        }
    }
    let clean = failures.is_empty();
    (records, clean)
}

/// Quick-trained artifacts for the test `name`, with the PNN's column 2
/// and laterals and both attackers redrawn at random. Quick training
/// barely moves them, and a fleet-vs-serial test needs a hardened column
/// that differs from the base column and attackers whose deltas follow
/// their observations. Used from memory: the directory they were saved
/// to is removed on return.
#[cfg(test)]
pub(crate) fn parity_artifacts(name: &str) -> (Artifacts, PipelineConfig) {
    use drive_nn::linear::Linear;
    use rand::SeedableRng;
    let dir = crate::test_dir::TestDir::new(&format!("repro-bench-parity-{name}"));
    let config = PipelineConfig::quick(&dir);
    let mut artifacts = attack_core::pipeline::prepare(&config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let base = artifacts.victim.clone();
    let layers = base.trunk().layers();
    let column = layers
        .iter()
        .map(|l| Linear::new(l.in_dim(), l.out_dim(), &mut rng))
        .collect();
    let laterals = layers
        .windows(2)
        .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), &mut rng))
        .collect();
    artifacts.pnn = Arc::new(
        drive_nn::pnn::PnnPolicy::from_parts(base, column, laterals)
            .expect("shapes follow the base"),
    );
    let features = config.features.observation_dim();
    artifacts.camera_attacker = GaussianPolicy::new(features, &[32], 1, &mut rng);
    let imu = config.imu.observation_dim();
    artifacts.imu_attacker = GaussianPolicy::new(imu, &[32], 1, &mut rng);
    (artifacts, config)
}

/// Experiment scale: the paper's episode counts (the default) or a fast
/// smoke preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Episodes per box-plot cell (paper: 30).
    pub box_episodes: usize,
    /// Rounds per budget in the scatter sweeps (paper: 10).
    pub scatter_rounds: usize,
    /// Base evaluation seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's evaluation scale.
    pub fn paper() -> Self {
        Scale {
            box_episodes: 30,
            scatter_rounds: 10,
            seed: 10_000,
        }
    }

    /// A reduced scale for smoke tests and `cargo bench` figure targets.
    pub fn smoke() -> Self {
        Scale {
            box_episodes: 4,
            scatter_rounds: 2,
            seed: 10_000,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack_core::pipeline::prepare;

    /// Quick artifacts trained for the test `name`. They are used from
    /// memory: the directory they were saved to is removed on return.
    fn quick_setup(name: &str) -> (Artifacts, PipelineConfig) {
        let dir = crate::test_dir::TestDir::new(&format!("repro-bench-harness-{name}"));
        let config = PipelineConfig::quick(&dir);
        let artifacts = prepare(&config);
        (artifacts, config)
    }

    const ALL_KINDS: [AgentKind; 6] = [
        AgentKind::Modular,
        AgentKind::E2e,
        AgentKind::AdvRhoSmall,
        AgentKind::AdvRhoHalf,
        AgentKind::PnnSigma02,
        AgentKind::PnnSigma04,
    ];

    /// A context on the serial engine.
    fn serial_context<'a>(
        artifacts: &'a Artifacts,
        config: &'a PipelineConfig,
    ) -> crate::engine::RunContext<'a> {
        let mut ctx = crate::engine::RunContext::new(artifacts, config, Scale::smoke());
        ctx.fleet = None;
        ctx
    }

    /// Every kind builds and acts in range.
    #[test]
    fn builds_every_agent_kind() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = quick_setup("builds_every_agent_kind");
        let budget = AttackBudget::new(0.5);
        for kind in ALL_KINDS {
            let mut agent = build_agent(kind, &artifacts, &config, budget, 0);
            let world = drive_sim::world::World::new(config.scenario.clone());
            agent.reset(&world);
            let a = agent.act(&world);
            assert!(a.steer.abs() <= 1.0, "{kind:?}");
        }
    }

    /// Evaluation agents act deterministically, which the fleet relies on:
    /// it has no agent seed. Serial agents built with two different
    /// exploration seeds drive equal records on one episode seed grid,
    /// with and without a learned attacker, on both sides of a PNN
    /// switcher's threshold; and for every kind the fleet steps, its
    /// records equal theirs.
    #[test]
    fn evaluation_agents_act_deterministically() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = parity_artifacts("evaluation_agents_act_deterministically");
        let (episodes, base_seed) = (3, 17);
        for (kind, eps) in ALL_KINDS
            .into_iter()
            .flat_map(|kind| [0.2, 0.5].map(|eps| (kind, eps)))
        {
            let budget = AttackBudget::new(eps);
            for attacked in [false, true] {
                let attack = attacked.then_some((&artifacts.camera_attacker, SensorKind::Camera));
                let records: [Vec<EpisodeRecord>; 2] = [1, 2].map(|agent_seed| {
                    let mut agent = build_agent(kind, &artifacts, &config, budget, agent_seed);
                    let policy = BatchPolicy::from(artifacts.camera_attacker.clone());
                    attack_core::eval::run_attacked_episodes(
                        agent.as_mut(),
                        |seed| {
                            attacked.then(|| {
                                let sensor = AttackerSensor::camera(config.features.clone());
                                LearnedAttacker::new(policy.clone(), sensor, budget, seed, true)
                            })
                        },
                        &AdvReward::default(),
                        &config.scenario,
                        episodes,
                        base_seed,
                    )
                });
                let case = format!("{kind:?} at eps {eps} (attacked: {attacked})");
                assert_eq!(records[0], records[1], "{case} depends on its agent seed");
                if let Some(victim) = fleet_victim(kind, &artifacts, budget) {
                    let fleet = FleetEval {
                        victim,
                        features: config.features.clone(),
                        attack,
                        imu: config.imu.clone(),
                        budget,
                        adv: AdvReward::default(),
                        scenario: config.scenario.clone(),
                    }
                    .run(episodes, base_seed, 2);
                    assert_eq!(fleet, records[0], "{case}: fleet and serial differ");
                }
            }
        }
    }

    #[test]
    fn attacked_records_nominal_vs_attacked() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = quick_setup("attacked_records_nominal_vs_attacked");
        let ctx = serial_context(&artifacts, &config);
        let seeds = ctx.seeds.child("harness-test");
        let nominal = attacked_records(
            AgentKind::Modular,
            None,
            AttackBudget::ZERO,
            &ctx,
            2,
            &seeds,
        );
        assert_eq!(nominal.len(), 2);
        assert!(nominal.iter().all(|r| r.attack_effort() == 0.0));

        let attacked = attacked_records(
            AgentKind::Modular,
            Some((&artifacts.camera_attacker, SensorKind::Camera)),
            AttackBudget::new(1.0),
            &ctx,
            2,
            &seeds,
        );
        assert!(attacked.iter().any(|r| r.attack_effort() > 0.0));

        // Same namespace, same records: the cell is a pure function of its
        // seed subtree.
        let again = attacked_records(
            AgentKind::Modular,
            None,
            AttackBudget::ZERO,
            &ctx,
            2,
            &seeds,
        );
        assert_eq!(nominal, again);
    }

    /// A fleet-routed context must produce the same records as the serial
    /// path, byte-for-byte, for every routable agent kind, and non-routable
    /// kinds must keep working (silently staying serial).
    #[test]
    fn fleet_context_matches_serial_records() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = quick_setup("fleet_context_matches_serial_records");
        let serial_ctx = serial_context(&artifacts, &config);
        let mut fleet_ctx = crate::engine::RunContext::new(&artifacts, &config, Scale::smoke());
        fleet_ctx.fleet = Some(3);
        let seeds = serial_ctx.seeds.child("fleet-test");
        for kind in [AgentKind::E2e, AgentKind::AdvRhoHalf, AgentKind::Modular] {
            let attack = Some((&artifacts.camera_attacker, SensorKind::Camera));
            let serial =
                attacked_records(kind, attack, AttackBudget::new(1.0), &serial_ctx, 4, &seeds);
            let fleet =
                attacked_records(kind, attack, AttackBudget::new(1.0), &fleet_ctx, 4, &seeds);
            assert_eq!(fleet, serial, "{kind:?}");
        }
        // IMU pairing too (per-episode noise reseeding is the tricky bit).
        let attack = Some((&artifacts.imu_attacker, SensorKind::Imu));
        let serial = attacked_records(
            AgentKind::E2e,
            attack,
            AttackBudget::new(0.5),
            &serial_ctx,
            4,
            &seeds,
        );
        let fleet = attacked_records(
            AgentKind::E2e,
            attack,
            AttackBudget::new(0.5),
            &fleet_ctx,
            4,
            &seeds,
        );
        assert_eq!(fleet, serial);
    }

    /// PNN cells take the fleet on both switcher columns: through the
    /// frozen base column at `eps <= sigma` and through the hardened
    /// column above it. Their records equal the serial switcher's byte
    /// for byte at batch 1, at batch 3 (slots refill mid-cell) and at a
    /// batch above the episode count.
    #[test]
    fn pnn_cells_match_serial_on_both_columns() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = parity_artifacts("pnn_cells_match_serial_on_both_columns");
        let serial_ctx = serial_context(&artifacts, &config);
        let seeds = serial_ctx.seeds.child("pnn-fleet-test");
        let camera = Some((&artifacts.camera_attacker, SensorKind::Camera));
        let imu = Some((&artifacts.imu_attacker, SensorKind::Imu));
        let cases = [
            (AgentKind::PnnSigma02, 0.0, camera, false),
            (AgentKind::PnnSigma02, 0.2, camera, false),
            (AgentKind::PnnSigma02, 0.5, camera, true),
            (AgentKind::PnnSigma04, 0.4, imu, false),
            (AgentKind::PnnSigma04, 1.0, imu, true),
        ];
        for (kind, eps, attack, hardened) in cases {
            let budget = AttackBudget::new(eps);
            let column = fleet_victim(kind, &artifacts, budget).expect("PNN cells batch");
            assert_eq!(
                matches!(column, FleetVictim::Pnn(_)),
                hardened,
                "{kind:?} at eps {eps}"
            );
            let serial = attacked_records(kind, attack, budget, &serial_ctx, 4, &seeds);
            for batch in [1, 3, 64] {
                let mut fleet_ctx =
                    crate::engine::RunContext::new(&artifacts, &config, Scale::smoke());
                fleet_ctx.fleet = Some(batch);
                let fleet = attacked_records(kind, attack, budget, &fleet_ctx, 4, &seeds);
                assert_eq!(fleet, serial, "{kind:?} at eps {eps}, batch {batch}");
            }
        }
    }

    /// Under test a panicking fleet cell is a hard failure: the fleet's
    /// own panic reaches the caller instead of a silent serial retry.
    #[test]
    #[should_panic(expected = "attack policy obs dim must match its sensor")]
    fn fleet_panic_is_a_hard_failure_in_tests() {
        let _cells = crate::test_latch::run_cells();
        let (artifacts, config) = quick_setup("fleet_panic_is_a_hard_failure_in_tests");
        let mut ctx = crate::engine::RunContext::new(&artifacts, &config, Scale::smoke());
        ctx.fleet = Some(2);
        let seeds = ctx.seeds.child("fleet-panic-test");
        // The IMU attacker's policy behind a camera sensor.
        let attack = Some((&artifacts.imu_attacker, SensorKind::Camera));
        attacked_records(
            AgentKind::E2e,
            attack,
            AttackBudget::new(0.5),
            &ctx,
            1,
            &seeds,
        );
    }

    /// A scenario-override cell must (a) journal under its own key, (b)
    /// actually run on the overridden world, and (c) stay byte-identical
    /// between the serial and fleet paths.
    #[test]
    fn scenario_override_keys_and_fleet_parity() {
        let _cells = crate::test_latch::run_cells();
        use drive_sim::scenario::ScenarioSpec;
        let (artifacts, config) = quick_setup("scenario_override_keys_and_fleet_parity");
        let dir = crate::test_dir::TestDir::new("repro-bench-scn-key-test");
        let base = crate::engine::RunContext::new(&artifacts, &config, Scale::smoke());
        let journal = std::sync::Arc::new(
            crate::journal::JournalHandle::create(&dir, base.run_header()).unwrap(),
        );
        let mut ctx = serial_context(&artifacts, &config);
        ctx.journal = Some(journal.clone());
        let seeds = ctx.seeds.child("scn-test");
        let default_records =
            attacked_records(AgentKind::E2e, None, AttackBudget::ZERO, &ctx, 2, &seeds);
        assert_eq!(journal.cell_count(), 1);
        let spec = ScenarioSpec::on_ramp_merge();
        let cell = ScenarioCell {
            scenario: spec.scenario(),
            fingerprint: spec.fingerprint(),
            faults: None,
        };
        let overridden = attacked_records_in(
            AgentKind::E2e,
            None,
            AttackBudget::ZERO,
            &ctx,
            2,
            &seeds,
            Some(cell),
        );
        assert_eq!(
            journal.cell_count(),
            2,
            "override must journal under its own cell key"
        );
        assert_ne!(
            default_records, overridden,
            "override must actually run on the generated world"
        );
        // Fleet parity on the overridden scenario.
        let mut fleet_ctx = crate::engine::RunContext::new(&artifacts, &config, Scale::smoke());
        fleet_ctx.fleet = Some(3);
        let fleet = attacked_records_in(
            AgentKind::E2e,
            None,
            AttackBudget::ZERO,
            &fleet_ctx,
            2,
            &seeds,
            Some(cell),
        );
        assert_eq!(fleet, overridden);
        // A faulted cell keys differently from the fault-free override and
        // stays off the fleet path (covered by the serial-only routing).
        let schedule = FaultSchedule::benign(0.5, 7);
        let faulted = attacked_records_in(
            AgentKind::E2e,
            None,
            AttackBudget::ZERO,
            &ctx,
            2,
            &seeds,
            Some(ScenarioCell {
                faults: Some(&schedule),
                ..cell
            }),
        );
        assert_eq!(journal.cell_count(), 3);
        assert_eq!(faulted.len(), 2);
    }

    #[test]
    fn scale_presets() {
        assert_eq!(Scale::paper().box_episodes, 30);
        assert!(Scale::smoke().box_episodes < Scale::paper().box_episodes);
    }
}
