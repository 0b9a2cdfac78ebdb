//! Soft actor-critic (Haarnoja et al., 2018) with twin critics, Polyak
//! target networks, and automatic entropy-temperature tuning.
//!
//! This is the algorithm the paper uses for **both** sides of the game: the
//! end-to-end driving agent (Section III-C) and the adversarial attack
//! policies (Section IV).

use crate::actor::{Actor, ActorSample};
use crate::replay::{Batch, ReplayBuffer};
use drive_nn::activation::Activation;
use drive_nn::adam::Adam;
use drive_nn::checkpoint::{self, CheckpointError, Reader};
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::mat::Mat;
use drive_nn::mlp::{Mlp, MlpCache};
use drive_nn::scratch::{SampleBackScratch, Scratch};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// SAC hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SacConfig {
    /// Discount factor.
    pub gamma: f32,
    /// Polyak averaging rate for target networks.
    pub tau: f32,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Entropy-temperature learning rate.
    pub alpha_lr: f32,
    /// Initial entropy temperature.
    pub init_alpha: f32,
    /// Target policy entropy; `None` defaults to `-action_dim`.
    pub target_entropy: Option<f32>,
    /// Mini-batch size per update.
    pub batch_size: usize,
    /// Number of updates during which only the critics train (actor and
    /// temperature frozen). A critic warm-up protects a pre-trained actor
    /// (behaviour-cloned victim, fine-tuned defense) from being wrecked by
    /// the gradients of freshly initialized critics.
    pub actor_delay: usize,
}

impl Default for SacConfig {
    fn default() -> Self {
        SacConfig {
            gamma: 0.99,
            tau: 0.005,
            actor_lr: 3e-4,
            critic_lr: 3e-4,
            alpha_lr: 3e-4,
            init_alpha: 0.1,
            target_entropy: None,
            batch_size: 128,
            actor_delay: 0,
        }
    }
}

/// Diagnostic losses from one SAC update.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SacLosses {
    /// Mean squared Bellman error of critic 1.
    pub q1_loss: f32,
    /// Mean squared Bellman error of critic 2.
    pub q2_loss: f32,
    /// Actor objective `E[alpha log pi - min Q]`.
    pub actor_loss: f32,
    /// Current entropy temperature.
    pub alpha: f32,
    /// Mean policy entropy estimate (`-log pi`).
    pub entropy: f32,
}

/// Persistent workspace for [`Sac::update_batch`] — every buffer the
/// update needs, warmed up on the first call and reused afterwards so the
/// hot training loop performs zero heap allocations. Pure workspace:
/// carries no learned state, so cloning a learner clones only capacity.
#[derive(Debug, Clone)]
struct UpdateScratch<S> {
    /// Policy sample at `next_obs` (critic targets).
    next_sample: Option<S>,
    /// Policy sample at `obs` (actor objective).
    pi_sample: Option<S>,
    next_in: Mat,
    critic_in: Mat,
    actor_in: Mat,
    targets: Vec<f32>,
    tgt1: Scratch,
    tgt2: Scratch,
    c1: MlpCache,
    c2: MlpCache,
    a1: MlpCache,
    a2: MlpCache,
    g1: Mat,
    g2: Mat,
    pick1: Mat,
    pick2: Mat,
    grad_action: Mat,
    grad_action2: Mat,
    grad_logp: Vec<f32>,
    bw1: Scratch,
    bw2: Scratch,
    actor_bw: SampleBackScratch,
}

// Manual impl: `derive(Default)` would demand `S: Default`, which actor
// sample caches don't all provide (the `Option` slots default to `None`
// regardless).
impl<S> Default for UpdateScratch<S> {
    fn default() -> Self {
        UpdateScratch {
            next_sample: None,
            pi_sample: None,
            next_in: Mat::default(),
            critic_in: Mat::default(),
            actor_in: Mat::default(),
            targets: Vec::new(),
            tgt1: Scratch::default(),
            tgt2: Scratch::default(),
            c1: MlpCache::default(),
            c2: MlpCache::default(),
            a1: MlpCache::default(),
            a2: MlpCache::default(),
            g1: Mat::default(),
            g2: Mat::default(),
            pick1: Mat::default(),
            pick2: Mat::default(),
            grad_action: Mat::default(),
            grad_action2: Mat::default(),
            grad_logp: Vec::new(),
            bw1: Scratch::default(),
            bw2: Scratch::default(),
            actor_bw: SampleBackScratch::default(),
        }
    }
}

/// A soft actor-critic learner, generic over the actor architecture
/// (plain Gaussian policy or progressive network).
#[derive(Debug, Clone)]
pub struct Sac<A: Actor = GaussianPolicy> {
    /// The stochastic policy being learned.
    pub actor: A,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    opt_actor: Adam,
    opt_q1: Adam,
    opt_q2: Adam,
    opt_alpha: Adam,
    log_alpha: Vec<f32>,
    target_entropy: f32,
    config: SacConfig,
    obs_dim: usize,
    action_dim: usize,
    updates: usize,
    /// Reusable mini-batch buffers for [`Sac::update`] — pure workspace,
    /// carries no learned state.
    batch_scratch: Batch,
    /// Reusable buffers for [`Sac::update_batch`] — pure workspace.
    update_scratch: UpdateScratch<A::Sample>,
}

/// Version tag of the SAC learner checkpoint section.
const SAC_STATE_VERSION: &str = "v1";

impl Sac<GaussianPolicy> {
    /// Creates a learner with fresh actor/critic networks using the given
    /// hidden sizes.
    pub fn new(
        obs_dim: usize,
        action_dim: usize,
        hidden: &[usize],
        config: SacConfig,
        rng: &mut StdRng,
    ) -> Self {
        let actor = GaussianPolicy::new(obs_dim, hidden, action_dim, rng);
        Self::with_actor(actor, hidden, config, rng)
    }
}

impl<A: Actor> Sac<A> {
    /// Appends the learner's full state — actor, both critics and targets,
    /// all four optimizers, the entropy temperature, and the update counter
    /// — as a versioned checkpoint section. The scratch workspaces carry no
    /// learned state and are rebuilt lazily, so a decoded learner continues
    /// training bit-exactly.
    pub fn encode_state_into(&self, buf: &mut String) {
        buf.push_str(&format!(
            "sac-state {SAC_STATE_VERSION} {} {} {}\n",
            self.updates, self.target_entropy, self.log_alpha[0]
        ));
        self.actor.encode_into(buf);
        checkpoint::encode_mlp_into(buf, &self.q1);
        checkpoint::encode_mlp_into(buf, &self.q2);
        checkpoint::encode_mlp_into(buf, &self.q1_target);
        checkpoint::encode_mlp_into(buf, &self.q2_target);
        checkpoint::encode_adam_into(buf, &self.opt_actor);
        checkpoint::encode_adam_into(buf, &self.opt_q1);
        checkpoint::encode_adam_into(buf, &self.opt_q2);
        checkpoint::encode_adam_into(buf, &self.opt_alpha);
    }

    /// Parses one learner section from a reader positioned at its
    /// `sac-state` tag. Hyper-parameters are not serialized; the caller
    /// supplies the same `config` the original run used (snapshot formats
    /// pin it with a config hash).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Version`] for a section written by a
    /// different format revision, [`CheckpointError::Parse`] on structural
    /// mismatch.
    pub fn decode_state_from(
        r: &mut Reader<'_>,
        config: SacConfig,
    ) -> Result<Self, CheckpointError> {
        let parse_err = CheckpointError::Parse;
        let args = r.expect_tag("sac-state")?;
        let version = *args
            .first()
            .ok_or_else(|| parse_err("sac-state tag needs a version".into()))?;
        if version != SAC_STATE_VERSION {
            return Err(CheckpointError::Version {
                found: version.to_string(),
                expected: SAC_STATE_VERSION,
            });
        }
        if args.len() != 4 {
            return Err(parse_err(
                "sac-state tag needs '<version> <updates> <target_entropy> <log_alpha>'".into(),
            ));
        }
        let updates: usize = args[1]
            .parse()
            .map_err(|_| parse_err(format!("bad update count '{}'", args[1])))?;
        let target_entropy: f32 = args[2]
            .parse()
            .map_err(|_| parse_err(format!("bad target entropy '{}'", args[2])))?;
        let log_alpha: f32 = args[3]
            .parse()
            .map_err(|_| parse_err(format!("bad log alpha '{}'", args[3])))?;
        let actor = A::decode_from(r)?;
        let q1 = checkpoint::decode_mlp_from(r)?;
        let q2 = checkpoint::decode_mlp_from(r)?;
        let q1_target = checkpoint::decode_mlp_from(r)?;
        let q2_target = checkpoint::decode_mlp_from(r)?;
        let opt_actor = checkpoint::decode_adam_from(r)?;
        let opt_q1 = checkpoint::decode_adam_from(r)?;
        let opt_q2 = checkpoint::decode_adam_from(r)?;
        let opt_alpha = checkpoint::decode_adam_from(r)?;
        let obs_dim = actor.obs_dim();
        let action_dim = actor.action_dim();
        if q1.in_dim() != obs_dim + action_dim {
            return Err(parse_err(format!(
                "critic input {} does not match obs {obs_dim} + action {action_dim}",
                q1.in_dim()
            )));
        }
        Ok(Sac {
            actor,
            q1,
            q2,
            q1_target,
            q2_target,
            opt_actor,
            opt_q1,
            opt_q2,
            opt_alpha,
            log_alpha: vec![log_alpha],
            target_entropy,
            config,
            obs_dim,
            action_dim,
            updates,
            batch_scratch: Batch::default(),
            update_scratch: UpdateScratch::default(),
        })
    }

    /// Creates a learner around an existing (e.g. behaviour-cloned or
    /// progressive) actor.
    pub fn with_actor(
        actor: A,
        critic_hidden: &[usize],
        config: SacConfig,
        rng: &mut StdRng,
    ) -> Self {
        let obs_dim = actor.obs_dim();
        let action_dim = actor.action_dim();
        let mut sizes = Vec::with_capacity(critic_hidden.len() + 2);
        sizes.push(obs_dim + action_dim);
        sizes.extend_from_slice(critic_hidden);
        sizes.push(1);
        let q1 = Mlp::new(&sizes, Activation::Relu, Activation::Identity, rng);
        let q2 = Mlp::new(&sizes, Activation::Relu, Activation::Identity, rng);
        let q1_target = q1.clone();
        let q2_target = q2.clone();
        let target_entropy = config.target_entropy.unwrap_or(-(action_dim as f32));
        Sac {
            actor,
            q1,
            q2,
            q1_target,
            q2_target,
            opt_actor: Adam::with_lr(config.actor_lr),
            opt_q1: Adam::with_lr(config.critic_lr),
            opt_q2: Adam::with_lr(config.critic_lr),
            opt_alpha: Adam::with_lr(config.alpha_lr),
            log_alpha: vec![config.init_alpha.max(1e-6).ln()],
            target_entropy,
            config,
            obs_dim,
            action_dim,
            updates: 0,
            batch_scratch: Batch::default(),
            update_scratch: UpdateScratch::default(),
        }
    }

    /// Current entropy temperature.
    pub fn alpha(&self) -> f32 {
        self.log_alpha[0].exp()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SacConfig {
        &self.config
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Acts on a single observation (stochastic unless `deterministic`).
    pub fn act(&self, obs: &[f32], rng: &mut StdRng, deterministic: bool) -> Vec<f32> {
        self.actor.act(obs, rng, deterministic)
    }

    /// Performs one gradient update from a replay sample.
    ///
    /// # Panics
    ///
    /// Panics if the buffer shapes do not match the learner or the buffer is
    /// empty.
    pub fn update(&mut self, buffer: &ReplayBuffer, rng: &mut StdRng) -> SacLosses {
        // Move the reusable batch out so `update_batch` can borrow `self`;
        // its buffers warm up once and are then reused every update.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        buffer.sample_into(self.config.batch_size, rng, &mut batch);
        let losses = self.update_batch(&batch, rng);
        self.batch_scratch = batch;
        losses
    }

    /// Number of gradient updates performed.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Performs one gradient update on a pre-sampled batch.
    ///
    /// Every intermediate lives in a persistent `UpdateScratch`, so after
    /// the first call at a given batch size this performs zero heap
    /// allocations (see `crates/rl/tests/alloc.rs`).
    pub fn update_batch(&mut self, batch: &Batch, rng: &mut StdRng) -> SacLosses {
        self.updates += 1;
        crate::perf::record_updates(1);
        let actor_frozen = self.updates <= self.config.actor_delay;
        let n = batch.len();
        let nf = n as f32;
        let alpha = self.alpha();
        let gamma = self.config.gamma;

        // Move the workspace out so its buffers can be borrowed alongside
        // `self`'s networks; restored before returning.
        let mut us = std::mem::take(&mut self.update_scratch);
        let UpdateScratch {
            next_sample,
            pi_sample,
            next_in,
            critic_in,
            actor_in,
            targets,
            tgt1,
            tgt2,
            c1,
            c2,
            a1,
            a2,
            g1,
            g2,
            pick1,
            pick2,
            grad_action,
            grad_action2,
            grad_logp,
            bw1,
            bw2,
            actor_bw,
        } = &mut us;

        // ------- Critic update -------
        // Target actions and values from the *current* policy at next_obs.
        self.actor.sample_into(&batch.next_obs, rng, next_sample);
        let next = next_sample.as_ref().expect("sample_into fills the slot");
        batch.next_obs.hcat_into(next.actions(), next_in);
        let q1t = self.q1_target.forward_with(next_in, tgt1);
        let q2t = self.q2_target.forward_with(next_in, tgt2);
        // Fused target pass: min-Q, entropy bonus, and Bellman backup in
        // one sweep over the (n, 1) output columns.
        targets.clear();
        targets.extend(
            q1t.data()
                .iter()
                .zip(q2t.data())
                .zip(next.log_prob())
                .zip(&batch.rewards)
                .zip(&batch.terminals)
                .map(|((((&v1, &v2), &lp), &r), &t)| {
                    let soft = v1.min(v2) - alpha * lp;
                    r + gamma * (1.0 - t) * soft
                }),
        );

        batch.obs.hcat_into(&batch.actions, critic_in);
        self.q1.forward_cached_into(critic_in, c1);
        self.q2.forward_cached_into(critic_in, c2);
        g1.resize(n, 1);
        g2.resize(n, 1);
        let mut q1_loss = 0.0;
        let mut q2_loss = 0.0;
        // Fused TD-error pass: losses and both critic gradients together.
        for ((((&o1, &o2), gg1), gg2), &t) in c1
            .output()
            .data()
            .iter()
            .zip(c2.output().data())
            .zip(g1.data_mut())
            .zip(g2.data_mut())
            .zip(&*targets)
        {
            let e1 = o1 - t;
            let e2 = o2 - t;
            q1_loss += e1 * e1 / nf;
            q2_loss += e2 * e2 / nf;
            *gg1 = 2.0 * e1 / nf;
            *gg2 = 2.0 * e2 / nf;
        }
        self.q1.zero_grad();
        self.q2.zero_grad();
        self.q1.backward_params_with(c1, g1, bw1);
        self.q2.backward_params_with(c2, g2, bw2);
        self.opt_q1.step(|f| self.q1.visit_params(f));
        self.opt_q2.step(|f| self.q2.visit_params(f));

        // ------- Actor update -------
        // a ~ pi(s) with reparameterization; loss = E[alpha logp - min Q].
        // During the critic warm-up (actor_delay) only diagnostics are
        // computed; actor and temperature stay frozen.
        self.actor.sample_into(&batch.obs, rng, pi_sample);
        let pi = pi_sample.as_ref().expect("sample_into fills the slot");
        batch.obs.hcat_into(pi.actions(), actor_in);
        self.q1.forward_cached_into(actor_in, a1);
        self.q2.forward_cached_into(actor_in, a2);
        // Per-sample, gradient flows through the smaller critic
        // (dL/dq = -1/n through the selected one); fused with the loss.
        pick1.resize(n, 1);
        pick1.fill(0.0);
        pick2.resize(n, 1);
        pick2.fill(0.0);
        let mut actor_loss = 0.0;
        for ((((&v1, &v2), p1), p2), &lp) in a1
            .output()
            .data()
            .iter()
            .zip(a2.output().data())
            .zip(pick1.data_mut())
            .zip(pick2.data_mut())
            .zip(pi.log_prob())
        {
            let qmin = v1.min(v2);
            actor_loss += (alpha * lp - qmin) / nf;
            if v1 <= v2 {
                *p1 = -1.0 / nf;
            } else {
                *p2 = -1.0 / nf;
            }
        }
        let mean_logp = pi.log_prob().iter().sum::<f32>() / nf;
        if !actor_frozen {
            // The critics' input gradients in the action columns only:
            // the actor objective does not train the critics, and nothing
            // reads the observation columns.
            self.q1
                .input_grad_tail_with(a1, pick1, self.action_dim, bw1, grad_action);
            self.q2
                .input_grad_tail_with(a2, pick2, self.action_dim, bw2, grad_action2);
            grad_action.add_assign(grad_action2);
            grad_logp.clear();
            grad_logp.resize(n, alpha / nf);
            self.actor.zero_grad();
            self.actor
                .backward_sample_with(pi, grad_action, grad_logp, actor_bw);
            self.opt_actor.step(|f| self.actor.visit_params(f));

            // ------- Temperature update -------
            // L(alpha) = -log_alpha * E[logp + target_entropy].
            let mut alpha_grad = [-(mean_logp + self.target_entropy)];
            let log_alpha = &mut self.log_alpha;
            self.opt_alpha.step(|f| f(log_alpha, &mut alpha_grad));
            // Keep alpha in a sane range.
            self.log_alpha[0] = self.log_alpha[0].clamp(-10.0, 2.0);
        }

        // ------- Target network update -------
        self.q1_target.polyak_from(&self.q1, self.config.tau);
        self.q2_target.polyak_from(&self.q2, self.config.tau);

        self.update_scratch = us;
        SacLosses {
            q1_loss,
            q2_loss,
            actor_loss,
            alpha: self.alpha(),
            entropy: -mean_logp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::PointEnv;
    use crate::env::{rollout, Env};
    use crate::replay::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn learner(rng: &mut StdRng) -> Sac {
        Sac::new(1, 1, &[32, 32], SacConfig::default(), rng)
    }

    #[test]
    fn construction_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let sac = learner(&mut rng);
        assert_eq!(sac.obs_dim(), 1);
        assert_eq!(sac.action_dim(), 1);
        assert!((sac.alpha() - 0.1).abs() < 1e-6);
        let a = sac.act(&[0.5], &mut rng, true);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn update_runs_and_reports_finite_losses() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sac = learner(&mut rng);
        let mut rb = ReplayBuffer::new(1000, 1, 1);
        for i in 0..200 {
            let x = (i as f32 / 100.0) - 1.0;
            rb.push(Transition {
                obs: vec![x],
                action: vec![-x],
                reward: -x * x,
                next_obs: vec![x * 0.8],
                terminal: false,
            });
        }
        let losses = sac.update(&rb, &mut rng);
        assert!(losses.q1_loss.is_finite());
        assert!(losses.q2_loss.is_finite());
        assert!(losses.actor_loss.is_finite());
        assert!(losses.alpha > 0.0);
    }

    #[test]
    fn solves_point_env() {
        // End-to-end sanity: SAC should learn to drive the point to the
        // origin well above the random policy's return.
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = PointEnv::new();
        let mut sac = Sac::new(
            1,
            1,
            &[32, 32],
            SacConfig {
                batch_size: 64,
                actor_lr: 1e-3,
                critic_lr: 1e-3,
                alpha_lr: 1e-3,
                ..SacConfig::default()
            },
            &mut rng,
        );
        let mut rb = ReplayBuffer::new(20_000, 1, 1);
        let mut seed = 0u64;
        let mut obs = env.reset(seed);
        for step in 0..4000 {
            let action = if step < 200 {
                vec![rng.gen_range(-1.0f32..1.0)]
            } else {
                sac.act(&obs, &mut rng, false)
            };
            let s = env.step(&action);
            rb.push(Transition {
                obs: obs.clone(),
                action,
                reward: s.reward,
                next_obs: s.obs.clone(),
                terminal: s.done,
            });
            let finished = s.finished();
            obs = s.obs;
            if finished {
                seed += 1;
                obs = env.reset(seed);
            }
            if step >= 200 {
                sac.update(&rb, &mut rng);
            }
        }
        // Evaluate deterministically over a few starts.
        let mut total = 0.0;
        for es in 100..105 {
            let (r, _) = rollout(
                &mut env,
                |o| sac.act(o, &mut StdRng::seed_from_u64(0), true),
                es,
            );
            total += r;
        }
        let mean = total / 5.0;
        // A decent policy keeps x near 0: return > -6 (random is ~ -15..-30).
        assert!(mean > -6.0, "mean return {mean}");
    }

    #[test]
    fn target_networks_track_critics() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sac = learner(&mut rng);
        let mut rb = ReplayBuffer::new(100, 1, 1);
        for _ in 0..50 {
            rb.push(Transition {
                obs: vec![0.1],
                action: vec![0.2],
                reward: 1.0,
                next_obs: vec![0.1],
                terminal: false,
            });
        }
        let before = sac.q1_target.forward(&Mat::from_row(&[0.1, 0.2])).get(0, 0);
        for _ in 0..50 {
            sac.update(&rb, &mut rng);
        }
        let after = sac.q1_target.forward(&Mat::from_row(&[0.1, 0.2])).get(0, 0);
        // Constant reward 1, gamma 0.99 → values drift up towards ~100.
        assert!(after > before, "target q should move: {before} -> {after}");
    }

    #[test]
    fn terminal_mask_stops_bootstrap() {
        // Two identical one-state problems, one with terminal transitions:
        // the terminal variant's Q must converge near the raw reward.
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SacConfig {
            batch_size: 32,
            critic_lr: 3e-3,
            ..SacConfig::default()
        };
        let mut sac = Sac::new(1, 1, &[16], cfg, &mut rng);
        let mut rb = ReplayBuffer::new(100, 1, 1);
        for _ in 0..50 {
            rb.push(Transition {
                obs: vec![0.0],
                action: vec![0.0],
                reward: 1.0,
                next_obs: vec![0.0],
                terminal: true,
            });
        }
        for _ in 0..400 {
            sac.update(&rb, &mut rng);
        }
        // Critic 1 at the one `[obs | action]` input.
        let q = sac.q1.forward(&Mat::from_row(&[0.0, 0.0])).get(0, 0);
        assert!((q - 1.0).abs() < 0.4, "terminal Q should be ~1, got {q}");
    }

    #[test]
    fn actor_delay_freezes_actor_during_warmup() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SacConfig {
            actor_delay: 10,
            batch_size: 16,
            ..SacConfig::default()
        };
        let mut sac = Sac::new(1, 1, &[16], cfg, &mut rng);
        let before = sac.actor.clone();
        let mut rb = ReplayBuffer::new(100, 1, 1);
        for _ in 0..40 {
            rb.push(Transition {
                obs: vec![0.3],
                action: vec![0.1],
                reward: 1.0,
                next_obs: vec![0.3],
                terminal: false,
            });
        }
        for _ in 0..10 {
            sac.update(&rb, &mut rng);
        }
        let obs = Mat::from_row(&[0.3]);
        assert_eq!(
            before.mean_action(&obs),
            sac.actor.mean_action(&obs),
            "actor must be untouched during warm-up"
        );
        assert_eq!(sac.updates(), 10);
        sac.update(&rb, &mut rng);
        assert_ne!(before.mean_action(&obs), sac.actor.mean_action(&obs));
    }

    #[test]
    fn state_round_trip_resumes_training_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sac = Sac::new(
            1,
            1,
            &[16],
            SacConfig {
                batch_size: 16,
                ..SacConfig::default()
            },
            &mut rng,
        );
        let mut rb = ReplayBuffer::new(200, 1, 1);
        for i in 0..60 {
            let x = (i as f32 / 30.0) - 1.0;
            rb.push(Transition {
                obs: vec![x],
                action: vec![-x],
                reward: -x * x,
                next_obs: vec![x * 0.9],
                terminal: i % 7 == 0,
            });
        }
        for _ in 0..20 {
            sac.update(&rb, &mut rng);
        }
        let mut buf = String::new();
        sac.encode_state_into(&mut buf);
        let mut r = Reader::new(&buf);
        let mut back: Sac = Sac::decode_state_from(&mut r, *sac.config()).expect("round trip");
        assert_eq!(back.updates(), sac.updates());
        assert_eq!(back.alpha(), sac.alpha());
        // Same RNG stream from here on: both learners must stay identical.
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        for _ in 0..10 {
            let la = sac.update(&rb, &mut r1);
            let lb = back.update(&rb, &mut r2);
            assert_eq!(la, lb, "losses diverged after resume");
        }
        let mut d1 = StdRng::seed_from_u64(0);
        let mut d2 = StdRng::seed_from_u64(0);
        assert_eq!(
            sac.act(&[0.4], &mut d1, true),
            back.act(&[0.4], &mut d2, true)
        );
    }

    #[test]
    fn state_version_mismatch_is_typed() {
        let mut rng = StdRng::seed_from_u64(12);
        let sac = Sac::new(1, 1, &[8], SacConfig::default(), &mut rng);
        let mut buf = String::new();
        sac.encode_state_into(&mut buf);
        let tampered = buf.replacen("sac-state v1", "sac-state v9", 1);
        let mut r = Reader::new(&tampered);
        match Sac::<GaussianPolicy>::decode_state_from(&mut r, SacConfig::default()) {
            Err(CheckpointError::Version { found, .. }) => assert_eq!(found, "v9"),
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    use rand::Rng;
}
