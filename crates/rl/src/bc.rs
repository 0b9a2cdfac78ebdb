//! Behaviour cloning: supervised warm-starting of a Gaussian policy from
//! demonstration `(obs, action)` pairs.
//!
//! The paper trains its end-to-end agent "with the knowledge of a privileged
//! agent" (Section III-C); we realize that by cloning the modular pipeline's
//! demonstrations before SAC fine-tuning, which makes CPU training robust
//! and fast. The attacker's IMU policy similarly bootstraps from its camera
//! teacher (Section IV-E).

use drive_nn::adam::Adam;
use drive_nn::gaussian::GaussianPolicy;
use drive_nn::mat::Mat;
use drive_nn::mlp::MlpCache;
use drive_nn::scratch::Scratch;
use rand::Rng;

/// A demonstration dataset of observation/action pairs.
#[derive(Debug, Clone, Default)]
pub struct Demonstrations {
    obs: Vec<Vec<f32>>,
    actions: Vec<Vec<f32>>,
}

impl Demonstrations {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Demonstrations::default()
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Adds one pair.
    ///
    /// # Panics
    ///
    /// Panics if dims are inconsistent with already-stored pairs.
    pub fn push(&mut self, obs: Vec<f32>, action: Vec<f32>) {
        if let Some(first) = self.obs.first() {
            assert_eq!(obs.len(), first.len(), "obs dim mismatch");
            assert_eq!(action.len(), self.actions[0].len(), "action dim mismatch");
        }
        self.obs.push(obs);
        self.actions.push(action);
    }

    /// Samples a mini-batch as `(obs, action)` matrices.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn sample_batch<R: Rng>(&self, batch: usize, rng: &mut R) -> (Mat, Mat) {
        let (mut o, mut a) = (Mat::default(), Mat::default());
        self.sample_batch_into(batch, rng, &mut o, &mut a);
        (o, a)
    }

    /// [`Demonstrations::sample_batch`] into reusable matrices (resized and
    /// overwritten), with the same RNG draws: one index per row, in order.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn sample_batch_into<R: Rng>(
        &self,
        batch: usize,
        rng: &mut R,
        obs: &mut Mat,
        actions: &mut Mat,
    ) {
        assert!(!self.is_empty(), "cannot sample an empty dataset");
        obs.resize(batch, self.obs[0].len());
        actions.resize(batch, self.actions[0].len());
        for b in 0..batch {
            let i = rng.gen_range(0..self.len());
            obs.row_mut(b).copy_from_slice(&self.obs[i]);
            actions.row_mut(b).copy_from_slice(&self.actions[i]);
        }
    }
}

/// Configuration for [`clone_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcConfig {
    /// Gradient steps.
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
}

impl Default for BcConfig {
    fn default() -> Self {
        BcConfig {
            steps: 2000,
            batch_size: 128,
            lr: 1e-3,
        }
    }
}

/// Trains `policy`'s deterministic head `tanh(mean)` towards the
/// demonstrated actions with MSE loss. Returns the final mini-batch loss.
///
/// # Panics
///
/// Panics if `demos` is empty or dims mismatch the policy.
pub fn clone_policy<R: Rng>(
    policy: &mut GaussianPolicy,
    demos: &Demonstrations,
    config: BcConfig,
    rng: &mut R,
) -> f32 {
    let mut cloner = Cloner::new(config);
    let mut last = f32::INFINITY;
    for _ in 0..config.steps {
        last = cloner.step(policy, demos, rng);
    }
    last
}

/// The behaviour-cloning learner behind [`clone_policy`]: its optimizer
/// plus every buffer a step needs (mini-batch, forward cache, head
/// gradient, backward scratch), so steps after the first allocate
/// nothing.
#[derive(Debug, Clone)]
pub struct Cloner {
    batch_size: usize,
    opt: Adam,
    obs: Mat,
    target: Mat,
    trunk: MlpCache,
    grad: Mat,
    scratch: Scratch,
}

impl Cloner {
    /// A fresh learner (Adam at `config.lr`, batches of
    /// `config.batch_size`; `config.steps` is the caller's loop bound).
    pub fn new(config: BcConfig) -> Self {
        Cloner {
            batch_size: config.batch_size,
            opt: Adam::with_lr(config.lr),
            obs: Mat::default(),
            target: Mat::default(),
            trunk: MlpCache::default(),
            grad: Mat::default(),
            scratch: Scratch::default(),
        }
    }

    /// One gradient step on a fresh mini-batch; returns its loss. A single
    /// trunk forward serves both the prediction and the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `demos` is empty or dims mismatch the policy.
    pub fn step<R: Rng>(
        &mut self,
        policy: &mut GaussianPolicy,
        demos: &Demonstrations,
        rng: &mut R,
    ) -> f32 {
        assert!(!demos.is_empty(), "behaviour cloning needs demonstrations");
        assert_eq!(demos.obs[0].len(), policy.obs_dim(), "obs dim mismatch");
        let ad = policy.action_dim();
        assert_eq!(demos.actions[0].len(), ad, "action dim mismatch");
        demos.sample_batch_into(self.batch_size, rng, &mut self.obs, &mut self.target);
        policy
            .trunk()
            .forward_cached_into(&self.obs, &mut self.trunk);
        let raw = self.trunk.output();
        let n = self.batch_size as f32;
        self.grad.resize(raw.rows(), raw.cols());
        let mut loss = 0.0;
        for b in 0..raw.rows() {
            // d(loss)/d(mean) through tanh; the log-std half gets none.
            let (g_mean, g_log_std) = self.grad.row_mut(b).split_at_mut(ad);
            for ((g, &m), &t) in g_mean.iter_mut().zip(raw.row(b)).zip(self.target.row(b)) {
                let p = m.tanh();
                let e = p - t;
                loss += e * e / n;
                *g = 2.0 * e / n * (1.0 - p * p);
            }
            g_log_std.fill(0.0);
        }
        let trunk = policy.trunk_mut();
        trunk.zero_grad();
        trunk.backward_params_with(&self.trunk, &self.grad, &mut self.scratch);
        self.opt.step(|f| trunk.visit_params(f));
        crate::perf::record_updates(1);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clones_a_linear_controller() {
        // Teacher: a = clamp(-x, -1, 1) on 2-D observations (second dim is
        // a distractor).
        let mut rng = StdRng::seed_from_u64(1);
        let mut demos = Demonstrations::new();
        for _ in 0..500 {
            let x: f32 = rng.gen_range(-1.0..1.0);
            let d: f32 = rng.gen_range(-1.0..1.0);
            demos.push(vec![x, d], vec![(-x).clamp(-1.0, 1.0)]);
        }
        let mut policy = GaussianPolicy::new(2, &[32], 1, &mut rng);
        let loss = clone_policy(
            &mut policy,
            &demos,
            BcConfig {
                steps: 800,
                batch_size: 64,
                lr: 3e-3,
            },
            &mut rng,
        );
        assert!(loss < 0.01, "final BC loss {loss}");
        // Behaviourally: policy mimics the teacher.
        for x in [-0.8f32, -0.2, 0.3, 0.9] {
            let a = policy.act(&[x, 0.0], &mut rng, true)[0];
            assert!((a + x).abs() < 0.15, "x {x} a {a}");
        }
    }

    /// Every parameter of the trunk, as bits.
    fn param_bits(policy: &GaussianPolicy) -> Vec<u32> {
        let mut bits = Vec::new();
        for l in policy.trunk().layers() {
            bits.extend(l.w().data().iter().chain(&l.b).map(|v| v.to_bits()));
        }
        bits
    }

    /// The one-forward step trains the same policy, bit for bit, as the
    /// two-forward loop it replaced: `mean_action` for the prediction,
    /// then `backward_mean`, whose own forward recomputes the trunk.
    #[test]
    fn one_forward_step_matches_two_forward_path() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut demos = Demonstrations::new();
        for _ in 0..300 {
            let obs: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let act = vec![obs[0].clamp(-1.0, 1.0), -obs[1] * 0.5];
            demos.push(obs, act);
        }
        let config = BcConfig {
            steps: 25,
            batch_size: 32,
            lr: 3e-3,
        };
        let start = GaussianPolicy::new(6, &[16, 16], 2, &mut rng);
        let start_bits = param_bits(&start);

        let mut fast = start.clone();
        let mut fast_rng = StdRng::seed_from_u64(9);
        let fast_loss = clone_policy(&mut fast, &demos, config, &mut fast_rng);

        let mut slow = start;
        let mut slow_rng = StdRng::seed_from_u64(9);
        let mut opt = Adam::with_lr(config.lr);
        let n = config.batch_size as f32;
        let mut slow_loss = f32::INFINITY;
        for _ in 0..config.steps {
            let (obs, target) = demos.sample_batch(config.batch_size, &mut slow_rng);
            let pred = slow.mean_action(&obs);
            let mut grad = Mat::zeros(pred.rows(), pred.cols());
            let mut loss = 0.0;
            for b in 0..pred.rows() {
                for i in 0..pred.cols() {
                    let e = pred.get(b, i) - target.get(b, i);
                    loss += e * e / n;
                    grad.set(b, i, 2.0 * e / n);
                }
            }
            slow_loss = loss;
            slow.trunk_mut().zero_grad();
            slow.backward_mean(&obs, &grad);
            opt.step(|f| slow.trunk_mut().visit_params(f));
        }

        assert_eq!(fast_loss.to_bits(), slow_loss.to_bits());
        assert_eq!(param_bits(&fast), param_bits(&slow));
        assert_ne!(param_bits(&fast), start_bits, "training moved the weights");
        assert_eq!(
            fast_rng.gen::<u64>(),
            slow_rng.gen::<u64>(),
            "same RNG draws"
        );
    }

    #[test]
    fn dataset_accessors() {
        let mut d = Demonstrations::new();
        assert!(d.is_empty());
        d.push(vec![1.0], vec![0.5]);
        assert_eq!(d.len(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let (o, a) = d.sample_batch(3, &mut rng);
        assert_eq!((o.rows(), o.cols()), (3, 1));
        assert_eq!((a.rows(), a.cols()), (3, 1));
    }

    #[test]
    #[should_panic(expected = "obs dim mismatch")]
    fn inconsistent_dims_panic() {
        let mut d = Demonstrations::new();
        d.push(vec![1.0], vec![0.5]);
        d.push(vec![1.0, 2.0], vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "needs demonstrations")]
    fn empty_dataset_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = GaussianPolicy::new(2, &[8], 1, &mut rng);
        let _ = clone_policy(
            &mut policy,
            &Demonstrations::new(),
            BcConfig::default(),
            &mut rng,
        );
    }

    use rand::Rng;
}
