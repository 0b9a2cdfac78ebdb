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
        assert!(!self.is_empty(), "cannot sample an empty dataset");
        let od = self.obs[0].len();
        let ad = self.actions[0].len();
        let mut o = Mat::zeros(batch, od);
        let mut a = Mat::zeros(batch, ad);
        for b in 0..batch {
            let i = rng.gen_range(0..self.len());
            o.row_mut(b).copy_from_slice(&self.obs[i]);
            a.row_mut(b).copy_from_slice(&self.actions[i]);
        }
        (o, a)
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
    assert!(!demos.is_empty(), "behaviour cloning needs demonstrations");
    assert_eq!(demos.obs[0].len(), policy.obs_dim(), "obs dim mismatch");
    assert_eq!(
        demos.actions[0].len(),
        policy.action_dim(),
        "action dim mismatch"
    );
    let mut opt = Adam::with_lr(config.lr);
    let mut last = f32::INFINITY;
    for _ in 0..config.steps {
        let (obs, target) = demos.sample_batch(config.batch_size, rng);
        let pred = policy.mean_action(&obs);
        let n = config.batch_size as f32;
        let mut grad = Mat::zeros(pred.rows(), pred.cols());
        let mut loss = 0.0;
        for b in 0..pred.rows() {
            for ((g, &p), &t) in grad
                .row_mut(b)
                .iter_mut()
                .zip(pred.row(b))
                .zip(target.row(b))
            {
                let e = p - t;
                loss += e * e / n;
                *g = 2.0 * e / n;
            }
        }
        last = loss;
        policy.trunk_mut().zero_grad();
        policy.backward_mean_params(&obs, &grad);
        opt.step(|f| policy.trunk_mut().visit_params(f));
        crate::perf::record_updates(1);
    }
    last
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
