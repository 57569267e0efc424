//! The [`Learner`] trait — what a training loop needs from an algorithm —
//! implemented for A2C, ACKTR and PPO, and [`train_serial`], the one
//! serial collect → update loop. The actor–learner runtime
//! (`dosco_runtime`) drives the same trait over channels; its sync mode is
//! pinned bit-identical to [`train_serial`].

use crate::a2c::{A2c, TrainStats};
use crate::acktr::Acktr;
use crate::env::Env;
use crate::ppo::Ppo;
use crate::rollout::{Rollout, RolloutCollector};
use crate::schedule::LrSchedule;
use dosco_nn::mlp::Mlp;
use rand::rngs::StdRng;

/// Collection hyperparameters the actors need from the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CollectParams {
    /// Steps collected per env per batch.
    pub n_steps: usize,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
}

/// An algorithm a training loop can drive: exposes its networks for
/// collection and snapshotting, its collection hyperparameters, its
/// sampling RNG for circulation, and a single-batch update entry point.
pub trait Learner: Send {
    /// Collection hyperparameters for the rollout actors.
    fn collect_params(&self) -> CollectParams;

    /// The current actor network.
    fn actor(&self) -> &Mlp;

    /// The current critic network.
    fn critic(&self) -> &Mlp;

    /// Moves the agent's sampling RNG out (see `take_rng` on the
    /// algorithms): in sync mode the runtime circulates this exact stream
    /// between the collecting actor and the updating learner.
    fn take_rng(&mut self) -> StdRng;

    /// Restores the RNG at shutdown so later (serial) training continues
    /// the stream.
    fn restore_rng(&mut self, rng: StdRng);

    /// `Some(base_lr)` if training linearly decays the learning rate to
    /// 10 % over the horizon ([`decayed_lr`]), `None` otherwise.
    fn lr_schedule(&self) -> Option<f32>;

    /// Overwrites the current learning rate.
    fn set_lr(&mut self, lr: f32);

    /// Applies one update from a collected (possibly aggregated) rollout.
    /// `rng` is the stream for any update-time sampling (ACKTR's Fisher
    /// factors); A2C and PPO ignore it.
    fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng);
}

/// The learning rate after `done` of `total` steps under the linear decay
/// to 10 % that [`Learner::lr_schedule`] announces.
pub fn decayed_lr(base_lr: f32, done: usize, total: usize) -> f32 {
    let decay = LrSchedule::Linear {
        final_fraction: 0.1,
    };
    decay.at(base_lr, done as f32 / total as f32)
}

/// Trains `learner` for (at least) `total_steps` environment transitions
/// across the parallel `envs` (Alg. 1 ln. 3–12): apply the learning-rate
/// schedule, collect a rollout under the current policy, update. The
/// agent's own RNG stream drives both collection and any update-time
/// sampling, in that order. Returns per-update stats.
///
/// # Panics
///
/// Panics if `envs` is empty or env dimensions mismatch the networks.
pub fn train_serial<L: Learner + ?Sized>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
) -> TrainStats {
    let params = learner.collect_params();
    let base_lr = learner.lr_schedule();
    let mut rng = learner.take_rng();
    let mut collector = RolloutCollector::new(envs);
    let mut stats = TrainStats::default();
    let per_update = params.n_steps * envs.len();
    while stats.total_steps < total_steps {
        if let Some(base) = base_lr {
            learner.set_lr(decayed_lr(base, stats.total_steps, total_steps));
        }
        let mut rollout = collector.collect(
            envs,
            learner.actor(),
            learner.critic(),
            params.n_steps,
            params.gamma,
            params.gae_lambda,
            &mut rng,
        );
        learner.update_batch(&mut rollout, &mut rng);
        stats.mean_rewards.push(rollout.mean_reward());
        stats.total_steps += per_update;
    }
    learner.restore_rng(rng);
    stats
}

impl Learner for A2c {
    fn collect_params(&self) -> CollectParams {
        CollectParams {
            n_steps: self.config().n_steps,
            gamma: self.config().gamma,
            gae_lambda: self.config().gae_lambda,
        }
    }

    fn actor(&self) -> &Mlp {
        self.actor()
    }

    fn critic(&self) -> &Mlp {
        self.critic()
    }

    fn take_rng(&mut self) -> StdRng {
        A2c::take_rng(self)
    }

    fn restore_rng(&mut self, rng: StdRng) {
        A2c::restore_rng(self, rng);
    }

    fn lr_schedule(&self) -> Option<f32> {
        self.config().lr_decay.then_some(self.config().lr)
    }

    fn set_lr(&mut self, lr: f32) {
        A2c::set_lr(self, lr);
    }

    fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng) {
        A2c::update_batch(self, rollout, rng);
    }
}

impl Learner for Acktr {
    fn collect_params(&self) -> CollectParams {
        CollectParams {
            n_steps: self.config().n_steps,
            gamma: self.config().gamma,
            gae_lambda: self.config().gae_lambda,
        }
    }

    fn actor(&self) -> &Mlp {
        self.actor()
    }

    fn critic(&self) -> &Mlp {
        self.critic()
    }

    fn take_rng(&mut self) -> StdRng {
        Acktr::take_rng(self)
    }

    fn restore_rng(&mut self, rng: StdRng) {
        Acktr::restore_rng(self, rng);
    }

    fn lr_schedule(&self) -> Option<f32> {
        self.config().lr_decay.then_some(self.config().lr)
    }

    fn set_lr(&mut self, lr: f32) {
        Acktr::set_lr(self, lr);
    }

    fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng) {
        Acktr::update_batch(self, rollout, rng);
    }
}

impl Learner for Ppo {
    fn collect_params(&self) -> CollectParams {
        CollectParams {
            n_steps: self.config().n_steps,
            gamma: self.config().gamma,
            gae_lambda: self.config().gae_lambda,
        }
    }

    fn actor(&self) -> &Mlp {
        self.actor()
    }

    fn critic(&self) -> &Mlp {
        self.critic()
    }

    fn take_rng(&mut self) -> StdRng {
        Ppo::take_rng(self)
    }

    fn restore_rng(&mut self, rng: StdRng) {
        Ppo::restore_rng(self, rng);
    }

    fn lr_schedule(&self) -> Option<f32> {
        None // PPO applies no internal decay
    }

    fn set_lr(&mut self, lr: f32) {
        Ppo::set_lr(self, lr);
    }

    fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng) {
        Ppo::update_batch(self, rollout, rng);
    }
}
