//! The [`Learner`] trait — what a training loop needs from an algorithm —
//! [`ActorCritic`], the agent behind this crate's one `impl Learner for`,
//! and [`train_serial`], the one serial collect → update loop. A2C, ACKTR
//! and PPO are the same agent under three [`UpdateRule`]s; the
//! actor–learner runtime (`dosco_runtime`) drives the same trait over
//! channels, and its sync mode is pinned bit-identical to
//! [`train_serial`].

use crate::a2c::TrainStats;
use crate::env::Env;
use crate::rollout::{Rollout, RolloutCollector};
use crate::trainer::Helper;
use dosco_nn::dist::{greedy_action, log_softmax};
use dosco_nn::mlp::Mlp;
use dosco_nn::Activation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::ControlFlow;

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
    let frac = (done as f32 / total as f32).clamp(0.0, 1.0);
    base_lr * (1.0 - (1.0 - 0.1) * frac)
}

/// Trains `learner` for (at least) `total_steps` environment transitions
/// across the parallel `envs` (Alg. 1 ln. 3–12): apply the learning-rate
/// schedule, collect a rollout under the current policy, update. The
/// agent's own RNG stream drives both collection and any update-time
/// sampling, in that order. Returns per-update stats.
///
/// # Panics
///
/// Panics if `envs` is empty, env dimensions mismatch the networks, or
/// the learner collects 0 steps per env per update
/// ([`CollectParams::n_steps`]): no update would ever move
/// `total_steps`.
pub fn train_serial<L: Learner + ?Sized>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
) -> TrainStats {
    train_serial_with(learner, envs, total_steps, |_, _, _| {
        ControlFlow::Continue(())
    })
}

/// [`train_serial`] with a hook at every update boundary, the first
/// before any update and the last after the final one: `on_update` sees
/// the learner, the rollout the last update consumed (`None` before the
/// first) and the stats so far — one collector and one schedule for
/// the whole budget, so a caller that evaluates or prints along the way
/// does not reset the envs to do it. A `Break` stops training there: the
/// hook is the loop's one cancellation point, and the learner gets its
/// RNG back either way.
///
/// # Panics
///
/// Panics under the same conditions as [`train_serial`].
pub fn train_serial_with<L: Learner + ?Sized>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    mut on_update: impl FnMut(&L, Option<&Rollout>, &TrainStats) -> ControlFlow<()>,
) -> TrainStats {
    let params = learner.collect_params();
    assert!(params.n_steps >= 1, "a rollout needs n_steps >= 1, got 0");
    let base_lr = learner.lr_schedule();
    let mut rng = learner.take_rng();
    let mut collector = RolloutCollector::new(envs);
    let mut stats = TrainStats::default();
    let per_update = params.n_steps * envs.len();
    let mut last = None;
    while on_update(learner, last.as_ref(), &stats).is_continue() && stats.total_steps < total_steps
    {
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
        last = Some(rollout);
    }
    learner.restore_rng(rng);
    stats
}

/// What tells A2C, ACKTR and PPO apart: the hyperparameters and the update
/// one collected rollout is turned into. The networks, the sampling RNG
/// and how training is driven are [`ActorCritic`]'s.
pub trait UpdateRule: Send + Sized {
    /// The algorithm's hyperparameters.
    type Config: Copy + std::fmt::Debug + Send;

    /// Optimizer state for freshly initialized networks.
    fn new(config: Self::Config, actor: &Mlp, critic: &Mlp) -> Self;

    /// The hyperparameters this rule was built with.
    fn config(&self) -> &Self::Config;

    /// Hidden layer sizes of actor and critic.
    fn hidden(config: &Self::Config) -> [usize; 2];

    /// See [`Learner::collect_params`].
    fn collect_params(&self) -> CollectParams;

    /// See [`Learner::lr_schedule`].
    fn lr_schedule(&self) -> Option<f32>;

    /// Overwrites the current learning rate of both optimizers.
    fn set_lr(&mut self, lr: f32);

    /// Applies one update to the networks from a collected rollout; `rng`
    /// is the stream for any update-time sampling. The three rules split
    /// the update into an actor half and a critic half that share nothing
    /// and hand both to `trainer::join`, which runs the critic half on the
    /// learner's helper thread when a core is free — so the critic, and
    /// the rule's state for it, go there by value and come back, which is
    /// why the critic is passed in and returned. Every draw from `rng` is
    /// taken before the split, in the order one serial update would take
    /// it, so the result is the same either way. A rule may leave one job
    /// pending on `helper` after the update (ACKTR's Fisher statistics)
    /// and must collect it before it next touches that state.
    fn update(
        &mut self,
        actor: &mut Mlp,
        critic: Mlp,
        rollout: &mut Rollout,
        rng: &mut StdRng,
        helper: &mut Helper,
    ) -> Mlp;
}

/// An actor and a critic MLP, the RNG stream that samples actions, and
/// the [`UpdateRule`] that trains them: [`crate::A2c`], [`crate::Acktr`]
/// and [`crate::Ppo`] are this type under their rules.
#[derive(Debug)]
pub struct ActorCritic<R> {
    actor: Mlp,
    /// `None` only while an update has the critic.
    critic: Option<Mlp>,
    rule: R,
    rng: StdRng,
    /// The thread the critic half of every update runs on: started by the
    /// first update that forks, joined when the agent drops.
    helper: Helper,
}

impl<R: UpdateRule> ActorCritic<R> {
    /// Creates an agent for `obs_dim`-dimensional observations and
    /// `num_actions` discrete actions, with all randomness derived from
    /// `seed` (actor first, then critic, then sampling).
    pub fn new(obs_dim: usize, num_actions: usize, config: R::Config, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let [h0, h1] = R::hidden(&config);
        let actor = Mlp::new(&[obs_dim, h0, h1, num_actions], Activation::Tanh, &mut rng);
        let critic = Mlp::new(&[obs_dim, h0, h1, 1], Activation::Tanh, &mut rng);
        let rule = R::new(config, &actor, &critic);
        ActorCritic {
            actor,
            critic: Some(critic),
            rule,
            rng,
            helper: Helper::default(),
        }
    }

    /// The actor network (the deployable policy).
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The critic network.
    ///
    /// # Panics
    ///
    /// Never: the critic is away only inside an update, which puts it
    /// back before returning.
    #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
    pub fn critic(&self) -> &Mlp {
        self.critic
            .as_ref()
            .expect("the critic is back once an update returns")
    }

    /// The configuration.
    pub fn config(&self) -> &R::Config {
        self.rule.config()
    }

    /// Overwrites the current learning rate (external schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.rule.set_lr(lr);
    }

    /// Greedy (argmax) action for a single observation — the inference
    /// mode of the deployed distributed agents.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` does not match the observation dimension.
    pub fn act_greedy(&self, obs: &[f32]) -> usize {
        self.actor
            .forward_row(obs, |logits| greedy_action(log_softmax(logits)))
    }

    /// Trains for (at least) `total_steps` environment transitions across
    /// the parallel `envs` ([`train_serial`]). Returns per-update stats.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or env dimensions mismatch the networks.
    pub fn train(&mut self, envs: &mut [Box<dyn Env>], total_steps: usize) -> TrainStats {
        train_serial(self, envs, total_steps)
    }

    /// One update from a collected rollout — what both
    /// [`ActorCritic::train`] and the actor–learner runtime apply per
    /// batch. `rng` drives any update-time sampling (ACKTR's Fisher
    /// factors; A2C and PPO draw nothing); for bit-identical training it
    /// must be the stream that collected the rollout.
    ///
    /// # Panics
    ///
    /// Never on the critic's account: it is always back here, because
    /// the update returns it.
    pub fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng) {
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let critic = self
            .critic
            .take()
            .expect("the critic is back once an update returns");
        let critic = self
            .rule
            .update(&mut self.actor, critic, rollout, rng, &mut self.helper);
        self.critic = Some(critic);
    }

    /// Moves the sampling RNG out of the agent so an external collection
    /// loop (the runtime's actor thread) can continue the same stream;
    /// pair with [`ActorCritic::restore_rng`]. The agent is left with a
    /// placeholder stream and must not sample until restored.
    pub fn take_rng(&mut self) -> StdRng {
        std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0))
    }

    /// Restores the sampling RNG after [`ActorCritic::take_rng`].
    pub fn restore_rng(&mut self, rng: StdRng) {
        self.rng = rng;
    }
}

impl<R: UpdateRule> Learner for ActorCritic<R> {
    fn collect_params(&self) -> CollectParams {
        self.rule.collect_params()
    }

    fn actor(&self) -> &Mlp {
        &self.actor
    }

    fn critic(&self) -> &Mlp {
        ActorCritic::critic(self)
    }

    fn take_rng(&mut self) -> StdRng {
        ActorCritic::take_rng(self)
    }

    fn restore_rng(&mut self, rng: StdRng) {
        self.rng = rng;
    }

    fn lr_schedule(&self) -> Option<f32> {
        self.rule.lr_schedule()
    }

    fn set_lr(&mut self, lr: f32) {
        self.rule.set_lr(lr);
    }

    fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng) {
        ActorCritic::update_batch(self, rollout, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a2c::{A2c, A2cConfig};
    use crate::env::testenvs::Corridor;

    fn corridors() -> Vec<Box<dyn Env>> {
        (0..2).map(|_| Box::new(Corridor::new(4)) as _).collect()
    }

    /// A break before the first update stops training with no step taken,
    /// and the agent gets its RNG back untouched: it then trains exactly
    /// as a fresh agent of the same seed does. A break at a later
    /// boundary stops after that many updates.
    #[test]
    fn a_break_stops_training_and_restores_the_rng() {
        let cfg = A2cConfig {
            n_steps: 5,
            hidden: [8, 8],
            ..A2cConfig::default()
        };
        let mut agent = A2c::new(1, 2, cfg, 17);
        let stats = train_serial_with(&mut agent, &mut corridors(), 1_000_000, |_, _, _| {
            ControlFlow::Break(())
        });
        assert_eq!(stats.total_steps, 0, "the break preempted every update");
        assert!(stats.mean_rewards.is_empty());
        agent.train(&mut corridors(), 40);
        let mut fresh = A2c::new(1, 2, cfg, 17);
        fresh.train(&mut corridors(), 40);
        assert_eq!(agent.actor().flat_params(), fresh.actor().flat_params());
        let stats = train_serial_with(&mut agent, &mut corridors(), 1_000_000, |_, _, s| {
            if s.mean_rewards.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(stats.total_steps, 3 * 5 * 2);
    }

    /// A learner that collects no steps is refused before the loop, which
    /// would otherwise never reach its budget.
    #[test]
    #[should_panic(expected = "n_steps >= 1")]
    fn a_zero_step_rollout_is_refused() {
        let cfg = A2cConfig {
            n_steps: 0,
            hidden: [8, 8],
            ..A2cConfig::default()
        };
        let mut agent = A2c::new(1, 2, cfg, 17);
        train_serial_with(&mut agent, &mut corridors(), 100, |_, _, _| {
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn decay_is_linear_to_a_tenth_and_clamped() {
        assert_eq!(decayed_lr(1.0, 0, 10), 1.0);
        assert!((decayed_lr(1.0, 5, 10) - 0.55).abs() < 1e-6);
        assert!((decayed_lr(0.25, 10, 10) - 0.025).abs() < 1e-7);
        assert_eq!(decayed_lr(1.0, 20, 10), decayed_lr(1.0, 10, 10));
    }
}
