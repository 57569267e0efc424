//! Cross-algorithm integration tests on small environments with known
//! optimal policies, and the pin that forking an update's actor and
//! critic halves cannot change a result.

use dosco_nn::fork::fan_out;
use dosco_rl::a2c::{A2c, A2cConfig, RmsPropStep};
use dosco_rl::acktr::{Acktr, AcktrConfig, KfacStep};
use dosco_rl::env::{Env, StepResult};
use dosco_rl::ppo::{ClippedSurrogateEpochs, Ppo, PpoConfig};
use dosco_rl::{ActorCritic, UpdateRule};

/// Contextual bandit: the observation names the rewarded action.
/// Optimal policy: copy the observation.
#[derive(Debug)]
struct Mimic {
    k: usize,
    target: usize,
    t: usize,
}

impl Mimic {
    fn new(k: usize) -> Self {
        Mimic { k, target: 0, t: 0 }
    }

    fn obs(&self) -> Vec<f32> {
        let mut o = vec![0.0; self.k];
        o[self.target] = 1.0;
        o
    }
}

impl Env for Mimic {
    fn obs_dim(&self) -> usize {
        self.k
    }

    fn num_actions(&self) -> usize {
        self.k
    }

    fn reset(&mut self) -> Vec<f32> {
        self.t = 0;
        self.target = 0;
        self.obs()
    }

    fn step(&mut self, action: usize) -> StepResult {
        let reward = if action == self.target { 1.0 } else { -0.2 };
        self.t += 1;
        // Deterministic cycling context.
        self.target = (self.target + 7) % self.k;
        StepResult {
            obs: self.obs(),
            reward,
            done: self.t.is_multiple_of(32),
        }
    }
}

/// Asserts at least `min_pct` percent of contexts map to their optimal
/// action (chance level is 100/k ≈ 20 %).
fn assert_learned_mimic(act: impl Fn(&[f32]) -> usize, k: usize, min_pct: usize, label: &str) {
    let mut correct = 0;
    for target in 0..k {
        let mut obs = vec![0.0; k];
        obs[target] = 1.0;
        if act(&obs) == target {
            correct += 1;
        }
    }
    assert!(
        correct * 100 >= k * min_pct,
        "{label}: only {correct}/{k} contexts learned (need {min_pct}%)"
    );
}

#[test]
fn a2c_learns_contextual_bandit() {
    let mut envs: Vec<Box<dyn Env>> = (0..4).map(|_| Box::new(Mimic::new(5)) as _).collect();
    let mut agent = A2c::new(
        5,
        5,
        A2cConfig {
            lr: 0.02,
            hidden: [24, 24],
            gamma: 0.0,
            ..A2cConfig::default()
        },
        1,
    );
    agent.train(&mut envs, 12_000);
    // A2C is the weakest of the three here (plain gradient); require a
    // clear majority rather than near-perfection.
    assert_learned_mimic(|o| agent.act_greedy(o), 5, 60, "a2c");
}

#[test]
fn acktr_learns_contextual_bandit() {
    let mut envs: Vec<Box<dyn Env>> = (0..4).map(|_| Box::new(Mimic::new(5)) as _).collect();
    let mut agent = Acktr::new(
        5,
        5,
        AcktrConfig {
            hidden: [24, 24],
            gamma: 0.0,
            ..AcktrConfig::default()
        },
        1,
    );
    agent.train(&mut envs, 12_000);
    assert_learned_mimic(|o| agent.act_greedy(o), 5, 80, "acktr");
}

#[test]
fn ppo_learns_contextual_bandit() {
    let mut envs: Vec<Box<dyn Env>> = (0..4).map(|_| Box::new(Mimic::new(5)) as _).collect();
    let mut agent = Ppo::new(
        5,
        5,
        PpoConfig {
            hidden: [24, 24],
            gamma: 0.0,
            ..PpoConfig::default()
        },
        1,
    );
    agent.train(&mut envs, 16_000);
    assert_learned_mimic(|o| agent.act_greedy(o), 5, 80, "ppo");
}

#[test]
fn training_reward_improves_for_all_algorithms() {
    // The mean batch reward must improve from the first to the last tenth
    // of training for every algorithm on the same task.
    let run = |name: &str, rewards: Vec<f32>| {
        let n = rewards.len();
        let first: f32 = rewards[..n / 10].iter().sum::<f32>() / (n / 10) as f32;
        let last: f32 = rewards[n - n / 10..].iter().sum::<f32>() / (n / 10) as f32;
        assert!(last > first, "{name}: {first} -> {last}");
    };
    let mut envs: Vec<Box<dyn Env>> = (0..2).map(|_| Box::new(Mimic::new(4)) as _).collect();
    let mut a2c = A2c::new(
        4,
        4,
        A2cConfig {
            lr: 0.02,
            hidden: [16, 16],
            gamma: 0.0,
            ..A2cConfig::default()
        },
        3,
    );
    run("a2c", a2c.train(&mut envs, 10_000).mean_rewards);

    let mut envs: Vec<Box<dyn Env>> = (0..2).map(|_| Box::new(Mimic::new(4)) as _).collect();
    let mut acktr = Acktr::new(
        4,
        4,
        AcktrConfig {
            hidden: [16, 16],
            gamma: 0.0,
            ..AcktrConfig::default()
        },
        3,
    );
    run("acktr", acktr.train(&mut envs, 10_000).mean_rewards);
}

/// The paper's hidden layers.
const PAPER_HIDDEN: [usize; 2] = [256, 256];

/// FNV-1a 64 over the little-endian bits of the actor's and then the
/// critic's `flat_params()`, after training a fresh agent from seed 17
/// on two `Mimic(5)` environments for `steps` steps.
fn trained_fingerprint<R: UpdateRule>(config: R::Config, steps: usize) -> u64 {
    let mut envs: Vec<Box<dyn Env>> = (0..2).map(|_| Box::new(Mimic::new(5)) as _).collect();
    let mut agent = ActorCritic::<R>::new(5, 5, config, 17);
    agent.train(&mut envs, steps);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for net in [agent.actor(), agent.critic()] {
        for byte in net
            .flat_params()
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// A seed trained alone takes a second core for its critic half whenever
/// the host has one; the same seed on every worker of a `fan_out` that
/// fills the cores runs both halves inline. Both must land on the same
/// weights, bit for bit, and on `golden`, captured from the serial update
/// (actor, then critic, one RNG stream) before the halves were split — so
/// a reordering of the update's random draws fails even though it would
/// move both runs alike. `golden` holds under every `DOSCO_SIMD` kernel.
fn assert_forked_equals_inline<R: UpdateRule>(
    name: &str,
    config: R::Config,
    steps: usize,
    golden: u64,
) where
    R::Config: Sync,
{
    let alone = trained_fingerprint::<R>(config, steps);
    let workers = vec![(); std::thread::available_parallelism().map_or(1, usize::from)];
    let inline = fan_out(&workers, |()| trained_fingerprint::<R>(config, steps));
    for (w, fingerprint) in inline.into_iter().enumerate() {
        assert_eq!(
            fingerprint, alone,
            "{name}: worker {w} of a saturating fan_out (halves inline) got {fingerprint:#018x}, \
             the seed alone (halves forked) {alone:#018x}"
        );
    }
    assert_eq!(
        alone, golden,
        "{name}: trained weights diverged from the serial update (got {alone:#018x})"
    );
}

/// Three RMSprop updates at 2×256.
#[test]
fn a2c_forked_equals_inline_at_paper_scale() {
    let config = A2cConfig {
        hidden: PAPER_HIDDEN,
        ..A2cConfig::default()
    };
    assert_forked_equals_inline::<RmsPropStep>("a2c", config, 3 * 32, A2C_2X256);
}

/// Four K-FAC updates across two inversions, at the paper's defaults:
/// the update that draws from the RNG — the actor's Fisher samples, then
/// the critic's noise.
#[test]
fn acktr_forked_equals_inline_at_paper_scale() {
    let config = AcktrConfig {
        inverse_period: 2,
        ..AcktrConfig::default()
    };
    assert_forked_equals_inline::<KfacStep>("acktr", config, 4 * 32, ACKTR_2X256);
}

/// Two collections of four Adam epochs each at 2×256.
#[test]
fn ppo_forked_equals_inline_at_paper_scale() {
    let config = PpoConfig {
        hidden: PAPER_HIDDEN,
        ..PpoConfig::default()
    };
    assert_forked_equals_inline::<ClippedSurrogateEpochs>("ppo", config, 2 * 64, PPO_2X256);
}

/// Captured from the serial update, before its halves were split.
const A2C_2X256: u64 = 0xdb15_6c24_5131_c51c;
const ACKTR_2X256: u64 = 0xc88f_d621_89df_4d52;
const PPO_2X256: u64 = 0x04f9_ad7a_4027_d30c;
