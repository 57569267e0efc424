//! Prints the training curve of one agent — the diagnostic behind
//! ROADMAP's "training collapses" item. The agent trains in the figure
//! harness's per-seed loop, `train_seed` (one collector, the learner's own
//! learning-rate schedule, episodes never truncated), and reports from its
//! hook every 4 000 steps:
//! what the window's rollouts say about the policy (entropy, action mix,
//! explained variance of the critic), how the training episodes that
//! ended in the window went, and a greedy evaluation episode with the
//! journeys of the flows the deadline killed.

use dosco_bench::report::{bad_flag, flag_value, parsed_flag};
use dosco_bench::scenarios::{base_scenario, pattern_by_name};
use dosco_core::eval::{evaluate_under_churn, EvalStats};
use dosco_core::policy::{CoordinationPolicy, PolicyMetadata};
use dosco_core::train::{train_seed, Algorithm, TrainConfig};
use dosco_core::{CoordEnv, RewardConfig};
use dosco_nn::Categorical;
use dosco_rl::rollout::Rollout;
use dosco_rl::{A2cConfig, AcktrConfig, Env, PpoConfig, StepResult};
use dosco_simnet::journey::{Journey, JourneyLog};
use dosco_simnet::{ChurnTimeline, DropReason, Metrics};
use std::sync::mpsc::{channel, Sender};

/// Steps between two report lines.
const WINDOW: usize = 4_000;

/// A training environment that sends the metrics of every episode it
/// finishes to the reporting hook.
struct Tracked {
    env: CoordEnv,
    finished: Sender<Metrics>,
}

impl Env for Tracked {
    fn obs_dim(&self) -> usize {
        self.env.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.env.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.env.reset()
    }

    fn step(&mut self, action: usize) -> StepResult {
        let result = self.env.step(action);
        if result.done {
            let m = self
                .env
                .finished_metrics()
                .expect("a done step records its episode");
            // The receiver lives as long as training does.
            let _ = self.finished.send(m.clone());
        }
        result
    }
}

/// What the rollouts of one report window say about actor and critic.
#[derive(Default)]
struct Window {
    rows: f64,
    entropy: f64,
    /// Σ and Σ² of the returns, then of the residuals `return − value`.
    moments: [f64; 4],
    actions: Vec<usize>,
}

impl Window {
    fn add(&mut self, actor: &dosco_nn::Mlp, rollout: &Rollout) {
        self.rows += rollout.actions.len() as f64;
        let dist = Categorical::new(&actor.forward(&rollout.obs));
        self.entropy += dist.entropy().iter().map(|&h| f64::from(h)).sum::<f64>();
        self.actions.resize(actor.outputs(), 0);
        for (i, &a) in rollout.actions.iter().enumerate() {
            self.actions[a] += 1;
            let ret = f64::from(rollout.returns[i]);
            let res = ret - f64::from(rollout.values[i]);
            for (m, x) in self
                .moments
                .iter_mut()
                .zip([ret, ret * ret, res, res * res])
            {
                *m += x;
            }
        }
    }

    /// `1 − Var(returns − values) / Var(returns)`.
    fn explained_variance(&self) -> f64 {
        let var = |sum: f64, sq: f64| sq / self.rows - (sum / self.rows).powi(2);
        let [ret, ret_sq, res, res_sq] = self.moments;
        1.0 - var(res, res_sq) / var(ret, ret_sq)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pattern = pattern_by_name(
        flag_value(&args, "--pattern")
            .as_deref()
            .unwrap_or("poisson"),
    );
    let ingress: usize = parsed_flag(&args, "--ingress", "an integer").unwrap_or(2);
    let steps: usize = parsed_flag(&args, "--steps", "an integer").unwrap_or(50_000);
    let lr: f32 = parsed_flag(&args, "--lr", "a number").unwrap_or(0.25);
    let ent_coef: f32 = parsed_flag(&args, "--ent", "a number").unwrap_or(0.01);
    let seed: u64 = parsed_flag(&args, "--seed", "an integer").unwrap_or(0);
    let n_steps: usize = parsed_flag(&args, "--nsteps", "an integer").unwrap_or(16);
    let gamma: f32 = parsed_flag(&args, "--gamma", "a number").unwrap_or(0.99);
    let normalize_advantages = args.iter().any(|a| a == "--norm");
    let algorithm = match flag_value(&args, "--algo").as_deref().unwrap_or("acktr") {
        "acktr" => Algorithm::Acktr,
        "a2c" => Algorithm::A2c,
        "ppo" => Algorithm::Ppo,
        other => bad_flag("--algo", "acktr|a2c|ppo", other),
    };
    let config = TrainConfig {
        algorithm,
        total_steps: steps,
        acktr: AcktrConfig {
            lr,
            ent_coef,
            normalize_advantages,
            n_steps,
            gamma,
            ..AcktrConfig::default()
        },
        a2c: A2cConfig {
            ent_coef,
            normalize_advantages,
            n_steps,
            ..A2cConfig::default()
        },
        ppo: PpoConfig {
            ent_coef,
            hidden: [256, 256],
            ..PpoConfig::default()
        },
        ..TrainConfig::default()
    };

    let scenario = base_scenario(ingress, pattern, 5_000.0);
    let eval_scenario = scenario.clone().with_horizon(2_000.0);
    let degree = scenario.topology.network_degree();
    let (finished, episodes) = channel();
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            let reward = RewardConfig::default();
            Box::new(Tracked {
                env: CoordEnv::new(scenario.clone(), reward, seed * 1000 + i, None),
                finished: finished.clone(),
            }) as Box<dyn Env>
        })
        .collect();

    let mut window = Window::default();
    let mut reported = 0;
    train_seed(&config, &mut envs, seed, |agent, rollout, stats| {
        window.add(agent.actor(), rollout);
        if stats.total_steps / WINDOW == reported {
            return;
        }
        reported = stats.total_steps / WINDOW;
        let w = std::mem::take(&mut window);
        let mix: Vec<String> = w
            .actions
            .iter()
            .map(|&n| format!("{:.2}", n as f64 / w.rows))
            .collect();
        let trained = EvalStats::from_metrics(episodes.try_iter().collect());
        print!(
            "steps {:>7}  mean_reward {:>7.3}  entropy {:.3}  expl_var {:>6.3}  actions [{}]  train_episodes {} success {:.3}",
            stats.total_steps,
            stats.tail_mean(50),
            w.entropy / w.rows,
            w.explained_variance(),
            mix.join(" "),
            trained.metrics.len(),
            trained.mean_success,
        );
        // One greedy episode, with the journeys of the flows the deadline
        // killed: many hops and no processing is "forward until it dies".
        let policy =
            CoordinationPolicy::new(agent.actor().clone(), degree, PolicyMetadata::default());
        let (m, events) = evaluate_under_churn(&policy, &eval_scenario, 777, ChurnTimeline::none());
        let mut journeys = JourneyLog::new();
        journeys.ingest(&events);
        let expired = journeys.dropped_for(DropReason::DeadlineExpired);
        let mean = |count: fn(&Journey) -> usize| {
            expired.iter().map(|j| count(j)).sum::<usize>() as f64 / expired.len().max(1) as f64
        };
        println!(
            "  greedy_success {:.3}  (ok {} node {} link {} ddl {} inval {} holds {})  ddl_flows hops {:.1} processed {:.2}",
            m.success_ratio(),
            m.completed,
            m.dropped_for(DropReason::NodeCapacity),
            m.dropped_for(DropReason::LinkCapacity),
            m.dropped_for(DropReason::DeadlineExpired),
            m.dropped_for(DropReason::InvalidAction),
            m.holds,
            mean(Journey::hops),
            mean(Journey::processings),
        );
    });
}
