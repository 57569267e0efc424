//! Prints the training reward curve of one agent — a diagnostic for
//! sizing the training budget of the experiment binaries.

use dosco_bench::report::flag_value;
use dosco_bench::scenarios::{base_scenario, pattern_by_name};
use dosco_core::policy::{CoordinationPolicy, PolicyMetadata};
use dosco_core::{CoordEnv, RewardConfig};
use dosco_rl::a2c::{A2c, A2cConfig};
use dosco_rl::acktr::{Acktr, AcktrConfig};
use dosco_rl::env::Env;
use dosco_rl::ppo::{Ppo, PpoConfig};

enum Agent {
    Acktr(Box<Acktr>),
    A2c(A2c),
    Ppo(Ppo),
}

impl Agent {
    fn train(&mut self, envs: &mut [Box<dyn Env>], steps: usize) -> dosco_rl::a2c::TrainStats {
        match self {
            Agent::Acktr(a) => a.train(envs, steps),
            Agent::A2c(a) => a.train(envs, steps),
            Agent::Ppo(a) => a.train(envs, steps),
        }
    }

    fn actor(&self) -> &dosco_nn::Mlp {
        match self {
            Agent::Acktr(a) => a.actor(),
            Agent::A2c(a) => a.actor(),
            Agent::Ppo(a) => a.actor(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pattern = pattern_by_name(
        flag_value(&args, "--pattern").as_deref().unwrap_or("poisson"),
    );
    let ingress: usize = flag_value(&args, "--ingress")
        .map(|v| v.parse().expect("--ingress must be an integer"))
        .unwrap_or(2);
    let steps: usize = flag_value(&args, "--steps")
        .map(|v| v.parse().expect("--steps must be an integer"))
        .unwrap_or(50_000);
    let lr: f32 = flag_value(&args, "--lr")
        .map(|v| v.parse().expect("--lr must be a number"))
        .unwrap_or(0.25);
    let ent: f32 = flag_value(&args, "--ent")
        .map(|v| v.parse().expect("--ent must be a number"))
        .unwrap_or(0.01);
    let seed: u64 = flag_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed must be an integer"))
        .unwrap_or(0);

    let scenario = base_scenario(ingress, pattern, 5_000.0);
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                seed * 1000 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let obs_dim = 4 * scenario.topology.network_degree() + 4;
    let acts = scenario.topology.network_degree() + 1;
    let norm = args.iter().any(|a| a == "--norm");
    let n_steps: usize = flag_value(&args, "--nsteps")
        .map(|v| v.parse().expect("--nsteps must be an integer"))
        .unwrap_or(16);
    let algo = flag_value(&args, "--algo").unwrap_or_else(|| "acktr".into());
    let gamma: f32 = flag_value(&args, "--gamma")
        .map(|v| v.parse().expect("--gamma must be a number"))
        .unwrap_or(0.99);
    let mut agent = match algo.as_str() {
        "acktr" => Agent::Acktr(Box::new(Acktr::new(
            obs_dim,
            acts,
            AcktrConfig {
                lr,
                ent_coef: ent,
                normalize_advantages: norm,
                n_steps,
                gamma,
                ..AcktrConfig::default()
            },
            seed,
        ))),
        "a2c" => Agent::A2c(A2c::new(
            obs_dim,
            acts,
            A2cConfig {
                ent_coef: ent,
                normalize_advantages: norm,
                n_steps,
                ..A2cConfig::default()
            },
            seed,
        )),
        "ppo" => Agent::Ppo(Ppo::new(
            obs_dim,
            acts,
            PpoConfig {
                ent_coef: ent,
                hidden: [256, 256],
                ..PpoConfig::default()
            },
            seed,
        )),
        other => panic!("unknown algo {other:?}"),
    };

    let chunk = 4_000;
    let mut done = 0;
    while done < steps {
        let stats = agent.train(&mut envs, chunk);
        done += chunk;
        // Evaluate greedily on a short episode.
        let policy = CoordinationPolicy::new(
            agent.actor().clone(),
            scenario.topology.network_degree(),
            PolicyMetadata::default(),
        );
        let m = dosco_core::eval::evaluate(&policy, &scenario.clone().with_horizon(2_000.0), 777);
        use dosco_simnet::DropReason;
        println!(
            "steps {:>7}  mean_reward {:>7.3}  greedy_success {:.3}  (ok {} node {} link {} ddl {} inval {} holds {})",
            done,
            stats.tail_mean(50),
            m.success_ratio(),
            m.completed,
            m.dropped_for(DropReason::NodeCapacity),
            m.dropped_for(DropReason::LinkCapacity),
            m.dropped_for(DropReason::DeadlineExpired),
            m.dropped_for(DropReason::InvalidAction),
            m.holds,
        );
    }
}
