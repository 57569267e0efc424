//! Multi-seed training with best-agent selection (Alg. 1 ln. 13).
//!
//! Random seeds have a significant impact on DRL convergence (Henderson et
//! al. [43]); the paper therefore trains `k = 10` agents with different
//! seeds in parallel and deploys the one with the highest reward. This
//! module runs the per-seed training closures on crossbeam scoped threads.

use crossbeam::thread;

/// The outcome of one seed's training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult<A> {
    /// The training seed.
    pub seed: u64,
    /// The selection score (higher is better; e.g. tail mean reward or an
    /// evaluation success ratio).
    pub score: f32,
    /// The trained agent.
    pub agent: A,
}

/// Trains one agent per seed in parallel and returns the results sorted
/// best-first. A seed whose score is NaN (a diverged run) ranks last, so
/// it cannot displace or discard the seeds that trained.
///
/// `train` maps a seed to `(agent, score)`; it must be `Sync` because the
/// closure is shared across threads.
///
/// # Panics
///
/// Panics if `seeds` is empty, or if any training thread panics.
///
/// # Example
///
/// ```
/// let results = dosco_rl::train_multi_seed(&[1, 2, 3], |seed| {
///     // toy "training": the agent is the seed, the score favors seed 2
///     (seed, if seed == 2 { 1.0 } else { 0.0 })
/// });
/// assert_eq!(results[0].agent, 2);
/// ```
pub fn train_multi_seed<A, F>(seeds: &[u64], train: F) -> Vec<SeedResult<A>>
where
    A: Send,
    F: Fn(u64) -> (A, f32) + Sync,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut results: Vec<SeedResult<A>> = thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let train = &train;
                s.spawn(move |_| {
                    let (agent, score) = train(seed);
                    SeedResult { seed, score, agent }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("training thread panicked"))
            .collect()
    })
    .expect("crossbeam scope failed");
    results.sort_by(|a, b| {
        let nan_last = a.score.is_nan().cmp(&b.score.is_nan());
        nan_last.then_with(|| b.score.total_cmp(&a.score))
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn returns_sorted_best_first() {
        let results = train_multi_seed(&[10, 20, 30, 40], |seed| (seed, seed as f32));
        let scores: Vec<f32> = results.iter().map(|r| r.score).collect();
        assert_eq!(scores, vec![40.0, 30.0, 20.0, 10.0]);
        assert_eq!(results[0].agent, 40);
        assert_eq!(results[0].seed, 40);
    }

    /// One diverged seed must not panic the run or outrank a finite one.
    #[test]
    fn nan_score_ranks_last_and_the_best_finite_seed_first() {
        let results = train_multi_seed(&[1, 2, 3, 4], |seed| {
            let score = match seed {
                1 => 0.5,
                2 => f32::NAN,
                3 => 0.9,
                _ => f32::NEG_INFINITY,
            };
            (seed, score)
        });
        let order: Vec<u64> = results.iter().map(|r| r.agent).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
        assert!(results[3].score.is_nan());
    }

    #[test]
    fn runs_every_seed_exactly_once() {
        let count = AtomicUsize::new(0);
        let results = train_multi_seed(&[1, 2, 3, 4, 5], |seed| {
            count.fetch_add(1, Ordering::SeqCst);
            (seed, 0.0)
        });
        assert_eq!(count.load(Ordering::SeqCst), 5);
        let mut seeds: Vec<u64> = results.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_list() {
        let _ = train_multi_seed(&[], |s| (s, 0.0));
    }

    /// A panicking seed closure propagates out of `train_multi_seed`
    /// instead of being swallowed by the worker thread.
    #[test]
    #[should_panic(expected = "training thread panicked")]
    fn propagates_seed_closure_panics() {
        let _ = train_multi_seed(&[1, 2, 3], |seed| {
            if seed == 2 {
                panic!("seed 2 exploded");
            }
            (seed, 0.0)
        });
    }

    #[test]
    fn actually_trains_rl_agents_in_parallel() {
        use crate::a2c::{A2c, A2cConfig};
        use crate::env::testenvs::Corridor;
        use crate::env::Env;
        let results = train_multi_seed(&[1, 2], |seed| {
            let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Corridor::new(4))];
            let cfg = A2cConfig {
                hidden: [8, 8],
                ..A2cConfig::default()
            };
            let mut agent = A2c::new(1, 2, cfg, seed);
            let stats = agent.train(&mut envs, 2_000);
            let score = stats.tail_mean(10);
            (agent, score)
        });
        assert_eq!(results.len(), 2);
        assert!(results[0].score >= results[1].score);
    }
}
