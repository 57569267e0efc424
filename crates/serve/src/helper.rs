//! The helper's part of an epoch's forward: the back rows of one batch,
//! forwarded on the serve call's `dosco_nn::fork::Helper` while the
//! calling thread forwards the front rows.
//!
//! The part's buffers stay with the helper from one epoch to the next, so
//! a warm epoch allocates nothing. Every row's logits are independent of
//! the forward and of the thread that computed them (each GEMM output
//! element has its own ascending-k accumulator; `tanh` works per
//! element), so the split never changes a bit.

use dosco_core::CoordinationPolicy;
use dosco_nn::fork::Job;
use dosco_nn::matrix::Matrix;
use std::sync::Arc;

/// The fewest rows a batch must have for its back half to go to the
/// helper. Thresholds of 2, 4 and 8 rows measured alike on 16 episodes,
/// whose batches are rarely smaller; DESIGN.md gives the numbers.
pub(crate) const HELP_MIN_ROWS: usize = 4;

/// One forward, its buffers kept from one epoch to the next: the policy,
/// the stacked observations, their logits and the activations between
/// layers.
#[derive(Debug, Default)]
pub(crate) struct Part {
    pub policy: Option<Arc<CoordinationPolicy>>,
    pub x: Matrix,
    pub logits: Matrix,
    hidden: Matrix,
}

impl Job for Part {
    /// Forwards the stacked rows into the logits.
    fn run(&mut self) {
        if let Some(p) = &self.policy {
            p.actor()
                .forward_into(&self.x, &mut self.logits, &mut self.hidden);
        }
    }
}

/// The serve call's helper, its job a [`Part`].
pub(crate) type Helper = dosco_nn::fork::Helper<Part>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::choose;
    use dosco_core::per_node_seed;
    use dosco_core::policy::PolicyMetadata;
    use dosco_nn::mlp::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A helper whose part goes to its thread on any host.
    fn forking() -> Helper {
        Helper::always_forking(Part::default())
    }

    /// A random policy of degree 1: eight inputs, two actions.
    fn policy() -> Arc<CoordinationPolicy> {
        let actor = Mlp::new(&[8, 4, 2], Activation::Tanh, &mut StdRng::seed_from_u64(3));
        Arc::new(CoordinationPolicy::new(actor, 1, PolicyMetadata::default()))
    }

    /// `n` random observations; row `i` is decided at node `i % 4`.
    fn observations(n: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|_| (0..8).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect()
    }

    fn stack(x: &mut Matrix, rows: &[Vec<f32>]) {
        x.reshape(rows.len(), 8);
        for (r, obs) in rows.iter().enumerate() {
            x.row_mut(r).copy_from_slice(obs);
        }
    }

    /// Forwards `rows` as the epoch loop does: the rows past `split` as
    /// the helper's job, the rest on this thread. Returns every row's
    /// logits, in row order.
    fn forward_split(
        helper: &Helper,
        policy: &Arc<CoordinationPolicy>,
        rows: &[Vec<f32>],
        split: usize,
    ) -> Vec<Vec<f32>> {
        let (front_rows, back_rows) = rows.split_at(split);
        let mut front = Part {
            policy: Some(Arc::clone(policy)),
            ..Part::default()
        };
        stack(&mut front.x, front_rows);
        if !back_rows.is_empty() {
            let mut job = helper.job();
            job.policy = Some(Arc::clone(policy));
            stack(&mut job.x, back_rows);
            drop(job);
            helper.start();
        }
        if !front_rows.is_empty() {
            front.run();
        }
        let job = if back_rows.is_empty() {
            helper.job()
        } else {
            helper.finish()
        };
        let front = (0..split).map(|r| front.logits.row(r).to_vec());
        let back = (0..back_rows.len()).map(|r| job.logits.row(r).to_vec());
        front.chain(back).collect()
    }

    /// Every split point of a 13-row batch, the back part forwarded on
    /// the helper thread, gives every row the bits of the one forward
    /// the calling thread makes alone; and the actions chosen from them
    /// in row order equal per-row `act`, or `act_sampled` on each node's
    /// `per_node_seed` stream.
    #[test]
    fn every_split_on_the_helper_thread_equals_inline_and_per_row_decisions() {
        let policy = policy();
        let rows = observations(13);
        let inline = forward_split(&Helper::default(), &policy, &rows, rows.len());
        let helper = forking();
        for split in 0..=rows.len() {
            let logits = forward_split(&helper, &policy, &rows, split);
            let bits = |l: &[Vec<f32>]| -> Vec<Vec<u32>> {
                l.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&logits), bits(&inline), "split {split}");
            for seed in [None, Some(5u64)] {
                let streams = || -> Vec<StdRng> {
                    (0..4)
                        .map(|v| StdRng::seed_from_u64(per_node_seed(seed.unwrap_or(0), v)))
                        .collect()
                };
                let (mut batched, mut per_row) = (streams(), streams());
                for (i, (l, obs)) in logits.iter().zip(&rows).enumerate() {
                    let (chosen, expected) = match seed {
                        Some(_) => (
                            choose(l, Some(&mut batched[i % 4])),
                            policy.act_sampled(obs, &mut per_row[i % 4]),
                        ),
                        None => (choose(l, None), policy.act(obs)),
                    };
                    assert_eq!(chosen, expected, "split {split}, seed {seed:?}, row {i}");
                }
            }
        }
        assert!(helper.started());
    }

    /// A job posted long after the helper thread ran out of polling
    /// rounds wakes it from `park` and is forwarded as one posted at once.
    #[test]
    fn a_late_job_wakes_a_parked_helper() {
        let policy = policy();
        let rows = observations(6);
        let inline = forward_split(&Helper::default(), &policy, &rows, rows.len());
        let helper = forking();
        assert_eq!(forward_split(&helper, &policy, &rows, 2), inline);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(forward_split(&helper, &policy, &rows, 2), inline);
    }

    /// A forward that panics on the helper thread — rows of the wrong
    /// width — panics the caller's `finish` with the helper's message,
    /// and dropping the helper still joins its thread.
    #[test]
    fn a_helper_panic_re_raises_on_the_caller() {
        let helper = forking();
        let mut job = helper.job();
        job.policy = Some(policy());
        stack(&mut job.x, &[vec![0.0; 8]]);
        job.x.reshape(1, 7);
        drop(job);
        helper.start();
        let caught = catch_unwind(AssertUnwindSafe(|| drop(helper.finish())));
        drop(helper);
        let payload = caught.expect_err("the helper's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("mismatch"), "{message}");
    }
}
