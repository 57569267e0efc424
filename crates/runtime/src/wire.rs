//! Wire-format message types of the actor–learner plane.
//!
//! These are the typed messages that cross a [`dosco_net`] transport
//! channel: the experience batch the actor ships to the learner and the
//! lockstep reply. Both serialize through the vendored serde so the
//! socket transport's bit-exact binary codec can carry them; the
//! circulating [`StdRng`] travels as its four-word xoshiro256++ state and
//! resumes the identical stream on the other side.

use crate::snapshot::PolicySnapshot;
use dosco_rl::rollout::Rollout;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// One experience message from an actor to the learner.
#[derive(Debug)]
pub struct ExperienceBatch {
    /// The collected rollout.
    pub rollout: Rollout,
    /// Snapshot version the rollout was collected under.
    pub version: u64,
    /// The circulating agent RNG. Always present in a well-formed batch;
    /// optional on the wire so the learner can refuse a batch without it.
    pub rng: Option<StdRng>,
}

impl Serialize for ExperienceBatch {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rollout".to_owned(), self.rollout.to_value()),
            ("version".to_owned(), self.version.to_value()),
            (
                "rng".to_owned(),
                self.rng.as_ref().map(StdRng::state).to_value(),
            ),
        ])
    }
}

impl Deserialize for ExperienceBatch {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::new("expected object for ExperienceBatch"))?;
        Ok(ExperienceBatch {
            rollout: serde::field(obj, "rollout", "ExperienceBatch")?,
            version: serde::field(obj, "version", "ExperienceBatch")?,
            rng: serde::field::<Option<[u64; 4]>>(obj, "rng", "ExperienceBatch")?
                .map(StdRng::from_state),
        })
    }
}

/// The lockstep reply: the post-update snapshot and the agent RNG handed
/// back to the actor for its next collection round.
#[derive(Debug)]
pub struct SyncReply {
    /// The snapshot published by the update this reply follows.
    pub snapshot: Arc<PolicySnapshot>,
    /// The circulating agent RNG, advanced by the learner's update.
    pub rng: StdRng,
}

impl Serialize for SyncReply {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("snapshot".to_owned(), self.snapshot.to_value()),
            ("rng".to_owned(), self.rng.state().to_value()),
        ])
    }
}

impl Deserialize for SyncReply {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::new("expected object for SyncReply"))?;
        Ok(SyncReply {
            snapshot: serde::field(obj, "snapshot", "SyncReply")?,
            rng: StdRng::from_state(serde::field::<[u64; 4]>(obj, "rng", "SyncReply")?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::matrix::Matrix;
    use rand::{Rng, SeedableRng};

    fn tiny_rollout() -> Rollout {
        Rollout {
            obs: Matrix::from_vec(2, 3, vec![0.5, -1.25, f32::MIN_POSITIVE, 0.0, -0.0, 3.5]),
            actions: vec![1, 0],
            rewards: vec![0.25, -1.0],
            dones: vec![false, true],
            values: vec![0.1, 0.2],
            returns: vec![1.0, 2.0],
            advantages: vec![0.3, -0.4],
            n_envs: 2,
            n_steps: 1,
            reward_sum: -0.75,
        }
    }

    /// The batch survives the full socket codec path bitwise, and the RNG
    /// resumes the identical stream.
    #[test]
    fn experience_batch_round_trips_through_the_net_codec() {
        let mut rng = StdRng::seed_from_u64(99);
        let _burn: u64 = rng.gen();
        let mut reference = rng.clone();
        let batch = ExperienceBatch {
            rollout: tiny_rollout(),
            version: 41,
            rng: Some(rng),
        };
        let payload = dosco_net::encode_msg(&batch);
        let back: ExperienceBatch = dosco_net::decode_msg(&payload).expect("decode");
        assert_eq!(back.rollout, batch.rollout);
        assert_eq!(back.version, 41);
        let mut resumed = back.rng.expect("rng travels");
        for _ in 0..64 {
            assert_eq!(resumed.gen::<u64>(), reference.gen::<u64>());
        }
    }

    #[test]
    fn sync_reply_round_trips() {
        let snap = PolicySnapshot {
            version: 7,
            actor: dosco_nn::mlp::Mlp::new(
                &[3, 4, 2],
                dosco_nn::mlp::Activation::Tanh,
                &mut StdRng::seed_from_u64(11),
            ),
            critic: dosco_nn::mlp::Mlp::new(
                &[3, 4, 1],
                dosco_nn::mlp::Activation::Tanh,
                &mut StdRng::seed_from_u64(12),
            ),
        };
        let reply = SyncReply {
            snapshot: Arc::new(snap.clone()),
            rng: StdRng::seed_from_u64(5),
        };
        let payload = dosco_net::encode_msg(&reply);
        let back: SyncReply = dosco_net::decode_msg(&payload).expect("decode");
        assert_eq!(*back.snapshot, snap);
        assert_eq!(back.rng.state(), StdRng::seed_from_u64(5).state());
    }
}
