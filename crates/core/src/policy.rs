//! Trained coordination policies and their distributed deployment
//! (Fig. 4b).

use crate::observe::ObservationAdapter;
use dosco_nn::dist::{greedy_action, log_softmax, sample_action};
use dosco_nn::mlp::Mlp;
use dosco_simnet::{Action, Coordinator, DecisionPoint, Simulation};
use dosco_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// The per-node RNG stream seed: the deployment seed XORed with a
/// splitmix-style spread of the node id, so every node agent draws from
/// its own independent stream. Node agents seeded this way decide
/// identically no matter how their decisions interleave with other
/// nodes' — the determinism contract shared by [`DistributedAgents`] and
/// the `dosco_serve` shard workers.
#[must_use]
pub fn per_node_seed(seed: u64, node: usize) -> u64 {
    seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A trained coordination policy: the actor network plus the observation
/// contract it was trained with. This is the artifact that centralized
/// training produces and that gets copied to every node for distributed
/// inference.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoordinationPolicy {
    /// The actor network (observation → action logits).
    actor: Mlp,
    /// The network degree the observation adapter was padded to.
    degree: usize,
    /// Free-form provenance (scenario, algorithm, seed, score).
    pub metadata: PolicyMetadata,
}

/// Provenance recorded with a trained policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyMetadata {
    /// Human-readable scenario description.
    pub scenario: String,
    /// Training algorithm name.
    pub algorithm: String,
    /// Winning training seed.
    pub seed: u64,
    /// Selection score of the winning seed.
    pub score: f32,
    /// Environment transitions trained on.
    pub total_steps: usize,
}

impl CoordinationPolicy {
    /// Wraps a trained actor.
    ///
    /// Unlike deserialisation, this does not check that every parameter
    /// is finite: it is the in-process path, where the actor is a snapshot
    /// of a network this process trained, and a diverged one is training's
    /// to report. Outside bytes enter through [`CoordinationPolicy::from_json`]
    /// and [`CoordinationPolicy::load`], which reject non-finite values.
    ///
    /// # Panics
    ///
    /// Panics if the actor's input/output dimensions are inconsistent with
    /// `degree` (`4·Δ+4` inputs, `Δ+1` outputs).
    pub fn new(actor: Mlp, degree: usize, metadata: PolicyMetadata) -> Self {
        if let Err(e) = check_shapes(&actor, degree) {
            panic!("{e}");
        }
        CoordinationPolicy {
            actor,
            degree,
            metadata,
        }
    }

    /// The actor network.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The padded network degree `Δ_G`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// An observation adapter matching this policy.
    pub fn adapter(&self) -> ObservationAdapter {
        ObservationAdapter::new(self.degree)
    }

    /// Greedy action for a raw observation vector.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` mismatches the policy's input dimension.
    pub fn act(&self, obs: &[f32]) -> usize {
        self.actor
            .forward_row(obs, |logits| greedy_action(log_softmax(logits)))
    }

    /// Stochastic action: samples from the policy distribution. This is
    /// the default prediction mode of the stable-baselines agents the
    /// paper deployed; unlike the greedy argmax it cannot lock into
    /// deterministic forwarding loops.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` mismatches the policy's input dimension.
    pub fn act_sampled<R: rand::Rng + ?Sized>(&self, obs: &[f32], rng: &mut R) -> usize {
        self.actor
            .forward_row(obs, |logits| sample_action(log_softmax(logits), rng))
    }

    /// Serializes the policy to JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (effectively never for
    /// in-memory data).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes a policy from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed JSON, mismatched shapes, or a weight
    /// or bias that is not finite (a number beyond `f32`'s range reads as
    /// infinite, `null` as NaN); the message names the first such
    /// parameter's layer and index.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Saves the policy to an integrity-checked artifact file: a one-line
    /// JSON header carrying the payload length and FNV-1a 64 checksum,
    /// then the policy JSON itself. [`CoordinationPolicy::load`] verifies
    /// both before parsing, so truncated or bit-flipped artifacts are
    /// detected instead of surfacing as confusing parse errors (or worse,
    /// parsing "successfully" into a different policy).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the filesystem; the message names the
    /// offending path.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let json = self.to_json().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("serializing policy for {}: {e}", path.display()),
            )
        })?;
        let header = ArtifactHeader {
            format: ARTIFACT_FORMAT.to_string(),
            payload_len: json.len() as u64,
            fnv64: format!("{:016x}", fnv1a64(json.as_bytes())),
        };
        let header_json = serde_json::to_string(&header).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("serializing header for {}: {e}", path.display()),
            )
        })?;
        std::fs::write(path, format!("{header_json}\n{json}")).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("writing policy file {}: {e}", path.display()),
            )
        })
    }

    /// Loads a policy from a file written by [`CoordinationPolicy::save`],
    /// verifying the header's payload length (truncation) and FNV-1a 64
    /// checksum (corruption) before parsing. A file without a valid
    /// header is rejected: nothing could vouch for its payload.
    ///
    /// # Errors
    ///
    /// Returns I/O errors or [`io::ErrorKind::InvalidData`] for a missing,
    /// damaged or unknown-format header and for truncated, corrupt, or
    /// malformed content; the message names the offending path and, for
    /// integrity failures, the expected vs. actual length or checksum.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let content = std::fs::read_to_string(path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("reading policy file {}: {e}", path.display()),
            )
        })?;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let (first, payload) = content.split_once('\n').ok_or_else(|| {
            invalid(format!(
                "policy file {} has no {ARTIFACT_FORMAT} header line",
                path.display()
            ))
        })?;
        let header: ArtifactHeader = serde_json::from_str(first).map_err(|e| {
            invalid(format!(
                "policy file {} has a missing or damaged {ARTIFACT_FORMAT} header: {e}",
                path.display()
            ))
        })?;
        if header.format != ARTIFACT_FORMAT {
            return Err(invalid(format!(
                "policy file {} has unknown artifact format {:?} (expected {ARTIFACT_FORMAT:?})",
                path.display(),
                header.format
            )));
        }
        if payload.len() as u64 != header.payload_len {
            return Err(invalid(format!(
                "policy file {} is truncated or padded: header expects {} payload \
                 bytes, found {}",
                path.display(),
                header.payload_len,
                payload.len()
            )));
        }
        let actual = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if actual != header.fnv64 {
            return Err(invalid(format!(
                "policy file {} is corrupt: header expects fnv64 checksum {}, \
                 payload hashes to {}",
                path.display(),
                header.fnv64,
                actual
            )));
        }
        Self::from_json(payload)
            .map_err(|e| invalid(format!("parsing policy file {}: {e}", path.display())))
    }
}

/// Why `actor` cannot serve as the policy of a degree-`degree` network:
/// its layers must chain (each bias as long as its layer's outputs, each
/// layer's outputs the next one's inputs) from `4·Δ+4` inputs to `Δ+1`
/// outputs, or the first decision panics inside a product.
fn check_shapes(actor: &Mlp, degree: usize) -> Result<(), String> {
    let layers = actor.layers();
    if layers.is_empty() {
        return Err("actor has no layers".to_string());
    }
    for (i, layer) in layers.iter().enumerate() {
        if layer.bias().len() != layer.outputs() {
            return Err(format!(
                "actor layer {i} has {} outputs but a bias of {}",
                layer.outputs(),
                layer.bias().len()
            ));
        }
    }
    for (i, pair) in layers.windows(2).enumerate() {
        if pair[0].outputs() != pair[1].inputs() {
            return Err(format!(
                "actor layer {i} has {} outputs but layer {} takes {} inputs",
                pair[0].outputs(),
                i + 1,
                pair[1].inputs()
            ));
        }
    }
    if actor.inputs() != 4 * degree + 4 {
        return Err(format!(
            "actor inputs must equal 4·Δ+4 = {} for Δ = {degree}, found {}",
            4 * degree + 4,
            actor.inputs()
        ));
    }
    if actor.outputs() != degree + 1 {
        return Err(format!(
            "actor outputs must equal Δ+1 = {} for Δ = {degree}, found {}",
            degree + 1,
            actor.outputs()
        ));
    }
    Ok(())
}

/// Why `actor` cannot decide: the first weight or bias that is not finite.
/// `∞ · 0` is NaN, and observations hold many zeros (the dummy padding of
/// low-degree nodes), so one such parameter turns a decision's logits into
/// NaN and `act` panics.
fn check_finite(actor: &Mlp) -> Result<(), String> {
    for (i, layer) in actor.layers().iter().enumerate() {
        for (what, values) in [
            ("weight", layer.weights().as_slice()),
            ("bias", layer.bias()),
        ] {
            if let Some((j, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                return Err(format!(
                    "actor layer {i} {what} {j} is {v}, not a finite number"
                ));
            }
        }
    }
    Ok(())
}

/// Re-checks [`CoordinationPolicy::new`]'s shape contract, and that every
/// parameter is finite, so a damaged or hand-edited policy is an error at
/// load time rather than a panic at its first decision.
impl Deserialize for CoordinationPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::new("expected object for CoordinationPolicy"))?;
        let actor: Mlp = serde::field(obj, "actor", "CoordinationPolicy")?;
        let degree = serde::field(obj, "degree", "CoordinationPolicy")?;
        let metadata = serde::field(obj, "metadata", "CoordinationPolicy")?;
        check_shapes(&actor, degree)
            .and_then(|()| check_finite(&actor))
            .map_err(serde::Error::new)?;
        Ok(CoordinationPolicy {
            actor,
            degree,
            metadata,
        })
    }
}

/// Artifact format tag written in the header line of saved policies.
const ARTIFACT_FORMAT: &str = "dosco-policy-v1";

/// The integrity header [`CoordinationPolicy::save`] writes as the first
/// line of an artifact file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ArtifactHeader {
    /// Format tag ([`ARTIFACT_FORMAT`]).
    format: String,
    /// Byte length of the policy JSON payload after the header newline.
    payload_len: u64,
    /// FNV-1a 64 checksum of the payload bytes, as 16 lowercase hex digits.
    fnv64: String,
}

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty to detect the
/// truncation/bit-rot failure modes an artifact store cares about (this
/// is an integrity check, not a cryptographic signature).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fully distributed deployment in one process: one agent per node,
/// all sharing the one trained network (Fig. 4b), each deciding from
/// local observations only.
///
/// Every node's agent is the same policy, so the deployment holds it
/// once; what is per node is the sampling stream and the decision
/// counter. Per-agent inference latency (Fig. 9b) is timed on
/// [`CoordinationPolicy::act`] directly.
#[derive(Debug, Clone)]
pub struct DistributedAgents {
    policy: CoordinationPolicy,
    adapter: ObservationAdapter,
    /// Count of decisions taken per node (diagnostics).
    decisions: Vec<u64>,
    /// Per-node sampling RNG streams (seeded by [`per_node_seed`]);
    /// `None` = greedy argmax inference. One stream per node keeps each
    /// agent's decisions independent of how other nodes' decisions
    /// interleave — a shared stream would leak global ordering into
    /// supposedly local inference.
    samplers: Option<Vec<rand::rngs::StdRng>>,
    /// The observation buffer every decision is built in.
    obs: Vec<f32>,
}

impl DistributedAgents {
    /// Deploys `policy` at each of `num_nodes` nodes, deciding greedily
    /// (argmax).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn deploy(policy: &CoordinationPolicy, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        DistributedAgents {
            policy: policy.clone(),
            adapter: policy.adapter(),
            decisions: vec![0; num_nodes],
            samplers: None,
            obs: Vec::with_capacity(policy.adapter().obs_dim()),
        }
    }

    /// Like [`DistributedAgents::deploy`] but sampling actions from the
    /// policy distribution (stable-baselines' default prediction mode).
    /// Each node gets its own RNG stream seeded by
    /// [`per_node_seed`]`(seed, node)`, so a node's decision sequence
    /// depends only on the observations it saw — not on the global
    /// interleaving of other nodes' decisions.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn deploy_stochastic(policy: &CoordinationPolicy, num_nodes: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut agents = Self::deploy(policy, num_nodes);
        agents.samplers = Some(
            (0..num_nodes)
                .map(|v| rand::rngs::StdRng::seed_from_u64(per_node_seed(seed, v)))
                .collect(),
        );
        agents
    }

    /// One local inference step at `node`: greedy argmax, or a draw from
    /// the node's own RNG stream under a stochastic deployment. This is
    /// the per-node decision primitive [`Coordinator::decide`] routes to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `obs` mismatches the policy's
    /// input dimension.
    pub fn sample_action(&mut self, node: NodeId, obs: &[f32]) -> usize {
        assert!(
            node.0 < self.decisions.len(),
            "node {} out of range",
            node.0
        );
        match &mut self.samplers {
            Some(rngs) => self.policy.act_sampled(obs, &mut rngs[node.0]),
            None => self.policy.act(obs),
        }
    }

    /// The per-node decision counters.
    pub fn decisions_per_node(&self) -> &[u64] {
        &self.decisions
    }
}

impl Coordinator for DistributedAgents {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        let mut obs = std::mem::take(&mut self.obs);
        self.adapter.observe_into(sim, dp, &mut obs);
        self.decisions[dp.node.0] += 1;
        // Only the node's own observation (and its own RNG stream) is
        // consulted: fully local inference.
        let action = Action::from_index(self.sample_action(dp.node, &obs));
        self.obs = obs;
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::Activation;
    use rand::SeedableRng;

    fn policy(degree: usize) -> CoordinationPolicy {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let actor = Mlp::new(
            &[4 * degree + 4, 16, degree + 1],
            Activation::Tanh,
            &mut rng,
        );
        CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
    }

    #[test]
    fn construction_checks_shapes() {
        let p = policy(3);
        assert_eq!(p.degree(), 3);
        assert_eq!(p.adapter().obs_dim(), 16);
    }

    #[test]
    #[should_panic(expected = "4·Δ+4")]
    fn rejects_mismatched_actor() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let actor = Mlp::new(&[10, 8, 4], Activation::Tanh, &mut rng);
        CoordinationPolicy::new(actor, 3, PolicyMetadata::default());
    }

    #[test]
    fn json_round_trip_preserves_decisions() {
        let p = policy(3);
        let json = p.to_json().unwrap();
        let q = CoordinationPolicy::from_json(&json).unwrap();
        for trial in 0..20 {
            let obs: Vec<f32> = (0..16)
                .map(|i| ((trial * 31 + i * 7) % 21) as f32 / 10.0 - 1.0)
                .collect();
            assert_eq!(p.act(&obs), q.act(&obs), "trial {trial}");
        }
    }

    #[test]
    fn save_load_round_trip() {
        let p = policy(3);
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        p.save(&path).unwrap();
        let q = CoordinationPolicy::load(&path).unwrap();
        assert_eq!(p.degree(), q.degree());
        let obs = vec![0.0f32; 16];
        assert_eq!(p.act(&obs), q.act(&obs));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage_and_names_the_path() {
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = CoordinationPolicy::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("garbage.json"),
            "parse error must name the file: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_names_the_path() {
        let path = std::env::temp_dir().join("dosco-policy-test-nonexistent.json");
        let err = CoordinationPolicy::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(
            err.to_string()
                .contains("dosco-policy-test-nonexistent.json"),
            "I/O error must name the file: {err}"
        );
    }

    #[test]
    fn save_into_missing_directory_names_the_path() {
        let p = policy(3);
        let path = std::env::temp_dir()
            .join("dosco-policy-test-no-such-dir")
            .join("p.json");
        let err = p.save(&path).unwrap_err();
        assert!(
            err.to_string().contains("dosco-policy-test-no-such-dir"),
            "write error must name the file: {err}"
        );
    }

    #[test]
    fn load_detects_truncated_artifact_naming_expected_vs_actual() {
        let p = policy(3);
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        p.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        let cut = full.len() - 40;
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = CoordinationPolicy::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("truncated"), "must say truncated: {msg}");
        assert!(msg.contains("truncated.json"), "must name the path: {msg}");
        let expected_len = full.split_once('\n').unwrap().1.len();
        assert!(
            msg.contains(&expected_len.to_string())
                && msg.contains(&(expected_len - 40).to_string()),
            "must report expected vs actual length: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_detects_corrupt_artifact_naming_checksums() {
        let p = policy(3);
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        p.save(&path).unwrap();
        // Flip one payload digit (same length, different bytes).
        let full = std::fs::read_to_string(&path).unwrap();
        let (header, payload) = full.split_once('\n').unwrap();
        let flip = payload
            .char_indices()
            .find(|&(_, c)| c.is_ascii_digit())
            .map(|(i, c)| (i, if c == '9' { '8' } else { '9' }))
            .expect("weights contain digits");
        let mut mutated: Vec<char> = payload.chars().collect();
        mutated[flip.0] = flip.1;
        let mutated: String = mutated.into_iter().collect();
        std::fs::write(&path, format!("{header}\n{mutated}")).unwrap();
        let err = CoordinationPolicy::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "must say corrupt: {msg}");
        assert!(msg.contains("corrupt.json"), "must name the path: {msg}");
        assert!(
            msg.contains(&format!("{:016x}", fnv1a64(payload.as_bytes()))),
            "must report the expected checksum: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A file without a valid header line is rejected, not parsed
    /// unverified: bare policy JSON, and a saved artifact whose header
    /// line lost a byte.
    #[test]
    fn load_rejects_headerless_and_damaged_header_artifacts() {
        let p = policy(3);
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("headerless.json");
        p.save(&path).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        for content in [p.to_json().unwrap(), saved[1..].to_string()] {
            std::fs::write(&path, content).unwrap();
            let err = CoordinationPolicy::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("header"), "must name the header: {msg}");
            assert!(msg.contains("headerless.json"), "must name the path: {msg}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A well-formed header of another format does not vouch for the
    /// payload either, even with a matching length and checksum.
    #[test]
    fn load_rejects_unknown_artifact_format() {
        let p = policy(3);
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong-format.json");
        p.save(&path).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, saved.replacen(ARTIFACT_FORMAT, "dosco-policy-v0", 1)).unwrap();
        let err = CoordinationPolicy::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("dosco-policy-v0"),
            "must name the format found: {msg}"
        );
        assert!(
            msg.contains("wrong-format.json"),
            "must name the path: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// `p`'s JSON, edited as a value tree, parsed back.
    fn reparse(
        p: &CoordinationPolicy,
        edit: impl FnOnce(&mut serde::Value),
    ) -> Result<CoordinationPolicy, serde_json::Error> {
        let mut v = serde::Serialize::to_value(p);
        edit(&mut v);
        CoordinationPolicy::from_json(&serde_json::to_string(&v).unwrap())
    }

    /// Object field `key` of `v`.
    fn field_mut<'a>(v: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
        match v {
            serde::Value::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            other => panic!("expected an object, found {other:?}"),
        }
    }

    /// Field `key` of the actor's layer `i`.
    fn layer_field_mut<'a>(v: &'a mut serde::Value, i: usize, key: &str) -> &'a mut serde::Value {
        match field_mut(field_mut(v, "actor"), "layers") {
            serde::Value::Array(layers) => field_mut(&mut layers[i], key),
            other => panic!("expected an array, found {other:?}"),
        }
    }

    fn assert_rejected(parsed: Result<CoordinationPolicy, serde_json::Error>, needle: &str) {
        let err = parsed.expect_err("an inconsistent policy must not parse");
        assert!(
            err.to_string().contains(needle),
            "error must say {needle:?}: {err}"
        );
    }

    #[test]
    fn from_json_rejects_weights_of_the_wrong_length() {
        assert_rejected(
            reparse(&policy(3), |v| {
                match field_mut(layer_field_mut(v, 0, "w"), "data") {
                    serde::Value::Array(data) => drop(data.pop()),
                    other => panic!("expected an array, found {other:?}"),
                }
            }),
            "needs",
        );
    }

    /// The degree of a degree-3 policy edited to 5: the actor still takes
    /// 16 inputs, and `act` on a 24-wide observation used to panic.
    #[test]
    fn from_json_rejects_an_edited_degree() {
        let json = policy(3).to_json().unwrap();
        assert!(json.contains(r#""degree":3"#));
        let edited = json.replacen(r#""degree":3"#, r#""degree":5"#, 1);
        assert_rejected(CoordinationPolicy::from_json(&edited), "4·Δ+4");
    }

    #[test]
    fn from_json_rejects_outputs_that_do_not_match_the_degree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let five_heads = Mlp::new(&[16, 16, 5], Activation::Tanh, &mut rng);
        assert_rejected(
            reparse(&policy(3), |v| {
                *field_mut(v, "actor") = serde::Serialize::to_value(&five_heads)
            }),
            "Δ+1",
        );
    }

    #[test]
    fn from_json_rejects_a_bias_of_the_wrong_length() {
        assert_rejected(
            reparse(&policy(3), |v| {
                *layer_field_mut(v, 0, "b") = serde::Value::Array(Vec::new())
            }),
            "bias",
        );
    }

    #[test]
    fn from_json_rejects_layers_that_do_not_chain() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let eight_wide = Mlp::new(&[8, 4], Activation::Tanh, &mut rng);
        let layer = serde::Serialize::to_value(&eight_wide.layers()[0]);
        assert_rejected(
            reparse(&policy(3), |v| {
                match field_mut(field_mut(v, "actor"), "layers") {
                    serde::Value::Array(layers) => layers[1] = layer,
                    other => panic!("expected an array, found {other:?}"),
                }
            }),
            "layer 1 takes 8 inputs",
        );
    }

    /// `load`'s error for `json` saved as `name` behind a header that
    /// vouches for its bytes.
    fn load_with_valid_header(name: &str, json: &str) -> io::Error {
        let header = ArtifactHeader {
            format: ARTIFACT_FORMAT.to_string(),
            payload_len: json.len() as u64,
            fnv64: format!("{:016x}", fnv1a64(json.as_bytes())),
        };
        let dir = std::env::temp_dir().join("dosco-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let header = serde_json::to_string(&header).unwrap();
        std::fs::write(&path, format!("{header}\n{json}")).unwrap();
        let err = CoordinationPolicy::load(&path).expect_err("the payload must not load");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(name), "must name the path: {err}");
        err
    }

    /// `load` parses through the same check, behind a header that vouches
    /// for the bytes.
    #[test]
    fn load_rejects_an_inconsistent_policy_with_a_valid_header() {
        let json = policy(3)
            .to_json()
            .unwrap()
            .replacen(r#""degree":3"#, r#""degree":5"#, 1);
        let err = load_with_valid_header("inconsistent.json", &json);
        assert!(
            err.to_string().contains("4·Δ+4"),
            "must name the broken contract: {err}"
        );
    }

    /// `p`'s JSON with element `index` of actor layer `layer`'s weights
    /// (`key` `"w"`, row-major) or bias (`"b"`) replaced by `value`.
    fn with_parameter(
        p: &CoordinationPolicy,
        layer: usize,
        key: &str,
        index: usize,
        value: serde::Value,
    ) -> String {
        let mut v = serde::Serialize::to_value(p);
        let slot = layer_field_mut(&mut v, layer, key);
        let values = if key == "w" {
            field_mut(slot, "data")
        } else {
            slot
        };
        match values {
            serde::Value::Array(values) => values[index] = value,
            other => panic!("expected an array, found {other:?}"),
        }
        serde_json::to_string(&v).unwrap()
    }

    /// A number beyond `f32`'s range (`1e39`), or `null`, where a weight
    /// or bias belongs, and what it reads back as.
    const NON_FINITE: [(serde::Value, &str); 3] = [
        (serde::Value::Float(1e39), "inf"),
        (serde::Value::Float(-1e39), "-inf"),
        (serde::Value::Null, "NaN"),
    ];

    /// Such a weight used to load, and `act` on an all-zero observation
    /// (`∞ · 0` is NaN) then panicked in the greedy rule.
    #[test]
    fn from_json_rejects_a_non_finite_weight() {
        let p = policy(3);
        for (value, shown) in NON_FINITE {
            let json = with_parameter(&p, 1, "w", 17, value);
            let needle = format!("actor layer 1 weight 17 is {shown}");
            assert_rejected(CoordinationPolicy::from_json(&json), &needle);
        }
        // The same edit within range loads and decides.
        let json = with_parameter(&p, 1, "w", 17, serde::Value::Float(1e38));
        CoordinationPolicy::from_json(&json)
            .unwrap()
            .act(&[0.0; 16]);
    }

    #[test]
    fn from_json_rejects_a_non_finite_bias() {
        let p = policy(3);
        for (value, shown) in NON_FINITE {
            let json = with_parameter(&p, 0, "b", 5, value);
            let needle = format!("actor layer 0 bias 5 is {shown}");
            assert_rejected(CoordinationPolicy::from_json(&json), &needle);
        }
    }

    #[test]
    fn load_rejects_a_non_finite_weight_with_a_valid_header() {
        let json = with_parameter(&policy(3), 0, "w", 3, serde::Value::Float(1e39));
        let err = load_with_valid_header("non-finite.json", &json);
        assert!(
            err.to_string().contains("actor layer 0 weight 3 is inf"),
            "{err}"
        );
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// Per-node streams are independent: a node's decision sequence is
    /// identical whether its decisions run back-to-back or interleaved
    /// with other nodes'. With the old shared RNG the interleaved run
    /// consumed draws out from under each node and the sequences
    /// diverged.
    #[test]
    fn stochastic_streams_are_order_invariant() {
        let p = policy(3);
        let obs_for = |node: usize, step: usize| -> Vec<f32> {
            (0..16)
                .map(|i| ((node * 53 + step * 31 + i * 7) % 19) as f32 / 9.0 - 1.0)
                .collect()
        };
        let steps = 12;
        // Run A: node 0's decisions first, then node 1's, then node 2's.
        let mut a = DistributedAgents::deploy_stochastic(&p, 3, 42);
        let mut seq_a = vec![Vec::new(); 3];
        for (node, seq) in seq_a.iter_mut().enumerate() {
            for step in 0..steps {
                seq.push(a.sample_action(NodeId(node), &obs_for(node, step)));
            }
        }
        // Run B: the same decisions interleaved round-robin.
        let mut b = DistributedAgents::deploy_stochastic(&p, 3, 42);
        let mut seq_b = vec![Vec::new(); 3];
        for step in 0..steps {
            for (node, seq) in seq_b.iter_mut().enumerate() {
                seq.push(b.sample_action(NodeId(node), &obs_for(node, step)));
            }
        }
        assert_eq!(seq_a, seq_b, "per-node sequences must ignore interleaving");
        // And the streams are genuinely per-node: distinct seeds give
        // distinct streams somewhere (overwhelmingly likely).
        assert_ne!(per_node_seed(42, 0), per_node_seed(42, 1));
    }

    #[test]
    fn per_node_seed_is_injective_on_small_ranges() {
        let mut seen = std::collections::HashSet::new();
        for node in 0..1000 {
            assert!(seen.insert(per_node_seed(7, node)), "collision at {node}");
        }
    }

    #[test]
    fn distributed_agents_route_by_node() {
        use dosco_simnet::ScenarioConfig;
        let p = policy(3);
        let scenario = ScenarioConfig::paper_base(2).with_horizon(300.0);
        let num_nodes = scenario.topology.num_nodes();
        let mut agents = DistributedAgents::deploy(&p, num_nodes);
        let mut sim = Simulation::new(scenario, 4);
        sim.run(&mut agents);
        let total: u64 = agents.decisions_per_node().iter().sum();
        assert!(total > 0);
        assert_eq!(agents.decisions_per_node().len(), num_nodes);
        // Ingress nodes certainly decided (flows arrive there).
        assert!(agents.decisions_per_node()[0] > 0);
    }
}
