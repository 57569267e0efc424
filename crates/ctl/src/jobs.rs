//! Background job control: spawn, observe, and stop training runs from
//! the ops surface.
//!
//! A job is one background thread that trains a fresh A2C agent over
//! [`CoordEnv`] copies of the paper's base scenario with [`train_seed`],
//! the per-seed loop the figures train through. Its hook reads the job's
//! stop flag at every update boundary, so `stop` is a flag store, never a
//! kill: the job ends at the next boundary and reports a partial
//! summary. Its episodes fold into `GET /metrics` as they end.
//!
//! Specs arrive as JSON bodies with every field optional; unknown fields
//! are rejected so a typo'd knob fails loudly instead of silently running
//! the default.

use dosco_core::train::{train_seed, Algorithm, TrainConfig};
use dosco_core::{CoordEnv, RewardConfig};
use dosco_rl::a2c::A2cConfig;
use dosco_rl::env::Env;
use dosco_simnet::ScenarioConfig;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A training-job spec, with defaults sized for an ops smoke run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainJobSpec {
    /// Environment transitions to train for.
    pub total_steps: usize,
    /// Agent / environment seed base.
    pub seed: u64,
    /// Simulated-time horizon of each training episode.
    pub horizon: f64,
}

impl Default for TrainJobSpec {
    fn default() -> Self {
        TrainJobSpec {
            total_steps: 2_000,
            seed: 0,
            horizon: 300.0,
        }
    }
}

fn spec_u64(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn spec_f64(obj: &Value, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

/// Rejects unknown keys so a misspelled knob cannot silently run the
/// default configuration.
fn check_keys(spec: &Value, allowed: &[&str]) -> Result<(), String> {
    let Some(entries) = spec.as_object() else {
        return Err("job spec must be a JSON object".to_string());
    };
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("unknown field {k:?} (allowed: {allowed:?})"));
        }
    }
    Ok(())
}

impl TrainJobSpec {
    /// Parses a JSON body (`{}` and missing fields take defaults).
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn from_json(spec: &Value) -> Result<Self, String> {
        check_keys(spec, &["total_steps", "seed", "horizon"])?;
        let mut out = TrainJobSpec::default();
        if let Some(v) = spec_u64(spec, "total_steps")? {
            out.total_steps = usize::try_from(v).map_err(|_| "total_steps too large")?;
        }
        if let Some(v) = spec_u64(spec, "seed")? {
            out.seed = v;
        }
        if let Some(v) = spec_f64(spec, "horizon")? {
            if !(v.is_finite() && v > 0.0) {
                return Err(r#"field "horizon" must be a positive number"#.to_string());
            }
            out.horizon = v;
        }
        Ok(out)
    }
}

/// One job as `GET /jobs` reports it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobView {
    /// The id `POST /jobs/train` returned.
    pub id: u64,
    /// `"train"`, the one job kind.
    pub kind: String,
    /// `"running"` or `"done"`.
    pub state: String,
    /// Whether a stop was requested (the job may still be draining).
    pub stop_requested: bool,
    /// The job's summary line once done.
    pub summary: Option<String>,
}

struct Job {
    cancel: Arc<AtomicBool>,
    handle: Option<JoinHandle<String>>,
    summary: Option<String>,
}

impl Job {
    /// Joins a finished worker, caching its summary. Running jobs are
    /// left alone — this never blocks.
    fn reap(&mut self) {
        if let Some(handle) = self.handle.take_if(|h| h.is_finished()) {
            self.summary = Some(match handle.join() {
                Ok(s) => s,
                Err(_) => "job panicked".to_string(),
            });
        }
    }

    fn view(&self, id: u64) -> JobView {
        JobView {
            id,
            kind: "train".to_string(),
            state: if self.handle.is_some() {
                "running"
            } else {
                "done"
            }
            .to_string(),
            stop_requested: self.cancel.load(Ordering::Relaxed),
            summary: self.summary.clone(),
        }
    }
}

/// The job table behind the `POST /jobs/*` routes. Thread-safe; the HTTP
/// workers call it concurrently.
#[derive(Default)]
pub struct JobManager {
    jobs: Mutex<BTreeMap<u64, Job>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("jobs", &self.table().len())
            .finish()
    }
}

impl JobManager {
    /// An empty job table.
    #[must_use]
    pub fn new() -> Self {
        JobManager::default()
    }

    /// The job table, recovered if a holder panicked: every write (an
    /// insert, a reap, a shutdown's join) replaces whole fields, with
    /// nothing between them that can panic.
    fn table(&self) -> MutexGuard<'_, BTreeMap<u64, Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawns a cancellable training run and returns its job id.
    ///
    /// # Errors
    ///
    /// The OS error if the job's thread cannot be spawned; no job is
    /// recorded then.
    pub fn spawn_train(&self, spec: TrainJobSpec) -> io::Result<u64> {
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let handle = std::thread::Builder::new()
            .name("dosco-ctl-job-train".to_string())
            .spawn(move || run_train_job(&spec, &flag))?;
        let job = Job {
            cancel,
            handle: Some(handle),
            summary: None,
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.table().insert(id, job);
        Ok(id)
    }

    /// Requests a cooperative stop. Returns `false` for an unknown id.
    /// The job keeps running until its next cancellation point; poll
    /// `GET /jobs` for the drain.
    pub fn stop(&self, id: u64) -> bool {
        match self.table().get(&id) {
            Some(job) => {
                job.cancel.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// All jobs in id order, reaping finished workers on the way.
    pub fn list(&self) -> Vec<JobView> {
        self.table()
            .iter_mut()
            .map(|(&id, job)| {
                job.reap();
                job.view(id)
            })
            .collect()
    }

    /// Stops every job and blocks until all workers have drained.
    pub fn shutdown(&self) {
        let mut jobs = self.table();
        for job in jobs.values_mut() {
            job.cancel.store(true, Ordering::Relaxed);
        }
        for job in jobs.values_mut() {
            if let Some(handle) = job.handle.take() {
                job.summary = Some(match handle.join() {
                    Ok(s) => s,
                    Err(_) => "job panicked".to_string(),
                });
            }
        }
    }
}

/// The training-job body: [`train_seed`]'s A2C agent (`n_steps` 16,
/// hidden 32×32) over four `CoordEnv` copies of the paper's base
/// scenario, stopped at the first update boundary after `cancel` is set.
fn run_train_job(spec: &TrainJobSpec, cancel: &AtomicBool) -> String {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(spec.horizon);
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                spec.seed.wrapping_add(i as u64),
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let config = TrainConfig {
        algorithm: Algorithm::A2c,
        total_steps: spec.total_steps,
        a2c: A2cConfig {
            n_steps: 16,
            hidden: [32, 32],
            ..A2cConfig::default()
        },
        ..TrainConfig::default()
    };
    let (_, stats) = train_seed(&config, &mut envs, spec.seed, |_, _, _| {
        if cancel.load(Ordering::Relaxed) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    format!(
        "trained {} steps over {} updates (tail mean reward {:.4})",
        stats.total_steps,
        stats.mean_rewards.len(),
        stats.tail_mean(10),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(s: &str) -> Value {
        serde_json::from_str::<Value>(s).expect("test JSON parses")
    }

    #[test]
    fn specs_default_and_override() {
        let t = TrainJobSpec::from_json(&json("{}")).unwrap();
        assert_eq!(t, TrainJobSpec::default());
        let t = TrainJobSpec::from_json(&json(r#"{"total_steps": 500, "seed": 9}"#)).unwrap();
        assert_eq!(t.total_steps, 500);
        assert_eq!(t.seed, 9);
    }

    #[test]
    fn specs_reject_unknown_and_malformed_fields() {
        let err = TrainJobSpec::from_json(&json(r#"{"totl_steps": 500}"#)).unwrap_err();
        assert!(err.contains("totl_steps"), "{err}");
        // The runtime has one mode: the retired knobs are unknown fields.
        for retired in [r#"{"mode": "sync"}"#, r#"{"n_actors": 1}"#] {
            let err = TrainJobSpec::from_json(&json(retired)).unwrap_err();
            assert!(err.contains("unknown field"), "{err}");
        }
        let err = TrainJobSpec::from_json(&json(r#"{"horizon": 0}"#)).unwrap_err();
        assert!(err.contains("horizon"), "{err}");
        let err = TrainJobSpec::from_json(&json(r#"[1,2]"#)).unwrap_err();
        assert!(err.contains("object"), "{err}");
    }

    #[test]
    fn jobs_run_stop_and_reap() {
        let mgr = JobManager::new();
        let id = mgr
            .spawn_train(TrainJobSpec {
                total_steps: 1_000_000_000, // far beyond the test's patience
                seed: 1,
                horizon: 100.0,
            })
            .expect("spawn the job thread");
        assert!(mgr.stop(id), "known id stops");
        assert!(!mgr.stop(id + 999), "unknown id does not");
        mgr.shutdown();
        let jobs = mgr.list();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.iter().all(|j| j.state == "done" && j.stop_requested));
        assert!(jobs[0].summary.as_deref().unwrap_or("").contains("trained"));
    }
}
