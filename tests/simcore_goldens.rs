//! Bit-identity regression goldens for the simulation core.
//!
//! The goldens in `tests/goldens/simcore.json` were captured from the
//! pre-refactor (HashMap + `BinaryHeap`) core on the fig6/fig7 scenario
//! family, under both greedy (GCASP, SP) and stochastic (random policy)
//! coordinators. The slab/indexed-queue core must reproduce them exactly:
//! the same seed must yield the exact same [`Metrics`] and the identical
//! `SimEvent` stream, event for event, byte for byte.
//!
//! `tests/goldens/churn.json` pins the same for the substrate-churn path:
//! it was captured at `2489780`, while the simulator still kept churn as
//! an `Option<Box<ChurnState>>` fork with a `places` map, and the
//! single-substrate engine must reproduce it exactly, [`ChurnStats`]
//! included.
//!
//! `tests/goldens/churn_grid.json` pins churn where shortest paths tie
//! everywhere: a 6×6 grid of equal delays, under SP, GCASP and greedy
//! distributed agents, whose observations read every neighbour's path
//! row. It was captured while path rows were still lazy, resumable
//! searches restarted after each fault, and the in-place repair that
//! replaced them must reproduce it exactly.
//!
//! Regenerate (only when a behavior change is *intended* and documented):
//!
//! ```text
//! DOSCO_CAPTURE_GOLDENS=1 cargo test --test simcore_goldens
//! ```

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::core::policy::{fnv1a64, CoordinationPolicy, DistributedAgents, PolicyMetadata};
use dosco::nn::Mlp;
use dosco::simnet::coordinator::RandomCoordinator;
use dosco::simnet::{
    ChurnAction, ChurnStats, ChurnTimeline, Coordinator, Metrics, ScenarioConfig, SimEvent,
    Simulation, TransitPolicy,
};
use dosco::topology::zoo::ABILENE_EGRESS;
use dosco::topology::{generators, LinkId, NodeId, Topology};
use dosco::traffic::ArrivalPattern;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Mutex;

#[derive(Debug, Serialize, Deserialize, PartialEq)]
struct GoldenCase {
    /// Scenario + coordinator label.
    name: String,
    /// Simulation seed.
    seed: u64,
    /// Total `SimEvent`s emitted over the episode.
    events: u64,
    /// FNV-1a over the concatenated JSON serialization of every event,
    /// in emission order (newline-separated).
    event_hash: String,
    /// Exact final metrics.
    metrics: Metrics,
}

#[derive(Debug, Serialize, Deserialize, PartialEq)]
struct Goldens {
    version: u32,
    cases: Vec<GoldenCase>,
}

/// A [`GoldenCase`] run under a churn timeline, plus its exact counters.
#[derive(Debug, Serialize, Deserialize, PartialEq)]
struct ChurnCase {
    run: GoldenCase,
    churn: ChurnStats,
}

#[derive(Debug, Serialize, Deserialize, PartialEq)]
struct ChurnGoldens {
    version: u32,
    cases: Vec<ChurnCase>,
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(file)
}

fn run_case(name: &str, cfg: ScenarioConfig, seed: u64, c: &mut dyn Coordinator) -> GoldenCase {
    run_sim(name, &mut Simulation::new(cfg, seed), seed, c)
}

/// Runs one episode step-wise, hashing the full event stream as it is
/// drained (the streaming path the refactor must keep byte-compatible).
fn run_sim(name: &str, sim: &mut Simulation, seed: u64, c: &mut dyn Coordinator) -> GoldenCase {
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut count = 0u64;
    let absorb = |events: &[SimEvent], hash: &mut u64, count: &mut u64| {
        for ev in events {
            let line = serde_json::to_string(ev).expect("event serializes");
            *hash = fnv_step(*hash, line.as_bytes());
            *hash = fnv_step(*hash, b"\n");
            *count += 1;
        }
    };
    let mut events = Vec::new();
    loop {
        sim.drain_events_into(&mut events);
        absorb(&events, &mut hash, &mut count);
        let Some(dp) = sim.next_decision() else {
            break;
        };
        let a = c.decide(sim, &dp);
        sim.apply(a);
    }
    sim.drain_events_into(&mut events);
    absorb(&events, &mut hash, &mut count);
    GoldenCase {
        name: name.to_string(),
        seed,
        events: count,
        event_hash: format!("{:016x}", hash),
        metrics: sim.metrics().clone(),
    }
}

/// Continues an FNV-1a hash over `bytes` (same constants as
/// [`fnv1a64`], but resumable so the stream never has to be collected).
fn fnv_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn capture() -> Goldens {
    let mut cases = Vec::new();
    // Fig. 6 family: success ratio over ingress counts, fixed + Poisson
    // arrivals. Greedy (GCASP) and stochastic (random) coordination.
    for &ingress in &[1usize, 3, 5] {
        for (pat_name, pattern) in [
            ("fixed", ArrivalPattern::paper_fixed()),
            ("poisson", ArrivalPattern::paper_poisson()),
        ] {
            let cfg = ScenarioConfig::paper_base(ingress)
                .with_pattern(pattern)
                .with_horizon(2_000.0);
            cases.push(run_case(
                &format!("fig6-{pat_name}-i{ingress}-gcasp"),
                cfg.clone(),
                40 + ingress as u64,
                &mut Gcasp::new(),
            ));
            cases.push(run_case(
                &format!("fig6-{pat_name}-i{ingress}-random"),
                cfg,
                40 + ingress as u64,
                &mut RandomCoordinator::new(7 + ingress as u64),
            ));
        }
    }
    // DOSCO_TRACE byte-identity: one traced episode, hashing the JSONL
    // recorder's event lines (the acceptance criterion is byte-identical
    // trace output across the storage/scheduling refactor). The header
    // line is left out: it carries `SCHEMA_VERSION`, which is about the
    // trace format, not the simulator.
    {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(2_000.0);
        let recorder =
            std::sync::Arc::new(dosco::obs::JsonlRecorder::new("/tmp/unused-golden.jsonl"));
        dosco::obs::install_recorder(recorder.clone());
        let mut case = run_case("trace-poisson-i3-gcasp", cfg, 60, &mut Gcasp::new());
        dosco::obs::uninstall_recorder();
        let rendered = recorder.render();
        let (_header, lines) = rendered.split_once('\n').expect("trace has a header line");
        case.event_hash = format!("{:016x}", fnv1a64(lines.as_bytes()));
        case.events = lines.len() as u64; // trace case: byte count, not events
        cases.push(case);
    }
    // Fig. 7 family: tight vs paper-default deadlines, SP + GCASP.
    for &deadline in &[30.0f64, 100.0] {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_deadline(deadline)
            .with_horizon(2_000.0);
        cases.push(run_case(
            &format!("fig7-d{deadline}-sp"),
            cfg.clone(),
            90,
            &mut ShortestPath::new(),
        ));
        cases.push(run_case(
            &format!("fig7-d{deadline}-gcasp"),
            cfg,
            90,
            &mut Gcasp::new(),
        ));
    }
    // The two stateful patterns: MMPP's modulation and switch checks,
    // and trace playback across its rate bins.
    for (pat_name, pattern) in [
        ("mmpp", ArrivalPattern::paper_mmpp()),
        ("trace", ArrivalPattern::paper_trace()),
    ] {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(pattern)
            .with_horizon(4_000.0);
        cases.push(run_case(
            &format!("{pat_name}-i3-gcasp"),
            cfg.clone(),
            110,
            &mut Gcasp::new(),
        ));
        cases.push(run_case(
            &format!("{pat_name}-i3-random"),
            cfg,
            110,
            &mut RandomCoordinator::new(17),
        ));
    }
    Goldens { version: 1, cases }
}

/// A timeline exercising every [`ChurnAction`]: failures that catch flows
/// in transit and mid-processing, a degrade issued while its link is down
/// (the repair must restore nominal), two faults at one timestamp, factor
/// 0.0 and restoring factor 1.0, and an entry beyond the horizon (never
/// applied).
fn churn_timeline(transit: TransitPolicy) -> ChurnTimeline {
    let (ind_chi, chi_ny, atl_wash, ny_wash) = (LinkId(9), LinkId(11), LinkId(12), LinkId(13));
    let (chicago, indianapolis, newyork) = (NodeId(0), NodeId(1), NodeId(2));
    let spike = |link, factor| ChurnAction::DelaySpike { link, factor };
    let degrade_link = |link, factor| ChurnAction::DegradeLinkCapacity { link, factor };
    let degrade_node = |node, factor| ChurnAction::DegradeNodeCapacity { node, factor };
    ChurnTimeline::new(vec![
        // Slow links hold several flows in transit when they are cut: ×8
        // keeps NewYork-Washington the shortest path, ×40 only catches
        // coordinators that ignore delay.
        (200.0, spike(ny_wash, 8.0)),
        (250.0, spike(ind_chi, 40.0)),
        (300.0, ChurnAction::LinkDown(ny_wash)),
        (300.0, ChurnAction::LinkDown(ind_chi)),
        (350.0, degrade_link(ny_wash, 0.5)),
        (400.0, ChurnAction::LinkUp(ind_chi)),
        (450.0, degrade_node(indianapolis, 0.5)),
        (600.0, ChurnAction::NodeDown(chicago)),
        (700.0, ChurnAction::LinkUp(ny_wash)),
        (800.0, spike(chi_ny, 3.0)),
        (900.0, ChurnAction::NodeUp(chicago)),
        (1_000.0, ChurnAction::LinkDown(chi_ny)),
        (1_000.0, ChurnAction::NodeDown(ABILENE_EGRESS)),
        (1_100.0, degrade_link(atl_wash, 0.25)),
        (1_200.0, ChurnAction::NodeUp(ABILENE_EGRESS)),
        (1_200.0, ChurnAction::LinkUp(chi_ny)),
        (1_400.0, degrade_node(indianapolis, 0.0)),
        (1_500.0, spike(ny_wash, 1.0)),
        (1_600.0, degrade_node(indianapolis, 1.0)),
        (1_600.0, degrade_link(atl_wash, 1.0)),
        (1_700.0, ChurnAction::NodeDown(newyork)),
        (1_800.0, ChurnAction::NodeUp(newyork)),
        (2_500.0, ChurnAction::LinkDown(atl_wash)),
    ])
    .with_transit(transit)
}

fn capture_churn() -> ChurnGoldens {
    let cfg = ScenarioConfig::paper_base(5)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(2_000.0);
    let mut cases = Vec::new();
    for (policy, transit) in [
        ("drop", TransitPolicy::Drop),
        ("deliver", TransitPolicy::Deliver),
    ] {
        let coordinators: [(&str, Box<dyn Coordinator>); 2] = [
            ("sp", Box::new(ShortestPath::new())),
            ("random", Box::new(RandomCoordinator::new(13))),
        ];
        for (label, mut c) in coordinators {
            let mut sim = Simulation::with_churn(cfg.clone(), 70, churn_timeline(transit));
            let run = run_sim(&format!("churn-{policy}-{label}"), &mut sim, 70, c.as_mut());
            let churn = *sim.churn_stats().expect("timeline installed");
            cases.push(ChurnCase { run, churn });
        }
    }
    ChurnGoldens { version: 1, cases }
}

/// The base scenario's service and flows on a 6×6 grid of unit delays:
/// four ingresses at the corners and one near the centre, each sending
/// across the grid, so most sources' rows are read and most of their
/// shortest paths tie.
fn grid_scenario() -> ScenarioConfig {
    let mut topology = generators::grid(6, 6, 1.0, 1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6121D);
    topology.assign_random_capacities(&mut rng, (0.5, 2.0), (1.0, 5.0));
    let mut cfg = ScenarioConfig::paper_base(1)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(1_200.0);
    let template = cfg.ingresses[0].clone();
    cfg.ingresses = [(0, 35), (5, 30), (30, 5), (35, 0), (14, 23)]
        .into_iter()
        .map(|(node, egress)| dosco::simnet::IngressSpec {
            node: NodeId(node),
            egress: NodeId(egress),
            ..template.clone()
        })
        .collect();
    cfg.topology = topology;
    cfg
}

/// Link failures and recoveries (two at one timestamp, two cutting off
/// an ingress corner), one node down and up, and one delay spike to
/// twice the unit delay, which ties with every two-hop detour, and its
/// restore.
fn grid_timeline(topo: &Topology) -> ChurnTimeline {
    let link = |a: usize, b: usize| {
        topo.link_between(NodeId(a), NodeId(b))
            .expect("grid neighbours are linked")
    };
    ChurnTimeline::new(vec![
        (80.0, ChurnAction::LinkDown(link(14, 15))),
        (130.0, ChurnAction::LinkDown(link(8, 14))),
        (
            180.0,
            ChurnAction::DelaySpike {
                link: link(20, 21),
                factor: 2.0,
            },
        ),
        (230.0, ChurnAction::LinkUp(link(14, 15))),
        (280.0, ChurnAction::NodeDown(NodeId(21))),
        (330.0, ChurnAction::LinkDown(link(0, 1))),
        (380.0, ChurnAction::LinkDown(link(0, 6))),
        (430.0, ChurnAction::LinkUp(link(0, 1))),
        (480.0, ChurnAction::NodeUp(NodeId(21))),
        (530.0, ChurnAction::LinkUp(link(8, 14))),
        (
            580.0,
            ChurnAction::DelaySpike {
                link: link(20, 21),
                factor: 1.0,
            },
        ),
        (630.0, ChurnAction::LinkUp(link(0, 6))),
        (700.0, ChurnAction::LinkDown(link(27, 28))),
        (700.0, ChurnAction::LinkDown(link(22, 28))),
        (760.0, ChurnAction::LinkDown(link(2, 3))),
        (820.0, ChurnAction::LinkUp(link(22, 28))),
        (880.0, ChurnAction::LinkUp(link(27, 28))),
        (940.0, ChurnAction::LinkUp(link(2, 3))),
    ])
    .with_transit(TransitPolicy::Drop)
}

fn capture_churn_grid() -> ChurnGoldens {
    let cfg = grid_scenario();
    let n = cfg.topology.num_nodes();
    let degree = cfg.topology.network_degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let actor = Mlp::paper_arch(4 * degree + 4, degree + 1, &mut rng);
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let coordinators: [(&str, Box<dyn Coordinator>); 3] = [
        ("sp", Box::new(ShortestPath::new())),
        ("gcasp", Box::new(Gcasp::new())),
        ("agents", Box::new(DistributedAgents::deploy(&policy, n))),
    ];
    let mut cases = Vec::new();
    for (label, mut c) in coordinators {
        let timeline = grid_timeline(&cfg.topology);
        let mut sim = Simulation::with_churn(cfg.clone(), 71, timeline);
        let run = run_sim(&format!("churn-grid-{label}"), &mut sim, 71, c.as_mut());
        let churn = *sim.churn_stats().expect("timeline installed");
        cases.push(ChurnCase { run, churn });
    }
    ChurnGoldens { version: 1, cases }
}

/// `fnv1a64` (the one-shot helper) and the resumable [`fnv_step`] agree,
/// so the golden hashes are reproducible from a collected stream too.
#[test]
fn fnv_step_matches_one_shot() {
    let data = b"dosco simcore goldens";
    assert_eq!(fnv_step(0xcbf2_9ce4_8422_2325, data), fnv1a64(data));
}

/// Serializes the two golden tests: the simcore capture installs the
/// process-wide trace recorder for one case, and any simulation running
/// concurrently would write into it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Compares `fresh` with the pinned `file`, or (re)writes `file` under
/// `DOSCO_CAPTURE_GOLDENS`. Returns the pinned goldens when comparing.
fn pinned_or_capture<G: Serialize + Deserialize>(file: &str, fresh: &G) -> Option<G> {
    let path = golden_path(file);
    if std::env::var("DOSCO_CAPTURE_GOLDENS").is_ok() {
        let json = serde_json::to_string_pretty(fresh).expect("serialize goldens");
        std::fs::write(&path, json).expect("write goldens");
        eprintln!("captured goldens to {}", path.display());
        return None;
    }
    let json = std::fs::read_to_string(&path)
        .expect("goldens missing: run with DOSCO_CAPTURE_GOLDENS=1 first");
    Some(serde_json::from_str(&json).expect("parse goldens"))
}

fn assert_case_eq(p: &GoldenCase, f: &GoldenCase) {
    assert_eq!(p.name, f.name, "case order changed");
    assert_eq!(p.metrics, f.metrics, "{}: Metrics diverged", p.name);
    assert_eq!(p.events, f.events, "{}: event count diverged", p.name);
    assert_eq!(
        p.event_hash, f.event_hash,
        "{}: SimEvent stream diverged",
        p.name
    );
}

#[test]
fn simcore_matches_pre_refactor_goldens() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fresh = capture();
    let Some(pinned) = pinned_or_capture("simcore.json", &fresh) else {
        return;
    };
    assert_eq!(pinned.version, 1);
    assert_eq!(pinned.cases.len(), fresh.cases.len(), "case set changed");
    for (p, f) in pinned.cases.iter().zip(&fresh.cases) {
        assert_case_eq(p, f);
    }
}

#[test]
fn churn_matches_pre_refactor_goldens() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fresh = capture_churn();
    let Some(pinned) = pinned_or_capture("churn.json", &fresh) else {
        return;
    };
    assert_eq!(pinned.version, 1);
    assert_eq!(pinned.cases.len(), fresh.cases.len(), "case set changed");
    for (p, f) in pinned.cases.iter().zip(&fresh.cases) {
        assert_case_eq(&p.run, &f.run);
        assert_eq!(p.churn, f.churn, "{}: ChurnStats diverged", p.run.name);
    }
}

#[test]
fn churn_grid_matches_pre_repair_goldens() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fresh = capture_churn_grid();
    let Some(pinned) = pinned_or_capture("churn_grid.json", &fresh) else {
        return;
    };
    assert_eq!(pinned.version, 1);
    assert_eq!(pinned.cases.len(), fresh.cases.len(), "case set changed");
    for (p, f) in pinned.cases.iter().zip(&fresh.cases) {
        assert_case_eq(&p.run, &f.run);
        assert_eq!(p.churn, f.churn, "{}: ChurnStats diverged", p.run.name);
    }
}
