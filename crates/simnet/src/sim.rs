//! The discrete-event simulation engine.

use crate::churn::{ChurnAction, ChurnStats, ChurnTimeline, PackedAction, TransitPolicy};
use crate::config::ScenarioConfig;
use crate::coordinator::{Action, Coordinator, DecisionPoint};
use crate::event::{DropReason, InstanceAt, QueuedEvent, SimEvent};
use crate::flow::{Flow, FlowId, FlowKey, FlowRecord};
use crate::metrics::{Metrics, WindowedStats};
use crate::queue::{EventKey, EventQueue};
use crate::service::ComponentId;
use crate::slab::Slab;
use crate::substrate::Substrate;
use dosco_topology::{LinkId, NodeId, ShortestPaths};
use dosco_traffic::{ArrivalCursor, FlowProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Float tolerance for capacity admission checks.
const CAP_EPS: f64 = 1e-9;

/// Terminations kept in the sliding success-ratio window while churn is
/// active (the resolution of the before/during/after-fault resilience
/// view).
const CHURN_WINDOW: usize = 256;

/// Coordination decisions between mid-episode trace samples.
const SAMPLE_STRIDE: u64 = 64;

/// Bookkeeping *about* a churn timeline, kept only while a non-empty one
/// is installed (the substrate it acts on is always there).
#[derive(Debug)]
struct ChurnRun {
    stats: ChurnStats,
    /// Sliding success ratio over recent terminations (resilience
    /// reporting around faults).
    window: WindowedStats,
}

/// A placed component instance (`x_{c,v} = 1`).
#[derive(Debug, Clone, PartialEq)]
struct Instance {
    /// When the instance finishes starting up and can begin processing.
    available_at: f64,
    /// Flows currently processing (or still transmitting) at the instance.
    active: usize,
    /// Last time the instance became idle (for the idle timeout).
    last_release: f64,
    /// The outstanding idle-timeout probe, cancelled when the instance
    /// becomes active again. At most one probe is ever outstanding.
    timeout: Option<EventKey>,
}

/// Checks that `config` and `timeline` fit the simulator's compact
/// records ([`FlowRecord`], the queued events, the failure epochs), so
/// that every narrowing to `u32` or `u16` afterwards is exact.
///
/// # Panics
///
/// Panics if one does not: see [`Simulation::with_churn`].
fn assert_compact(config: &ScenarioConfig, timeline: &ChurnTimeline) {
    let fits_u32 = |n: usize| n < u32::MAX as usize;
    let topo = &config.topology;
    assert!(
        fits_u32(topo.num_nodes()) && fits_u32(topo.num_links()),
        "node and link ids must fit in u32"
    );
    assert!(
        config.catalog.num_components() <= usize::from(u16::MAX) + 1,
        "component ids must fit in u16"
    );
    assert!(
        fits_u32(config.ingresses.len()),
        "ingress indices must fit in u32"
    );
    assert!(
        config
            .catalog
            .services()
            .iter()
            .all(|s| s.len() <= u32::MAX as usize),
        "chain lengths must fit in u32"
    );
    assert!(
        timeline.len() <= u32::MAX as usize,
        "a timeline holds at most u32::MAX entries"
    );
}

/// The discrete-event simulator. See the [crate docs](crate) for the model.
///
/// Drive it either with [`Simulation::run`] and a [`Coordinator`], or
/// step-wise with [`Simulation::next_decision`] / [`Simulation::apply`].
#[derive(Debug)]
pub struct Simulation {
    config: ScenarioConfig,
    sp: ShortestPaths,
    network_degree: usize,
    diameter: f64,
    time: f64,
    queue: EventQueue<QueuedEvent>,
    rng: StdRng,
    /// Playback state of each ingress's arrival pattern, by ingress index;
    /// the pattern itself is read from `config`.
    arrivals: Vec<ArrivalCursor>,
    /// Live flows in a generational slab: freed slots are recycled, so the
    /// footprint is the concurrent high-water mark, not the arrival count.
    /// A slot holds a 32-byte [`FlowRecord`]; [`Simulation::flow`] builds
    /// the public [`Flow`] from it.
    flows: Slab<FlowRecord>,
    next_flow_id: u64,
    substrate: Substrate,
    /// Dense NodeId-major instance table (`node.0 * num_components + c.0`).
    instances: Vec<Option<Instance>>,
    num_components: usize,
    /// The decision awaiting [`Simulation::apply`], with the slab handle of
    /// its flow, so `flow(dp.flow)` on the decision hot path resolves
    /// without hashing or scanning.
    pending: Option<(DecisionPoint, FlowKey)>,
    /// The victims of the last fault, kept so that a fault allocates
    /// nothing once the buffer has grown to the largest one.
    victims: Vec<(FlowId, FlowKey, NodeId)>,
    /// Live flows whose head is crossing each link, by link id: a link
    /// failure that finds none skips the scan for victims.
    in_transit: Vec<u32>,
    /// Events emitted since the last drain. Per-step draining via
    /// [`Simulation::drain_events_into`] recycles this buffer, so memory
    /// does not grow with episode length.
    events: Vec<SimEvent>,
    metrics: Metrics,
    finished: bool,
    /// Trace stream for this episode; `None` when tracing is disabled at
    /// construction time, so the per-decision hot path is a single
    /// `is_none` check.
    obs_stream: Option<dosco_obs::Stream>,
    /// `Some` iff the simulation was built via
    /// [`Simulation::with_churn`] with a non-empty timeline.
    churn: Option<ChurnRun>,
}

impl Simulation {
    /// Creates a simulation for `config`, seeding all stochastic traffic
    /// with `seed`. Shortest paths, the network degree `Δ_G`, and the
    /// delay diameter `D_G` are precomputed here (Sec. IV-B1d).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ScenarioConfig::validate`].
    pub fn new(config: ScenarioConfig, seed: u64) -> Self {
        Simulation::with_churn(config, seed, ChurnTimeline::none())
    }

    /// Like [`Simulation::new`], but with a substrate churn `timeline`
    /// applied through the event loop: link/node failures and repairs,
    /// capacity degradation, and delay spikes interleave deterministically
    /// with arrivals and decisions. An empty timeline is bit-identical to
    /// [`Simulation::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ScenarioConfig::validate`], if
    /// a timeline entry targets a node/link outside the topology or
    /// carries a non-finite/negative factor, or if the scenario does not
    /// fit the simulator's compact records: node and link ids, ingress
    /// indices, chain lengths and the timeline's length must fit in `u32`
    /// (`u32::MAX` itself excluded for ids and indices), component ids in
    /// `u16`.
    pub fn with_churn(config: ScenarioConfig, seed: u64, timeline: ChurnTimeline) -> Self {
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        config
            .validate()
            .expect("scenario configuration must be valid");
        assert_compact(&config, &timeline);
        let sp = ShortestPaths::compute(&config.topology);
        let network_degree = config.topology.network_degree();
        let diameter = sp.diameter();
        let arrivals = config
            .ingresses
            .iter()
            .map(|i| i.pattern.cursor())
            .collect();
        timeline.assert_fits(&config.topology);
        let substrate = Substrate::new(&config.topology, timeline.transit());
        let num_components = config.catalog.components().len();
        let instances = vec![None; config.topology.num_nodes() * num_components];
        let in_transit = vec![0; config.topology.num_links()];
        let mut sim = Simulation {
            config,
            sp,
            network_degree,
            diameter,
            time: 0.0,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            arrivals,
            flows: Slab::new(),
            next_flow_id: 0,
            substrate,
            instances,
            num_components,
            pending: None,
            victims: Vec::new(),
            in_transit,
            events: Vec::new(),
            metrics: Metrics::new(),
            finished: false,
            obs_stream: dosco_obs::trace_enabled().then(|| dosco_obs::Stream::sim(seed)),
            churn: (!timeline.is_empty()).then(|| ChurnRun {
                stats: ChurnStats::default(),
                window: WindowedStats::new(CHURN_WINDOW),
            }),
        };
        for idx in 0..sim.arrivals.len() {
            sim.schedule_next_arrival(idx, 0.0);
        }
        // One queue entry per timeline entry within the horizon; draws
        // nothing from the traffic RNG stream.
        for &(t, action) in timeline.entries() {
            if t <= sim.config.horizon {
                let action = PackedAction::pack(action);
                sim.schedule(t, QueuedEvent::Churn { action });
            }
        }
        if let Some(stream) = sim.obs_stream {
            dosco_obs::emit(stream, || dosco_obs::Event::EpisodeStart {
                seed,
                horizon: sim.config.horizon,
                nodes: sim.config.topology.num_nodes() as u64,
                links: sim.config.topology.num_links() as u64,
                ingresses: sim.config.ingresses.len() as u64,
            });
        }
        sim
    }

    // ------------------------------------------------------------------
    // Read-only accessors (the basis for local observations, Sec. IV-B1).
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The substrate topology.
    pub fn topology(&self) -> &dosco_topology::Topology {
        &self.config.topology
    }

    /// All-pairs shortest path delays over what is currently up.
    pub fn shortest_paths(&self) -> &ShortestPaths {
        &self.sp
    }

    /// The network degree `Δ_G` (max neighbors per node).
    pub fn network_degree(&self) -> usize {
        self.network_degree
    }

    /// The network diameter `D_G` in path delay, used to normalize shaping
    /// penalties (Sec. IV-B3).
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Compute resources currently in use at node `v` (`r_v(t)`).
    pub fn node_used(&self, v: NodeId) -> f64 {
        self.substrate.node_used[v.0]
    }

    /// Effective compute capacity of node `v`: nominal unless churn
    /// degraded it, zero while the node is down. Without churn this is
    /// exactly the static topology capacity.
    pub fn node_capacity(&self, v: NodeId) -> f64 {
        self.substrate.node_cap[v.0]
    }

    /// Free compute resources at node `v` (`cap_v − r_v(t)`).
    pub fn node_free(&self, v: NodeId) -> f64 {
        self.node_capacity(v) - self.node_used(v)
    }

    /// Data rate currently reserved on link `l` (`r_l(t)`).
    pub fn link_used(&self, l: LinkId) -> f64 {
        self.substrate.link_used[l.0]
    }

    /// Effective data-rate capacity of link `l` (see
    /// [`Simulation::node_capacity`]).
    pub fn link_capacity(&self, l: LinkId) -> f64 {
        self.substrate.link_cap[l.0]
    }

    /// Free data rate on link `l` (`cap_l − r_l(t)`).
    pub fn link_free(&self, l: LinkId) -> f64 {
        self.link_capacity(l) - self.link_used(l)
    }

    /// Effective propagation delay of link `l` (nominal unless a churn
    /// delay spike is active). Observation adapters must read this — not
    /// the static topology — so delays track the current topology
    /// version.
    pub fn link_delay(&self, l: LinkId) -> f64 {
        self.substrate.link_delay[l.0]
    }

    /// Whether node `v` is currently up (always true without churn).
    pub fn is_node_up(&self, v: NodeId) -> bool {
        self.substrate.node_up[v.0]
    }

    /// Whether link `l` is currently up (always true without churn).
    pub fn is_link_up(&self, l: LinkId) -> bool {
        self.substrate.link_up[l.0]
    }

    /// Substrate topology version: the number of churn actions applied so
    /// far, 0 forever without churn. [`Simulation::shortest_paths`] is
    /// invalidated only when this changes through a routing-affecting
    /// action — consumers may cache per version.
    pub fn topo_version(&self) -> u64 {
        self.substrate.version
    }

    /// Churn counters, `None` when no churn timeline is installed.
    pub fn churn_stats(&self) -> Option<&ChurnStats> {
        self.churn.as_ref().map(|run| &run.stats)
    }

    /// Dense index of `(v, c)` in the NodeId-major instance table.
    #[inline]
    fn inst_idx(&self, v: NodeId, c: ComponentId) -> usize {
        v.0 * self.num_components + c.0
    }

    /// Whether an instance of component `c` is placed at node `v`
    /// (`x_{c,v}(t)`, Sec. IV-B1e).
    pub fn has_instance(&self, v: NodeId, c: ComponentId) -> bool {
        self.instances[self.inst_idx(v, c)].is_some()
    }

    /// Number of placed instances (for scaling diagnostics): started minus
    /// stopped, lost ones included.
    pub fn num_instances(&self) -> usize {
        (self.metrics.instances_started - self.metrics.instances_stopped) as usize
    }

    /// The live flow `f`, if it has neither completed nor been dropped,
    /// built from the simulator's record of it, its ingress spec and the
    /// catalog.
    ///
    /// The pending decision's flow — the only flow observation adapters
    /// and coordinators query — resolves in O(1) via the cached slab
    /// handle; any other id falls back to a scan over live flows
    /// (diagnostics only).
    pub fn flow(&self, f: FlowId) -> Option<Flow> {
        let record = match self.pending {
            Some((dp, key)) if dp.flow == f => self.flows.get(key.0),
            _ => self.flows.iter().map(|(_, r)| r).find(|r| r.id == f),
        };
        record.map(|r| self.view(r))
    }

    /// The public view of a live flow's record.
    fn view(&self, r: &FlowRecord) -> Flow {
        let spec = &self.config.ingresses[r.spec()];
        Flow {
            id: r.id,
            service: spec.service,
            ingress: spec.node,
            egress: spec.egress,
            rate: spec.profile.rate,
            arrival: r.arrival,
            duration: spec.profile.duration,
            deadline: spec.profile.deadline,
            chain_pos: r.chain_pos as usize,
            chain_len: self.config.catalog.service(spec.service).len(),
            location: r.location(),
            in_transit: r.in_transit(),
        }
    }

    /// Number of flows currently in the network.
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// Peak concurrent live flows over the episode (slab high-water mark;
    /// the resident-memory proxy for flow storage).
    pub fn peak_live_flows(&self) -> usize {
        self.flows.high_water()
    }

    /// Flow slab slots ever allocated (live + recycled). Flat over time in
    /// steady state: churn reuses slots instead of growing the arena.
    pub fn flow_slab_capacity(&self) -> usize {
        self.flows.capacity()
    }

    /// Peak concurrent scheduled events over the episode.
    pub fn peak_queued_events(&self) -> usize {
        self.queue.high_water()
    }

    /// Event-queue slots ever allocated (live + recycled).
    pub fn event_slab_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Moves all events emitted since the last drain into `out`
    /// (clearing it first), handing the simulator back `out`'s old
    /// allocation. Draining every step therefore ping-pongs two buffers
    /// and never allocates once they reach the per-step event high-water
    /// mark.
    pub fn drain_events_into(&mut self, out: &mut Vec<SimEvent>) {
        out.clear();
        std::mem::swap(&mut self.events, out);
    }

    /// The resource demand `r_{c_f}(λ_f)` of flow `f`'s requested
    /// component, or 0.0 if the flow is fully processed (Sec. IV-B1c).
    pub fn requested_resources(&self, f: FlowId) -> f64 {
        let Some(flow) = self.flow(f) else {
            return 0.0;
        };
        match self
            .config
            .catalog
            .component_at(flow.service, flow.chain_pos)
        {
            Some(c) => self.config.catalog.component(c).resources(flow.rate),
            None => 0.0,
        }
    }

    // ------------------------------------------------------------------
    // Stepping.
    // ------------------------------------------------------------------

    /// Advances the simulation to the next point where a coordinator must
    /// act. Returns `None` once the horizon is reached (or no events
    /// remain); terminal bookkeeping (success/expiry) happens internally.
    ///
    /// Calling this again without [`Simulation::apply`] returns the same
    /// pending decision.
    ///
    /// The `next_decision`/`apply` pair is the external integration
    /// point: [`Simulation::run`] drives it with an in-process
    /// [`Coordinator`], while the `dosco_serve` fabric holds the pending
    /// decision open across a shard's batched inference round trip
    /// before applying — the idempotent pending state is what makes that split
    /// safe.
    pub fn next_decision(&mut self) -> Option<DecisionPoint> {
        if let Some((dp, _)) = self.pending {
            return Some(dp);
        }
        if self.finished {
            return None;
        }
        // The peek settles the queue on its minimum; the pop that follows
        // finds that done and takes the head.
        while self
            .queue
            .peek_time()
            .is_some_and(|t| t <= self.config.horizon)
        {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            self.time = t;
            if let Some((dp, key)) = self.handle(ev) {
                self.pending = Some((dp, key));
                return Some(dp);
            }
        }
        self.time = self.config.horizon;
        self.finished = true;
        self.emit_episode_end();
        None
    }

    /// Applies the coordinator's action to the pending decision.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending decision (i.e.
    /// [`Simulation::next_decision`] was not called, or returned `None`).
    pub fn apply(&mut self, action: Action) {
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let (dp, key) = self
            .pending
            .take()
            .expect("apply() requires a pending decision from next_decision()");
        // `handle_decision` resolved the key as it set `pending`, and no
        // flow ends between a decision and its `apply`.
        #[allow(clippy::expect_used, reason = "a pending decision's flow is live")]
        let spec = self
            .flows
            .get(key.0)
            .expect("pending decision refers to a live flow")
            .spec();
        // Hand-counted: a decision emits no event of its own (its outcome
        // does), so this is the one counter `emit` cannot fold.
        self.metrics.decisions += 1;
        match action {
            Action::Local => self.apply_local(dp, key, spec),
            Action::Forward(i) => self.apply_forward(dp, key, spec, i),
        }
        if self.obs_stream.is_some() && self.metrics.decisions.is_multiple_of(SAMPLE_STRIDE) {
            self.emit_sample();
        }
    }

    /// Runs the full episode under `coordinator`, returning final metrics.
    ///
    /// Events are streamed to the coordinator per decision through one
    /// recycled buffer, so the episode runs allocation-free in steady
    /// state regardless of length.
    pub fn run<C: Coordinator + ?Sized>(&mut self, coordinator: &mut C) -> &Metrics {
        let mut events = Vec::new();
        loop {
            self.drain_events_into(&mut events);
            if !events.is_empty() {
                coordinator.observe(self, &events);
            }
            let Some(dp) = self.next_decision() else {
                break;
            };
            let action = coordinator.decide(self, &dp);
            self.apply(action);
        }
        self.drain_events_into(&mut events);
        if !events.is_empty() {
            coordinator.observe(self, &events);
        }
        &self.metrics
    }

    // ------------------------------------------------------------------
    // Observability (dosco_obs). All emitters are gated on `obs_stream`,
    // set once at construction: with tracing disabled the only cost on
    // the decision path is one `is_none` check. The registry's drop and
    // churn series are not counted here but folded once, on drop.
    // ------------------------------------------------------------------

    /// Mean and max utilization `used_i / cap_i` over a resource vector
    /// and its id-ordered capacities (zero-capacity resources count as 0).
    fn utilization(used: &[f64], caps: impl Iterator<Item = f64>) -> (f64, f64) {
        if used.is_empty() {
            return (0.0, 0.0);
        }
        let (mut sum, mut max) = (0.0, 0.0f64);
        for (&u, c) in used.iter().zip(caps) {
            let util = if c > 0.0 { u / c } else { 0.0 };
            sum += util;
            max = max.max(util);
        }
        (sum / used.len() as f64, max)
    }

    /// Emits one mid-episode [`dosco_obs::Event::EpisodeSample`] and feeds
    /// the sampled utilizations into the global registry.
    fn emit_sample(&self) {
        let Some(stream) = self.obs_stream else {
            return;
        };
        let sub = &self.substrate;
        let (node_util_mean, node_util_max) =
            Self::utilization(&sub.node_used, sub.node_cap.iter().copied());
        let (link_util_mean, link_util_max) =
            Self::utilization(&sub.link_used, sub.link_cap.iter().copied());
        let m = &self.metrics;
        dosco_obs::registry::count(dosco_obs::CounterKind::DecisionSamples, 1);
        dosco_obs::registry::max_gauge(dosco_obs::GaugeKind::PeakNodeUtil, node_util_max);
        dosco_obs::registry::max_gauge(dosco_obs::GaugeKind::PeakLinkUtil, link_util_max);
        dosco_obs::registry::observe(dosco_obs::HistKind::NodeUtil, node_util_max);
        dosco_obs::registry::observe(dosco_obs::HistKind::LinkUtil, link_util_max);
        dosco_obs::emit(stream, || dosco_obs::Event::EpisodeSample {
            time: self.time,
            decisions: m.decisions,
            arrived: m.arrived,
            completed: m.completed,
            dropped: m.dropped_total(),
            in_flight: m.in_flight(),
            success_ratio: m.success_ratio_opt(),
            node_util_mean,
            node_util_max,
            link_util_mean,
            link_util_max,
            instances: self.num_instances() as u64,
        });
    }

    /// Emits the final [`dosco_obs::Event::EpisodeEnd`] when the horizon
    /// is reached.
    fn emit_episode_end(&self) {
        let Some(stream) = self.obs_stream else {
            return;
        };
        dosco_obs::registry::count(dosco_obs::CounterKind::EpisodesTraced, 1);
        let m = &self.metrics;
        dosco_obs::emit(stream, || dosco_obs::Event::EpisodeEnd {
            time: self.time,
            arrived: m.arrived,
            completed: m.completed,
            dropped: m.dropped_total(),
            in_flight: m.in_flight(),
            success_ratio: m.success_ratio_opt(),
            avg_e2e_delay: m.avg_e2e_delay(),
            decisions: m.decisions,
            instances_started: m.instances_started,
            instances_stopped: m.instances_stopped,
        });
    }

    // ------------------------------------------------------------------
    // Event handling.
    // ------------------------------------------------------------------

    /// The one door into the event queue. The simulator never schedules
    /// into the past — the auditor's law, and the queue's: a push below
    /// its last minimum panics.
    fn schedule(&mut self, t: f64, ev: QueuedEvent) -> EventKey {
        debug_assert!(
            t >= self.time,
            "event scheduled in the past: {t} < now {}",
            self.time
        );
        self.queue.push(t, ev)
    }

    /// The one door out to the event stream, as `schedule` is the one into
    /// the queue: every counter that mirrors an event is bumped here and
    /// nowhere else, so [`Metrics`], [`ChurnStats`] and the churn window
    /// are folds of the stream. The registry's series are folds of those,
    /// added once when the simulation is dropped.
    #[inline]
    fn emit(&mut self, ev: SimEvent) {
        self.metrics.record(&ev);
        if let Some(run) = &mut self.churn {
            run.stats.record(&ev);
            run.window.observe(&ev);
        }
        self.events.push(ev);
    }

    fn schedule_next_arrival(&mut self, idx: usize, now: f64) {
        let pattern = &self.config.ingresses[idx].pattern;
        let t = pattern.next_arrival(&mut self.arrivals[idx], now, &mut self.rng);
        if t.is_finite() && t <= self.config.horizon {
            let ingress_idx = idx as u32; // `assert_compact` bounds it
            self.schedule(t, QueuedEvent::Arrival { ingress_idx });
        }
    }

    /// Handles one internal event; returns a decision point and its flow's
    /// key if the coordinator must act now.
    fn handle(&mut self, ev: QueuedEvent) -> Option<(DecisionPoint, FlowKey)> {
        match ev {
            QueuedEvent::Arrival { ingress_idx } => {
                let idx = ingress_idx as usize;
                self.spawn_flow(idx);
                self.schedule_next_arrival(idx, self.time);
                None
            }
            QueuedEvent::Decision { flow } => self.handle_decision(flow),
            QueuedEvent::ProcessingDone { flow, at } => {
                if let Some(f) = self.flows.get_mut(flow.0) {
                    f.chain_pos += 1;
                    let (id, spec) = (f.id, f.spec());
                    let service = self.config.ingresses[spec].service;
                    let service_len = self.config.catalog.service(service).len();
                    self.emit(SimEvent::InstanceTraversed {
                        flow: id,
                        node: at.node(),
                        component: at.component(),
                        service_len,
                        time: self.time,
                    });
                    self.schedule(self.time, QueuedEvent::Decision { flow });
                }
                None
            }
            QueuedEvent::ReleaseNode { at, amount, epoch } => {
                let (node, component) = (at.node(), at.component());
                if self.substrate.node_epoch[node.0] != epoch {
                    // The node failed after this reservation was made: its
                    // usage was reclaimed wholesale with the failure and
                    // the instance is gone, so the release is stale.
                    return None;
                }
                let used = &mut self.substrate.node_used[node.0];
                *used = (*used - amount).max(0.0);
                let idx = self.inst_idx(node, component);
                let went_idle = self.instances[idx].as_mut().is_some_and(|inst| {
                    inst.active = inst.active.saturating_sub(1);
                    if inst.active == 0 {
                        inst.last_release = self.time;
                        true
                    } else {
                        false
                    }
                });
                if went_idle {
                    let timeout = self.config.catalog.component(component).idle_timeout;
                    let probe =
                        self.schedule(self.time + timeout, QueuedEvent::InstanceTimeout { at });
                    if let Some(inst) = self.instances[idx].as_mut() {
                        debug_assert!(inst.timeout.is_none(), "one probe per instance");
                        inst.timeout = Some(probe);
                    }
                }
                None
            }
            QueuedEvent::ReleaseLink {
                link,
                amount,
                epoch,
            } => {
                let link = link as usize;
                if self.substrate.link_epoch[link] != epoch {
                    return None; // stale: the link failed in between
                }
                let used = &mut self.substrate.link_used[link];
                *used = (*used - amount).max(0.0);
                None
            }
            QueuedEvent::InstanceTimeout { at } => {
                let (node, component) = (at.node(), at.component());
                // A probe only fires if it was never cancelled, i.e. the
                // instance stayed idle for its full timeout; the guard is
                // kept for defense in depth (and matches the lazy-check
                // semantics of the pre-cancellation core exactly).
                let idx = self.inst_idx(node, component);
                let timeout = self.config.catalog.component(component).idle_timeout;
                let remove = self.instances[idx].as_ref().is_some_and(|inst| {
                    inst.active == 0 && self.time + CAP_EPS >= inst.last_release + timeout
                });
                if remove {
                    self.instances[idx] = None;
                    self.emit(SimEvent::InstanceStopped {
                        node,
                        component,
                        time: self.time,
                    });
                }
                None
            }
            QueuedEvent::Churn { action } => {
                self.apply_churn(action.unpack());
                None
            }
        }
    }

    /// Applies one churn action. Runs between decisions (the queue only
    /// surfaces churn from [`Simulation::handle`], where no decision is
    /// pending), so victims are dropped atomically with the substrate
    /// mutation.
    fn apply_churn(&mut self, action: ChurnAction) {
        self.substrate.apply(&self.config.topology, action);
        let instances_lost = match action {
            ChurnAction::LinkDown(l) if self.substrate.transit == TransitPolicy::Drop => {
                debug_assert_eq!(
                    self.in_transit[l.0] as usize,
                    self.flows
                        .iter()
                        .filter(|(_, f)| f.in_transit_on(l))
                        .count(),
                    "in-transit count of link {l:?}"
                );
                if self.in_transit[l.0] > 0 {
                    self.kill_flows(DropReason::LinkFailure, |f| f.in_transit_on(l));
                    self.in_transit[l.0] = 0;
                }
                0
            }
            ChurnAction::NodeDown(v) => {
                self.kill_flows(DropReason::NodeFailure, |f| {
                    f.location() == v && f.in_transit().is_none()
                });
                self.lose_instances(v)
            }
            _ => 0,
        };
        // Every action bumps the topology version; routing-affecting ones
        // repair the path table in place against the current masks and
        // delays, so every row is finished again before the next read.
        // The reward normalizer D_G deliberately keeps the *nominal*
        // diameter so reward scales stay comparable across topology
        // versions.
        if action.affects_routing() {
            let Substrate {
                node_up,
                link_up,
                link_delay,
                ..
            } = &self.substrate;
            self.sp.remask(node_up, link_up, link_delay);
        }
        if let Some(run) = &mut self.churn {
            // Hand-counted: a lost instance's `InstanceStopped` is the same
            // event as an idle timeout's, so the stream cannot fold it.
            run.stats.instances_lost += instances_lost;
        }
        let version = self.substrate.version;
        self.emit(SimEvent::ChurnApplied {
            action,
            topo_version: version,
            time: self.time,
        });
        if let Some(stream) = self.obs_stream {
            dosco_obs::emit(stream, || dosco_obs::Event::ChurnApplied {
                time: self.time,
                action: action.label().to_string(),
                target: action.target(),
                factor: action.factor(),
                topo_version: version,
            });
        }
    }

    /// Drops every live flow that is `doomed`, in [`FlowId`] (arrival)
    /// order — deterministic regardless of slab slot recycling. Collects
    /// into the kept `victims` buffer, so a fault allocates nothing once it
    /// has grown to the largest fault's count.
    fn kill_flows(&mut self, reason: DropReason, doomed: impl Fn(&FlowRecord) -> bool) {
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        victims.extend(
            self.flows
                .iter()
                .filter(|(_, f)| doomed(f))
                .map(|(key, f)| (f.id, FlowKey(key), f.location())),
        );
        victims.sort_unstable_by_key(|&(id, ..)| id);
        for &(_, key, node) in &victims {
            self.drop_flow(key, reason, node);
        }
        self.victims = victims;
    }

    /// Instances die with their node `v`; their reserved capacity was
    /// reclaimed with the failure. They count as stopped so the instance
    /// conservation (started == stopped + live) holds through the fault;
    /// the node comes back empty on repair. Returns how many were lost.
    fn lose_instances(&mut self, v: NodeId) -> u64 {
        let mut lost = 0;
        for c in (0..self.num_components).map(ComponentId) {
            let idx = self.inst_idx(v, c);
            if let Some(inst) = self.instances[idx].take() {
                if let Some(probe) = inst.timeout {
                    self.queue.cancel(probe);
                }
                lost += 1;
                self.emit(SimEvent::InstanceStopped {
                    node: v,
                    component: c,
                    time: self.time,
                });
            }
        }
        lost
    }

    fn spawn_flow(&mut self, ingress_idx: usize) {
        let node = self.config.ingresses[ingress_idx].node;
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        // `assert_compact` bounds both narrowings.
        let flow = FlowRecord::new(id, self.time, node.0 as u32, ingress_idx as u32);
        let key = FlowKey(self.flows.insert(flow));
        self.emit(SimEvent::FlowArrived {
            flow: id,
            node,
            time: self.time,
        });
        self.schedule(self.time, QueuedEvent::Decision { flow: key });
    }

    fn handle_decision(&mut self, key: FlowKey) -> Option<(DecisionPoint, FlowKey)> {
        let Some(f) = self.flows.get_mut(key.0) else {
            return None; // flow already terminated (defensive)
        };
        if let Some(l) = f.in_transit() {
            self.in_transit[l as usize] -= 1;
        }
        f.in_transit = FlowRecord::NOT_IN_TRANSIT; // the head is at `location` now
        let record = *f;
        let f = self.view(&record);
        let id = f.id;
        let node = f.location;
        let expired = f.expired(self.time);
        let done_at_egress = f.fully_processed() && node == f.egress;
        let (service, chain_pos) = (f.service, f.chain_pos);
        if !self.substrate.node_up[node.0] {
            // The head reached a node that is down (forwarded while the
            // link was still alive, or spawned at a dead ingress): it
            // dies on arrival.
            self.drop_flow(key, DropReason::NodeFailure, node);
            return None;
        }
        if expired {
            self.drop_flow(key, DropReason::DeadlineExpired, node);
            return None;
        }
        if done_at_egress {
            self.complete_flow(key, node);
            return None;
        }
        let component = self.config.catalog.component_at(service, chain_pos);
        let dp = DecisionPoint {
            flow: id,
            node,
            time: self.time,
            component,
        };
        Some((dp, key))
    }

    /// Completes the flow behind `key`, which every caller has just
    /// resolved; a stale key completes nothing.
    fn complete_flow(&mut self, key: FlowKey, node: NodeId) {
        if let Some(f) = self.flows.remove(key.0) {
            let e2e = self.time - f.arrival;
            self.emit(SimEvent::FlowCompleted {
                flow: f.id,
                time: self.time,
                e2e_delay: e2e,
                node,
            });
        }
    }

    /// Drops the flow behind `key`, which every caller has just resolved;
    /// a stale key drops nothing.
    fn drop_flow(&mut self, key: FlowKey, reason: DropReason, node: NodeId) {
        if let Some(f) = self.flows.remove(key.0) {
            self.emit(SimEvent::FlowDropped {
                flow: f.id,
                time: self.time,
                reason,
                node,
            });
        }
    }

    /// Processes the pending flow at its node; `spec` is its ingress spec.
    fn apply_local(&mut self, dp: DecisionPoint, key: FlowKey, spec: usize) {
        let Some(component) = dp.component else {
            // Fully processed flow kept at the node: hold one time step
            // (Sec. IV-B2) and ask again.
            self.emit(SimEvent::Held {
                flow: dp.flow,
                node: dp.node,
                time: self.time,
            });
            self.schedule(
                self.time + self.config.hold_delay,
                QueuedEvent::Decision { flow: key },
            );
            return;
        };
        let profile = self.config.ingresses[spec].profile;
        let comp = self.config.catalog.component(component);
        let demand = comp.resources(profile.rate);
        let capacity = self.node_capacity(dp.node);
        if self.node_used(dp.node) + demand > capacity + CAP_EPS {
            self.drop_flow(key, DropReason::NodeCapacity, dp.node);
            return;
        }
        let (duration, processing_delay) = (profile.duration, comp.processing_delay);
        // Scaling/placement derived from scheduling (Sec. IV-A): ensure an
        // instance exists, starting one (with startup delay) if needed.
        let idx = self.inst_idx(dp.node, component);
        let started = self.instances[idx].is_none();
        let inst = self.instances[idx].get_or_insert(Instance {
            available_at: self.time + comp.startup_delay,
            active: 0,
            last_release: self.time,
            timeout: None,
        });
        let start = self.time.max(inst.available_at);
        inst.active += 1;
        // The instance is busy again: its outstanding idle-timeout probe
        // (if any) can no longer fire meaningfully — remove it from the
        // queue instead of letting it pop as a dead entry.
        let stale_probe = inst.timeout.take();
        if started {
            self.emit(SimEvent::InstanceStarted {
                node: dp.node,
                component,
                time: self.time,
            });
        }
        let done = start + processing_delay;
        self.substrate.node_used[dp.node.0] += demand;
        if let Some(probe) = stale_probe {
            self.queue.cancel(probe);
        }
        let at = InstanceAt::new(dp.node, component);
        self.schedule(done, QueuedEvent::ProcessingDone { flow: key, at });
        // Fluid/pipelined model (Sec. III-A): the instance handles the
        // flow's data *rate* while the stream passes through, i.e. for the
        // flow duration δ_f starting at processing start; the processing
        // delay d_c shifts the flow in time but does not multiply the
        // rate-based occupancy.
        self.schedule(
            start + duration,
            QueuedEvent::ReleaseNode {
                at,
                amount: demand,
                epoch: self.substrate.node_epoch[dp.node.0],
            },
        );
    }

    /// Forwards the pending flow to its node's `neighbor_idx`-th
    /// neighbour; `spec` is its ingress spec.
    fn apply_forward(&mut self, dp: DecisionPoint, key: FlowKey, spec: usize, neighbor_idx: usize) {
        let neighbors = self.config.topology.neighbors(dp.node);
        let Some(&(to, link)) = neighbors.get(neighbor_idx) else {
            // Non-existing neighbor: invalid action, flow dropped with a
            // high penalty (Sec. IV-B2).
            self.drop_flow(key, DropReason::InvalidAction, dp.node);
            return;
        };
        if !self.substrate.link_up[link.0] {
            // The chosen link is down: the forward fails on the spot.
            self.drop_flow(key, DropReason::LinkFailure, dp.node);
            return;
        }
        let (delay, capacity) = (self.link_delay(link), self.link_capacity(link));
        let used = self.link_used(link);
        let FlowProfile { rate, duration, .. } = self.config.ingresses[spec].profile;
        if used + rate > capacity + CAP_EPS {
            self.drop_flow(key, DropReason::LinkCapacity, dp.node);
            return;
        }
        if let Some(f) = self.flows.get_mut(key.0) {
            // `assert_compact` bounds the node and link ids.
            f.location = to.0 as u32;
            f.in_transit = link.0 as u32;
            self.in_transit[link.0] += 1;
        }
        self.substrate.link_used[link.0] += rate;
        self.emit(SimEvent::Forwarded {
            flow: dp.flow,
            from: dp.node,
            to,
            link,
            link_delay: delay,
            time: self.time,
        });
        // Rate-based occupancy: the link transmits the flow for δ_f; the
        // propagation delay d_l adds latency but not bandwidth usage.
        self.schedule(
            self.time + duration,
            QueuedEvent::ReleaseLink {
                link: link.0 as u32,
                amount: rate,
                epoch: self.substrate.link_epoch[link.0],
            },
        );
        self.schedule(self.time + delay, QueuedEvent::Decision { flow: key });
    }
}

/// The `/metrics` fold: adds this simulation's totals to the registry
/// exactly once, when it goes away, whether it reached its horizon or was
/// cut short (a reset training environment, a cancelled serving run).
impl Drop for Simulation {
    fn drop(&mut self) {
        use dosco_obs::registry::{count, set_gauge};
        use dosco_obs::{CounterKind, GaugeKind};
        let m = &self.metrics;
        for reason in DropReason::ALL {
            let kind = match reason {
                DropReason::NodeCapacity => CounterKind::DropNodeCapacity,
                DropReason::LinkCapacity => CounterKind::DropLinkCapacity,
                DropReason::DeadlineExpired => CounterKind::DropDeadlineExpired,
                DropReason::InvalidAction => CounterKind::DropInvalidAction,
                DropReason::LinkFailure => CounterKind::DropLinkFailure,
                DropReason::NodeFailure => CounterKind::DropNodeFailure,
            };
            count(kind, m.dropped_for(reason));
        }
        if let Some(r) = m.success_ratio_opt() {
            set_gauge(GaugeKind::LastSuccessRatio, r);
        }
        set_gauge(GaugeKind::LastInFlight, m.in_flight() as f64);
        if let Some(run) = &self.churn {
            let s = &run.stats;
            count(CounterKind::ChurnEventsApplied, s.events_applied);
            count(CounterKind::ChurnSpRecomputes, s.sp_recomputes);
            count(
                CounterKind::ChurnFlowsKilled,
                s.flows_killed_link + s.flows_killed_node,
            );
            count(CounterKind::ChurnInstancesLost, s.instances_lost);
            set_gauge(GaugeKind::TopoVersion, self.substrate.version as f64);
            if let Some(r) = run.window.success_ratio() {
                set_gauge(GaugeKind::WindowedSuccessRatio, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IngressSpec;
    use crate::coordinator::{AlwaysLocal, RandomCoordinator};
    use crate::service::{Component, Service, ServiceCatalog, ServiceId};
    use dosco_topology::generators;
    use dosco_traffic::{ArrivalPattern, FlowProfile};

    /// A live flow costs one 40-byte slab slot and a queued event one
    /// 32-byte queue slot: a new field must not quietly grow either back.
    #[test]
    fn flow_and_event_slots_stay_compact() {
        let (flow_slot, queue_slot) = (
            Slab::<FlowRecord>::SLOT_BYTES,
            EventQueue::<QueuedEvent>::SLOT_BYTES,
        );
        assert!(flow_slot <= 40, "a flow slot takes {flow_slot} bytes");
        assert!(queue_slot <= 32, "a queue slot takes {queue_slot} bytes");
    }

    /// The view `flow` builds from a record is the flow its ingress spec
    /// and the catalog define, at every decision of an episode with two
    /// services of different lengths, three ingresses that differ in
    /// every constant, and random forwarding.
    #[test]
    fn flow_views_carry_their_specs_constants() {
        let mut cfg = ScenarioConfig::paper_base(3).with_horizon(3_000.0);
        cfg.catalog = ServiceCatalog::new(
            ["FW", "IDS", "Video"]
                .map(Component::paper_default)
                .to_vec(),
            vec![
                Service {
                    name: "video".into(),
                    chain: vec![ComponentId(0), ComponentId(1), ComponentId(2)],
                },
                Service {
                    name: "short".into(),
                    chain: vec![ComponentId(2), ComponentId(0)],
                },
            ],
        )
        .unwrap();
        let egresses = [NodeId(7), NodeId(2), NodeId(9)];
        for (i, spec) in cfg.ingresses.iter_mut().enumerate() {
            spec.service = ServiceId(i % 2);
            spec.egress = egresses[i];
            let i = i as f64;
            spec.profile = FlowProfile::new(0.5 + i / 4.0, 1.0 + i, 60.0 + 7.0 * i);
        }
        let specs = cfg.ingresses.clone();
        let mut sim = Simulation::new(cfg, 4);
        let mut rc = RandomCoordinator::new(8);
        let mut arrived = std::collections::HashMap::new();
        let (mut events, mut checked) = (Vec::new(), [0; 3]);
        while let Some(dp) = sim.next_decision() {
            sim.drain_events_into(&mut events);
            for ev in &events {
                if let SimEvent::FlowArrived { flow, node, time } = *ev {
                    arrived.insert(flow, (node, time));
                }
            }
            let f = sim.flow(dp.flow).expect("the pending flow is live");
            let (ingress, arrival) = arrived[&dp.flow];
            let i = specs.iter().position(|s| s.node == ingress).unwrap();
            let spec = &specs[i];
            assert_eq!(
                (f.id, f.service, f.ingress, f.egress, f.arrival, f.location),
                (
                    dp.flow,
                    spec.service,
                    spec.node,
                    spec.egress,
                    arrival,
                    dp.node
                )
            );
            let bits = |x: f64| x.to_bits();
            assert_eq!(bits(f.rate), bits(spec.profile.rate));
            assert_eq!(bits(f.duration), bits(spec.profile.duration));
            assert_eq!(bits(f.deadline), bits(spec.profile.deadline));
            assert_eq!(
                f.chain_len,
                sim.config().catalog.service(spec.service).len()
            );
            assert!(f.chain_pos <= f.chain_len && f.in_transit.is_none());
            assert_eq!(
                sim.config().catalog.component_at(f.service, f.chain_pos),
                dp.component
            );
            checked[i] += 1;
            let a = rc.decide(&sim, &dp);
            sim.apply(a);
        }
        assert!(checked.iter().all(|&c| c > 100), "{checked:?}");
    }

    /// A simulation moves between threads.
    #[test]
    fn simulation_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
    }

    /// A 3-node line (0 - 1 - 2) with one single-component service; ingress
    /// at 0, egress at 2, ample capacities, link delay 1 ms.
    fn line_scenario() -> ScenarioConfig {
        let mut topology = generators::line(3, 1.0, 10.0);
        topology.scale_capacities(10.0, 1.0);
        let catalog = ServiceCatalog::new(
            vec![Component {
                name: "c0".into(),
                processing_delay: 2.0,
                resource_per_rate: 1.0,
                resource_fixed: 0.0,
                startup_delay: 0.0,
                idle_timeout: 5.0,
            }],
            vec![Service {
                name: "s0".into(),
                chain: vec![ComponentId(0)],
            }],
        )
        .unwrap();
        ScenarioConfig {
            topology,
            catalog,
            ingresses: vec![IngressSpec {
                node: NodeId(0),
                pattern: ArrivalPattern::Fixed { interval: 10.0 },
                service: ServiceId(0),
                egress: NodeId(2),
                profile: FlowProfile::new(1.0, 1.0, 50.0),
            }],
            horizon: 100.0,
            hold_delay: 1.0,
            capacity_seed: 0,
        }
    }

    /// Coordinator for the line: process at the ingress, then forward
    /// toward node 2 (neighbor index: node 0 has [1]; node 1 has [0, 2]).
    struct LineForward;

    impl Coordinator for LineForward {
        fn decide(&mut self, _sim: &Simulation, dp: &DecisionPoint) -> Action {
            if dp.component.is_some() {
                Action::Local
            } else if dp.node == NodeId(0) {
                Action::Forward(0)
            } else {
                // At node 1 the second neighbor (index 1) is node 2.
                Action::Forward(1)
            }
        }
    }

    #[test]
    fn flows_complete_on_line() {
        let mut sim = Simulation::new(line_scenario(), 1);
        let m = sim.run(&mut LineForward).clone();
        // Arrivals at t = 10, 20, ..., 100 -> 10 flows. Each needs
        // 2 ms processing + 2 hops x 1 ms = 4 ms e2e, so the flow arriving
        // exactly at the horizon (t=100) is still in flight at the end.
        assert_eq!(m.arrived, 10);
        assert_eq!(m.completed, 9);
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.dropped_total(), 0);
        assert_eq!(m.success_ratio(), 1.0);
        let avg = m.avg_e2e_delay().unwrap();
        assert!((avg - 4.0).abs() < 1e-9, "avg e2e {avg}");
    }

    #[test]
    fn always_local_expires_flows() {
        let mut cfg = line_scenario();
        cfg.horizon = 200.0;
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut AlwaysLocal).clone();
        // Flows are processed at node 0 then held until the 50 ms deadline.
        assert!(m.completed == 0);
        assert!(m.dropped_for(DropReason::DeadlineExpired) > 0);
        assert!(m.holds > 0);
        assert!(m.success_ratio() < 1.0);
    }

    #[test]
    fn node_capacity_drops() {
        let mut cfg = line_scenario();
        // Capacity 1 with rate-1 flows: a second concurrent processing
        // at node 0 must be rejected.
        cfg.topology.scale_capacities(1.0 / 10.0, 1.0);
        // Burst: two ingress specs both arriving at node 0 every 10 ms.
        cfg.ingresses.push(cfg.ingresses[0].clone());
        cfg.horizon = 15.0;
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut LineForward).clone();
        // Both flows arrive at t=10; the first processes (uses full cap 1),
        // the second must be dropped by the node-capacity check.
        assert_eq!(m.arrived, 2);
        assert_eq!(m.dropped_for(DropReason::NodeCapacity), 1);
    }

    #[test]
    fn link_capacity_drops() {
        let mut cfg = line_scenario();
        // Link capacity 1: two overlapping flows cannot share a link.
        for l in 0..cfg.topology.num_links() {
            assert_eq!(cfg.topology.link(LinkId(l)).capacity, 10.0);
        }
        cfg.topology.scale_capacities(1.0, 0.1);
        cfg.ingresses.push(cfg.ingresses[0].clone());
        cfg.horizon = 15.0;
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut LineForward).clone();
        // Both flows process in parallel (node cap is ample), finish at the
        // same instant, and both try link 0->1: the second is dropped.
        assert_eq!(m.arrived, 2);
        assert_eq!(m.dropped_for(DropReason::LinkCapacity), 1);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn invalid_action_drops() {
        struct Invalid;
        impl Coordinator for Invalid {
            fn decide(&mut self, _sim: &Simulation, _dp: &DecisionPoint) -> Action {
                Action::Forward(7) // node 0 has one neighbor: invalid
            }
        }
        let mut cfg = line_scenario();
        cfg.horizon = 15.0;
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut Invalid).clone();
        assert_eq!(m.arrived, 1);
        assert_eq!(m.dropped_for(DropReason::InvalidAction), 1);
    }

    #[test]
    fn flow_conservation() {
        // Under a random policy every arrived flow either completes, drops,
        // or is still in flight; never duplicated or lost.
        let cfg = ScenarioConfig::paper_base(3).with_horizon(2_000.0);
        let mut sim = Simulation::new(cfg, 3);
        let mut rc = RandomCoordinator::new(4);
        let m = sim.run(&mut rc).clone();
        assert!(m.arrived > 100);
        assert_eq!(
            m.arrived,
            m.completed + m.dropped_total() + sim.live_flows() as u64
        );
    }

    #[test]
    fn resources_return_to_zero_after_quiescence() {
        let mut cfg = line_scenario();
        cfg.horizon = 500.0;
        // One flow only.
        cfg.ingresses[0].pattern = ArrivalPattern::Fixed { interval: 400.0 };
        let mut sim = Simulation::new(cfg, 1);
        sim.run(&mut LineForward);
        for v in sim.topology().node_ids() {
            assert!(sim.node_used(v).abs() < 1e-9);
        }
        for l in sim.topology().link_ids() {
            assert!(sim.link_used(l).abs() < 1e-9);
        }
    }

    /// A flow dropped *after* `apply_local` already scheduled its
    /// `ReleaseNode` must still release exactly its reserved demand at the
    /// scheduled time — neither leaking the reservation (drop cancels
    /// nothing) nor releasing twice.
    #[test]
    fn dropped_flow_releases_reserved_node_capacity_exactly_once() {
        /// Processes every flow at node 0 and records the node's usage at
        /// each fresh (component-bearing) decision point.
        struct Probe {
            samples: Vec<(f64, f64)>,
        }
        impl Coordinator for Probe {
            fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
                if dp.component.is_some() {
                    self.samples.push((dp.time, sim.node_used(NodeId(0))));
                }
                Action::Local
            }
        }

        let mut cfg = line_scenario();
        cfg.topology.scale_capacities(2.0 / 10.0, 1.0); // node capacity 2.0
                                                        // Flow A: arrives t=10, reserves 1.0 until t=15 (duration 5), but
                                                        // its 1.5 ms deadline expires at the post-processing decision
                                                        // (t=12) -> dropped with the release still queued for t=15.
        cfg.ingresses[0].profile = FlowProfile::new(1.0, 5.0, 1.5);
        // Flow B: arrives t=10 too, reserves 1.0 until t=20 -> at t=17 the
        // node must hold exactly B's demand.
        cfg.ingresses.push(IngressSpec {
            profile: FlowProfile::new(1.0, 10.0, 50.0),
            ..cfg.ingresses[0].clone()
        });
        // Observer flow C: its arrival decision at t=17 samples the node.
        cfg.ingresses.push(IngressSpec {
            pattern: ArrivalPattern::Fixed { interval: 17.0 },
            profile: FlowProfile::new(1.0, 10.0, 50.0),
            ..cfg.ingresses[0].clone()
        });
        cfg.horizon = 19.0;
        let mut sim = Simulation::new(cfg, 1);
        let mut probe = Probe {
            samples: Vec::new(),
        };
        let m = sim.run(&mut probe).clone();

        assert_eq!(m.arrived, 3);
        assert_eq!(m.dropped_for(DropReason::DeadlineExpired), 1, "flow A");
        let at_17: Vec<f64> = probe
            .samples
            .iter()
            .filter(|(t, _)| *t == 17.0)
            .map(|&(_, used)| used)
            .collect();
        // 2.0 here would mean A's reservation leaked (drop cancelled the
        // release); 0.0 would mean it was released twice (B's share lost).
        assert_eq!(at_17, vec![1.0], "node 0 usage at t=17");
    }

    #[test]
    fn instance_lifecycle_with_timeout() {
        let mut cfg = line_scenario();
        cfg.horizon = 300.0;
        cfg.ingresses[0].pattern = ArrivalPattern::Fixed { interval: 250.0 };
        let mut sim = Simulation::new(cfg, 1);
        sim.run(&mut LineForward);
        let m = sim.metrics();
        // One flow -> one instance started at node 0; idle timeout 5 ms
        // passes long before the horizon -> instance stopped.
        assert_eq!(m.instances_started, 1);
        assert_eq!(m.instances_stopped, 1);
        assert_eq!(sim.num_instances(), 0);
    }

    #[test]
    fn startup_delay_defers_processing() {
        let mut cfg = line_scenario();
        let mut comp = cfg.catalog.components()[0].clone();
        comp.startup_delay = 3.0;
        // Keep the instance warm across the 10 ms inter-arrival gap.
        comp.idle_timeout = 15.0;
        cfg.catalog = ServiceCatalog::new(
            vec![comp],
            vec![Service {
                name: "s0".into(),
                chain: vec![ComponentId(0)],
            }],
        )
        .unwrap();
        cfg.horizon = 30.0;
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut LineForward).clone();
        // Arrivals at t = 10, 20, 30; the last is still in flight.
        assert_eq!(m.completed, 2);
        // First flow pays the 3 ms startup: 3 + 2 + 2 = 7 ms; the second
        // reuses the warm instance: 2 + 2 = 4 ms.
        assert!((m.avg_e2e_delay().unwrap() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn deadline_enforced_end_to_end() {
        let mut cfg = line_scenario();
        cfg.ingresses[0].profile = FlowProfile::new(1.0, 1.0, 3.0); // < 4 ms needed
        cfg.horizon = 50.0;
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut LineForward).clone();
        assert_eq!(m.completed, 0);
        assert!(m.dropped_for(DropReason::DeadlineExpired) > 0);
    }

    #[test]
    fn step_api_matches_run_api() {
        let run_metrics = {
            let mut sim = Simulation::new(line_scenario(), 1);
            sim.run(&mut LineForward).clone()
        };
        let mut sim = Simulation::new(line_scenario(), 1);
        let mut c = LineForward;
        while let Some(dp) = sim.next_decision() {
            // next_decision is idempotent until apply.
            assert_eq!(sim.next_decision(), Some(dp));
            let a = c.decide(&sim, &dp);
            sim.apply(a);
        }
        assert_eq!(sim.metrics(), &run_metrics);
        assert_eq!(sim.next_decision(), None, "the horizon is final");
    }

    #[test]
    #[should_panic(expected = "pending decision")]
    fn apply_without_decision_panics() {
        let mut sim = Simulation::new(line_scenario(), 1);
        sim.apply(Action::Local);
    }

    /// Wraps a coordinator and records every event `run` reports.
    struct Recording<C> {
        inner: C,
        events: Vec<SimEvent>,
    }

    impl<C: Coordinator> Coordinator for Recording<C> {
        fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
            self.inner.decide(sim, dp)
        }
        fn observe(&mut self, _sim: &Simulation, events: &[SimEvent]) {
            self.events.extend_from_slice(events);
        }
    }

    #[test]
    fn events_cover_flow_lifecycle() {
        let mut sim = Simulation::new(line_scenario(), 1);
        let mut rec = Recording {
            inner: LineForward,
            events: Vec::new(),
        };
        sim.run(&mut rec);
        let events = rec.events;
        let arrived = events
            .iter()
            .filter(|e| matches!(e, SimEvent::FlowArrived { .. }))
            .count();
        let completed = events
            .iter()
            .filter(|e| matches!(e, SimEvent::FlowCompleted { .. }))
            .count();
        let traversed = events
            .iter()
            .filter(|e| matches!(e, SimEvent::InstanceTraversed { .. }))
            .count();
        let forwarded = events
            .iter()
            .filter(|e| matches!(e, SimEvent::Forwarded { .. }))
            .count();
        assert_eq!(arrived, 10);
        assert_eq!(completed, 9); // the t=100 arrival is in flight
        assert_eq!(traversed, 9); // one component each
        assert_eq!(forwarded, 18); // two hops each
        assert!(sim.events.is_empty(), "`run` drained everything");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let cfg = ScenarioConfig::paper_base(2)
                .with_pattern(ArrivalPattern::paper_poisson())
                .with_horizon(1_000.0);
            let mut sim = Simulation::new(cfg, seed);
            let mut rc = RandomCoordinator::new(99);
            sim.run(&mut rc).clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    // ------------------------------------------------------------------
    // Substrate churn.
    // ------------------------------------------------------------------

    #[test]
    fn empty_timeline_is_identical_to_plain_new() {
        let cfg = || ScenarioConfig::paper_base(2).with_horizon(1_000.0);
        let run = |sim: &mut Simulation| {
            let mut rec = Recording {
                inner: RandomCoordinator::new(7),
                events: Vec::new(),
            };
            let m = sim.run(&mut rec).clone();
            (m, rec.events)
        };
        let mut plain = Simulation::new(cfg(), 11);
        let mut churned = Simulation::with_churn(cfg(), 11, ChurnTimeline::none());
        assert!(churned.churn_stats().is_none());
        assert_eq!(churned.topo_version(), 0);
        assert_eq!(run(&mut plain), run(&mut churned));
    }

    #[test]
    fn link_down_kills_in_transit_flow() {
        // LineForward: arrival t=10, processed by t=12, forwarded onto
        // link 0 at t=12 (in transit until t=13). Cut the link at t=12.5.
        let mut cfg = line_scenario();
        cfg.horizon = 15.0;
        let timeline = ChurnTimeline::none().at(12.5, ChurnAction::LinkDown(LinkId(0)));
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        assert_eq!(m.arrived, 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.dropped_for(DropReason::LinkFailure), 1);
        assert_eq!(sim.link_used(LinkId(0)), 0.0, "reservation reclaimed");
        assert!(!sim.is_link_up(LinkId(0)));
        let stats = sim.churn_stats().unwrap();
        assert_eq!(stats.link_downs, 1);
        assert_eq!(stats.flows_killed_link, 1);
        assert_eq!(stats.events_applied, 1);
        assert_eq!(stats.sp_recomputes, 1);
        assert_eq!(sim.topo_version(), 1);
    }

    #[test]
    fn deliver_policy_spares_in_transit_flows() {
        let mut cfg = line_scenario();
        cfg.horizon = 15.0;
        let timeline = ChurnTimeline::none()
            .at(12.5, ChurnAction::LinkDown(LinkId(0)))
            .with_transit(TransitPolicy::Deliver);
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        // The failure strikes after the in-flight stream clears: the flow
        // still reaches node 1 at t=13 and completes via link 1.
        assert_eq!(m.completed, 1);
        assert_eq!(m.dropped_total(), 0);
        assert_eq!(sim.churn_stats().unwrap().flows_killed_link, 0);
    }

    #[test]
    fn forward_onto_dead_link_drops_at_the_node() {
        let mut cfg = line_scenario();
        cfg.horizon = 15.0;
        // Link 0 is already down when the flow tries to leave node 0.
        let timeline = ChurnTimeline::none().at(5.0, ChurnAction::LinkDown(LinkId(0)));
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        assert_eq!(m.dropped_for(DropReason::LinkFailure), 1);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn node_down_kills_flows_and_instances() {
        let mut cfg = line_scenario();
        cfg.horizon = 25.0;
        let timeline = ChurnTimeline::none().at(11.0, ChurnAction::NodeDown(NodeId(0)));
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        // Flow 1 (t=10) is processing at node 0 when it dies at t=11;
        // flow 2 (t=20) arrives at the dead ingress and dies on entry.
        assert_eq!(m.arrived, 2);
        assert_eq!(m.dropped_for(DropReason::NodeFailure), 2);
        assert_eq!(m.completed, 0);
        assert_eq!(sim.node_used(NodeId(0)), 0.0, "capacity reclaimed");
        assert_eq!(sim.num_instances(), 0);
        // The lost instance counts as stopped: conservation holds.
        assert_eq!(m.instances_started, 1);
        assert_eq!(m.instances_stopped, 1);
        let stats = sim.churn_stats().unwrap();
        assert_eq!(stats.flows_killed_node, 2);
        assert_eq!(stats.instances_lost, 1);
        assert!(!sim.is_node_up(NodeId(0)));
    }

    #[test]
    fn repair_restores_service() {
        let mut cfg = line_scenario();
        cfg.horizon = 25.0;
        let timeline = ChurnTimeline::none()
            .at(5.0, ChurnAction::NodeDown(NodeId(0)))
            .at(15.0, ChurnAction::NodeUp(NodeId(0)));
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        // Flow 1 (t=10) dies at the dead ingress; flow 2 (t=20) completes
        // on the repaired substrate.
        assert_eq!(m.dropped_for(DropReason::NodeFailure), 1);
        assert_eq!(m.completed, 1);
        assert!(sim.is_node_up(NodeId(0)));
        assert_eq!(sim.node_capacity(NodeId(0)), 10.0, "nominal restored");
        let window = &sim.churn.as_ref().expect("timeline installed").window;
        assert_eq!(window.success_ratio(), Some(0.5));
    }

    #[test]
    fn degrades_enforce_effective_capacity() {
        // Link degraded to zero capacity: the forward fails the admission
        // check (LinkCapacity, not LinkFailure — the link is up).
        let mut cfg = line_scenario();
        cfg.horizon = 15.0;
        let timeline = ChurnTimeline::none().at(
            5.0,
            ChurnAction::DegradeLinkCapacity {
                link: LinkId(0),
                factor: 0.0,
            },
        );
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        assert_eq!(m.dropped_for(DropReason::LinkCapacity), 1);
        assert_eq!(sim.link_capacity(LinkId(0)), 0.0);
        assert!(sim.is_link_up(LinkId(0)));
        assert_eq!(sim.churn_stats().unwrap().sp_recomputes, 0, "capacity-only");

        // Node degraded below the flow demand: NodeCapacity drop.
        let mut cfg = line_scenario();
        cfg.horizon = 15.0;
        let timeline = ChurnTimeline::none().at(
            5.0,
            ChurnAction::DegradeNodeCapacity {
                node: NodeId(0),
                factor: 0.05,
            },
        );
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        assert_eq!(m.dropped_for(DropReason::NodeCapacity), 1);
        assert!((sim.node_capacity(NodeId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delay_spike_updates_paths_and_forwarding() {
        let mut cfg = line_scenario();
        cfg.horizon = 20.0;
        let timeline = ChurnTimeline::none().at(
            1.0,
            ChurnAction::DelaySpike {
                link: LinkId(0),
                factor: 5.0,
            },
        );
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let m = sim.run(&mut LineForward).clone();
        assert_eq!(sim.link_delay(LinkId(0)), 5.0);
        // Shortest paths were recomputed with the spiked delay.
        assert_eq!(sim.shortest_paths().delay(NodeId(0), NodeId(2)), 6.0);
        // e2e = 2 ms processing + 5 ms spiked hop + 1 ms second hop.
        assert_eq!(m.completed, 1);
        assert!((m.avg_e2e_delay().unwrap() - 8.0).abs() < 1e-9);
        assert_eq!(sim.churn_stats().unwrap().sp_recomputes, 1);
    }

    /// A resource release scheduled *before* a fault must not fire after
    /// the fault reclaimed that capacity wholesale (the epoch guard):
    /// otherwise a post-repair reservation would be silently released.
    #[test]
    fn stale_release_is_skipped_across_a_down_up_cycle() {
        struct Probe {
            samples: Vec<(f64, f64)>,
        }
        impl Coordinator for Probe {
            fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
                if dp.component.is_some() {
                    self.samples.push((dp.time, sim.node_used(NodeId(0))));
                }
                Action::Local
            }
        }

        let mut cfg = line_scenario();
        cfg.topology.scale_capacities(2.0 / 10.0, 1.0); // node capacity 2.0
                                                        // Flow A: arrives t=10, reserves 1.0 with release queued for t=15.
        cfg.ingresses[0].profile = FlowProfile::new(1.0, 5.0, 50.0);
        // Flow B: arrives t=13 (after the repair), reserves 1.0 until t=23.
        cfg.ingresses.push(IngressSpec {
            pattern: ArrivalPattern::Fixed { interval: 13.0 },
            profile: FlowProfile::new(1.0, 10.0, 50.0),
            ..cfg.ingresses[0].clone()
        });
        // Observer flow C: its arrival decision at t=17 samples the node.
        cfg.ingresses.push(IngressSpec {
            pattern: ArrivalPattern::Fixed { interval: 17.0 },
            profile: FlowProfile::new(1.0, 10.0, 50.0),
            ..cfg.ingresses[0].clone()
        });
        cfg.horizon = 19.0;
        // Node 0 fails at t=11 (killing A, reclaiming its reservation) and
        // is repaired at t=12.
        let timeline = ChurnTimeline::none()
            .at(11.0, ChurnAction::NodeDown(NodeId(0)))
            .at(12.0, ChurnAction::NodeUp(NodeId(0)));
        let mut sim = Simulation::with_churn(cfg, 1, timeline);
        let mut probe = Probe {
            samples: Vec::new(),
        };
        let m = sim.run(&mut probe).clone();

        assert_eq!(m.dropped_for(DropReason::NodeFailure), 1, "flow A");
        let at_17: Vec<f64> = probe
            .samples
            .iter()
            .filter(|(t, _)| *t == 17.0)
            .map(|&(_, used)| used)
            .collect();
        // 0.0 here would mean A's stale release (queued for t=15, epoch 0)
        // fired after the fault already reclaimed its reservation —
        // stealing B's live share.
        assert_eq!(at_17, vec![1.0], "node 0 usage at t=17");
    }

    /// The law `schedule` asserts, seen from the queue: nothing the
    /// simulator pushes lands below the queue's last minimum, where the
    /// queue panics, so both episodes run to their horizon in release
    /// builds too.
    #[test]
    fn episodes_make_no_late_push() {
        use rand::{Rng, SeedableRng};
        // The paper's base scenario on Abilene, full horizon.
        let mut sim = Simulation::new(ScenarioConfig::paper_base(5), 3);
        let decisions = sim.run(&mut RandomCoordinator::new(1)).decisions;
        assert!(decisions > 10_000, "{decisions} decisions");

        // A 10×10 grid, Poisson arrivals at every node, under stochastic
        // link churn: each link alternates exponential up and down times,
        // as `dosco_chaos::StochasticChurn` (which depends on this crate)
        // draws them.
        let mut cfg = line_scenario();
        cfg.topology = generators::grid(10, 10, 1.0, 10.0);
        cfg.topology.scale_capacities(10.0, 1.0);
        let n = cfg.topology.num_nodes();
        cfg.ingresses = (0..n)
            .map(|v| IngressSpec {
                node: NodeId(v),
                pattern: ArrivalPattern::Poisson { mean: 5.0 },
                egress: NodeId((v + 2) % n),
                ..cfg.ingresses[0].clone()
            })
            .collect();
        cfg.horizon = 400.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut exp = |mean: f64| -mean * (1.0 - rng.gen::<f64>()).ln();
        let mut entries = Vec::new();
        for l in 0..cfg.topology.num_links() {
            let mut t = exp(300.0);
            while t < cfg.horizon {
                entries.push((t, ChurnAction::LinkDown(LinkId(l))));
                t += exp(40.0);
                entries.push((t, ChurnAction::LinkUp(LinkId(l))));
                t += exp(300.0);
            }
        }
        let mut sim = Simulation::with_churn(cfg, 4, ChurnTimeline::new(entries));
        let m = sim.run(&mut RandomCoordinator::new(2)).clone();
        let churn = sim.churn_stats().unwrap();
        assert!(m.decisions > 10_000 && churn.events_applied > 100);
        assert!(m.dropped_for(DropReason::LinkFailure) > 0);
    }

    #[test]
    fn churn_run_is_deterministic_and_conserves_flows() {
        let timeline = || {
            ChurnTimeline::new(vec![
                (150.0, ChurnAction::LinkDown(LinkId(3))),
                (220.0, ChurnAction::NodeDown(NodeId(5))),
                (300.0, ChurnAction::LinkUp(LinkId(3))),
                (
                    380.0,
                    ChurnAction::DegradeNodeCapacity {
                        node: NodeId(2),
                        factor: 0.3,
                    },
                ),
                (420.0, ChurnAction::NodeUp(NodeId(5))),
                (
                    500.0,
                    ChurnAction::DelaySpike {
                        link: LinkId(1),
                        factor: 4.0,
                    },
                ),
            ])
        };
        let run = || {
            let cfg = ScenarioConfig::paper_base(3).with_horizon(1_500.0);
            let mut sim = Simulation::with_churn(cfg, 9, timeline());
            let mut rc = RandomCoordinator::new(4);
            let m = sim.run(&mut rc).clone();
            let stats = *sim.churn_stats().unwrap();
            // Flow conservation through every fault and repair.
            assert_eq!(
                m.arrived,
                m.completed + m.dropped_total() + sim.live_flows() as u64
            );
            // Instance conservation: lost instances count as stopped.
            let placed = sim.instances.iter().flatten().count();
            assert_eq!(m.instances_started, m.instances_stopped + placed as u64);
            assert_eq!(sim.num_instances(), placed);
            (m, stats)
        };
        let (m1, s1) = run();
        let (m2, s2) = run();
        assert_eq!(m1, m2, "same seed + same timeline ⇒ exact-equal metrics");
        assert_eq!(s1, s2);
        assert_eq!(s1.events_applied, 6);
        assert_eq!(s1.sp_recomputes, 5, "degrade does not recompute");
        assert!(m1.arrived > 100);
    }
}
