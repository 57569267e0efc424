//! Standalone measurements of single public calls, on inputs taken from
//! the workload. Each is the fastest of [`BATCHES`] batch means — the
//! same reasoning as the quiet decile, at probe scale.

use crate::harness::Layers;
use dosco_core::CoordinationPolicy;
use dosco_net::{BoxRx, BoxTx, Transport};
use dosco_nn::{Matrix, Mlp};
use dosco_simnet::EventQueue;
use dosco_topology::paths::ShortestPaths;
use dosco_topology::Topology;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches per probe.
const BATCHES: usize = 5;

/// Seconds per call of `f`: the fastest of [`BATCHES`] means over
/// `iters` calls.
pub fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Wall time of `f(true)` ÷ wall time of `f(false)`: three rounds run back
/// to back, so that a slow spell of the host hits both sides, the fastest
/// of each.
pub fn back_to_back_ratio(mut f: impl FnMut(bool)) -> f64 {
    let mut fastest = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (side, best) in [true, false].into_iter().zip(&mut fastest) {
            let start = Instant::now();
            f(side);
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    fastest[0] / fastest[1]
}

/// `topology.paths_compute_us`: all-pairs shortest paths from cold.
pub fn paths_compute(layers: &mut Layers, topology: &Topology) {
    let iters = (20_000 / (topology.num_nodes() * topology.num_nodes())).max(3);
    let s = best_of(iters, || ShortestPaths::compute(black_box(topology)));
    layers.record("topology.paths_compute_us", s * 1e6);
}

/// Stacks `rows` recorded observations (cycling) into a batch.
fn batch(observations: &[Vec<f32>], rows: usize) -> Matrix {
    let refs: Vec<&[f32]> = (0..rows)
        .map(|r| observations[r % observations.len()].as_slice())
        .collect();
    Matrix::from_rows(&refs)
}

/// `nn.forward_b<rows>_us` on recorded observations, plus the computed
/// `nn.forward_flops` of one row.
pub fn forward(layers: &mut Layers, net: &Mlp, observations: &[Vec<f32>], rows: &[usize]) {
    for &b in rows {
        let x = batch(observations, b);
        let s = best_of(2_000 / b, || net.forward(black_box(&x)));
        let name = match b {
            1 => "nn.forward_b1_us",
            4 => "nn.forward_b4_us",
            16 => "nn.forward_b16_us",
            other => panic!("no per-layer metric for batch {other}"),
        };
        layers.record(name, s * 1e6);
    }
    let flops: usize = net
        .layers()
        .iter()
        .map(|l| 2 * l.inputs() * l.outputs())
        .sum();
    layers.record("nn.forward_flops", flops as f64);
}

/// `nn.fwd_bwd_b64_us`: cached forward plus backward at the training
/// batch size.
pub fn forward_backward(layers: &mut Layers, net: &Mlp, observations: &[Vec<f32>]) {
    let x = batch(observations, 64);
    let dout = Matrix::from_fn(64, net.outputs(), |r, c| ((r + c) % 7) as f32 * 0.01 - 0.03);
    let s = best_of(40, || {
        let cache = net.forward_cached(black_box(&x));
        net.backward(&cache, &dout)
    });
    layers.record("nn.fwd_bwd_b64_us", s * 1e6);
}

/// `core.policy_load_us`: `save` + `load` of a `dosco-policy-v1` file
/// under `dir`.
pub fn policy_load(layers: &mut Layers, policy: &CoordinationPolicy, dir: &Path) {
    std::fs::create_dir_all(dir).expect("create the benchmark's output directory");
    let path = dir.join(format!("policy-{}.json", std::process::id()));
    let s = best_of(3, || {
        policy.save(&path).expect("save policy");
        CoordinationPolicy::load(&path).expect("load policy")
    });
    let _ = std::fs::remove_file(&path);
    layers.record("core.policy_load_us", s * 1e6);
}

/// `simnet.queue_push_pop_ns`: one pop plus one push on an [`EventQueue`]
/// holding 100k events.
pub fn queue_push_pop(layers: &mut Layers, seed: u64) {
    const RESIDENT: usize = 100_000;
    const PAIRS: usize = 200_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..RESIDENT {
        q.push(rng.gen_range(0.0..1_000.0), i as u32);
    }
    let delays: Vec<f64> = (0..PAIRS).map(|_| rng.gen_range(0.0..1_000.0)).collect();
    let s = best_of(1, || {
        for &d in &delays {
            let (t, e) = q.pop().expect("queue stays at 100k");
            q.push(t + d, e);
        }
        q.len()
    });
    layers.record("simnet.queue_push_pop_ns", s * 1e9 / PAIRS as f64);
}

/// Round-trip time of a 16-float message over two channels of
/// `transport` (ping to an echo thread, pong back), in microseconds.
pub fn round_trip_us<Tr: Transport<Vec<f32>>>(transport: &Tr) -> f64 {
    const TRIPS: usize = 400;
    let (ping_tx, ping_rx): (BoxTx<Vec<f32>>, BoxRx<Vec<f32>>) = transport.channel(1);
    let (pong_tx, pong_rx): (BoxTx<Vec<f32>>, BoxRx<Vec<f32>>) = transport.channel(1);
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = ping_rx.recv() {
            if pong_tx.send(msg).is_err() {
                break;
            }
        }
    });
    let s = best_of(TRIPS, || {
        ping_tx.send(vec![0.5; 16]).expect("echo thread is alive");
        pong_rx.recv().expect("echo thread answers")
    });
    drop(ping_tx);
    echo.join().expect("echo thread exits cleanly");
    s * 1e6
}
