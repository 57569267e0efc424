//! Serve-plane socket equivalence: the true multi-process deployment (a
//! `FrontendServer` plus separately-dialing shard workers, every request,
//! flush barrier and response framed, checksummed and serialized through
//! the binary codec) produces *exactly* the same `Metrics` and decision
//! accounting as the in-process fabric.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_net::{encode_msg, write_frame, NetConfig, NetError};
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{run_remote_shard, serve, FaultScript, FrontendServer, ServeConfig, ShardInit};
use dosco_simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;

fn policy(degree: usize) -> CoordinationPolicy {
    let mut rng = StdRng::seed_from_u64(11);
    let actor = Mlp::new(
        &[4 * degree + 4, 24, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
}

fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_base(2).with_horizon(300.0)
}

/// The full multi-process deployment: a frontend server accepting shard
/// connections, shard workers dialing in and reading their `ShardInit`
/// frame — run here on threads exercising the exact code path a real
/// shard process runs. Greedy and stochastic, two and three shards,
/// all exact: request ids, batch order and per-node draws all survive
/// serialization.
#[test]
fn remote_shard_deployment_matches_in_process() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());

    for (cfg, seeds) in [
        (ServeConfig::new(2), &[3u64, 7, 13][..]),
        (ServeConfig::new(2).with_stochastic_seed(9), &[3, 7, 13]),
        (ServeConfig::new(3), &[3, 7, 13]),
        (ServeConfig::new(2).with_stochastic_seed(7), &[5, 17]),
    ] {
        let in_proc = serve(&p, None, &scenario, seeds, &cfg);

        let server = FrontendServer::bind("127.0.0.1:0").expect("bind frontend");
        let addr = server.local_addr();
        let shards: Vec<_> = (0..cfg.num_shards)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    run_remote_shard(&addr, &NetConfig::default()).expect("shard run")
                })
            })
            .collect();

        let remote = server
            .serve(&p, None, &scenario, seeds, &cfg)
            .expect("remote serve");
        for s in shards {
            s.join().expect("shard thread");
        }

        assert_eq!(
            in_proc.metrics, remote.metrics,
            "metrics diverged across processes"
        );
        assert_eq!(
            in_proc.report, remote.report,
            "accounting diverged across processes"
        );
    }
}

/// Fault scripts are rejected up front for remote deployments: the
/// frontend cannot respawn a shard process, so it refuses rather than
/// silently degrading.
#[test]
fn remote_serve_rejects_fault_scripts() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());
    let cfg = ServeConfig::new(2).with_faults(FaultScript::new().kill(0, 1, 2));

    let server = FrontendServer::bind("127.0.0.1:0").expect("bind frontend");
    let err = server
        .serve(&p, None, &scenario, &[3], &cfg)
        .expect_err("fault script must be rejected");
    assert!(
        err.to_string().contains("fault injection"),
        "unexpected error: {err}"
    );
}

/// A `ShardInit` that describes no partition — zero shards (under
/// stochastic serving, where the shard derives its RNG streams from the
/// partition), zero nodes, an index outside the shard count — is a
/// protocol error for the shard, never a panic.
#[test]
fn shard_init_without_a_partition_is_a_protocol_error() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());
    for (index, num_shards, num_nodes) in [(0, 0, 11), (0, 2, 0), (2, 2, 11)] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake frontend");
        let addr = listener.local_addr().expect("listener address").to_string();
        let shard = std::thread::spawn(move || run_remote_shard(&addr, &NetConfig::default()));
        let (mut stream, _) = listener.accept().expect("shard dials in");
        let init = ShardInit {
            index,
            num_shards,
            num_nodes,
            stochastic_seed: Some(1),
            policy: p.clone(),
            version: 0,
        };
        write_frame(&mut stream, &encode_msg(&init)).expect("send ShardInit");
        drop(stream);
        let err = shard
            .join()
            .expect("the shard returns instead of panicking")
            .expect_err("no partition to serve");
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }
}
