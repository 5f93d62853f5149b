//! Scatter-gather loopback integration: a coordinator fronting N
//! in-process `rkrd` shards must serve answers rank-identical to the
//! single-box dynamic search, across the same cache/merge-cadence matrix
//! the single-daemon loopback suite runs — including live graph updates
//! routed through the coordinator mid-traffic — and must degrade to
//! *sound* partial answers (never hangs, never wrong ranks) when a shard
//! is killed.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rkranks_coord::{spawn_coord, CoordConfig};
use rkranks_core::{BoundConfig, EngineContext, QueryRequest, RkrIndex};
use rkranks_datasets::workload::default_update_stream;
use rkranks_datasets::zipf::Zipf;
use rkranks_datasets::{collab_graph, CollabParams};
use rkranks_graph::{Graph, GraphStore, ShardMap};
use rkranks_server::{spawn, Client, ServerConfig, ServerHandle, UpdateOp};

const K: u32 = 5;
const K_MAX: u32 = 16;
const SHARDS: u32 = 3;
const SHARD_SEED: u64 = 0x5EED;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 40;

fn test_graph() -> Graph {
    collab_graph(&CollabParams::with_authors(150, 0xC0FFEE))
}

fn zipf_workload(n: u32, count: usize, seed: u64) -> Vec<u32> {
    let z = Zipf::new(n as usize, 1.2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (z.sample(&mut rng) - 1) as u32)
        .collect()
}

/// Ground truth: per-node ranks from the plain single-box dynamic search.
fn expected_ranks(g: &Graph) -> BTreeMap<u32, Vec<u32>> {
    let ctx = EngineContext::new(g);
    let mut scratch = ctx.new_scratch();
    g.nodes()
        .map(|q| {
            let r = ctx
                .execute(&mut scratch, &QueryRequest::new(q, K))
                .unwrap()
                .result;
            (q.0, r.ranks())
        })
        .collect()
}

/// Spawn the whole fleet: `SHARDS` shard daemons over replicas of `g`,
/// each owning its consistent-hash slice.
fn spawn_fleet(g: &Graph, cache_capacity: usize, merge_every: u64) -> Vec<ServerHandle> {
    let map = ShardMap::new(SHARDS, SHARD_SEED);
    (0..SHARDS)
        .map(|i| {
            spawn(
                g.clone(),
                None,
                RkrIndex::empty(g.num_nodes(), K_MAX),
                "127.0.0.1:0",
                ServerConfig {
                    workers: 2,
                    cache_capacity,
                    merge_every,
                    bounds: BoundConfig::ALL,
                    shard: Some(map.slice(i)),
                    ..Default::default()
                },
            )
            .expect("bind shard")
        })
        .collect()
}

fn shard_addrs(fleet: &[ServerHandle]) -> Vec<String> {
    fleet.iter().map(|h| h.addr().to_string()).collect()
}

/// The tentpole acceptance test: 4 concurrent Zipf clients against the
/// coordinator, across cache on/off × merge cadences, every answer
/// rank-identical to single-box `query_dynamic`.
#[test]
fn scatter_gather_matches_single_box_across_zipf_matrix() {
    let g = test_graph();
    let n = g.num_nodes();
    let expected = expected_ranks(&g);

    for (cache_capacity, merge_every) in [(0, 1), (0, 16), (1024, 1), (1024, 16)] {
        let fleet = spawn_fleet(&g, cache_capacity, merge_every);
        let coord = spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet)))
            .expect("bind coordinator");
        let addr = coord.addr();

        std::thread::scope(|s| {
            for client_id in 0..CLIENTS {
                let expected = &expected;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let workload = zipf_workload(n, QUERIES_PER_CLIENT, 0xBEEF ^ client_id as u64);
                    for (i, node) in workload.into_iter().enumerate() {
                        let reply = client.query(node, K).expect("query");
                        assert!(!reply.partial, "healthy fleet must answer complete");
                        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
                        assert_eq!(
                            &got, &expected[&node],
                            "cache={cache_capacity} merge_every={merge_every} \
                             client={client_id} i={i} node={node}: ranks diverged"
                        );
                    }
                });
            }
        });

        // The coordinator's own telemetry must show the fan-out working:
        // full-width fan-outs, per-shard latency, and a positive prune
        // rate (shards returned more candidates than survived the merge).
        let m = coord.metrics();
        let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
        assert_eq!(m.queries.get(), total);
        assert!(m.fanouts.get() >= total);
        for i in 0..SHARDS as usize {
            assert!(
                m.shard_seconds[i].count() >= total,
                "shard {i} latency histogram must record every fan-out"
            );
            assert_eq!(m.shard_errors[i].get(), 0);
        }
        let received = m.candidates_received.get();
        let returned = m.candidates_returned.get();
        assert!(
            received > returned,
            "the merge must prune (got {received} -> {returned})"
        );
        assert_eq!(m.partials.get(), 0);

        let ctl = Client::connect(addr).expect("connect ctl");
        ctl.shutdown().expect("coordinator shutdown");
        coord.join();
        for shard in fleet {
            let c = Client::connect(shard.addr()).expect("connect shard");
            c.shutdown().expect("shard shutdown");
            shard.join();
        }
    }
}

/// Live GraphDelta batches routed through the coordinator mid-traffic:
/// each phase's update batch commits on every shard before the reply
/// returns, and every subsequent query is rank-identical to an offline
/// replay of the same stream.
#[test]
fn live_updates_through_the_coordinator_stay_rank_identical() {
    const PHASE_OPS: usize = 8;
    const PHASES: usize = 3;

    let g = test_graph();
    let stream = default_update_stream(&g, PHASE_OPS * PHASES, 0xFEED);
    let mut store = GraphStore::new(g.clone());
    let mut expected = vec![expected_ranks(&g)];
    for batch in stream.chunks(PHASE_OPS) {
        let snap = store.apply(batch).expect("valid stream");
        expected.push(expected_ranks(&snap));
    }

    // merge_every=0: shards commit only on the coordinator's flushes, so
    // the write path under test is the coordinator's update+flush gate.
    let fleet = spawn_fleet(&g, 1024, 0);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let addr = coord.addr();
    let mut ctl = Client::connect(addr).expect("connect ctl");

    for (phase, batch) in std::iter::once(None)
        .chain(stream.chunks(PHASE_OPS).map(Some))
        .enumerate()
    {
        if let Some(batch) = batch {
            let ops: Vec<UpdateOp> = batch.iter().map(|&d| d.into()).collect();
            let (staged, pre_epoch) = ctl.update(&ops).expect("update through coordinator");
            assert_eq!(staged, ops.len() as u64);
            assert_eq!(pre_epoch, phase as u64 - 1, "staging reports the old epoch");
        }
        let n_phase = expected[phase].len() as u32;
        std::thread::scope(|s| {
            for client_id in 0..CLIENTS {
                let expected = &expected[phase];
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let workload = zipf_workload(n_phase, 20, 0xFADE ^ client_id as u64);
                    for node in workload {
                        let reply = client.query(node, K).expect("query");
                        assert!(!reply.partial);
                        assert_eq!(
                            reply.graph_epoch, phase as u64,
                            "coordinator writes commit before the reply returns"
                        );
                        let got: Vec<u32> = reply.entries.iter().map(|&(_, r)| r).collect();
                        assert_eq!(
                            &got, &expected[&node],
                            "phase {phase} node {node}: sharded serving diverged from replay"
                        );
                    }
                });
            }
        });
    }

    ctl.shutdown().expect("coordinator shutdown");
    coord.join();
    for shard in fleet {
        let outcome = {
            let c = Client::connect(shard.addr()).expect("connect shard");
            c.shutdown().expect("shard shutdown");
            shard.join()
        };
        assert_eq!(outcome.graph_epoch, PHASES as u64);
        assert_eq!(*outcome.graph, *store.snapshot(), "shard == replay graph");
    }
}

/// Kill one shard: single queries must come back quickly, flagged
/// partial, with every returned rank still exact and every returned node
/// owned by a surviving shard; batches must fail loudly (no partial
/// channel on the wire); nothing hangs.
#[test]
fn killed_shard_degrades_to_sound_partial_answers() {
    let g = test_graph();
    let map = ShardMap::new(SHARDS, SHARD_SEED);

    // What the merge over only the surviving shards must produce: each
    // survivor's exact top-k over its owned slice, merged the same
    // deterministic way the coordinator merges ((rank, node) sort,
    // truncate k).
    let expected_partial = |node: u32, survivors: &[u32]| -> Vec<(u32, u32)> {
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for &s in survivors {
            let ctx = EngineContext::new(g.clone()).with_shard_slice(map.slice(s));
            let mut scratch = ctx.new_scratch();
            let r = ctx
                .execute(
                    &mut scratch,
                    &QueryRequest::new(rkranks_graph::NodeId(node), K),
                )
                .unwrap()
                .result;
            entries.extend(r.entries.iter().map(|e| (e.node.0, e.rank)));
        }
        entries.sort_by_key(|&(n, r)| (r, n));
        entries.truncate(K as usize);
        entries
    };

    let fleet = spawn_fleet(&g, 0, 1);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");

    // Warm the pool so the kill severs live connections (the harder path:
    // a mid-flight transport error, then a refused reconnect).
    let healthy = client.query(0, K).expect("healthy query");
    assert!(!healthy.partial);

    const DEAD: u32 = 1;
    let mut fleet = fleet;
    let dead = fleet.remove(DEAD as usize);
    {
        let c = Client::connect(dead.addr()).expect("connect doomed shard");
        c.shutdown().expect("shard shutdown");
    }
    dead.join();

    let started = std::time::Instant::now();
    for node in [3u32, 17, 42, 99] {
        let reply = client.query(node, K).expect("degraded query still answers");
        assert!(
            reply.partial,
            "a missing shard must flag the answer partial"
        );
        for &(cand, _) in &reply.entries {
            assert_ne!(
                map.shard_of(rkranks_graph::NodeId(cand)),
                DEAD,
                "node {node}: entry {cand} is owned by the dead shard"
            );
        }
        assert_eq!(
            reply.entries,
            expected_partial(node, &[0, 2]),
            "node {node}: the partial answer must be the exact merge over the \
             surviving shards"
        );
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "degraded queries must fail fast, not hang"
    );

    let batch_err = client.batch(&[1, 2, 3], K);
    assert!(
        batch_err.is_err(),
        "batches have no partial channel and must fail loudly"
    );

    let m = coord.metrics();
    assert!(m.partials.get() >= 4);
    assert!(
        m.shard_errors[DEAD as usize].get() > 0,
        "the dead shard's error counter must move"
    );
    assert_eq!(m.shard_errors[0].get(), 0);

    drop(client);
    let ctl = Client::connect(coord.addr()).expect("connect ctl");
    ctl.shutdown().expect("coordinator shutdown");
    coord.join();
    for shard in fleet {
        let c = Client::connect(shard.addr()).expect("connect shard");
        c.shutdown().expect("shard shutdown");
        shard.join();
    }
}

/// The handshake layer: `hello` against the coordinator identifies it as
/// role `"coord"` speaking the current protocol version, and a fleet
/// whose address list disagrees with the shards' own identities is
/// refused with a one-line error instead of serving wrong merges.
#[test]
fn handshake_verifies_roles_and_misordered_fleets_are_refused() {
    let g = test_graph();
    let fleet = spawn_fleet(&g, 0, 1);

    // Correct order: hello says coord, and a query works.
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    let hello = client.hello().expect("hello");
    assert_eq!(hello.role, "coord");
    assert_eq!(hello.v, rkranks_server::PROTOCOL_VERSION);
    assert!(hello.shard.is_none());
    client.query(5, K).expect("query through verified fleet");

    // A shard answers hello with its identity.
    let mut direct = Client::connect(fleet[2].addr()).expect("connect shard");
    let shard_hello = direct.hello().expect("shard hello");
    assert_eq!(shard_hello.role, "shard");
    let id = shard_hello.shard.expect("shard identity");
    assert_eq!((id.index, id.shards, id.seed), (2, SHARDS, SHARD_SEED));

    // Swapped addresses: the handshake must catch the miswiring on the
    // first fan-out and refuse to serve.
    let mut swapped = shard_addrs(&fleet);
    swapped.swap(0, 1);
    let bad = spawn_coord("127.0.0.1:0", CoordConfig::new(swapped)).expect("bind bad coord");
    let mut bad_client = Client::connect(bad.addr()).expect("connect");
    let err = bad_client.query(5, K);
    match err {
        Err(rkranks_server::ClientError::Server(msg)) => {
            assert!(
                msg.contains("identifies as shard"),
                "miswiring error must name the identity mismatch, got: {msg}"
            );
        }
        other => panic!("misordered fleet must be refused, got {other:?}"),
    }

    let ctl = Client::connect(coord.addr()).expect("ctl");
    ctl.shutdown().expect("shutdown coord");
    coord.join();
    bad.stop();
    bad.join();
    for shard in fleet {
        let c = Client::connect(shard.addr()).expect("connect shard");
        c.shutdown().expect("shard shutdown");
        shard.join();
    }
}

/// A scripted stand-in for a shard daemon: serves one connection,
/// answering `hello` with the given identity and every query with an
/// empty complete answer after `delay`, until the peer hangs up.
fn stub_shard(
    index: u32,
    shards: u32,
    delay: std::time::Duration,
) -> (String, std::thread::JoinHandle<()>) {
    use rkranks_server::{HelloReply, QueryReply, Reply, Request, ShardIdentity};
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("stub accept");
        let mut writer = stream.try_clone().unwrap();
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { return };
            let reply = match Request::from_line(&line) {
                Ok(Request::Hello) => Reply::Hello(HelloReply {
                    v: rkranks_server::PROTOCOL_VERSION,
                    role: "shard".into(),
                    shard: Some(ShardIdentity {
                        index,
                        shards,
                        seed: SHARD_SEED,
                    }),
                    ..HelloReply::default()
                }),
                Ok(Request::Query { .. }) => {
                    std::thread::sleep(delay);
                    Reply::Query(QueryReply {
                        entries: Vec::new(),
                        cached: false,
                        epoch: 0,
                        graph_epoch: 0,
                        partial: false,
                    })
                }
                _ => Reply::Error("stub shard: unsupported op".into()),
            };
            let mut out = reply.to_json().render();
            out.push('\n');
            if writer.write_all(out.as_bytes()).is_err() {
                return;
            }
        }
    });
    (addr, thread)
}

/// Per-shard latency is measured at each reply's arrival: a slow shard 0
/// must not leak its delay into shard 1's reading, even though shard 0
/// comes first in the fan-out.
#[test]
fn per_shard_latency_stops_at_each_replys_arrival() {
    use rkranks_coord::{CoordMetrics, ShardPool};
    use std::sync::Arc;
    use std::time::Duration;

    const DELAY: Duration = Duration::from_millis(300);
    let (slow, slow_thread) = stub_shard(0, 2, DELAY);
    let (fast, fast_thread) = stub_shard(1, 2, Duration::ZERO);
    let metrics = Arc::new(CoordMetrics::new(2));
    let mut pool = ShardPool::new(&CoordConfig::new(vec![slow, fast]), Arc::clone(&metrics));
    for node in 0..3 {
        match pool.scatter_query(node, K, true, None, None) {
            rkranks_server::Reply::Query(q) => assert!(!q.partial),
            other => panic!("stub fleet must answer, got {other:?}"),
        }
    }
    drop(pool); // hang up, so both stubs finish
    slow_thread.join().expect("slow stub");
    fast_thread.join().expect("fast stub");

    let ms = |shard: usize, q: f64| metrics.shard_seconds[shard].quantile(q) as f64 / 1e6;
    assert_eq!(metrics.shard_seconds[1].count(), 3);
    let delay_ms = DELAY.as_secs_f64() * 1e3;
    assert!(
        ms(0, 0.0) >= delay_ms * 0.9,
        "the slow shard's own latency includes its delay: {:.1} ms",
        ms(0, 0.0)
    );
    assert!(
        ms(1, 1.0) < delay_ms / 2.0,
        "the fast shard's latency must not include the slow shard's delay: {:.1} ms",
        ms(1, 1.0)
    );
}

/// The request path waits on readiness, never on a timer: 200 sequential
/// cache hits through the coordinator take far less than 200 idle ticks.
#[test]
fn sequential_cache_hits_through_the_coordinator_do_not_stall() {
    let g = collab_graph(&CollabParams::with_authors(300, 0xC0FFEE));
    let fleet = spawn_fleet(&g, 1024, 0);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut client = Client::connect(coord.addr()).expect("connect");
    let warm = client.query(7, K).expect("warm-up query");
    let started = std::time::Instant::now();
    for _ in 0..200 {
        let reply = client.query(7, K).expect("cache-hit query");
        assert!(reply.cached, "repeat queries are cache hits on every shard");
        assert_eq!(reply.entries, warm.entries);
    }
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "200 cache hits took {took:?}"
    );

    drop(client);
    coord.stop();
    coord.join();
    for shard in fleet {
        let c = Client::connect(shard.addr()).expect("connect shard");
        c.shutdown().expect("shard shutdown");
        shard.join();
    }
}

/// A line of deeply nested brackets is a one-line `bad request`, and the
/// coordinator keeps serving afterwards.
#[test]
fn deeply_nested_json_is_rejected_and_the_coordinator_survives() {
    use std::io::{BufRead, BufReader, Write};

    let g = test_graph();
    let fleet = spawn_fleet(&g, 0, 1);
    let coord =
        spawn_coord("127.0.0.1:0", CoordConfig::new(shard_addrs(&fleet))).expect("bind coord");
    let mut raw = std::net::TcpStream::connect(coord.addr()).expect("connect");
    let mut line = "[".repeat(500_000);
    line.push('\n');
    raw.write_all(line.as_bytes()).expect("send nested line");
    let mut reply = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut reply)
        .expect("read reply");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("bad request"), "{reply}");
    assert!(reply.contains("nest"), "{reply}");

    let mut client = Client::connect(coord.addr()).expect("connect after");
    client.stats().expect("stats after the nested line");

    drop(client);
    coord.stop();
    coord.join();
    for shard in fleet {
        let c = Client::connect(shard.addr()).expect("connect shard");
        c.shutdown().expect("shard shutdown");
        shard.join();
    }
}
