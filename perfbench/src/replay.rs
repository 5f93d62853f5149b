//! Traced replays: the workload's exact inputs fed, in process, through
//! each layer's public functions, timed from outside.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rkranks_core::{
    EngineContext, IndexAccess, IndexDelta, QueryRequest, QueryStats, RkrIndex, Strategy,
};
use rkranks_graph::{Graph, GraphDelta, GraphStore, NodeId, ShardSlice};
use rkranks_server::{CacheKey, Reply, Request, ResultCache};

use crate::load::Sample;
use crate::trace::Recorder;

/// The daemon defaults the serving replay mirrors (`rkr serve` without
/// flags): cache capacity, merge cadence and index `k` bound.
const CACHE_CAPACITY: usize = 4096;
const MERGE_EVERY: u64 = 64;
const K_MAX: u32 = 100;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-request protocol times from a replay, in µs.
#[derive(Default)]
pub struct Times {
    pub parse: Vec<f64>,
    pub render: Vec<f64>,
}

/// Time `Request::from_line` on every request line and
/// `Reply::to_json().render()` on every reply the daemon sent.
pub fn protocol(samples: &[Sample], lines: &[String], rec: &mut Recorder) -> Times {
    let mut t = Times::default();
    for s in samples {
        let Some(raw) = &s.raw else { continue };
        let line = &lines[s.id];
        let a = Instant::now();
        let req = std::hint::black_box(Request::from_line(line));
        let b = Instant::now();
        let Ok(reply) = Reply::from_line(raw) else {
            continue;
        };
        let c = Instant::now();
        let text = std::hint::black_box(reply.to_json().render());
        let d = Instant::now();
        drop((req, text));
        rec.record("replay.protocol", s.id, a, d);
        rec.record_child("server.protocol.parse", s.id, a, b);
        rec.record_child("server.protocol.render", s.id, c, d);
        t.parse.push(micros(b - a));
        t.render.push(micros(d - c));
    }
    t
}

/// What the serving replay measured.
#[derive(Default)]
pub struct Serving {
    /// Engine executions (cache misses): node and counters.
    pub stats: Vec<(u32, QueryStats)>,
    /// Per request: cache time and engine time, in µs.
    pub cache_us: Vec<f64>,
    pub engine_us: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub stage_us: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub rrd_entries: usize,
    pub hits: u64,
    pub lookups: u64,
    pub stale_evicted: u64,
    pub merges: u64,
}

/// One step of a serving replay.
pub enum Step<'a> {
    /// A default-strategy query (job id, node).
    Query(usize, u32),
    /// Stage and commit one update batch.
    Commit(usize, &'a [GraphDelta]),
}

/// Replay a query/commit sequence single-threaded through the layers an
/// `rkr serve` daemon with default flags runs: `ResultCache` lookups,
/// snapshot-indexed `EngineContext::execute_with`, `RkrIndex::merge_delta`
/// every [`MERGE_EVERY`] queries, and `GraphStore` commits that retire
/// the index.
pub fn serving(graph: Graph, k: u32, steps: &[Step<'_>], rec: &mut Recorder) -> Serving {
    let mut out = Serving::default();
    let strategy = Strategy::Indexed(rkranks_core::BoundConfig::ALL);
    let mut store = GraphStore::new(graph);
    let new_ctx = |g: Arc<Graph>| {
        let ctx = EngineContext::new(g);
        ctx.sds_graph();
        ctx
    };
    let mut ctx = new_ctx(store.snapshot());
    let mut scratch = ctx.new_scratch();
    let mut master = RkrIndex::empty(store.num_nodes(), K_MAX);
    master.set_graph_epoch(store.graph_epoch());
    let mut snapshot = master.clone();
    let mut cache = ResultCache::new(CACHE_CAPACITY);
    let mut pending: Vec<IndexDelta> = Vec::new();
    let mut since_merge = 0u64;
    for step in steps {
        match *step {
            Step::Commit(batch_id, batch) => {
                let a = Instant::now();
                store
                    .stage_all(batch)
                    .expect("generated update batches are valid");
                let b = Instant::now();
                let before = store.graph_epoch();
                let graph = store.commit();
                let c = Instant::now();
                rec.record("replay.commit", batch_id, a, c);
                rec.record_child("graph.store.stage_all", batch_id, a, b);
                rec.record_child("graph.store.commit", batch_id, b, c);
                out.stage_us.push(micros(b - a));
                out.commit_ms.push((c - b).as_secs_f64() * 1e3);
                if store.graph_epoch() != before {
                    ctx = new_ctx(graph);
                    scratch = ctx.new_scratch();
                    master = RkrIndex::empty(store.num_nodes(), K_MAX);
                    master.set_graph_epoch(store.graph_epoch());
                    snapshot = master.clone();
                    pending.clear();
                    cache.purge_stale(store.graph_epoch(), snapshot.epoch());
                }
            }
            Step::Query(id, node) => {
                let start = Instant::now();
                let root = rec.begin("replay.query", id, start);
                let key = CacheKey {
                    node,
                    k,
                    strategy: 0,
                    epoch: snapshot.epoch(),
                    graph_epoch: store.graph_epoch(),
                };
                let hit = rec.time("server.cache.get", id, || cache.get(&key).cloned());
                let mut cache_time = Instant::now() - start;
                let mut engine_time = Duration::ZERO;
                if hit.is_none() {
                    let req = QueryRequest::new(NodeId(node), k).with_strategy(strategy);
                    let mut delta = IndexDelta::for_index(&snapshot);
                    let a = Instant::now();
                    let outcome = {
                        let mut access = IndexAccess::Snapshot {
                            snapshot: &snapshot,
                            delta: &mut delta,
                        };
                        ctx.execute_with(&mut scratch, Some(&mut access), &req)
                            .expect("replayed query on a valid node")
                    };
                    let b = Instant::now();
                    rec.record_child("core.execute_with", id, a, b);
                    engine_time = b - a;
                    let entries: Vec<(u32, u32)> = outcome
                        .result
                        .entries
                        .iter()
                        .map(|e| (e.node.0, e.rank))
                        .collect();
                    out.stats.push((node, outcome.result.stats));
                    if !delta.is_empty() {
                        pending.push(delta);
                    }
                    let c = Instant::now();
                    cache.insert(key, entries);
                    let d = Instant::now();
                    rec.record_child("server.cache.insert", id, c, d);
                    cache_time += d - c;
                }
                rec.end(root, Instant::now());
                out.cache_us.push(micros(cache_time));
                out.engine_us.push(micros(engine_time));
                since_merge += 1;
                if since_merge >= MERGE_EVERY && !pending.is_empty() {
                    for delta in pending.drain(..) {
                        let a = Instant::now();
                        master.merge_delta(&delta);
                        let b = Instant::now();
                        rec.record("core.index.merge_delta", id, a, b);
                        out.merge_us.push(micros(b - a));
                    }
                    snapshot = master.clone();
                    cache.purge_stale(store.graph_epoch(), snapshot.epoch());
                    out.merges += 1;
                    since_merge = 0;
                }
            }
        }
    }
    let (hits, misses, _, stale) = cache.counters();
    out.hits = hits;
    out.lookups = hits + misses;
    out.stale_evicted = stale;
    out.rrd_entries = master.rrd_entries();
    out
}

/// Σ refinements of `nodes` under each of `shards` shard slices (seed 0,
/// as `rkr serve --shard-id` defaults to) divided by the single-box
/// refinements of the same nodes.
pub fn refine_amplification(
    graph: &Arc<Graph>,
    nodes: &[u32],
    k: u32,
    shards: u32,
    rec: &mut Recorder,
) -> f64 {
    let strategy = crate::check::reference_strategy();
    let run = |ctx: &EngineContext, rec: &mut Recorder| -> u64 {
        let mut scratch = ctx.new_scratch();
        nodes
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let req = QueryRequest::new(NodeId(q), k).with_strategy(strategy);
                rec.time_root("core.execute_with", i, || {
                    ctx.execute(&mut scratch, &req)
                        .expect("replayed query on a valid node")
                        .result
                        .stats
                        .refinement_calls
                })
            })
            .sum()
    };
    let single = run(&EngineContext::new(Arc::clone(graph)), rec);
    let sharded: u64 = (0..shards)
        .map(|i| {
            let ctx = EngineContext::new(Arc::clone(graph))
                .with_shard_slice(ShardSlice::new(i, shards, 0));
            run(&ctx, rec)
        })
        .sum();
    if single == 0 {
        0.0
    } else {
        sharded as f64 / single as f64
    }
}
