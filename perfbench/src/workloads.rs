//! The four workloads. Each starts its daemons (timing set-up), runs its
//! timed phase, stops the daemons, checks every reply, and — when traced —
//! replays its inputs through the layers and scrapes the daemons.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rkranks_core::{EngineContext, QueryStageStats, QueryStats};
use rkranks_datasets::Scale;
use rkranks_graph::{Graph, GraphStore, NodeId};

use crate::check::{compare, reference, RefAnswer, RefCache};
use crate::daemon::{start_fleet, start_single, timed_setup, Fleet};
use crate::inputs::{self, sub_seed};
use crate::load::{closed_loop, open_loop, Job, Sample};
use crate::replay::{self, Step};
use crate::scrape::Scrape;
use crate::trace::Recorder;
use crate::util::{mean, median, metric, percentile, Metric};
use crate::wire::{query_line, Conn};
use crate::Args;

/// Result size of every query.
const K: u32 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// cold-uniform: size and seed of the fixed, degree-stratified panel.
const COLD_PANEL: usize = 200;
const COLD_PANEL_SEED: u64 = 11;
/// cold-uniform: passes per run, at least `COLD_MIN_PASSES` and at most
/// `COLD_MAX_PASSES`. Its gated figures are medians over passes: per-query
/// cost spans 0.1 ms to seconds, so a burst of interference during one
/// pass moved a single pass's p50 by up to a third.
const COLD_MIN_PASSES: usize = 3;
const COLD_MAX_PASSES: usize = 8;
/// Zipf skew of every Zipf stream (over all nodes, ranked by degree).
const ZIPF_ALPHA: f64 = 1.2;
/// zipf-open: fixed arrival rate over one pipelined connection.
const ZIPF_OPEN_RATE: f64 = 60.0;
/// The closed-loop Zipf workloads send a fixed amount of work: reads for
/// the warm-up plus `--seconds` at the rate each workload sustained in a
/// closed loop on medium dblp (2 CPUs). A faster daemon ends sooner.
const CHURN_READ_QPS: f64 = 300.0;
const FLEET_READ_QPS: f64 = 20.0;
/// churn-mixed: one update batch of `CHURN_BATCH` deltas (plus its
/// flush) after every `CHURN_READS_PER_COMMIT` reads.
const CHURN_BATCH: usize = 16;
const CHURN_READS_PER_COMMIT: usize = 600;
/// fleet-zipf: shard count.
const FLEET_SHARDS: u32 = 2;
/// Untimed warm-up before the timed phase of the Zipf workloads, as a
/// share of `--seconds`: the daemon starts with an empty cache and index,
/// and a long-running daemon pays that once, not per query.
const WARMUP_SHARE: f64 = 0.5;
/// Reconciliation tolerance, as a share of the mean client round trip.
const RECONCILE_TOL: f64 = 0.25;
/// Queries a phase needs before its p99 is reported (ten beyond it).
const P99_MIN_SAMPLES: usize = 1000;

/// The per-layer metrics every traced run reports (0 where the workload
/// does not exercise the layer), with their units.
pub const LAYER_METRICS: [(&str, &str); 31] = [
    ("graph.load_s", "s"),
    ("graph.store.stage_us", "us"),
    ("graph.store.commit_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.sds_popped", "count"),
    ("core.refinements", "count"),
    ("core.refine_settles", "count"),
    ("core.pruned_by_bound", "count"),
    ("core.index_exact_hits", "count"),
    ("core.refine_exact_ratio", "ratio"),
    ("core.slowest_query_ms", "ms"),
    ("core.index.rrd_entries", "count"),
    ("core.index.merge_us", "us"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.render_us", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.stale_evicted", "count"),
    ("server.cache.lookup_us", "us"),
    ("server.merger.merges", "count"),
    ("server.merger.pass_ms", "ms"),
    ("server.event.batch_factor", "ratio"),
    ("server.event.wake_drain_us", "us"),
    ("server.residual_us", "us"),
    ("coord.shard0.p50_ms", "ms"),
    ("coord.shard1.p50_ms", "ms"),
    ("coord.overhead_p50_ms", "ms"),
    ("coord.refine_amplification", "ratio"),
    ("coord.merge_keep_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// One line per failed operation, naming it.
    pub failures: Vec<String>,
    /// The gated end-to-end metrics, in `BENCHMARK.json` order.
    pub e2e: Vec<Metric>,
    /// End-to-end figures printed but not gated (not defined on every
    /// workload, or 0 on a healthy run).
    pub info: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut rec = args.trace.then(|| Recorder::new(Instant::now()));
    let mut report = match args.workload.as_str() {
        "cold-uniform" => cold_uniform(args, &mut rec),
        "zipf-open" => zipf_open(args, &mut rec),
        "churn-mixed" => churn_mixed(args, &mut rec),
        "fleet-zipf" => fleet_zipf(args, &mut rec),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    if let Some(rec) = rec {
        let path = args
            .out
            .join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
        rec.write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.notes.push(format!(
            "{} spans written to {}; self time by span:",
            rec.spans.len(),
            path.display()
        ));
        for (name, (count, secs)) in rec.self_times() {
            report.notes.push(format!(
                "  {name:<26} {count:>7} spans {:>11.3} ms self",
                secs * 1e3
            ));
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Load the edge file in process (the reference and replays need the
/// graph the daemons load), timed as `graph.load_s`.
fn load(path: &Path, rec: &mut Option<Recorder>) -> Result<(Graph, f64), String> {
    let t0 = Instant::now();
    let graph = rkranks_graph::load_graph(path).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    if let Some(rec) = rec.as_mut() {
        rec.record("graph.load_graph", 0, t0, t1);
    }
    Ok((graph, (t1 - t0).as_secs_f64()))
}

/// A phase's samples plus how late the open loop's writes were.
struct Phase {
    samples: Vec<Sample>,
    late_ms: Vec<f64>,
    /// From the phase's start to its last reply.
    secs: f64,
}

fn phase_secs(start: Instant, samples: &[Sample]) -> f64 {
    let end = samples.iter().map(|s| s.done).max().unwrap_or(start);
    (end - start).as_secs_f64().max(1e-9)
}

fn scrape(conn: &mut Conn, on: bool) -> Result<Option<Scrape>, String> {
    if on {
        Scrape::take(conn).map(Some)
    } else {
        Ok(None)
    }
}

/// Check every sample against `expected(sample)`; returns how many
/// replies were verified. Errors, partial replies and wrong ranks are
/// failures, reported with their node.
fn verify<'a>(
    samples: &[Sample],
    expected: impl Fn(&Sample) -> Option<&'a RefAnswer>,
    failures: &mut Vec<String>,
) -> u64 {
    let mut verified = 0;
    for s in samples {
        let outcome = match &s.reply {
            Err(e) => Err(e.clone()),
            Ok(a) if a.partial => Err("partial reply".to_string()),
            Ok(a) => match expected(s) {
                Some(r) => compare(&a.entries, &r.ranks),
                None => Err("no reference answer".to_string()),
            },
        };
        match outcome {
            Ok(()) => verified += 1,
            Err(e) => failures.push(format!("query #{} node {}: {e}", s.id, s.node)),
        }
    }
    verified
}

/// The gated metrics plus the printed-only ones for a query phase run
/// in one or more rounds (`verified` replies each): the gated p50 and
/// throughput are medians over rounds, the printed figures span them all.
fn query_metrics(report: &mut Report, setup: &[f64], rounds: &[Phase], verified: &[u64], rss: f64) {
    let ok_ms = |samples: &[Sample]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.reply.is_ok())
            .map(Sample::latency_ms)
            .collect()
    };
    let p50s: Vec<f64> = rounds.iter().map(|r| median(&ok_ms(&r.samples))).collect();
    let rates: Vec<f64> = rounds
        .iter()
        .zip(verified)
        .map(|(r, &v)| v as f64 / r.secs)
        .collect();
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.latency_ms())
        .collect();
    report.e2e = vec![
        metric("setup_s", median(setup), "s"),
        metric("query_p50_ms", median(&p50s), "ms"),
        metric("throughput_qps", median(&rates), "1/s"),
        metric("rss_mb", rss, "MiB"),
    ];
    if rounds.len() > 1 {
        let show = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        report.notes.push(format!(
            "per round: p50 (ms) {}; throughput (1/s) {}",
            show(&p50s),
            show(&rates)
        ));
    }
    report
        .info
        .push(metric("queries", lat.len() as f64, "count"));
    report
        .info
        .push(metric("query_p95_ms", percentile(&lat, 0.95), "ms"));
    if lat.len() >= P99_MIN_SAMPLES {
        report
            .info
            .push(metric("query_p99_ms", percentile(&lat, 0.99), "ms"));
    }
    let hits = samples
        .iter()
        .filter(|s| s.reply.as_ref().is_ok_and(|a| a.cached))
        .count();
    report.notes.push(format!(
        "{hits} of {} replies came from the daemon's result cache",
        lat.len()
    ));
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.2}", percentile(&lat, f64::from(d) / 10.0)))
        .collect();
    report
        .notes
        .push(format!("latency deciles (ms): {}", deciles.join(" ")));
    // A growing backlog shows as rising latency from quarter to quarter.
    let quarters: Vec<String> = samples
        .chunks(samples.len().div_ceil(4).max(1))
        .map(|q| {
            let l: Vec<f64> = q
                .iter()
                .filter(|s| s.reply.is_ok())
                .map(|s| s.latency_ms())
                .collect();
            format!("{:.1}/{:.1}", percentile(&l, 0.5), percentile(&l, 0.95))
        })
        .collect();
    report.notes.push(format!(
        "latency p50/p95 (ms) by quarter of the phase: {}",
        quarters.join(" ")
    ));
    let setups: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    report
        .notes
        .push(format!("set-up times (s): {}", setups.join(" ")));
}

fn finish_failures(report: &mut Report) {
    let frac = report.failures.len() as f64 / report.attempted.max(1) as f64;
    report.info.push(metric("failed_frac", frac, "ratio"));
}

/// The per-layer table, all zero until a workload fills it in.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown layer metric {name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(n, unit)| metric(n, self.0[n], unit))
            .collect()
    }

    /// The `core.*` metrics from a set of engine executions, plus the
    /// slowest queries with their counters and node degree.
    fn core(&mut self, runs: &[(u32, &QueryStats)], graph: &Graph, notes: &mut Vec<String>) {
        let sum = |f: fn(&QueryStats) -> u64| runs.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
        let stage: Vec<QueryStageStats> = runs
            .iter()
            .map(|(_, s)| QueryStageStats::from_stats(s))
            .collect();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.set(
            "core.filter_ms",
            mean(&stage.iter().map(|s| ms(s.filter)).collect::<Vec<_>>()),
        );
        self.set(
            "core.refine_ms",
            mean(&stage.iter().map(|s| ms(s.refine)).collect::<Vec<_>>()),
        );
        self.set("core.sds_popped", sum(|s| s.sds_popped));
        let calls = sum(|s| s.refinement_calls);
        self.set("core.refinements", calls);
        self.set("core.refine_settles", sum(|s| s.refinement_settles));
        self.set("core.pruned_by_bound", sum(|s| s.pruned_by_bound));
        self.set("core.index_exact_hits", sum(|s| s.index_exact_hits));
        if calls > 0.0 {
            self.set(
                "core.refine_exact_ratio",
                (calls - sum(|s| s.refinements_pruned)) / calls,
            );
        }
        let mut slow: Vec<&(u32, &QueryStats)> = runs.iter().collect();
        slow.sort_by_key(|(_, s)| std::cmp::Reverse(s.elapsed));
        if let Some((_, s)) = slow.first() {
            self.set("core.slowest_query_ms", ms(s.elapsed));
        }
        notes.push(format!(
            "slowest of {} engine runs (node, degree, ms, sds_popped, refinements, \
             refine_settles, pruned_by_bound, index_exact_hits):",
            runs.len()
        ));
        for (q, s) in slow.iter().take(5) {
            notes.push(format!(
                "  node {q:>6} deg {:>4} {:>9.2} ms  popped {:>6} refine {:>6} settles {:>9} \
                 pruned {:>6} exact {:>5}",
                graph.degree(NodeId(*q)),
                ms(s.elapsed),
                s.sds_popped,
                s.refinement_calls,
                s.refinement_settles,
                s.pruned_by_bound,
                s.index_exact_hits
            ));
        }
    }

    /// Server-side metrics scraped from a daemon (or summed over shards).
    fn server(&mut self, d: &Scrape, client_rtt_ms: f64, notes: &mut Vec<String>) {
        let hits = d.value("rkrd_cache_hits_total");
        let lookups = hits + d.value("rkrd_cache_misses_total");
        if lookups > 0.0 {
            self.set("server.cache.hit_ratio", hits / lookups);
        }
        self.set(
            "server.cache.stale_evicted",
            d.value("rkrd_cache_stale_evicted_total"),
        );
        self.set("server.merger.merges", d.value("rkrd_merges_total"));
        self.set(
            "server.merger.pass_ms",
            d.hist("rkrd_merge_pass_seconds").mean() * 1e3,
        );
        let batches = d.value("rkrd_batches_total");
        if batches > 0.0 {
            self.set(
                "server.event.batch_factor",
                d.value("rkrd_batch_queries_total") / batches,
            );
        }
        self.set(
            "server.event.wake_drain_us",
            d.hist("rkrd_wake_drain_seconds").mean() * 1e6,
        );
        let served = d.hist("rkrd_query_seconds").mean() * 1e6;
        self.set("server.residual_us", client_rtt_ms * 1e3 - served);
        notes.push(format!(
            "scraped: rkrd_query_seconds mean {:.1} us, rkrd_filter_seconds mean {:.3} ms, \
             rkrd_refine_seconds mean {:.3} ms over {} engine runs",
            served,
            d.hist("rkrd_filter_seconds").mean() * 1e3,
            d.hist("rkrd_refine_seconds").mean() * 1e3,
            d.hist("rkrd_filter_seconds").count
        ));
    }

    /// The reconciliation check: parse + cache + engine + render + residual
    /// against the client round trip (all means, in µs; cache and engine
    /// from the replay). The verdict is reported, not counted as a failed
    /// operation.
    fn reconcile(&self, cache_us: f64, engine_us: f64, rtt_us: f64, notes: &mut Vec<String>) {
        let parse = self.0["server.protocol.parse_us"];
        let render = self.0["server.protocol.render_us"];
        let residual = self.0["server.residual_us"];
        let total = parse + cache_us + engine_us + render + residual;
        let off = (total - rtt_us).abs() / rtt_us.max(1e-9);
        notes.push(format!(
            "reconciliation: parse {parse:.1} + cache {cache_us:.1} + engine {engine_us:.1} + \
             render {render:.1} + residual {residual:.1} = {total:.1} us vs round trip \
             {rtt_us:.1} us: off by {:.1}% (tolerance {:.0}%) {}",
            off * 100.0,
            RECONCILE_TOL * 100.0,
            if off <= RECONCILE_TOL { "PASS" } else { "FAIL" }
        ));
    }

    /// Protocol replay plus tracing overhead and loadgen lateness.
    fn client(&mut self, phase: &Phase, lines: &[String], rec: &mut Recorder) {
        let times = replay::protocol(&phase.samples, lines, rec);
        self.set("server.protocol.parse_us", mean(&times.parse));
        self.set("server.protocol.render_us", mean(&times.render));
        self.set("loadgen.late_p99_ms", percentile(&phase.late_ms, 0.99));
        if !rec.traced.is_zero() {
            self.set(
                "trace.overhead_frac",
                rec.overhead.as_secs_f64() / rec.traced.as_secs_f64(),
            );
        }
    }
}

fn mean_rtt_ms(phase: &Phase) -> f64 {
    let rtt: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(Sample::round_trip_ms)
        .collect();
    mean(&rtt)
}

/// Where the reference answers for `file`'s graph are cached.
fn ref_path(args: &Args, file: &inputs::GraphFile) -> std::path::PathBuf {
    args.out.join(format!("ref/{}-k{K}.txt", file.tag))
}

/// The determinism fingerprint of a run's generated request stream.
fn stream_note(lines: &[String]) -> String {
    format!(
        "request stream: {} lines generated, FNV-1a {:016x}",
        lines.len(),
        inputs::fnv1a(lines)
    )
}

/// The distinct query nodes of `samples`, ascending.
fn distinct<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<u32> {
    let set: BTreeSet<u32> = samples.into_iter().map(|s| s.node).collect();
    set.into_iter().collect()
}

/// The warm-up and timed read counts of a closed-loop Zipf workload
/// that sustains about `qps`.
fn closed_loop_reads(args: &Args, qps: f64) -> (usize, usize) {
    let count = |secs: f64| (qps * secs).round().max(1.0) as usize;
    (count(args.seconds * WARMUP_SHARE), count(args.seconds))
}

/// How many requests a warm-up of `warmup` ramping up to `rate` sends.
fn ramp_count(rate: f64, warmup: Duration) -> usize {
    (rate * warmup.as_secs_f64() / 2.0).round() as usize
}

/// Open-loop jobs for `nodes`: the arrival rate ramps linearly from 0 to
/// `rate` over `warmup` (so a cold daemon is not swamped before its cache
/// and index fill), then stays at `rate`.
fn scheduled(nodes: &[u32], rate: f64, warmup: Duration, line: impl Fn(u32) -> String) -> Vec<Job> {
    let ramp = ramp_count(rate, warmup);
    let w = warmup.as_secs_f64();
    nodes
        .iter()
        .enumerate()
        .map(|(id, &node)| {
            let at = if id < ramp {
                (2.0 * w * id as f64 / rate).sqrt()
            } else {
                w + (id - ramp) as f64 / rate
            };
            Job {
                id,
                node,
                line: line(node),
                due: Duration::from_secs_f64(at),
                batch: None,
            }
        })
        .collect()
}

/// Run open-loop `jobs` over a fresh connection. Jobs due in the first
/// `warmup` are returned apart from the timed phase.
fn open_phase(
    addr: &str,
    jobs: &[Job],
    warmup: Duration,
    rec: &mut Option<Recorder>,
) -> Result<(Vec<Sample>, Phase), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let start = Instant::now();
    let (samples, late_ms) = open_loop(&mut conn, jobs, start, rec)?;
    let timed_start = start + warmup;
    let (warm, timed): (Vec<Sample>, Vec<Sample>) =
        samples.into_iter().partition(|s| s.due < timed_start);
    Ok((
        warm,
        Phase {
            secs: phase_secs(timed_start, &timed),
            samples: timed,
            late_ms,
        },
    ))
}

/// Run `jobs` as a closed loop, timed from the first request to the last
/// reply.
fn closed_phase(conn: &mut Conn, jobs: &[Job], rec: &mut Option<Recorder>) -> Phase {
    let start = Instant::now();
    let samples = closed_loop(conn, jobs.iter().cloned(), rec);
    Phase {
        secs: phase_secs(start, &samples),
        samples,
        late_ms: Vec::new(),
    }
}

/// The rounds of a phase as one phase, for the traced replays.
fn joined(rounds: Vec<Phase>) -> Phase {
    Phase {
        secs: rounds.iter().map(|r| r.secs).sum(),
        samples: rounds.into_iter().flat_map(|r| r.samples).collect(),
        late_ms: Vec::new(),
    }
}

/// The scrape delta of a single daemon or (summed) of every shard.
fn scrape_delta(before: &[Option<Scrape>], after: &[Option<Scrape>]) -> Scrape {
    let mut total = Scrape::default();
    for (b, a) in before.iter().zip(after) {
        if let (Some(b), Some(a)) = (b, a) {
            total.add(&a.minus(b));
        }
    }
    total
}

// ---------------------------------------------------------------------------
// cold-uniform
// ---------------------------------------------------------------------------

fn cold_uniform(args: &Args, rec: &mut Option<Recorder>) -> Result<Report, String> {
    let mut report = Report::default();
    let file = inputs::graph_file(&args.out, Scale::Medium)?;
    let (graph, load_s) = load(&file.path, rec)?;
    let panel = inputs::stratified_panel(&graph, COLD_PANEL, COLD_PANEL_SEED);
    // The request stream: passes over the panel, each in a fresh seeded
    // order. A run sends whole passes (at least one, and as many as are
    // expected to fit in `--seconds`), so every run measures every panel
    // node equally often.
    let mut order_rng = StdRng::seed_from_u64(sub_seed(args.seed, 1));
    let passes_made: Vec<Vec<Job>> = (0..COLD_MAX_PASSES)
        .map(|p| {
            let mut pass = panel.clone();
            pass.shuffle(&mut order_rng);
            pass.into_iter()
                .enumerate()
                .map(|(i, node)| Job {
                    id: p * COLD_PANEL + i,
                    node,
                    line: query_line(node, K, Some("dynamic-three"), false),
                    due: Duration::ZERO,
                    batch: None,
                })
                .collect()
        })
        .collect();
    let lines: Vec<String> = passes_made
        .iter()
        .flatten()
        .map(|j| j.line.clone())
        .collect();
    report.notes.push(stream_note(&lines));

    let (mut fleet, setup) = timed_setup(SETUP_REPS, || start_single(&args.rkr, &file.path))?;
    let before = scrape(&mut fleet.conn, args.trace)?;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rounds = Vec::new();
    for pass in passes_made {
        let round = closed_phase(&mut fleet.conn, &pass, rec);
        let broken = round.samples.len() < COLD_PANEL;
        rounds.push(round);
        // Past the minimum, another pass only if it is expected to end
        // within `--seconds`.
        let passes = rounds.len() as u32;
        if broken
            || (rounds.len() >= COLD_MIN_PASSES && start.elapsed() * (passes + 1) / passes > budget)
        {
            break;
        }
    }
    let passes = rounds.len();
    let after = scrape(&mut fleet.conn, args.trace)?;
    let rss = fleet.peak_rss_mb();
    fleet.stop();
    report.notes.push(format!(
        "closed loop over 1 connection: {passes} whole pass(es) over a fixed panel of \
         {COLD_PANEL} nodes"
    ));

    let ctx = EngineContext::new(graph);
    let mut cache = RefCache::open(&ref_path(args, &file));
    let refs = cache.answers(&ctx, &distinct(rounds.iter().flat_map(|r| &r.samples)), K);
    cache.save();
    let verified: Vec<u64> = rounds
        .iter()
        .map(|r| verify(&r.samples, |s| refs.get(&s.node), &mut report.failures))
        .collect();
    query_metrics(&mut report, &setup, &rounds, &verified, rss);
    let phase = joined(rounds);
    report.attempted = phase.samples.len() as u64;
    finish_failures(&mut report);

    if let Some(r) = rec.as_mut() {
        let mut layers = Layers::new();
        layers.set("graph.load_s", load_s);
        // Engine replay: every panel node once, in panel order, so the
        // counters repeat exactly for a given graph and panel.
        let replayed = reference(&ctx, &panel, K);
        let runs: Vec<(u32, &QueryStats)> = panel
            .iter()
            .map(|q| (*q, replayed[q].stats.as_ref().expect("fresh reference run")))
            .collect();
        layers.core(&runs, ctx.graph(), &mut report.notes);
        let d = scrape_delta(&[before], &[after]);
        let rtt = mean_rtt_ms(&phase);
        layers.server(&d, rtt, &mut report.notes);
        layers.client(&phase, &lines, r);
        let engine_us: Vec<f64> = phase
            .samples
            .iter()
            .map(|s| replayed[&s.node].elapsed.as_secs_f64() * 1e6)
            .collect();
        layers.reconcile(0.0, mean(&engine_us), rtt * 1e3, &mut report.notes);
        report.layers = layers.into_metrics();
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// zipf-open
// ---------------------------------------------------------------------------

fn zipf_open(args: &Args, rec: &mut Option<Recorder>) -> Result<Report, String> {
    let mut report = Report::default();
    let file = inputs::graph_file(&args.out, Scale::Large)?;
    let (graph, load_s) = load(&file.path, rec)?;
    let warmup = Duration::from_secs_f64(args.seconds * WARMUP_SHARE);
    let count =
        ramp_count(ZIPF_OPEN_RATE, warmup) + (ZIPF_OPEN_RATE * args.seconds).round() as usize;
    let nodes = inputs::zipf_stream(&graph, count, sub_seed(args.seed, 2), ZIPF_ALPHA);
    let line = |n: u32| query_line(n, K, None, true);
    let jobs = scheduled(&nodes, ZIPF_OPEN_RATE, warmup, line);
    let lines: Vec<String> = jobs.iter().map(|j| j.line.clone()).collect();
    report.notes.push(stream_note(&lines));

    let (mut fleet, setup) = timed_setup(SETUP_REPS, || start_single(&args.rkr, &file.path))?;
    let before = scrape(&mut fleet.conn, args.trace)?;
    let (warm, phase) = open_phase(&fleet.front, &jobs, warmup, rec)?;
    let after = scrape(&mut fleet.conn, args.trace)?;
    let rss = fleet.peak_rss_mb();
    let closing = fleet.stop();

    let graph = Arc::new(graph);
    let ctx = EngineContext::new(Arc::clone(&graph));
    let mut cache = RefCache::open(&ref_path(args, &file));
    let refs = cache.answers(&ctx, &distinct(warm.iter().chain(&phase.samples)), K);
    cache.save();
    drop(ctx);
    report.attempted = (warm.len() + phase.samples.len()) as u64;
    verify(&warm, |s| refs.get(&s.node), &mut report.failures);
    let verified = verify(&phase.samples, |s| refs.get(&s.node), &mut report.failures);
    query_metrics(
        &mut report,
        &setup,
        std::slice::from_ref(&phase),
        &[verified],
        rss,
    );
    finish_failures(&mut report);
    report.notes.push(format!(
        "open loop at {ZIPF_OPEN_RATE} q/s over 1 pipelined connection after a {:.1} s ramp-up; writes \
         late p50 {:.3} ms, p99 {:.3} ms",
        warmup.as_secs_f64(),
        percentile(&phase.late_ms, 0.5),
        percentile(&phase.late_ms, 0.99)
    ));

    if let Some(r) = rec.as_mut() {
        let mut layers = Layers::new();
        layers.set("graph.load_s", load_s);
        let steps: Vec<Step<'_>> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| Step::Query(i, n))
            .collect();
        let graph = Arc::try_unwrap(graph).unwrap_or_else(|g| (*g).clone());
        let served = replay::serving(graph.clone(), K, &steps, r);
        serving_layers(&mut layers, &served, &graph, &mut report.notes);
        report.notes.push(format!("daemon: {}", closing.trim()));
        let d = scrape_delta(&[before], &[after]);
        let rtt = mean_rtt_ms(&phase);
        layers.server(&d, rtt, &mut report.notes);
        layers.client(&phase, &lines, r);
        layers.reconcile(
            mean(&served.cache_us),
            mean(&served.engine_us),
            rtt * 1e3,
            &mut report.notes,
        );
        report.layers = layers.into_metrics();
    }
    Ok(report)
}

/// Layer metrics of a serving replay.
fn serving_layers(
    layers: &mut Layers,
    s: &replay::Serving,
    graph: &Graph,
    notes: &mut Vec<String>,
) {
    let runs: Vec<(u32, &QueryStats)> = s.stats.iter().map(|(q, st)| (*q, st)).collect();
    layers.core(&runs, graph, notes);
    layers.set("core.index.rrd_entries", s.rrd_entries as f64);
    layers.set("core.index.merge_us", mean(&s.merge_us));
    layers.set("server.cache.lookup_us", mean(&s.cache_us));
    layers.set("graph.store.stage_us", mean(&s.stage_us));
    layers.set("graph.store.commit_ms", mean(&s.commit_ms));
    notes.push(format!(
        "serving replay: {} lookups, {} hits ({:.1}%), {} stale-evicted, {} merges, {} rrd entries",
        s.lookups,
        s.hits,
        100.0 * s.hits as f64 / s.lookups.max(1) as f64,
        s.stale_evicted,
        s.merges,
        s.rrd_entries
    ));
}

// ---------------------------------------------------------------------------
// churn-mixed
// ---------------------------------------------------------------------------

fn churn_mixed(args: &Args, rec: &mut Option<Recorder>) -> Result<Report, String> {
    let mut report = Report::default();
    let file = inputs::graph_file(&args.out, Scale::Medium)?;
    let (graph, load_s) = load(&file.path, rec)?;
    // Whole commit periods, for the warm-up and for the timed phase.
    let (warm, timed) = closed_loop_reads(args, CHURN_READ_QPS);
    let periods = |reads: usize| reads.div_ceil(CHURN_READS_PER_COMMIT).max(1);
    let (warm_periods, timed_periods) = (periods(warm), periods(timed));
    let n_batches = warm_periods + timed_periods;
    // Each commit period reads the same multiset in every run.
    let nodes = inputs::zipf_panel(
        &graph,
        &vec![CHURN_READS_PER_COMMIT; n_batches],
        sub_seed(args.seed, 3),
        ZIPF_ALPHA,
    );
    let batches = inputs::update_batches(&graph, n_batches, CHURN_BATCH, sub_seed(args.seed, 4));
    // One closed loop on one connection: batch j and its flush go out
    // after read (j + 1) * CHURN_READS_PER_COMMIT.
    let mut jobs = Vec::with_capacity(nodes.len() + batches.len());
    for (i, &node) in nodes.iter().enumerate() {
        jobs.push(Job {
            id: jobs.len(),
            node,
            line: query_line(node, K, None, true),
            due: Duration::ZERO,
            batch: None,
        });
        if (i + 1) % CHURN_READS_PER_COMMIT == 0 {
            let j = (i + 1) / CHURN_READS_PER_COMMIT - 1;
            jobs.push(Job {
                id: jobs.len(),
                node: u32::MAX,
                line: format!("{}\n{{\"op\":\"flush\"}}", inputs::update_line(&batches[j])),
                due: Duration::ZERO,
                batch: Some(j),
            });
        }
    }
    let lines: Vec<String> = jobs.iter().map(|j| j.line.clone()).collect();
    report.notes.push(stream_note(&lines));
    // Each commit period is its reads plus the batch that follows them.
    let period_jobs = CHURN_READS_PER_COMMIT + 1;

    let (mut fleet, setup) = timed_setup(SETUP_REPS, || start_single(&args.rkr, &file.path))?;
    let (warm_jobs, timed_jobs) = jobs.split_at(warm_periods * period_jobs);
    let warm = closed_loop(&mut fleet.conn, warm_jobs.iter().cloned(), rec);
    let before = scrape(&mut fleet.conn, args.trace)?;
    let rounds = vec![closed_phase(&mut fleet.conn, timed_jobs, rec)];
    let after = scrape(&mut fleet.conn, args.trace)?;
    let final_epoch = fleet
        .conn
        .call_ok("{\"op\":\"stats\"}")?
        .get("stats")
        .and_then(|s| s.get("graph_epoch"))
        .and_then(rkranks_server::json::Json::as_u64)
        .unwrap_or(0);
    let rss = fleet.peak_rss_mb();
    fleet.stop();
    let is_commit = |s: &Sample| s.batch.is_some();
    let (warm_commits, warm_reads): (Vec<Sample>, Vec<Sample>) =
        warm.into_iter().partition(is_commit);
    // The timed phase keeps its time (commits included) but only its reads.
    let mut timed_commits = Vec::new();
    let rounds: Vec<Phase> = rounds
        .into_iter()
        .map(|r| {
            let (c, reads): (Vec<Sample>, Vec<Sample>) = r.samples.into_iter().partition(is_commit);
            timed_commits.extend(c);
            Phase {
                samples: reads,
                ..r
            }
        })
        .collect();
    let commits: Vec<&Sample> = warm_commits.iter().chain(&timed_commits).collect();
    let committed = commits.iter().filter(|c| c.reply.is_ok()).count();

    // Reference: replay the batches through a GraphStore and check each
    // read against the graph at the epoch its reply names.
    let timed_reads = || rounds.iter().flat_map(|r| &r.samples);
    let mut by_epoch: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for s in warm_reads.iter().chain(timed_reads()) {
        if let Ok(a) = &s.reply {
            by_epoch.entry(a.graph_epoch).or_default().insert(s.node);
        }
    }
    let mut store = GraphStore::new(graph.clone());
    let mut refs: BTreeMap<(u64, u32), RefAnswer> = BTreeMap::new();
    let mut applied = 0;
    for (&epoch, wanted) in &by_epoch {
        while store.graph_epoch() < epoch && applied < batches.len() {
            store.apply(&batches[applied]).map_err(|e| e.to_string())?;
            applied += 1;
        }
        if store.graph_epoch() != epoch {
            continue;
        }
        let ctx = EngineContext::new(store.snapshot());
        let nodes: Vec<u32> = wanted.iter().copied().collect();
        for (n, a) in reference(&ctx, &nodes, K) {
            refs.insert((epoch, n), a);
        }
    }
    while applied < committed {
        store.apply(&batches[applied]).map_err(|e| e.to_string())?;
        applied += 1;
    }
    report.attempted = (warm_reads.len() + timed_reads().count() + commits.len()) as u64;
    let expected = |s: &Sample| {
        let epoch = s.reply.as_ref().ok()?.graph_epoch;
        refs.get(&(epoch, s.node))
    };
    verify(&warm_reads, expected, &mut report.failures);
    let verified: Vec<u64> = rounds
        .iter()
        .map(|r| verify(&r.samples, expected, &mut report.failures))
        .collect();
    for c in &commits {
        if let Err(e) = &c.reply {
            report
                .failures
                .push(format!("update batch {:?}: {e}", c.batch));
        }
    }
    if final_epoch != store.graph_epoch() {
        report.failures.push(format!(
            "daemon ended at graph epoch {final_epoch}, the replay of {committed} committed \
             batches at {}",
            store.graph_epoch()
        ));
    }
    query_metrics(&mut report, &setup, &rounds, &verified, rss);
    let phase = joined(rounds);
    let commit_ms: Vec<f64> = timed_commits
        .iter()
        .filter(|c| c.reply.is_ok())
        .map(Sample::latency_ms)
        .collect();
    report
        .info
        .push(metric("commit_p50_ms", median(&commit_ms), "ms"));
    report
        .info
        .push(metric("commits", commit_ms.len() as f64, "count"));
    finish_failures(&mut report);
    report.notes.push(format!(
        "closed loop over 1 connection: {warm_periods} warm-up and {timed_periods} timed commit \
         periods; a period is {CHURN_READS_PER_COMMIT} Zipf reads and one batch of \
         {CHURN_BATCH} updates plus its flush"
    ));

    if let Some(r) = rec.as_mut() {
        let mut layers = Layers::new();
        layers.set("graph.load_s", load_s);
        // Replay reads in due order, committing batch j before the first
        // read whose reply saw epoch j + 1.
        let mut steps = Vec::new();
        let mut next_batch = 0;
        for s in warm_reads.iter().chain(&phase.samples) {
            let epoch = s.reply.as_ref().map_or(0, |a| a.graph_epoch) as usize;
            while next_batch < epoch.min(committed) {
                steps.push(Step::Commit(next_batch, &batches[next_batch][..]));
                next_batch += 1;
            }
            steps.push(Step::Query(s.id, s.node));
        }
        while next_batch < committed {
            steps.push(Step::Commit(next_batch, &batches[next_batch][..]));
            next_batch += 1;
        }
        let served = replay::serving(graph.clone(), K, &steps, r);
        serving_layers(&mut layers, &served, &graph, &mut report.notes);
        let d = scrape_delta(&[before], &[after]);
        let rtt = mean_rtt_ms(&phase);
        layers.server(&d, rtt, &mut report.notes);
        layers.client(&phase, &lines, r);
        layers.reconcile(
            mean(&served.cache_us),
            mean(&served.engine_us),
            rtt * 1e3,
            &mut report.notes,
        );
        report.layers = layers.into_metrics();
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// fleet-zipf
// ---------------------------------------------------------------------------

fn fleet_zipf(args: &Args, rec: &mut Option<Recorder>) -> Result<Report, String> {
    let mut report = Report::default();
    let file = inputs::graph_file(&args.out, Scale::Medium)?;
    let (graph, load_s) = load(&file.path, rec)?;
    let (warm_reads, timed_reads) = closed_loop_reads(args, FLEET_READ_QPS);
    // The timed phase reads the same multiset in every run.
    let stream = inputs::zipf_panel(
        &graph,
        &[warm_reads, timed_reads],
        sub_seed(args.seed, 5),
        ZIPF_ALPHA,
    );
    let jobs: Vec<Job> = stream
        .iter()
        .enumerate()
        .map(|(id, &node)| Job {
            id,
            node,
            line: query_line(node, K, None, true),
            due: Duration::ZERO,
            batch: None,
        })
        .collect();
    let lines: Vec<String> = jobs.iter().map(|j| j.line.clone()).collect();
    report.notes.push(stream_note(&lines));

    let (mut fleet, setup) = timed_setup(SETUP_REPS, || {
        start_fleet(&args.rkr, &file.path, FLEET_SHARDS)
    })?;
    let shard_conns: Result<Vec<Conn>, String> = fleet
        .shards()
        .iter()
        .map(|d| Conn::connect(&d.addr).map_err(|e| e.to_string()))
        .collect();
    let mut shard_conns = shard_conns?;
    let scrape_all = |fleet: &mut Fleet, shard_conns: &mut [Conn]| -> Result<_, String> {
        let coord = scrape(&mut fleet.conn, args.trace)?;
        let shards: Result<Vec<Option<Scrape>>, String> = shard_conns
            .iter_mut()
            .map(|c| scrape(c, args.trace))
            .collect();
        Ok((coord, shards?))
    };
    let (warm_jobs, timed_jobs) = jobs.split_at(warm_reads);
    let warm = closed_loop(&mut fleet.conn, warm_jobs.iter().cloned(), rec);
    let (coord_before, shards_before) = scrape_all(&mut fleet, &mut shard_conns)?;
    let rounds = vec![closed_phase(&mut fleet.conn, timed_jobs, rec)];
    let (coord_after, shards_after) = scrape_all(&mut fleet, &mut shard_conns)?;
    let rss = fleet.peak_rss_mb();
    drop(shard_conns);
    fleet.stop();

    let graph = Arc::new(graph);
    let ctx = EngineContext::new(Arc::clone(&graph));
    let mut cache = RefCache::open(&ref_path(args, &file));
    let timed = || rounds.iter().flat_map(|r| &r.samples);
    let nodes = distinct(timed());
    let refs = cache.answers(&ctx, &distinct(warm.iter().chain(timed())), K);
    cache.save();
    report.attempted = (warm.len() + timed().count()) as u64;
    verify(&warm, |s| refs.get(&s.node), &mut report.failures);
    let verified: Vec<u64> = rounds
        .iter()
        .map(|r| verify(&r.samples, |s| refs.get(&s.node), &mut report.failures))
        .collect();
    query_metrics(&mut report, &setup, &rounds, &verified, rss);
    let phase = joined(rounds);
    finish_failures(&mut report);
    report.notes.push(format!(
        "closed loop over 1 connection to rkr coord, {FLEET_SHARDS} shards (--workers 1): \
         {warm_reads} warm-up and {timed_reads} timed Zipf reads"
    ));

    if let Some(r) = rec.as_mut() {
        let mut layers = Layers::new();
        layers.set("graph.load_s", load_s);
        let single = reference(&ctx, &nodes, K);
        let runs: Vec<(u32, &QueryStats)> = nodes
            .iter()
            .map(|q| (*q, single[q].stats.as_ref().expect("fresh reference run")))
            .collect();
        layers.core(&runs, &graph, &mut report.notes);
        layers.set(
            "coord.refine_amplification",
            replay::refine_amplification(&graph, &nodes, K, FLEET_SHARDS, r),
        );
        let shards = scrape_delta(&shards_before, &shards_after);
        let rtt = mean_rtt_ms(&phase);
        layers.server(&shards, rtt, &mut report.notes);
        let coord = scrape_delta(&[coord_before], &[coord_after]);
        let shard_hist = |i: u32| coord.hist(&format!("rkrd_coord_shard_seconds{{shard={i}}}"));
        let p50s: Vec<f64> = (0..FLEET_SHARDS)
            .map(|i| shard_hist(i).quantile(0.5) * 1e3)
            .collect();
        layers.set("coord.shard0.p50_ms", p50s[0]);
        layers.set("coord.shard1.p50_ms", p50s[1]);
        let lat: Vec<f64> = phase
            .samples
            .iter()
            .filter(|s| s.reply.is_ok())
            .map(Sample::latency_ms)
            .collect();
        let slowest = p50s.iter().copied().fold(0.0, f64::max);
        let fleet_p50 = percentile(&lat, 0.5);
        let overhead = fleet_p50 - slowest;
        layers.set("coord.overhead_p50_ms", overhead);
        let received = coord.value("rkrd_coord_candidates_received_total");
        if received > 0.0 {
            layers.set(
                "coord.merge_keep_ratio",
                coord.value("rkrd_coord_candidates_returned_total") / received,
            );
        }
        layers.client(&phase, &lines, r);
        let off = (slowest + overhead - fleet_p50).abs() / fleet_p50.max(1e-9);
        report.notes.push(format!(
            "fleet reconciliation: slowest shard p50 {slowest:.3} ms + coord overhead \
             {overhead:.3} ms vs fleet p50 {fleet_p50:.3} ms: off by {:.1}% (tolerance {:.0}%; \
             overhead is defined as the difference, so the check is that it is not negative) {}",
            off * 100.0,
            RECONCILE_TOL * 100.0,
            if overhead >= 0.0 { "PASS" } else { "FAIL" }
        ));
        if overhead < 0.0 {
            report
                .failures
                .push("fleet reconciliation check failed".into());
        }
        report.layers = layers.into_metrics();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkranks_server::json::Json;

    /// `workloads.json` documents the constants above; keep them in step.
    #[test]
    fn workloads_json_matches_the_constants() {
        let doc = Json::parse(include_str!("../workloads.json")).expect("workloads.json parses");
        let num = |path: &[&str]| {
            let mut v = &doc;
            for key in path {
                v = v
                    .get(key)
                    .unwrap_or_else(|| panic!("workloads.json lacks {path:?}"));
            }
            v.as_f64().expect("a number")
        };
        assert_eq!(num(&["k"]), f64::from(K));
        assert_eq!(num(&["setup_reps"]), SETUP_REPS as f64);
        assert_eq!(num(&["warmup_share"]), WARMUP_SHARE);
        assert_eq!(num(&["graph", "seed"]), inputs::GRAPH_SEED as f64);
        assert_eq!(num(&["zipf", "alpha"]), ZIPF_ALPHA);
        assert_eq!(num(&["zipf", "draw_seed"]), inputs::ZIPF_DRAW_SEED as f64);
        let per_layer = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        let names: Vec<&str> = per_layer
            .iter()
            .map(|m| m.get("metric").and_then(Json::as_str).expect("metric name"))
            .collect();
        let ours: Vec<&str> = LAYER_METRICS.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ours);
        let text = include_str!("../workloads.json");
        for needle in [
            format!("a fixed panel of {COLD_PANEL} distinct nodes"),
            format!("panel seed {COLD_PANEL_SEED}"),
            format!("open, {ZIPF_OPEN_RATE} queries/s over 1 pipelined connection"),
            format!("batches of {CHURN_BATCH} edge adds"),
            format!("after every {CHURN_READS_PER_COMMIT} reads"),
            format!("{CHURN_READ_QPS} queries/s"),
            format!("{FLEET_READ_QPS} queries/s"),
        ] {
            assert!(
                text.contains(&needle),
                "workloads.json should say '{needle}'"
            );
        }
    }

    /// Same seed, same request streams; another seed, other streams.
    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let graph = rkranks_datasets::dblp_like(Scale::Tiny, inputs::GRAPH_SEED);
        let zipf = |seed| inputs::zipf_stream(&graph, 6400, seed, ZIPF_ALPHA);
        assert_eq!(zipf(1), zipf(1));
        assert_ne!(zipf(1), zipf(2));
        // Every node can be drawn, the lowest-degree ones included.
        let drawn: BTreeSet<u32> = zipf(1).into_iter().collect();
        let least = graph.nodes().map(|v| graph.degree(v)).min().expect("nodes");
        assert!(drawn.iter().any(|&n| graph.degree(NodeId(n)) == least));
        // Closed-loop reads: the seed orders a fixed multiset, block by block.
        let panel = |seed| inputs::zipf_panel(&graph, &[100; 10], seed, ZIPF_ALPHA);
        assert_eq!(panel(1), panel(1));
        assert_ne!(panel(1), panel(2));
        let sorted_blocks = |nodes: Vec<u32>| -> Vec<Vec<u32>> {
            nodes
                .chunks(100)
                .map(|c| {
                    let mut c = c.to_vec();
                    c.sort_unstable();
                    c
                })
                .collect()
        };
        assert_eq!(sorted_blocks(panel(1)), sorted_blocks(panel(2)));
        let updates = |seed| {
            let lines: Vec<String> = inputs::update_batches(&graph, 4, CHURN_BATCH, seed)
                .iter()
                .map(|b| inputs::update_line(b))
                .collect();
            inputs::fnv1a(&lines)
        };
        assert_eq!(updates(1), updates(1));
        assert_ne!(updates(1), updates(2));
        let panel = inputs::stratified_panel(&graph, 50, COLD_PANEL_SEED);
        assert_eq!(panel, inputs::stratified_panel(&graph, 50, COLD_PANEL_SEED));
        let distinct: BTreeSet<u32> = panel.iter().copied().collect();
        assert_eq!(distinct.len(), panel.len());
        let jobs = scheduled(&zipf(1), 100.0, Duration::from_secs(2), |n| n.to_string());
        assert_eq!(ramp_count(100.0, Duration::from_secs(2)), 100);
        assert!(jobs.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(jobs[100].due, Duration::from_secs(2));
    }
}
