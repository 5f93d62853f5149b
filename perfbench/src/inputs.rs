//! Input generation. Graphs come from `rkranks_datasets` with a fixed
//! graph seed; query and update streams come from `--seed`. The daemons
//! only ever see the generated edge files and request lines.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rkranks_datasets::{dblp_like, update_stream, Scale, UpdateStreamParams};
use rkranks_graph::{Graph, GraphDelta, NodeId};

/// Seed of every generated graph. Fixed, so runs with different
/// `--seed`s query the same graph and their figures are comparable.
pub const GRAPH_SEED: u64 = 7;

/// A generated graph's edge file, and a tag naming its contents.
pub struct GraphFile {
    pub path: PathBuf,
    /// `dblp-<scale>-g<seed>-<FNV-1a of the edge file>`: files cached
    /// under this name (the edge file, reference answers) belong to
    /// exactly this graph, so a change to the generator can never meet a
    /// stale cache.
    pub tag: String,
}

/// Generate the `dblp_like` graph for `scale` and write its edge file
/// under `out/graphs/`, unless a file with the same contents is there.
pub fn graph_file(out: &Path, scale: Scale) -> Result<GraphFile, String> {
    let mut bytes = Vec::new();
    rkranks_graph::io::write_graph(&dblp_like(scale, GRAPH_SEED), &mut bytes)
        .map_err(|e| e.to_string())?;
    let tag = format!(
        "dblp-{}-g{GRAPH_SEED}-{:016x}",
        scale.name(),
        fnv1a_bytes(&bytes)
    );
    let dir = out.join("graphs");
    let path = dir.join(format!("{tag}.edges"));
    if !path.exists() {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(GraphFile { path, tag })
}

/// A degree-stratified panel of `size` distinct nodes: nodes sorted by
/// `(degree, id)` are cut into `size` equal strata and one node is drawn
/// from each. Query cost on dblp graphs falls steeply with degree, so
/// the panel has the population's cost profile by construction.
pub fn stratified_panel(graph: &Graph, size: usize, seed: u64) -> Vec<u32> {
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.sort_by_key(|&v| (graph.degree(v), v));
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = nodes.len() as f64 / size as f64;
    (0..size)
        .map(|s| {
            let lo = (s as f64 * stride) as usize;
            let hi = (((s + 1) as f64 * stride) as usize).clamp(lo + 1, nodes.len());
            nodes[rng.random_range(lo..hi)].0
        })
        .collect()
}

/// `count` query nodes drawn by `rkranks_eval::workload::zipf_queries`:
/// Zipf (α = `alpha`) over every node, ranked by degree.
pub fn zipf_stream(graph: &Graph, count: usize, seed: u64, alpha: f64) -> Vec<u32> {
    rkranks_eval::workload::zipf_queries(graph, count, seed, alpha, |_| true)
        .into_iter()
        .map(|v| v.0)
        .collect()
}

/// Seed of the Zipf draws of the closed-loop workloads. Fixed, like the
/// graph: `--seed` orders the draws.
pub const ZIPF_DRAW_SEED: u64 = 13;

/// A closed loop's reads: Zipf draws made with [`ZIPF_DRAW_SEED`], as
/// many as `blocks` adds up to, shuffled by `order_seed` within each
/// consecutive block. Every run sends the same multiset of nodes in each
/// block, including the same draws from the slow low-degree tail
/// (milliseconds to seconds each); only the order changes.
pub fn zipf_panel(graph: &Graph, blocks: &[usize], order_seed: u64, alpha: f64) -> Vec<u32> {
    let mut nodes = zipf_stream(graph, blocks.iter().sum(), ZIPF_DRAW_SEED, alpha);
    let mut rng = StdRng::seed_from_u64(order_seed);
    let mut rest = &mut nodes[..];
    for &len in blocks {
        let (block, tail) = rest.split_at_mut(len);
        block.shuffle(&mut rng);
        rest = tail;
    }
    nodes
}

/// `batches` update batches of `per_batch` edge adds, removes and
/// reweights each (no node arrivals), valid in order against `graph`.
pub fn update_batches(
    graph: &Graph,
    batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<Vec<GraphDelta>> {
    let params = UpdateStreamParams {
        ops: batches * per_batch,
        seed,
        add_nodes: 0,
        ..UpdateStreamParams::default()
    };
    update_stream(graph, &params)
        .chunks(per_batch)
        .map(<[GraphDelta]>::to_vec)
        .collect()
}

/// The wire form of one update batch.
pub fn update_line(batch: &[GraphDelta]) -> String {
    let ops: Vec<String> = batch
        .iter()
        .map(|d| match *d {
            GraphDelta::AddNode => "[\"add-node\"]".to_string(),
            GraphDelta::AddEdge { u, v, w } => format!("[\"add\",{u},{v},{w}]"),
            GraphDelta::RemoveEdge { u, v } => format!("[\"rm\",{u},{v}]"),
            GraphDelta::Reweight { u, v, w } => format!("[\"reweight\",{u},{v},{w}]"),
        })
        .collect();
    format!("{{\"op\":\"update\",\"ops\":[{}]}}", ops.join(","))
}

/// Mix a workload tag into the run seed, so the streams of one run are
/// independent of each other.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ tag.rotate_left(32)).next_u64()
}

/// FNV-1a over request lines (each followed by a newline, as sent).
pub fn fnv1a(lines: &[String]) -> u64 {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a_bytes(&bytes)
}

fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
