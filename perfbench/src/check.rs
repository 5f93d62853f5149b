//! Output checking: every reply's ranks are compared, as a multiset,
//! with an in-process `dynamic-three` reference on the same graph.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rkranks_core::{EngineContext, QueryRequest, QueryStats, Strategy};
use rkranks_graph::NodeId;

/// The reference answer for one query node.
#[derive(Clone)]
pub struct RefAnswer {
    /// Sorted ranks of the exact answer.
    pub ranks: Vec<u32>,
    /// Work counters and time of the reference run (absent when the
    /// answer came from the on-disk cache).
    pub stats: Option<QueryStats>,
    pub elapsed: Duration,
}

pub fn reference_strategy() -> Strategy {
    "dynamic-three"
        .parse()
        .expect("dynamic-three is a strategy")
}

/// Run `dynamic-three` for every node in `nodes` on two threads (the
/// most the benchmark allows itself).
pub fn reference(ctx: &EngineContext, nodes: &[u32], k: u32) -> BTreeMap<u32, RefAnswer> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut scratch = ctx.new_scratch();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&q) = nodes.get(i) else { break };
                    let req = QueryRequest::new(NodeId(q), k).with_strategy(reference_strategy());
                    let t0 = Instant::now();
                    let outcome = ctx
                        .execute(&mut scratch, &req)
                        .expect("reference query on a valid node");
                    let elapsed = t0.elapsed();
                    let mut ranks: Vec<u32> =
                        outcome.result.entries.iter().map(|e| e.rank).collect();
                    ranks.sort_unstable();
                    let answer = RefAnswer {
                        ranks,
                        stats: Some(outcome.result.stats),
                        elapsed,
                    };
                    out.lock().expect("reference map").insert(q, answer);
                }
            });
        }
    });
    out.into_inner().expect("reference map")
}

/// Reference answers for a fixed graph, cached on disk between runs of
/// one checkout (`node rank,rank,...` per line).
pub struct RefCache {
    path: PathBuf,
    known: BTreeMap<u32, Vec<u32>>,
    dirty: bool,
}

impl RefCache {
    pub fn open(path: &Path) -> RefCache {
        let mut known = BTreeMap::new();
        for line in std::fs::read_to_string(path).unwrap_or_default().lines() {
            let mut parts = line.split(' ');
            let node = parts.next().and_then(|n| n.parse().ok());
            let ranks: Option<Vec<u32>> = match parts.next() {
                Some("") | None => Some(Vec::new()),
                Some(r) => r.split(',').map(|x| x.parse().ok()).collect(),
            };
            if let (Some(node), Some(ranks)) = (node, ranks) {
                known.insert(node, ranks);
            }
        }
        RefCache {
            path: path.to_path_buf(),
            known,
            dirty: false,
        }
    }

    /// Answers for `nodes`, computing (and remembering) the missing ones.
    pub fn answers(
        &mut self,
        ctx: &EngineContext,
        nodes: &[u32],
        k: u32,
    ) -> BTreeMap<u32, RefAnswer> {
        let missing: Vec<u32> = nodes
            .iter()
            .copied()
            .filter(|n| !self.known.contains_key(n))
            .collect();
        let mut fresh = reference(ctx, &missing, k);
        for (&n, a) in &fresh {
            self.known.insert(n, a.ranks.clone());
            self.dirty = true;
        }
        for &n in nodes {
            if let Some(r) = self.known.get(&n) {
                fresh.entry(n).or_insert_with(|| RefAnswer {
                    ranks: r.clone(),
                    stats: None,
                    elapsed: Duration::ZERO,
                });
            }
        }
        fresh
    }

    pub fn save(&self) {
        if !self.dirty {
            return;
        }
        let text: String = self
            .known
            .iter()
            .map(|(n, r)| {
                let ranks: Vec<String> = r.iter().map(u32::to_string).collect();
                format!("{n} {}\n", ranks.join(","))
            })
            .collect();
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// Compare one reply's entries with the reference ranks; `Err` describes
/// the mismatch.
pub fn compare(entries: &[(u32, u32)], reference: &[u32]) -> Result<(), String> {
    let mut got: Vec<u32> = entries.iter().map(|&(_, r)| r).collect();
    got.sort_unstable();
    if got == reference {
        Ok(())
    } else {
        Err(format!("ranks {got:?}, expected {reference:?}"))
    }
}
