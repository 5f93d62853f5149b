//! Sharded contexts prune through candidates they do not own.
//!
//! Under the dynamic and indexed strategies a shard bounds every
//! candidate, owned or not, and refines a foreign one only when a
//! descendant needs its rank as a bound. These tests pin the two halves
//! of that contract: the merged shard answers stay rank-identical to the
//! single box for every strategy and shard count, and the fleet's total
//! refinement work stays within a small factor of the single box's.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use rkranks_core::{
    EngineContext, IndexAccess, IndexDelta, IndexParams, Partition, QueryRequest, RkrIndex,
    Strategy,
};
use rkranks_datasets::{dblp_like, Scale};
use rkranks_graph::{EdgeDirection, Graph, GraphBuilder, HubLabels, HubOrder, NodeId, ShardSlice};

const K_MAX: u32 = 8;

fn arb_graph(max_nodes: u32) -> impl proptest::strategy::Strategy<Value = Graph> {
    (2..=max_nodes, 0u32..2).prop_flat_map(move |(n, directed)| {
        let backbone = proptest::collection::vec(0.1f64..8.0, (n - 1) as usize);
        let extra = proptest::collection::vec((0..n, 0..n, 0.1f64..8.0), 0..40);
        (Just(n), Just(directed == 1), backbone, extra).prop_map(|(n, directed, bb, extra)| {
            let dir = if directed {
                EdgeDirection::Directed
            } else {
                EdgeDirection::Undirected
            };
            let mut b = GraphBuilder::new(dir);
            b.reserve_nodes(n);
            for (i, w) in bb.into_iter().enumerate() {
                b.add_edge(i as u32 + 1, (i as u32) / 2, w).unwrap();
            }
            for (u, v, w) in extra {
                if u != v {
                    // Duplicate edges are rejected; skipping them keeps
                    // the graph simple.
                    let _ = b.add_edge(u, v, w);
                }
            }
            b.build().unwrap()
        })
    })
}

/// How a sharded run reads its index (non-indexed strategies ignore it).
#[derive(Clone, Copy, Debug)]
enum Binding {
    /// One index per shard, sharpened in place across every query.
    Live,
    /// A frozen full-graph index plus a per-query write log.
    Snapshot,
}

/// A context over `g`: monochromatic, or bichromatic over `partition`.
fn context(g: &Graph, partition: Option<&Partition>) -> EngineContext {
    match partition {
        Some(p) => EngineContext::bichromatic(g, p.clone()),
        None => EngineContext::new(g),
    }
}

/// The answers for `queries` through `shards` slices, merged by the
/// coordinator's rule (concatenate, sort by rank, truncate to k).
#[allow(clippy::too_many_arguments)]
fn merged_ranks(
    g: &Graph,
    partition: Option<&Partition>,
    queries: &[NodeId],
    oracle: &Arc<HubLabels>,
    full_index: &RkrIndex,
    strategy: Strategy,
    binding: Binding,
    shards: u32,
    k: u32,
) -> Vec<Vec<u32>> {
    let ctxs: Vec<EngineContext> = (0..shards)
        .map(|i| {
            context(g, partition)
                .with_shard_slice(ShardSlice::new(i, shards, 7))
                .with_oracle(Arc::clone(oracle) as _)
        })
        .collect();
    let mut live: Vec<RkrIndex> = (0..shards)
        .map(|_| RkrIndex::empty(g.num_nodes(), K_MAX))
        .collect();
    let mut scratch = ctxs[0].new_scratch();
    queries
        .iter()
        .map(|&q| {
            let req = QueryRequest::new(q, k).with_strategy(strategy);
            let mut merged: Vec<(u32, NodeId)> = Vec::new();
            for (i, ctx) in ctxs.iter().enumerate() {
                let mut delta = IndexDelta::for_index(full_index);
                let mut access = match binding {
                    Binding::Live => IndexAccess::Live(&mut live[i]),
                    Binding::Snapshot => IndexAccess::Snapshot {
                        snapshot: full_index,
                        delta: &mut delta,
                    },
                };
                let out = ctx
                    .execute_with(&mut scratch, Some(&mut access), &req)
                    .unwrap();
                for e in &out.result.entries {
                    assert!(
                        ctx.shard_slice().unwrap().owns(e.node),
                        "{} q={q}: shard {i}/{shards} returned foreign node {}",
                        strategy.name(),
                        e.node
                    );
                    merged.push((e.rank, e.node));
                }
            }
            merged.sort_unstable();
            merged.truncate(k as usize);
            merged.into_iter().map(|(r, _)| r).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_merges_match_single_box_for_every_strategy(
        g in arb_graph(14),
        k in 1u32..5,
        bichromatic in 0u32..2,
        v2_salt in 0u64..1000,
    ) {
        // Bichromatic runs put roughly a third of the nodes in V2 (the
        // queries and the counted class); the rest are the candidates.
        let mask: Vec<bool> = g
            .nodes()
            .map(|v| (u64::from(v.0) * 2_654_435_761 + v2_salt) % 3 == 0)
            .collect();
        let partition = (bichromatic == 1 && mask.iter().any(|&b| b) && !mask.iter().all(|&b| b))
            .then(|| Partition::from_v2_mask(mask));
        let whole = context(&g, partition.as_ref());
        let queries: Vec<NodeId> = g
            .nodes()
            .filter(|&q| partition.as_ref().is_none_or(|p| p.is_v2(q)))
            .collect();
        let mut scratch = whole.new_scratch();
        let want: Vec<Vec<u32>> = queries
            .iter()
            .map(|&q| {
                let req = QueryRequest::new(q, k).with_strategy(Strategy::Dynamic(
                    rkranks_core::BoundConfig::ALL,
                ));
                whole.execute(&mut scratch, &req).unwrap().result.ranks()
            })
            .collect();
        let oracle = Arc::new(HubLabels::build(&g, HubOrder::Degree, 0).0);
        let (full_index, _) = whole.build_index(&IndexParams {
            hub_fraction: 0.5,
            prefix_fraction: 0.5,
            k_max: K_MAX,
            ..Default::default()
        });
        for strategy in Strategy::ALL {
            let bindings: &[Binding] = match strategy {
                Strategy::Indexed(_) => &[Binding::Live, Binding::Snapshot],
                _ => &[Binding::Live],
            };
            for &binding in bindings {
                for shards in 1..=3 {
                    let got = merged_ranks(
                        &g, partition.as_ref(), &queries, &oracle, &full_index, strategy,
                        binding, shards, k,
                    );
                    for (q, (got, want)) in queries.iter().zip(got.iter().zip(&want)) {
                        prop_assert_eq!(
                            got, want,
                            "{} ({:?}) over {} shards, q={}, k={}, directed={}, bichromatic={}",
                            strategy.name(), binding, shards, q, k, g.is_directed(),
                            partition.is_some()
                        );
                    }
                }
            }
        }
    }
}

/// Σ refinements over both slices of a 2-shard fleet, against the single
/// box, for a fixed node set on a seeded graph. Counters are
/// deterministic, so this is an exact regression gate on the fleet's work
/// amplification (a shard that never learns a foreign candidate's rank
/// cannot prune below it, which cost about 50× here).
#[test]
fn two_shards_refine_at_most_five_times_the_single_box() {
    let g = dblp_like(Scale::Small, 11);
    let strategy = Strategy::Dynamic(rkranks_core::BoundConfig::ALL);
    let nodes: Vec<NodeId> = g.nodes().step_by(97).collect();
    let refinements = |ctx: &EngineContext| -> u64 {
        let mut scratch = ctx.new_scratch();
        nodes
            .iter()
            .map(|&q| {
                let req = QueryRequest::new(q, 10).with_strategy(strategy);
                ctx.execute(&mut scratch, &req)
                    .unwrap()
                    .result
                    .stats
                    .refinement_calls
            })
            .sum()
    };
    let single = refinements(&EngineContext::new(&g));
    let sharded: u64 = (0..2)
        .map(|i| refinements(&EngineContext::new(&g).with_shard_slice(ShardSlice::new(i, 2, 0))))
        .sum();
    assert!(single > 0);
    let ratio = sharded as f64 / single as f64;
    assert!(
        ratio <= 5.0,
        "2 shards refined {sharded} times against {single} on one box ({ratio:.1}×)"
    );
}
