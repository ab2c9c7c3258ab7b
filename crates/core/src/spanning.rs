//! Silent self-stabilizing spanning-tree construction (the paper's Instruction 1).
//!
//! This is a genuine guarded-rule algorithm on the state model: every node maintains a
//! register `(root, parent, dist, size)` on `O(log n)` bits. A node adopts the
//! lexicographically best offer `(root, dist)` available in its closed neighborhood
//! (preferring smaller root identities, then smaller distances, with its own identity as
//! the fallback root), bounded by `dist < n` so that spurious root identities left by
//! transient faults die out. Once the structure is stable, the `size` field converges
//! bottom-up to the subtree size, providing the size half of the redundant
//! proof-labeling scheme of §IV for free.
//!
//! The stabilized configuration is a BFS spanning tree rooted at the minimum-identity
//! node, with correct distances and subtree sizes, and no rule is enabled (the algorithm
//! is silent).

use rand::rngs::StdRng;
use rand::Rng;

use stst_graph::{Graph, Ident, NodeId};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Algorithm, Codec, CodecCtx, Escaped, FieldReader, Neighborhood, ParentPointer};

/// Register of the spanning-tree construction: `O(log n)` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanningState {
    /// Identity of the claimed root.
    pub root: Ident,
    /// Identity of the parent neighbor, or `⊥` for a (claimed) root.
    pub parent: Option<Ident>,
    /// Claimed hop distance to the root.
    pub dist: u64,
    /// Claimed size of the subtree hanging below the node.
    pub size: u64,
}

impl Codec for SpanningState {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.root, ctx.ident_bits)
            + CodecCtx::opt_uint_bits(&self.parent, ctx.ident_bits)
            + CodecCtx::uint_bits(self.dist, ctx.count_bits)
            + CodecCtx::uint_bits(self.size, ctx.count_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.root, ctx.ident_bits);
        CodecCtx::write_opt_uint(w, &self.parent, ctx.ident_bits);
        CodecCtx::write_uint(w, self.dist, ctx.count_bits);
        CodecCtx::write_uint(w, self.size, ctx.count_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        SpanningState {
            root: CodecCtx::read_uint(r, ctx.ident_bits),
            parent: CodecCtx::read_opt_uint(r, ctx.ident_bits),
            dist: CodecCtx::read_uint(r, ctx.count_bits),
            size: CodecCtx::read_uint(r, ctx.count_bits),
        }
    }

    fn extract(ctx: &CodecCtx, r: &mut FieldReader<'_>) -> Option<Self> {
        Some(SpanningState {
            root: r.uint(ctx.ident_bits)?,
            parent: r.opt_uint(ctx.ident_bits)?,
            dist: r.uint(ctx.count_bits)?,
            size: r.uint(ctx.count_bits)?,
        })
    }
}

impl ParentPointer for SpanningState {
    fn parent_ident(&self) -> Option<Ident> {
        self.parent
    }
}

/// The silent self-stabilizing spanning-tree (leader-elected BFS) construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinIdSpanningTree;

impl Algorithm for MinIdSpanningTree {
    type State = SpanningState;

    fn name(&self) -> &str {
        "silent min-identity spanning tree"
    }

    fn arbitrary_state(&self, graph: &Graph, _node: NodeId, rng: &mut StdRng) -> SpanningState {
        let n = graph.node_count() as u64;
        let parent = match rng.gen_range(0..3) {
            0 => None,
            // Possibly a non-neighbor or non-existent identity: the rules must cope.
            _ => Some(rng.gen_range(0..=2 * n.max(1))),
        };
        SpanningState {
            root: rng.gen_range(0..=2 * n.max(1)),
            parent,
            dist: rng.gen_range(0..=n + 1),
            size: rng.gen_range(0..=n + 1),
        }
    }

    fn rule<N: Neighborhood<SpanningState>>(&self, view: &N) -> Result<SpanningState, Escaped> {
        let (ident, n) = (view.ident(), view.n() as u64);
        // The best `(root, dist, parent)` offer: the node's own identity as a root, or
        // any neighbor offering a smaller root identity within the distance bound
        // `dist + 1 < n`. Saturation keeps out-of-width garbage from wrapping into a
        // fake short offer.
        let mut best: (Ident, u64, Option<Ident>) = (ident, 0, None);
        // The implied subtree size: one plus the sizes of the neighbors that designate
        // this node as their parent under the chosen root. Summed in the same pass
        // under the best root so far, restarting whenever that root drops.
        let mut size = 1u64;
        // A child read under a root below the best one at the time (possible only if
        // its own offer is out of bounds) may carry the final root: recount then.
        let mut missed = false;
        for port in 0..view.degree() {
            let nb = view.register_at(port)?;
            let offer_dist = nb.dist.saturating_add(1);
            if nb.root < ident && offer_dist < n {
                if nb.root < best.0 {
                    size = 1;
                }
                best = best.min((nb.root, offer_dist, Some(view.ident_at(port))));
            }
            if nb.parent == Some(ident) {
                if nb.root == best.0 {
                    size = size.saturating_add(nb.size);
                } else if nb.root < best.0 {
                    missed = true;
                }
            }
        }
        let (root, dist, parent) = best;
        if missed {
            size = 1;
            for port in 0..view.degree() {
                let nb = view.register_at(port)?;
                if nb.parent == Some(ident) && nb.root == root {
                    size = size.saturating_add(nb.size);
                }
            }
        }
        Ok(SpanningState {
            root,
            parent,
            dist,
            size,
        })
    }

    fn is_legal(&self, graph: &Graph, states: &[SpanningState]) -> bool {
        // The parent pointers must encode a spanning tree rooted at the minimum-identity
        // node, with exact distances and subtree sizes.
        let Ok(tree) = stst_runtime::executor::parent_pointer_tree(graph, states) else {
            return false;
        };
        if tree.root() != graph.min_ident_node() {
            return false;
        }
        let root_ident = graph.ident(tree.root());
        let depths = tree.depths();
        let sizes = tree.subtree_sizes();
        graph.nodes().all(|v| {
            let s = &states[v.0];
            s.root == root_ident && s.dist == depths[v.0] as u64 && s.size == sizes[v.0] as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::bfs::is_bfs_tree;
    use stst_graph::generators;
    use stst_runtime::{Executor, ExecutorConfig, SchedulerKind};

    fn converge(
        graph: &Graph,
        seed: u64,
        scheduler: SchedulerKind,
    ) -> (stst_graph::Tree, stst_runtime::Quiescence, usize) {
        let config = ExecutorConfig::with_scheduler(seed, scheduler);
        let mut exec = Executor::from_arbitrary(graph, MinIdSpanningTree, config);
        let q = exec.run_to_quiescence(4_000_000).expect("must converge");
        let bits = exec.peak_space_report().max_bits;
        let tree = exec.extract_tree().expect("stabilized on a spanning tree");
        (tree, q, bits)
    }

    #[test]
    fn stabilizes_on_a_bfs_tree_rooted_at_the_min_identity_node() {
        for seed in 0..4 {
            let g = generators::workload(24, 0.15, seed);
            let (tree, q, _) = converge(&g, seed, SchedulerKind::Central);
            assert!(q.silent);
            assert!(q.legal, "seed {seed}: final configuration must be legal");
            assert_eq!(tree.root(), g.min_ident_node());
            assert!(
                is_bfs_tree(&g, &tree),
                "min-offer adoption builds a BFS tree"
            );
        }
    }

    #[test]
    fn every_daemon_converges_to_a_legal_configuration() {
        let g = generators::workload(16, 0.2, 7);
        for kind in SchedulerKind::all() {
            let (_, q, _) = converge(&g, 3, kind);
            assert!(q.legal, "daemon {kind} must converge");
        }
    }

    #[test]
    fn registers_stay_logarithmic() {
        let g = generators::workload(96, 0.05, 2);
        let (_, _, bits) = converge(&g, 2, SchedulerKind::Central);
        // 4 fields of O(log n) bits each (identities go up to 2n during faults).
        assert!(bits <= 4 * (8 + 2) + 2, "register too large: {bits} bits");
    }

    #[test]
    fn convergence_rounds_are_moderate() {
        // The paper's framework only needs poly(n) rounds; this construction needs O(n).
        for (n, p) in [(16usize, 0.2), (48, 0.1)] {
            let g = generators::workload(n, p, 11);
            let (_, q, _) = converge(&g, 5, SchedulerKind::Synchronous);
            assert!(
                q.rounds <= 3 * n as u64 + 10,
                "n = {n}: took {} rounds, expected O(n)",
                q.rounds
            );
        }
    }

    #[test]
    fn codec_round_trips_across_the_reachable_and_garbage_state_space() {
        use rand::SeedableRng;
        use stst_runtime::codec::assert_codec_roundtrip;
        let g = generators::workload(28, 0.2, 4);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for v in g.nodes() {
            assert_codec_roundtrip(&ctx, &MinIdSpanningTree.arbitrary_state(&g, v, &mut rng));
        }
        for state in [
            SpanningState {
                root: 0,
                parent: None,
                dist: 0,
                size: 0,
            },
            SpanningState {
                root: u64::MAX,
                parent: Some(u64::MAX),
                dist: u64::MAX,
                size: u64::MAX,
            },
        ] {
            assert_codec_roundtrip(&ctx, &state);
        }
    }

    #[test]
    fn field_extraction_matches_decoding_for_random_and_garbage_registers() {
        use rand::SeedableRng;
        use stst_runtime::codec::assert_extract_matches_decode;
        let g = generators::workload(28, 0.2, 4);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut states: Vec<SpanningState> = g
            .nodes()
            .map(|v| MinIdSpanningTree.arbitrary_state(&g, v, &mut rng))
            .collect();
        states.push(SpanningState {
            root: u64::MAX, // escapes the ident field
            parent: Some(1),
            dist: 2,
            size: 3,
        });
        states.push(SpanningState {
            root: 4,
            parent: Some(5),
            dist: u64::MAX, // escapes the count field
            size: 6,
        });
        let ident_max = 1u64 << ctx.ident_bits;
        let count_max = 1u64 << ctx.count_bits;
        for state in &states {
            let escapes = state.root >= ident_max
                || state.parent.is_some_and(|p| p >= ident_max)
                || state.dist >= count_max
                || state.size >= count_max;
            assert_extract_matches_decode(&ctx, state, escapes);
        }
    }

    #[test]
    fn out_of_width_distances_and_sizes_neither_overflow_nor_wrap() {
        // A fault can leave any 64-bit value in a register. `size = u64::MAX` must not
        // overflow the parent's subtree-size sum, nor `dist = u64::MAX` an offer's
        // `+ 1` (debug panics; release wraps into a fake distance-0 offer).
        let g = generators::workload(20, 0.2, 9);
        let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(1));
        exec.run_to_quiescence(2_000_000).unwrap();
        let tree = exec.extract_tree().unwrap();
        let v = g.nodes().find(|&v| tree.parent(v).is_some()).unwrap();
        let settled = exec.states()[v.0];
        for garbage in [
            SpanningState {
                size: u64::MAX,
                ..settled
            },
            SpanningState {
                dist: u64::MAX,
                size: u64::MAX,
                ..settled
            },
        ] {
            let decodes = exec.guard_full_decodes();
            exec.corrupt_node(v, garbage);
            assert!(
                exec.guard_full_decodes() > decodes,
                "the garbage escapes extraction"
            );
            let q = exec.run_to_quiescence(2_000_000).unwrap();
            assert!(q.legal, "{garbage:?}");
            assert_eq!(exec.states()[v.0], settled);
        }
    }

    #[test]
    fn implied_size_counts_children_read_before_their_root_wins() {
        use stst_runtime::{NeighborInfo, View};
        // Node 0 (identity 10, n = 5). Port 0 is a child whose own offer is out of
        // bounds (dist 7); port 1 then offers its root 1 in bounds. The child's root
        // wins only after the child was read, so its size must still be counted.
        let infos = [
            NeighborInfo {
                node: NodeId(1),
                ident: 11,
            },
            NeighborInfo {
                node: NodeId(2),
                ident: 12,
            },
        ];
        let states = [
            SpanningState {
                root: 10,
                parent: None,
                dist: 0,
                size: 1,
            },
            SpanningState {
                root: 1,
                parent: Some(10),
                dist: 7,
                size: 3,
            },
            SpanningState {
                root: 1,
                parent: None,
                dist: 0,
                size: 1,
            },
        ];
        let view = View::new(NodeId(0), 10, 5, &infos, &states);
        assert_eq!(
            MinIdSpanningTree.rule(&view),
            Ok(SpanningState {
                root: 1,
                parent: Some(12),
                dist: 1,
                size: 4,
            })
        );
    }

    #[test]
    fn recovers_after_corrupting_registers() {
        let g = generators::workload(20, 0.2, 9);
        let config = ExecutorConfig::seeded(1);
        let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
        exec.run_to_quiescence(2_000_000).unwrap();
        assert!(exec.is_quiescent());
        // Corrupt half of the registers, including (possibly) the root's.
        exec.corrupt_random_nodes(10);
        let q = exec.run_to_quiescence(2_000_000).expect("must re-converge");
        assert!(q.legal, "recovery must restore a legal configuration");
    }

    #[test]
    fn fake_small_root_identities_die_out() {
        // Plant a configuration where every node claims a root identity smaller than any
        // real identity: the distance bound must flush it out.
        let g = generators::workload(12, 0.3, 4);
        let states: Vec<SpanningState> = g
            .nodes()
            .map(|v| SpanningState {
                root: 0, // no node has identity 0
                parent: g.neighbors(v).first().map(|&(w, _)| g.ident(w)),
                dist: 1,
                size: 1,
            })
            .collect();
        let mut exec =
            Executor::with_states(&g, MinIdSpanningTree, states, ExecutorConfig::seeded(3));
        let q = exec.run_to_quiescence(2_000_000).expect("must converge");
        assert!(q.legal);
        let tree = exec.extract_tree().unwrap();
        assert_eq!(tree.root(), g.min_ident_node());
    }

    #[test]
    fn the_canonical_legal_configuration_is_silent_immediately() {
        // The fixed point of the rules is the *canonical* BFS tree: every node's parent
        // is its smallest-identity neighbor among those one hop closer to the root.
        let g = generators::workload(18, 0.2, 6);
        let root = g.min_ident_node();
        let dist = stst_graph::bfs::distances_from(&g, root);
        let parents: Vec<Option<NodeId>> = g
            .nodes()
            .map(|v| {
                if v == root {
                    None
                } else {
                    g.neighbors(v)
                        .iter()
                        .map(|&(w, _)| w)
                        .filter(|w| dist[w.0] + 1 == dist[v.0])
                        .min_by_key(|&w| g.ident(w))
                }
            })
            .collect();
        let tree = stst_graph::Tree::from_parents_in(&g, parents).unwrap();
        let depths = tree.depths();
        let sizes = tree.subtree_sizes();
        let root_ident = g.ident(root);
        let states: Vec<SpanningState> = g
            .nodes()
            .map(|v| SpanningState {
                root: root_ident,
                parent: tree.parent(v).map(|p| g.ident(p)),
                dist: depths[v.0] as u64,
                size: sizes[v.0] as u64,
            })
            .collect();
        let exec = Executor::with_states(&g, MinIdSpanningTree, states, ExecutorConfig::seeded(0));
        assert!(
            exec.is_quiescent(),
            "the canonical legal configuration must already be silent"
        );
    }
}
