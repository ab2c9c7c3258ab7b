//! The §III example: silent, space-optimal, self-stabilizing BFS construction.
//!
//! Two variants are provided:
//!
//! * [`RootedBfs`] — the designated-root variant matching the paper's example: a fixed
//!   root `r` (identified by its incorruptible identity) and registers `(parent, dist)`
//!   on `O(log n)` bits; every node adopts the neighbor offering the smallest distance.
//! * The leader-elected variant is [`crate::spanning::MinIdSpanningTree`], whose fixed
//!   point is a BFS tree rooted at the minimum-identity node.

use rand::rngs::StdRng;
use rand::Rng;

use stst_graph::{Graph, Ident, NodeId};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Algorithm, Codec, CodecCtx, Escaped, FieldReader, Neighborhood, ParentPointer};

/// Register of the rooted BFS construction: parent pointer plus distance, `O(log n)` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsState {
    /// Identity of the parent neighbor (`⊥` at the root, or while orphaned).
    pub parent: Option<Ident>,
    /// Claimed hop distance to the root (`n` is used as the "unreachable" sentinel).
    pub dist: u64,
}

impl Codec for BfsState {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::opt_uint_bits(&self.parent, ctx.ident_bits)
            + CodecCtx::uint_bits(self.dist, ctx.count_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_opt_uint(w, &self.parent, ctx.ident_bits);
        CodecCtx::write_uint(w, self.dist, ctx.count_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        BfsState {
            parent: CodecCtx::read_opt_uint(r, ctx.ident_bits),
            dist: CodecCtx::read_uint(r, ctx.count_bits),
        }
    }

    fn extract(ctx: &CodecCtx, r: &mut FieldReader<'_>) -> Option<Self> {
        Some(BfsState {
            parent: r.opt_uint(ctx.ident_bits)?,
            dist: r.uint(ctx.count_bits)?,
        })
    }
}

impl ParentPointer for BfsState {
    fn parent_ident(&self) -> Option<Ident> {
        self.parent
    }
}

/// Silent self-stabilizing BFS construction with a designated root.
#[derive(Clone, Copy, Debug)]
pub struct RootedBfs {
    /// Identity of the designated root (an incorruptible constant known to every node —
    /// in practice the outcome of leader election).
    pub root_ident: Ident,
}

impl RootedBfs {
    /// BFS rooted at the node carrying identity `root_ident`.
    pub fn new(root_ident: Ident) -> Self {
        RootedBfs { root_ident }
    }
}

impl Algorithm for RootedBfs {
    type State = BfsState;

    fn name(&self) -> &str {
        "silent rooted BFS"
    }

    fn arbitrary_state(&self, graph: &Graph, _node: NodeId, rng: &mut StdRng) -> BfsState {
        let n = graph.node_count() as u64;
        let parent = match rng.gen_range(0..3) {
            0 => None,
            _ => Some(rng.gen_range(0..=2 * n.max(1))),
        };
        BfsState {
            parent,
            dist: rng.gen_range(0..=n + 1),
        }
    }

    fn rule<N: Neighborhood<BfsState>>(&self, view: &N) -> Result<BfsState, Escaped> {
        let n = view.n() as u64;
        if view.ident() == self.root_ident {
            return Ok(BfsState {
                parent: None,
                dist: 0,
            });
        }
        // Adopt the neighbor with the smallest distance (ties broken by identity, the
        // first port winning among equal keys); distances are capped at n − 1, the
        // orphan state is (⊥, n). Saturation keeps out-of-width garbage from wrapping
        // into a fake short offer.
        let mut best: Option<(u64, Ident)> = None;
        for port in 0..view.degree() {
            let dist = view.register_at(port)?.dist;
            if dist.saturating_add(1) < n {
                let key = (dist, view.ident_at(port));
                if best.is_none_or(|incumbent| key < incumbent) {
                    best = Some(key);
                }
            }
        }
        Ok(match best {
            Some((dist, parent)) => BfsState {
                parent: Some(parent),
                dist: dist + 1,
            },
            None => BfsState {
                parent: None,
                dist: n,
            },
        })
    }

    fn is_legal(&self, graph: &Graph, states: &[BfsState]) -> bool {
        let Ok(tree) = stst_runtime::executor::parent_pointer_tree(graph, states) else {
            return false;
        };
        if graph.ident(tree.root()) != self.root_ident {
            return false;
        }
        // Legality for the BFS task: tree depths equal graph distances, and registers
        // store those depths.
        if !stst_graph::bfs::is_bfs_tree(graph, &tree) {
            return false;
        }
        let depths = tree.depths();
        graph
            .nodes()
            .all(|v| states[v.0].dist == depths[v.0] as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;
    use stst_runtime::{Executor, ExecutorConfig, SchedulerKind};

    fn run(graph: &Graph, seed: u64, kind: SchedulerKind) -> (stst_runtime::Quiescence, usize) {
        let root_ident = graph.ident(graph.min_ident_node());
        let algo = RootedBfs::new(root_ident);
        let mut exec =
            Executor::from_arbitrary(graph, algo, ExecutorConfig::with_scheduler(seed, kind));
        let q = exec
            .run_to_quiescence(4_000_000)
            .expect("BFS must converge");
        (q, exec.peak_space_report().max_bits)
    }

    #[test]
    fn stabilizes_on_a_bfs_tree_from_arbitrary_states() {
        for seed in 0..5 {
            let g = generators::workload(30, 0.15, seed);
            let (q, _) = run(&g, seed, SchedulerKind::Central);
            assert!(q.silent && q.legal, "seed {seed}");
        }
    }

    #[test]
    fn works_on_structured_topologies_and_all_daemons() {
        for g in [
            generators::ring(12),
            generators::grid(4, 5),
            generators::star(14),
        ] {
            for kind in SchedulerKind::all() {
                let (q, _) = run(&g, 3, kind);
                assert!(q.legal, "daemon {kind} on a structured topology");
            }
        }
    }

    #[test]
    fn registers_are_logarithmic() {
        let g = generators::workload(128, 0.04, 1);
        let (_, bits) = run(&g, 1, SchedulerKind::Central);
        assert!(
            bits <= 2 * 9 + 3,
            "BFS registers should be O(log n) bits, got {bits}"
        );
    }

    #[test]
    fn rounds_grow_linearly_not_exponentially() {
        let mut previous = 0u64;
        for n in [16usize, 32, 64] {
            let g = generators::workload(n, 0.1, 5);
            let (q, _) = run(&g, 5, SchedulerKind::Synchronous);
            assert!(
                q.rounds <= 3 * n as u64 + 10,
                "n = {n}: {} rounds",
                q.rounds
            );
            previous = previous.max(q.rounds);
        }
        assert!(previous > 0);
    }

    #[test]
    fn codec_round_trips_across_the_reachable_and_garbage_state_space() {
        use rand::SeedableRng;
        use stst_runtime::codec::assert_codec_roundtrip;
        let g = generators::workload(30, 0.15, 2);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let algo = RootedBfs::new(g.ident(g.min_ident_node()));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for v in g.nodes() {
            assert_codec_roundtrip(&ctx, &algo.arbitrary_state(&g, v, &mut rng));
        }
        // Boundary shapes: the ⊥ parent, distance 0, and out-of-width fault garbage.
        for state in [
            BfsState {
                parent: None,
                dist: 0,
            },
            BfsState {
                parent: Some(0),
                dist: 0,
            },
            BfsState {
                parent: Some(u64::MAX),
                dist: u64::MAX,
            },
        ] {
            assert_codec_roundtrip(&ctx, &state);
        }
    }

    #[test]
    fn field_extraction_matches_decoding_for_random_and_garbage_registers() {
        use rand::SeedableRng;
        use stst_runtime::codec::assert_extract_matches_decode;
        let g = generators::workload(30, 0.15, 2);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let algo = RootedBfs::new(g.ident(g.min_ident_node()));
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut states: Vec<BfsState> = g
            .nodes()
            .map(|v| algo.arbitrary_state(&g, v, &mut rng))
            .collect();
        states.push(BfsState {
            parent: Some(u64::MAX), // escapes the ident field
            dist: 3,
        });
        states.push(BfsState {
            parent: Some(2),
            dist: u64::MAX, // escapes the count field
        });
        states.push(BfsState {
            parent: None,
            dist: 0,
        });
        for state in &states {
            let escapes = state.parent.is_some_and(|p| p >= 1 << ctx.ident_bits)
                || state.dist >= 1 << ctx.count_bits;
            assert_extract_matches_decode(&ctx, state, escapes);
        }
    }

    #[test]
    fn out_of_width_distances_neither_overflow_nor_wrap_into_short_offers() {
        // A fault can leave any 64-bit value in a register. `dist = u64::MAX` must not
        // overflow the `+ 1` of an offer (a debug panic), nor wrap into a fake
        // distance-0 offer (release), on either guard tier.
        let g = generators::workload(25, 0.2, 8);
        let root_ident = g.ident(g.min_ident_node());
        let mut exec =
            Executor::from_arbitrary(&g, RootedBfs::new(root_ident), ExecutorConfig::seeded(4));
        exec.run_to_quiescence(2_000_000).unwrap();
        let v = g.nodes().find(|&v| g.ident(v) != root_ident).unwrap();
        exec.corrupt_node(
            v,
            BfsState {
                parent: Some(1),
                dist: u64::MAX,
            },
        );
        assert!(
            exec.guard_full_decodes() > 0,
            "the garbage escapes extraction"
        );
        let q = exec.run_to_quiescence(2_000_000).unwrap();
        assert!(q.legal);
    }

    #[test]
    fn recovery_after_targeted_corruption() {
        let g = generators::workload(25, 0.2, 8);
        let root_ident = g.ident(g.min_ident_node());
        let mut exec =
            Executor::from_arbitrary(&g, RootedBfs::new(root_ident), ExecutorConfig::seeded(2));
        exec.run_to_quiescence(2_000_000).unwrap();
        // Corrupt a handful of registers with absurd distances and parents.
        exec.corrupt_node(
            NodeId(3),
            BfsState {
                parent: Some(9999),
                dist: 0,
            },
        );
        exec.corrupt_node(
            NodeId(7),
            BfsState {
                parent: None,
                dist: 17,
            },
        );
        let q = exec.run_to_quiescence(2_000_000).unwrap();
        assert!(q.legal);
    }
}
