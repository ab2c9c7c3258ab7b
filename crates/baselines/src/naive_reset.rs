//! A genuine guarded-rule spanning-tree construction that keeps only the distance half
//! of the proof labels.
//!
//! It is silent, compact (`O(log n)` bits) and correct as a *spanning tree*
//! construction, but without the size component the labeling is not malleable: any
//! in-place improvement of the tree would transiently violate the distance labels and
//! raise alarms, which is why the paper introduces the redundant scheme of §IV. This
//! baseline is the ablation arm of experiment E9.

use rand::rngs::StdRng;
use rand::Rng;

use stst_graph::{Graph, Ident, NodeId};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Algorithm, Codec, CodecCtx, Escaped, FieldReader, Neighborhood, ParentPointer};

/// Register: claimed root, parent pointer and distance only (no subtree size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistanceOnlyState {
    /// Identity of the claimed root.
    pub root: Ident,
    /// Identity of the parent neighbor, or `⊥`.
    pub parent: Option<Ident>,
    /// Claimed hop distance to the root.
    pub dist: u64,
}

impl Codec for DistanceOnlyState {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.root, ctx.ident_bits)
            + CodecCtx::opt_uint_bits(&self.parent, ctx.ident_bits)
            + CodecCtx::uint_bits(self.dist, ctx.count_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.root, ctx.ident_bits);
        CodecCtx::write_opt_uint(w, &self.parent, ctx.ident_bits);
        CodecCtx::write_uint(w, self.dist, ctx.count_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        DistanceOnlyState {
            root: CodecCtx::read_uint(r, ctx.ident_bits),
            parent: CodecCtx::read_opt_uint(r, ctx.ident_bits),
            dist: CodecCtx::read_uint(r, ctx.count_bits),
        }
    }

    fn extract(ctx: &CodecCtx, r: &mut FieldReader<'_>) -> Option<Self> {
        Some(DistanceOnlyState {
            root: r.uint(ctx.ident_bits)?,
            parent: r.opt_uint(ctx.ident_bits)?,
            dist: r.uint(ctx.count_bits)?,
        })
    }
}

impl ParentPointer for DistanceOnlyState {
    fn parent_ident(&self) -> Option<Ident> {
        self.parent
    }
}

/// The distance-only silent spanning-tree construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceOnlySpanningTree;

impl Algorithm for DistanceOnlySpanningTree {
    type State = DistanceOnlyState;

    fn name(&self) -> &str {
        "distance-only spanning tree (ablation baseline)"
    }

    fn arbitrary_state(&self, graph: &Graph, _node: NodeId, rng: &mut StdRng) -> DistanceOnlyState {
        let n = graph.node_count() as u64;
        DistanceOnlyState {
            root: rng.gen_range(0..=2 * n.max(1)),
            parent: if rng.gen_bool(0.3) {
                None
            } else {
                Some(rng.gen_range(0..=2 * n.max(1)))
            },
            dist: rng.gen_range(0..=n + 1),
        }
    }

    fn rule<N: Neighborhood<DistanceOnlyState>>(
        &self,
        view: &N,
    ) -> Result<DistanceOnlyState, Escaped> {
        let (ident, n) = (view.ident(), view.n() as u64);
        let mut best: (Ident, u64, Option<Ident>) = (ident, 0, None);
        for port in 0..view.degree() {
            let nb = view.register_at(port)?;
            // Saturating: out-of-width garbage must not wrap into a short offer.
            let offer_dist = nb.dist.saturating_add(1);
            if nb.root < ident && offer_dist < n {
                best = best.min((nb.root, offer_dist, Some(view.ident_at(port))));
            }
        }
        Ok(DistanceOnlyState {
            root: best.0,
            parent: best.2,
            dist: best.1,
        })
    }

    fn is_legal(&self, graph: &Graph, states: &[DistanceOnlyState]) -> bool {
        let Ok(tree) = stst_runtime::executor::parent_pointer_tree(graph, states) else {
            return false;
        };
        tree.root() == graph.min_ident_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;
    use stst_runtime::{Executor, ExecutorConfig};

    #[test]
    fn converges_silently_to_a_spanning_tree() {
        for seed in 0..3 {
            let g = generators::workload(24, 0.15, seed);
            let mut exec = Executor::from_arbitrary(
                &g,
                DistanceOnlySpanningTree,
                ExecutorConfig::seeded(seed),
            );
            let q = exec.run_to_quiescence(2_000_000).unwrap();
            assert!(q.silent && q.legal, "seed {seed}");
        }
    }

    #[test]
    fn field_extraction_matches_decoding_for_random_and_garbage_registers() {
        use rand::SeedableRng;
        use stst_runtime::codec::assert_extract_matches_decode;
        let g = generators::workload(24, 0.15, 3);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut states: Vec<DistanceOnlyState> = g
            .nodes()
            .map(|v| DistanceOnlySpanningTree.arbitrary_state(&g, v, &mut rng))
            .collect();
        states.push(DistanceOnlyState {
            root: u64::MAX, // escapes the ident field
            parent: None,
            dist: u64::MAX, // escapes the count field
        });
        let ident_max = 1u64 << ctx.ident_bits;
        for state in &states {
            let escapes = state.root >= ident_max
                || state.parent.is_some_and(|p| p >= ident_max)
                || state.dist >= 1 << ctx.count_bits;
            assert_extract_matches_decode(&ctx, state, escapes);
        }
    }

    #[test]
    fn uses_fewer_bits_than_the_redundant_construction() {
        let g = generators::workload(64, 0.08, 1);
        let mut exec =
            Executor::from_arbitrary(&g, DistanceOnlySpanningTree, ExecutorConfig::seeded(1));
        exec.run_to_quiescence(2_000_000).unwrap();
        // Compare the stabilized register sizes (peaks include the arbitrary initial
        // garbage, which says nothing about the algorithms).
        let ours = exec.space_report().max_bits;
        let full = stst_core::mst::spanning_phase_register_bits(&g, 1);
        assert!(
            ours <= full,
            "distance-only registers ({ours}) exceed the redundant ones ({full})"
        );
    }
}
