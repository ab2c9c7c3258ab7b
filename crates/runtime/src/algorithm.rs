//! The guarded-rule transition function of a self-stabilizing algorithm.

use rand::rngs::StdRng;

use stst_graph::{Graph, Ident, NodeId};

use crate::register::Register;
use crate::view::{Escaped, Neighborhood};

/// A self-stabilizing algorithm in the state model.
///
/// An algorithm is a transition function `δ : S* → S` evaluated over the closed 1-hop
/// neighborhood of a node ([`Algorithm::rule`]). A node is **enabled** (activatable)
/// when `δ` differs from its current register ([`Algorithm::step`]); the scheduler
/// decides which enabled nodes actually execute their step.
///
/// Algorithms are `Sync`: the rule is a pure function of the neighborhood, and the
/// parallel wave executor evaluates it concurrently from worker threads over the
/// immutable pre-round configuration. (Every transition function is a stateless rule
/// table in practice, so the bound is satisfied by construction.)
pub trait Algorithm: Sync {
    /// The register content maintained at each node.
    type State: Register;

    /// Human-readable algorithm name (used in traces and reports).
    fn name(&self) -> &str;

    /// An arbitrary state for `node`, used both to build *arbitrary initial
    /// configurations* (self-stabilization must cope with any of them) and to model
    /// transient faults that corrupt registers. Implementations should cover the whole
    /// reachable (and ideally some unreachable) state space.
    fn arbitrary_state(&self, graph: &Graph, node: NodeId, rng: &mut StdRng) -> Self::State;

    /// The transition function `δ`: the register content the guarded rules prescribe
    /// for the node, given its closed neighborhood (its current register when no rule
    /// is enabled).
    ///
    /// Written once, generic over the neighborhood: the executor runs it first over
    /// the packed store's decode-free [`crate::RawView`] and, when a read returns
    /// [`Escaped`], runs it again over decoded registers — so propagate read errors
    /// with `?` and let the executor pick the tier. A fault can leave any 64-bit value
    /// in a register, so arithmetic on register fields must not overflow (saturate).
    fn rule<N: Neighborhood<Self::State>>(&self, view: &N) -> Result<Self::State, Escaped>;

    /// The guarded step: `Some(δ)` if the node is enabled (`δ` differs from its
    /// register), `None` otherwise. This is what the executor evaluates; algorithms
    /// implement [`Algorithm::rule`] and keep this default.
    fn step<N: Neighborhood<Self::State>>(&self, view: &N) -> Result<Option<Self::State>, Escaped> {
        let own = view.register()?;
        let next = self.rule(view)?;
        Ok((next != own).then_some(next))
    }

    /// Global legality predicate for the configuration (used by tests and experiments to
    /// check that the *stabilized* configuration solves the task; it is never consulted
    /// by the distributed rules themselves).
    fn is_legal(&self, graph: &Graph, states: &[Self::State]) -> bool;
}

/// Register contents that encode a parent pointer (the distributed spanning tree
/// representation of §II-B: each node stores the identity of its parent, the root
/// stores `⊥`).
pub trait ParentPointer {
    /// The identity of the parent, or `None` for `⊥`.
    fn parent_ident(&self) -> Option<Ident>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::View;
    use rand::Rng;

    /// A toy algorithm used to exercise the trait plumbing: every node copies the
    /// maximum value seen in its closed neighborhood ("max propagation").
    pub struct MaxPropagation;

    impl Algorithm for MaxPropagation {
        type State = u64;

        fn name(&self) -> &str {
            "max-propagation"
        }

        fn arbitrary_state(&self, _graph: &Graph, _node: NodeId, rng: &mut StdRng) -> u64 {
            rng.gen_range(0..100)
        }

        fn rule<N: Neighborhood<u64>>(&self, view: &N) -> Result<u64, Escaped> {
            let mut max = view.register()?;
            for port in 0..view.degree() {
                max = max.max(view.register_at(port)?);
            }
            Ok(max)
        }

        fn is_legal(&self, _graph: &Graph, states: &[u64]) -> bool {
            states.windows(2).all(|w| w[0] == w[1])
        }
    }

    #[test]
    fn max_propagation_is_enabled_only_when_behind() {
        use crate::view::NeighborInfo;
        let algo = MaxPropagation;
        let states = [3u64, 9u64];
        let fwd = [NeighborInfo {
            node: NodeId(1),
            ident: 2,
        }];
        let view = View::new(NodeId(0), 1, 2, &fwd, &states);
        assert_eq!(algo.step(&view), Ok(Some(9)));
        let back = [NeighborInfo {
            node: NodeId(0),
            ident: 1,
        }];
        let view_ahead = View::new(NodeId(1), 2, 2, &back, &states);
        assert_eq!(algo.step(&view_ahead), Ok(None));
    }
}
