//! Independent check of served answers: an `NcaOracle` and a depth table built from
//! the pinned epoch's parent vector by `stst-graph`, never from the labels.

use self_stabilizing_spanning_trees::graph::nca::NcaOracle;
use self_stabilizing_spanning_trees::graph::{NodeId, Tree};
use self_stabilizing_spanning_trees::serve::{Answer, Query};

pub struct TraversalOracle {
    oracle: NcaOracle,
    depths: Vec<usize>,
}

impl TraversalOracle {
    pub fn of(parents: &[Option<NodeId>]) -> Result<Self, String> {
        let tree = Tree::from_parents(parents.to_vec())
            .map_err(|e| format!("the pinned epoch's parents are not a tree: {e:?}"))?;
        let oracle = NcaOracle::new(&tree);
        let depths = tree.depths();
        Ok(TraversalOracle { oracle, depths })
    }

    /// The traversal answer, or `None` for fragment-membership queries (their ground
    /// truth is a fragment structure, not the tree).
    pub fn expected(&self, query: Query) -> Option<Answer> {
        Some(match query {
            Query::DistToRoot(v) => Answer::Count(self.depths[v.0] as u64),
            Query::TreeDist(u, v) => {
                let w = self.oracle.nca(u, v);
                Answer::Count((self.depths[u.0] + self.depths[v.0] - 2 * self.depths[w.0]) as u64)
            }
            Query::NcaDepth(u, v) => Answer::Count(self.depths[self.oracle.nca(u, v).0] as u64),
            Query::Ancestor(u, v) => Answer::Flag(self.oracle.is_ancestor(u, v)),
            Query::SameFragment(..) => return None,
        })
    }

    /// Checks every sampled `(query, answer)` pair; returns the first mismatch.
    pub fn check(&self, samples: &[(Query, Answer)]) -> Result<(), String> {
        for &(query, answer) in samples {
            if let Some(expected) = self.expected(query) {
                if expected != answer {
                    return Err(format!(
                        "served {answer:?} for {query:?}, traversal gives {expected:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}
