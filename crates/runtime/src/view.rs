//! The closed 1-hop neighborhood a node reads during an atomic step.
//!
//! In the state model a node sees its own register, the registers of its neighbors, and
//! the incorruptible constants of the model: its identity and its neighbors'
//! identities (paper §II-A). [`Neighborhood`] is exactly that read interface, and every
//! guarded rule ([`crate::Algorithm::rule`]) is written once, generic over it —
//! algorithms never get access to anything else, which keeps them honest about
//! locality.
//!
//! The trait has two implementations:
//!
//! * [`View`] — decoded registers in a dense slice (the struct-backed store's
//!   zero-copy path, and the one tests build by hand). Its reads never escape.
//! * [`RawView`] — the packed store's heap read in place. In its default mode every
//!   register read is a decode-free extraction ([`Codec::extract`], shift/mask) that
//!   returns [`Escaped`] the moment an escape bit fires; [`RawView::decoding`] reads
//!   the same slots through the full decoder instead, which never escapes.
//!
//! The executor runs a rule over the extracting [`RawView`] first and, on [`Escaped`],
//! runs the same rule again over the decoding one. Both tiers execute one rule body,
//! so they agree by construction.
//!
//! Views are **zero-allocation**: they borrow a CSR slice of per-neighbor constants
//! ([`NeighborInfo`], precomputed once per executor since identities never change)
//! and the register storage, and read a neighbor's register only when the rule asks
//! for it.

use stst_graph::{Ident, NodeId};

use crate::bits::BitReader;
use crate::codec::{Codec, CodecCtx, FieldReader};

/// A register read the decode-free tier refused: an escape bit fired (fault garbage
/// wider than its nominal field) or the register type offers no extraction. The
/// executor answers it by re-running the rule over decoded registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Escaped;

/// Read access to a node's closed 1-hop neighborhood: everything a guarded rule may
/// look at. Neighbors are addressed by **port** `0..degree()`, in a fixed (but
/// arbitrary) order.
pub trait Neighborhood<S> {
    /// The node's own identity.
    fn ident(&self) -> Ident;

    /// Total number of nodes `n`. The paper allows nodes to know (a polynomial upper
    /// bound on) `n`, since identities live in `{1, …, n^c}`; rules use it only to
    /// bound counters.
    fn n(&self) -> usize;

    /// Degree of the node in the communication graph.
    fn degree(&self) -> usize;

    /// Identity of the neighbor at `port`.
    fn ident_at(&self, port: usize) -> Ident;

    /// The node's own register.
    fn register(&self) -> Result<S, Escaped>;

    /// The register of the neighbor at `port`.
    fn register_at(&self, port: usize) -> Result<S, Escaped>;
}

/// The incorruptible constants a node knows about one neighbor: its dense index (for
/// the simulator) and its identity. Register contents are *not* stored here — they
/// change every step and are read through the register storage instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// Dense index of the neighbor (simulation bookkeeping, not readable information).
    pub node: NodeId,
    /// The neighbor's identity.
    pub ident: Ident,
}

/// The closed neighborhood of `node` over a dense slice of decoded registers
/// (`states[v]` is node `v`'s register). Reads never escape.
#[derive(Clone, Copy, Debug)]
pub struct View<'a, S> {
    node: NodeId,
    ident: Ident,
    n: usize,
    neighbors: &'a [NeighborInfo],
    states: &'a [S],
}

impl<'a, S> View<'a, S> {
    /// Builds the view of `node` over the configuration `states`, given the
    /// precomputed per-neighbor constants.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range of `states`.
    pub fn new(
        node: NodeId,
        ident: Ident,
        n: usize,
        neighbors: &'a [NeighborInfo],
        states: &'a [S],
    ) -> Self {
        assert!(node.0 < states.len(), "node {node} has a register");
        View {
            node,
            ident,
            n,
            neighbors,
            states,
        }
    }
}

impl<S: Clone> Neighborhood<S> for View<'_, S> {
    #[inline]
    fn ident(&self) -> Ident {
        self.ident
    }

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree(&self) -> usize {
        self.neighbors.len()
    }

    #[inline]
    fn ident_at(&self, port: usize) -> Ident {
        self.neighbors[port].ident
    }

    #[inline]
    fn register(&self) -> Result<S, Escaped> {
        Ok(self.states[self.node.0].clone())
    }

    #[inline]
    fn register_at(&self, port: usize) -> Result<S, Escaped> {
        Ok(self.states[self.neighbors[port].node.0].clone())
    }
}

/// The closed neighborhood of `node` read in place from the packed store's heap
/// (same ports, same constants as [`View`]). `DECODE` fixes the read mode at compile
/// time: by default reads extract by shift/mask and escape on fault garbage;
/// [`RawView::decoding`] yields the full-decoder view. Keeping the mode in the type
/// keeps decoder code out of the extracting tier's hot loop.
#[derive(Clone, Copy, Debug)]
pub struct RawView<'a, const DECODE: bool = false> {
    node: NodeId,
    ident: Ident,
    n: usize,
    neighbors: &'a [NeighborInfo],
    /// The packed heap and its slot stride.
    heap: &'a [u64],
    stride: u64,
    /// The instance's field widths.
    ctx: &'a CodecCtx,
}

impl<'a> RawView<'a> {
    /// Builds the extracting view of `node` over the packed heap (`heap`/`stride` as
    /// returned by `ConfigStore::raw_parts`).
    pub fn new(
        node: NodeId,
        ident: Ident,
        n: usize,
        neighbors: &'a [NeighborInfo],
        heap: &'a [u64],
        stride: u32,
        ctx: &'a CodecCtx,
    ) -> Self {
        RawView {
            node,
            ident,
            n,
            neighbors,
            heap,
            stride: stride as u64,
            ctx,
        }
    }

    /// The same neighborhood, read through the full decoder: each read decodes one
    /// slot lazily and never escapes. This is the executor's fallback tier.
    pub fn decoding(self) -> RawView<'a, true> {
        RawView {
            node: self.node,
            ident: self.ident,
            n: self.n,
            neighbors: self.neighbors,
            heap: self.heap,
            stride: self.stride,
            ctx: self.ctx,
        }
    }
}

impl<const DECODE: bool> RawView<'_, DECODE> {
    #[inline]
    fn read<S: Codec>(&self, v: NodeId) -> Result<S, Escaped> {
        let pos = v.0 as u64 * self.stride;
        if DECODE {
            Ok(S::decode_from(
                self.ctx,
                &mut BitReader::new(self.heap, pos),
            ))
        } else {
            S::extract(self.ctx, &mut FieldReader::new(self.heap, pos)).ok_or(Escaped)
        }
    }
}

impl<S: Codec, const DECODE: bool> Neighborhood<S> for RawView<'_, DECODE> {
    #[inline]
    fn ident(&self) -> Ident {
        self.ident
    }

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree(&self) -> usize {
        self.neighbors.len()
    }

    #[inline]
    fn ident_at(&self, port: usize) -> Ident {
        self.neighbors[port].ident
    }

    #[inline]
    fn register(&self) -> Result<S, Escaped> {
        self.read(self.node)
    }

    #[inline]
    fn register_at(&self, port: usize) -> Result<S, Escaped> {
        self.read(self.neighbors[port].node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    const INFO: [NeighborInfo; 3] = [
        NeighborInfo {
            node: NodeId(1),
            ident: 9,
        },
        NeighborInfo {
            node: NodeId(2),
            ident: 2,
        },
        NeighborInfo {
            node: NodeId(3),
            ident: 7,
        },
    ];

    fn sample_view(states: &[u64]) -> View<'_, u64> {
        View::new(NodeId(0), 5, 4, &INFO, states)
    }

    /// Every read of `view`, in port order, own register last.
    fn reads<S, N: Neighborhood<S>>(view: &N) -> Vec<(Ident, Result<S, Escaped>)> {
        (0..view.degree())
            .map(|p| (view.ident_at(p), view.register_at(p)))
            .chain(std::iter::once((view.ident(), view.register())))
            .collect()
    }

    #[test]
    fn lookup_helpers() {
        let states = [0u64, 1, 2, 3];
        let view = sample_view(&states);
        assert_eq!(view.degree(), 3);
        assert_eq!(view.ident(), 5);
        assert_eq!(view.n(), 4);
        assert_eq!(view.ident_at(2), 7);
        assert_eq!(view.register(), Ok(0));
    }

    #[test]
    fn neighbor_iteration_reads_live_registers() {
        let states = [0u64, 11, 22, 33];
        let view = sample_view(&states);
        assert_eq!(
            reads(&view),
            vec![(9, Ok(11)), (2, Ok(22)), (7, Ok(33)), (5, Ok(0))]
        );
    }

    /// A two-field register whose extraction escapes exactly like a real one.
    #[derive(Clone, Debug, PartialEq)]
    struct Pair(u64, u64);

    impl Codec for Pair {
        fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
            CodecCtx::uint_bits(self.0, ctx.count_bits)
                + CodecCtx::uint_bits(self.1, ctx.count_bits)
        }

        fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
            CodecCtx::write_uint(w, self.0, ctx.count_bits);
            CodecCtx::write_uint(w, self.1, ctx.count_bits);
        }

        fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
            Pair(
                CodecCtx::read_uint(r, ctx.count_bits),
                CodecCtx::read_uint(r, ctx.count_bits),
            )
        }

        fn extract(ctx: &CodecCtx, r: &mut FieldReader<'_>) -> Option<Self> {
            Some(Pair(r.uint(ctx.count_bits)?, r.uint(ctx.count_bits)?))
        }
    }

    #[test]
    fn raw_views_read_what_decoded_views_read() {
        let ctx = CodecCtx {
            ident_bits: 8,
            weight_bits: 8,
            count_bits: 8,
            len_bits: 7,
        };
        let mut states = vec![Pair(5, 6), Pair(11, 12), Pair(22, 23), Pair(33, 34)];
        let store = |states: &[Pair]| crate::store::ConfigStore::packed_from_slice(states, &ctx);
        let packed = store(&states);
        let (heap, stride) = packed.raw_parts().unwrap();
        let raw = RawView::new(NodeId(0), 5, 4, &INFO, heap, stride, &ctx);
        let decoded = View::new(NodeId(0), 5, 4, &INFO, &states);
        assert_eq!(reads(&raw), reads(&decoded));
        assert_eq!(reads(&raw.decoding()), reads(&decoded));

        // Out-of-width garbage at port 1: extraction escapes there and only there,
        // while the decoding view still reads the exact value.
        states[2] = Pair(3, u64::MAX);
        let packed = store(&states);
        let (heap, stride) = packed.raw_parts().unwrap();
        let raw = RawView::new(NodeId(0), 5, 4, &INFO, heap, stride, &ctx);
        let decoded = View::new(NodeId(0), 5, 4, &INFO, &states);
        let extracted = reads::<Pair, _>(&raw);
        assert_eq!(extracted[1], (2, Err(Escaped)));
        for (i, read) in extracted.iter().enumerate().filter(|&(i, _)| i != 1) {
            assert_eq!(*read, reads(&decoded)[i]);
        }
        assert_eq!(reads(&raw.decoding()), reads(&decoded));
    }
}
