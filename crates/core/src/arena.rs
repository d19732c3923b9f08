//! Predecessor tracking for solution reconstruction.
//!
//! Every candidate carries a 4-byte [`PredRef`] into an append-only arena.
//! The DP only ever *adds* decisions (a buffer inserted at a node, or two
//! branch solutions merged), so the arena records form a DAG whose leaves
//! are sinks. After the root candidate is chosen, walking its predecessor
//! DAG yields the buffer placements in O(solution size).
//!
//! The records live in two append-only spaces, selected by the top bit of
//! the [`PredRef`] (the *tag bit*):
//!
//! * the **β space** (tag set) holds the buffered candidates of every
//!   `AddBuffer`. Records are packed in *blocks*, one per run of β at the
//!   same node: the block header stores the node once (8 B), and each β
//!   then stores only its downstream chain and its buffer type (6 B). One
//!   `AddBuffer` emits up to `b` β, so this is where almost all records
//!   go (b·n per solve, the paper's Theorem 2);
//! * the **merge space** (tag clear) holds 8-byte `(left, right)` pairs,
//!   one per candidate a branch merge emits.
//!
//! [`PredEntry`] is the decoded view of one record, whichever space it
//! lives in; [`PredArena::push`] and [`PredArena::get`] speak only that
//! view, so callers never see the packing.
//!
//! Tracking can be disabled (see
//! [`SolverOptions::track_predecessors`](crate::SolverOptions)) for
//! benchmarking runs that only need the slack, in which case every candidate
//! carries [`PredRef::NONE`] and no arena memory is spent — this mirrors how
//! the paper's experiments time the algorithms.

use std::mem::size_of;

use fastbuf_buflib::BufferTypeId;
use fastbuf_rctree::NodeId;

/// Top bit of a [`PredRef`]: set for the β space, clear for the merge space.
const BETA_TAG: u32 = 1 << 31;
/// Records the β space can hold: its refs carry the tag bit, and the one
/// tagged pattern with all index bits set is [`PredRef::NONE`].
const BETA_CAP: usize = (BETA_TAG - 1) as usize;
/// Records the merge space can hold (31 index bits).
const MERGE_CAP: usize = BETA_TAG as usize;

/// Reference to a record in a [`PredArena`] (or [`PredRef::NONE`] for sink
/// candidates / untracked runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PredRef(u32);

#[cold]
#[inline(never)]
fn space_overflow(limit: &str) -> ! {
    panic!("predecessor arena overflow: {limit}")
}

#[cold]
#[inline(never)]
fn type_overflow(buffer: BufferTypeId) -> ! {
    panic!("buffer type {buffer} does not fit the predecessor arena's 16-bit type field")
}

/// Which space a non-null [`PredRef`] points into, and where.
enum Slot {
    Beta(usize),
    Merge(usize),
}

impl PredRef {
    /// The null reference: no predecessor (sink candidates, or tracking
    /// disabled).
    pub const NONE: PredRef = PredRef(u32::MAX);

    /// `true` if this is [`PredRef::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self == PredRef::NONE
    }

    /// The reference to β record `index`.
    ///
    /// # Panics
    ///
    /// If `index` does not fit the β space (2^31 − 1 records): wrapping
    /// would alias another record or [`PredRef::NONE`].
    #[inline]
    fn beta(index: usize) -> PredRef {
        if index >= BETA_CAP {
            space_overflow("the β space holds at most 2^31 - 1 records");
        }
        PredRef(BETA_TAG | index as u32)
    }

    /// The reference to merge record `index`.
    ///
    /// # Panics
    ///
    /// If `index` does not fit the merge space (2^31 records).
    #[inline]
    fn merge(index: usize) -> PredRef {
        if index >= MERGE_CAP {
            space_overflow("the merge space holds at most 2^31 records");
        }
        PredRef(index as u32)
    }

    #[inline]
    fn slot(self) -> Option<Slot> {
        if self.is_none() {
            None
        } else if self.0 & BETA_TAG != 0 {
            Some(Slot::Beta((self.0 & !BETA_TAG) as usize))
        } else {
            Some(Slot::Merge(self.0 as usize))
        }
    }
}

/// A reconstruction decision: the decoded view of one arena record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredEntry {
    /// A buffer of `buffer` type was inserted at `node`; the downstream
    /// solution is `prev`.
    Buffer {
        /// Node where the buffer sits.
        node: NodeId,
        /// Inserted buffer type.
        buffer: BufferTypeId,
        /// Downstream decision chain.
        prev: PredRef,
    },
    /// Two branch solutions were merged.
    Merge {
        /// Decision chain of the first branch.
        left: PredRef,
        /// Decision chain of the second branch.
        right: PredRef,
    },
}

/// One β record: the downstream chain and the inserted buffer type, packed
/// to 6 bytes (fields are read by value, never by reference).
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(2))]
struct BetaRecord {
    prev: PredRef,
    buffer: u16,
}

/// Header of one β block: the block's records are
/// `start .. next block's start`, and all of them sit at `node`.
#[derive(Clone, Copy, Debug)]
struct BetaBlock {
    start: u32,
    node: NodeId,
}

/// How [`PredArena::append_remapped`] relocated the appended records: add
/// the returned shift to a reference of the appended arena to resolve it
/// in the receiving one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PredRemap {
    beta: usize,
    merge: usize,
}

impl PredRemap {
    /// Relocates one reference of the appended arena ([`PredRef::NONE`] is
    /// a fixed point).
    #[inline]
    pub(crate) fn apply(self, r: PredRef) -> PredRef {
        match r.slot() {
            None => r,
            Some(Slot::Beta(i)) => PredRef::beta(i + self.beta),
            Some(Slot::Merge(i)) => PredRef::merge(i + self.merge),
        }
    }
}

/// Append-only arena of reconstruction decisions (see the module docs for
/// the two record spaces).
#[derive(Clone, Debug, Default)]
pub struct PredArena {
    /// One header per β block, in ascending `start` order.
    blocks: Vec<BetaBlock>,
    /// The β records. Sixteen bits of buffer type suffice:
    /// [`BufferLibrary`](fastbuf_buflib::BufferLibrary) caps a library at
    /// 2^16 types.
    betas: Vec<BetaRecord>,
    /// `(left, right)` of each merge record.
    merges: Vec<[PredRef; 2]>,
}

impl PredArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PredArena::default()
    }

    /// Appends an entry and returns its reference. A buffer entry at the
    /// same node as the β record before it joins that record's block.
    ///
    /// # Panics
    ///
    /// If the entry's space is full (2^31 − 1 β or 2^31 merge records), or
    /// a buffer type index does not fit 16 bits — no
    /// [`BufferLibrary`](fastbuf_buflib::BufferLibrary) issues one.
    #[inline]
    pub fn push(&mut self, entry: PredEntry) -> PredRef {
        match entry {
            PredEntry::Buffer { node, buffer, prev } => self.push_beta(node, buffer, prev),
            PredEntry::Merge { left, right } => self.push_merge(left, right),
        }
    }

    /// [`PredArena::push`] of a buffer entry — the hot path of `AddBuffer`,
    /// one call per β.
    #[inline(always)]
    pub(crate) fn push_beta(
        &mut self,
        node: NodeId,
        buffer: BufferTypeId,
        prev: PredRef,
    ) -> PredRef {
        let index = self.betas.len();
        let r = PredRef::beta(index);
        let Ok(ty) = u16::try_from(buffer.index()) else {
            type_overflow(buffer)
        };
        if self.blocks.last().is_none_or(|b| b.node != node) {
            self.blocks.push(BetaBlock {
                start: index as u32,
                node,
            });
        }
        self.betas.push(BetaRecord { prev, buffer: ty });
        r
    }

    /// [`PredArena::push`] of a merge entry.
    #[inline(always)]
    pub(crate) fn push_merge(&mut self, left: PredRef, right: PredRef) -> PredRef {
        let r = PredRef::merge(self.merges.len());
        self.merges.push([left, right]);
        r
    }

    /// Number of entries (β and merge records together).
    pub fn len(&self) -> usize {
        self.betas.len() + self.merges.len()
    }

    /// Bytes held by the recorded entries: block headers, β records and
    /// merge pairs (spare capacity is not counted).
    pub fn bytes(&self) -> usize {
        self.blocks.len() * size_of::<BetaBlock>()
            + self.betas.len() * size_of::<BetaRecord>()
            + self.merges.len() * size_of::<[PredRef; 2]>()
    }

    /// Removes all entries while keeping the allocation, so the arena can be
    /// reused across solves (see
    /// [`SolveWorkspace`](crate::SolveWorkspace)). All previously issued
    /// [`PredRef`]s are invalidated.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.betas.clear();
        self.merges.clear();
    }

    /// `true` if no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.betas.is_empty() && self.merges.is_empty()
    }

    /// Makes room, exactly, for `blocks` more β blocks of at most
    /// `per_block` records each: a solve knows its bound (one block per
    /// buffer site, at most one β per library type) and sizes the β space
    /// once, so its memory high-water mark does not depend on `Vec`
    /// doubling.
    pub(crate) fn reserve_betas(&mut self, blocks: usize, per_block: usize) {
        self.blocks.reserve_exact(blocks);
        self.betas.reserve_exact(blocks * per_block);
    }

    /// Resolves a reference (`None` for [`PredRef::NONE`] or a reference
    /// this arena never issued).
    pub fn get(&self, r: PredRef) -> Option<PredEntry> {
        match r.slot()? {
            Slot::Beta(i) => {
                let record = *self.betas.get(i)?;
                // The block holding record `i` is the last one starting at
                // or before it.
                let block = self.blocks.partition_point(|b| b.start as usize <= i) - 1;
                Some(PredEntry::Buffer {
                    node: self.blocks[block].node,
                    buffer: BufferTypeId::new(usize::from(record.buffer)),
                    prev: record.prev,
                })
            }
            Slot::Merge(i) => self
                .merges
                .get(i)
                .map(|&[left, right]| PredEntry::Merge { left, right }),
        }
    }

    /// Appends every entry of `other` to this arena, relocating the
    /// references inside the copied entries so they keep pointing at their
    /// (now relocated) predecessors. Returns the relocation a caller must
    /// [apply](PredRemap::apply) to `other`-relative [`PredRef`]s to
    /// resolve them here.
    ///
    /// Each space shifts by its own length, so the relocation depends on
    /// the tag of the reference. Sound because arenas are append-only: a
    /// record's references always point at records appended before it, so
    /// a per-space shift preserves the DAG. This is the join step of
    /// intra-net parallel solving — each subtree task records decisions in
    /// a private arena, and the main thread splices them in deterministic
    /// (topology) order.
    pub(crate) fn append_remapped(&mut self, other: &PredArena) -> PredRemap {
        let remap = PredRemap {
            beta: self.betas.len(),
            merge: self.merges.len(),
        };
        // Relocating the last record of each space checks that both spaces
        // still fit, so every relocated block start fits its `u32`.
        if let Some(last) = other.betas.len().checked_sub(1) {
            PredRef::beta(remap.beta + last);
        }
        if let Some(last) = other.merges.len().checked_sub(1) {
            PredRef::merge(remap.merge + last);
        }
        self.blocks.extend(other.blocks.iter().map(|b| BetaBlock {
            start: (b.start as usize + remap.beta) as u32,
            node: b.node,
        }));
        self.betas.extend(other.betas.iter().map(|&r| BetaRecord {
            prev: remap.apply(r.prev),
            ..r
        }));
        self.merges.extend(
            other
                .merges
                .iter()
                .map(|&[left, right]| [remap.apply(left), remap.apply(right)]),
        );
        remap
    }

    /// Collects every buffer placement reachable from `root`, sorted by node
    /// index (deterministic output order).
    pub fn collect_placements(&self, root: PredRef) -> Vec<(NodeId, BufferTypeId)> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            match self.get(r) {
                None => {}
                Some(PredEntry::Buffer { node, buffer, prev }) => {
                    out.push((node, buffer));
                    stack.push(prev);
                }
                Some(PredEntry::Merge { left, right }) => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
        out.sort_by_key(|&(n, b)| (n, b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(node: usize, ty: usize, prev: PredRef) -> PredEntry {
        PredEntry::Buffer {
            node: NodeId::new(node),
            buffer: BufferTypeId::new(ty),
            prev,
        }
    }

    #[test]
    fn none_is_none() {
        assert!(PredRef::NONE.is_none());
        let arena = PredArena::new();
        assert!(arena.get(PredRef::NONE).is_none());
        assert!(arena.is_empty());
    }

    #[test]
    fn get_none_is_none_in_a_populated_arena() {
        let mut arena = PredArena::new();
        arena.push(buffer(1, 0, PredRef::NONE));
        arena.push(PredEntry::Merge {
            left: PredRef::NONE,
            right: PredRef::NONE,
        });
        assert_eq!(arena.get(PredRef::NONE), None);
    }

    #[test]
    fn push_and_get() {
        let mut arena = PredArena::new();
        let e = buffer(3, 1, PredRef::NONE);
        let r = arena.push(e);
        assert!(!r.is_none());
        assert_eq!(arena.get(r), Some(e));
        assert_eq!(arena.len(), 1);
    }

    /// β blocks and merges pushed interleaved — several blocks, a block
    /// reopened at an earlier node, refs across both spaces — decode to
    /// exactly what was pushed.
    #[test]
    fn interleaved_blocks_and_merges_decode_exactly() {
        let mut arena = PredArena::new();
        let mut pushed: Vec<(PredRef, PredEntry)> = Vec::new();
        let mut last = PredRef::NONE;
        for (step, node) in [4usize, 4, 4, 9, 9, 2, 4, 4, 7].into_iter().enumerate() {
            let e = buffer(node, step % 5, last);
            let r = arena.push(e);
            pushed.push((r, e));
            if step % 3 == 2 {
                let m = PredEntry::Merge {
                    left: r,
                    right: pushed[0].0,
                };
                let rm = arena.push(m);
                pushed.push((rm, m));
                last = rm;
            } else {
                last = r;
            }
        }
        assert_eq!(arena.len(), pushed.len());
        for (r, e) in &pushed {
            assert_eq!(arena.get(*r), Some(*e), "ref {r:?}");
        }
        // Every issued ref is distinct, and none aliases NONE.
        let mut refs: Vec<u32> = pushed.iter().map(|(r, _)| r.0).collect();
        refs.sort_unstable();
        refs.dedup();
        assert_eq!(refs.len(), pushed.len());
        assert!(pushed.iter().all(|(r, _)| !r.is_none()));
    }

    /// Each β appended to an open block costs at most 8 bytes; the block
    /// header is paid once per run of β at one node.
    #[test]
    fn beta_records_take_at_most_eight_bytes() {
        assert_eq!(size_of::<BetaRecord>(), 6);
        let mut arena = PredArena::new();
        arena.push(buffer(5, 0, PredRef::NONE));
        let opened = arena.bytes();
        for ty in 1..64 {
            let before = arena.bytes();
            arena.push(buffer(5, ty, PredRef::NONE));
            assert!(arena.bytes() - before <= 8, "type {ty}");
        }
        assert!(arena.bytes() - opened <= 63 * 8);
        // Merge pairs are 8 bytes too.
        let before = arena.bytes();
        arena.push(PredEntry::Merge {
            left: PredRef::NONE,
            right: PredRef::NONE,
        });
        assert_eq!(arena.bytes() - before, 8);
    }

    /// A two-space append: every ref of the appended arena, relocated with
    /// the returned remap, resolves to the same decoded entry (with its
    /// inner refs relocated the same way).
    #[test]
    fn append_remapped_relocates_both_spaces() {
        let relocate = |remap: PredRemap, e: PredEntry| match e {
            PredEntry::Buffer { node, buffer, prev } => PredEntry::Buffer {
                node,
                buffer,
                prev: remap.apply(prev),
            },
            PredEntry::Merge { left, right } => PredEntry::Merge {
                left: remap.apply(left),
                right: remap.apply(right),
            },
        };
        let mut main = PredArena::new();
        let a = main.push(buffer(1, 0, PredRef::NONE));
        main.push(buffer(1, 1, a));
        main.push(PredEntry::Merge { left: a, right: a });

        let mut task = PredArena::new();
        let mut task_refs = Vec::new();
        let b0 = task.push(buffer(6, 2, PredRef::NONE));
        let b1 = task.push(buffer(6, 3, PredRef::NONE));
        let m0 = task.push(PredEntry::Merge {
            left: b0,
            right: b1,
        });
        let b2 = task.push(buffer(8, 0, m0));
        let m1 = task.push(PredEntry::Merge {
            left: b2,
            right: PredRef::NONE,
        });
        task_refs.extend([b0, b1, m0, b2, m1]);

        let main_before: Vec<_> = [a].iter().map(|&r| main.get(r)).collect();
        let remap = main.append_remapped(&task);
        assert_eq!(main.len(), 3 + task.len());
        for r in task_refs {
            let want = relocate(remap, task.get(r).expect("task ref resolves"));
            assert_eq!(main.get(remap.apply(r)), Some(want), "ref {r:?}");
        }
        assert_eq!(remap.apply(PredRef::NONE), PredRef::NONE);
        // The receiving arena's own records are untouched.
        assert_eq!(main.get(a), main_before[0]);
        // Placements through the spliced DAG are intact.
        assert_eq!(
            main.collect_placements(remap.apply(m1)),
            vec![
                (NodeId::new(6), BufferTypeId::new(2)),
                (NodeId::new(6), BufferTypeId::new(3)),
                (NodeId::new(8), BufferTypeId::new(0)),
            ]
        );
    }

    #[test]
    fn largest_indices_do_not_alias_none() {
        assert!(!PredRef::beta(BETA_CAP - 1).is_none());
        assert!(!PredRef::merge(MERGE_CAP - 1).is_none());
        assert_ne!(PredRef::beta(0), PredRef::merge(0));
    }

    #[test]
    #[should_panic(expected = "β space holds at most")]
    fn beta_index_overflow_panics() {
        let _ = PredRef::beta(BETA_CAP);
    }

    #[test]
    #[should_panic(expected = "merge space holds at most")]
    fn merge_index_overflow_panics() {
        let _ = PredRef::merge(MERGE_CAP);
    }

    #[test]
    #[should_panic(expected = "16-bit type field")]
    fn oversized_buffer_type_panics() {
        PredArena::new().push(buffer(0, 1 << 16, PredRef::NONE));
    }

    #[test]
    fn collect_walks_merges_and_buffers() {
        let mut arena = PredArena::new();
        // Branch A: buffer B1 at n5.
        let a = arena.push(buffer(5, 1, PredRef::NONE));
        // Branch B: buffer B0 at n2 then B2 at n7 upstream of it.
        let b1 = arena.push(buffer(2, 0, PredRef::NONE));
        let b2 = arena.push(buffer(7, 2, b1));
        let m = arena.push(PredEntry::Merge { left: a, right: b2 });
        let got = arena.collect_placements(m);
        assert_eq!(
            got,
            vec![
                (NodeId::new(2), BufferTypeId::new(0)),
                (NodeId::new(5), BufferTypeId::new(1)),
                (NodeId::new(7), BufferTypeId::new(2)),
            ]
        );
    }

    #[test]
    fn collect_from_none_is_empty() {
        let arena = PredArena::new();
        assert!(arena.collect_placements(PredRef::NONE).is_empty());
    }
}
