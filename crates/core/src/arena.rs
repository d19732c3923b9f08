//! Predecessor tracking for solution reconstruction.
//!
//! Every candidate carries a 4-byte [`PredRef`] into an arena. The DP only
//! ever *adds* decisions (a buffer inserted at a node, or two branch
//! solutions merged), so the arena records form a DAG whose leaves are
//! sinks and whose references all point backward, at older records. After
//! the root candidate is chosen, walking its predecessor DAG yields the
//! buffer placements in O(solution size).
//!
//! The records live in two spaces, selected by the top bit of the
//! [`PredRef`] (the *tag bit*):
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
//! **Collection.** Almost every record is dead one node after it is
//! written: `AddBuffer` emits b β per position, and the next position's
//! pruning displaces nearly all of them. A scratch solve therefore runs a
//! copying collection between nodes ([`PredCollector`]): the records
//! reachable from the live candidate lists are evacuated to a to-space in
//! post-order, so every reference still points backward, and the lists'
//! references are rewritten. Arenas that are never collected (a
//! [`SubtreeCache`](crate::SubtreeCache)'s, the reference kernel's, the
//! cost, polarity and skew solvers') are append-only, and their
//! references stay valid until [`PredArena::clear`].
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

/// Records an arena holds before its first collection is due: nets that
/// record fewer (every served and batch net) never collect.
const COLLECT_FLOOR: usize = 1 << 16;

/// Totals as of the last collection since [`PredArena::clear`], so the
/// recorded counts survive collections: what was recorded up to it, plus
/// what the arena has held beyond what it kept.
#[derive(Clone, Copy, Debug, Default)]
struct Collected {
    /// Entries recorded up to the last collection.
    entries: usize,
    /// Bytes of those entries, as they were recorded.
    bytes: usize,
    /// Entries the last collection kept (already counted in `entries`).
    kept: usize,
    /// Bytes of the kept entries (already counted in `bytes`). A kept
    /// β block can split in two, so this may exceed what the same records
    /// took as recorded.
    kept_bytes: usize,
    /// Most bytes held at once before a collection.
    peak_bytes: usize,
}

/// Arena of reconstruction decisions (see the module docs for the two
/// record spaces and for collection).
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
    collected: Collected,
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

    /// Number of entries held (β and merge records together).
    pub fn len(&self) -> usize {
        self.betas.len() + self.merges.len()
    }

    /// Bytes of the entries held: block headers, β records and merge
    /// pairs (spare capacity is not counted).
    pub fn bytes(&self) -> usize {
        self.blocks.len() * size_of::<BetaBlock>()
            + self.betas.len() * size_of::<BetaRecord>()
            + self.merges.len() * size_of::<[PredRef; 2]>()
    }

    /// Entries recorded since the last [`PredArena::clear`], including
    /// those collections have since dropped ([`PredArena::len`] when the
    /// arena was never collected).
    pub(crate) fn recorded_len(&self) -> usize {
        self.collected.entries + (self.len() - self.collected.kept)
    }

    /// Bytes of every entry recorded since the last [`PredArena::clear`],
    /// as they were recorded ([`PredArena::bytes`] when the arena was
    /// never collected).
    pub(crate) fn recorded_bytes(&self) -> usize {
        self.collected.bytes + (self.bytes() - self.collected.kept_bytes)
    }

    /// Most bytes the arena held at once since the last
    /// [`PredArena::clear`] ([`PredArena::bytes`] when it was never
    /// collected).
    pub(crate) fn peak_bytes(&self) -> usize {
        self.collected.peak_bytes.max(self.bytes())
    }

    /// Removes all entries while keeping the allocation, so the arena can be
    /// reused across solves (see
    /// [`SolveWorkspace`](crate::SolveWorkspace)). All previously issued
    /// [`PredRef`]s are invalidated.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.betas.clear();
        self.merges.clear();
        self.collected = Collected::default();
    }

    /// `true` once the arena holds more than max(2^16, 2 × the survivors
    /// of its last collection) entries: the point where a collection
    /// frees at least half of what it scans.
    #[inline]
    pub(crate) fn collection_due(&self) -> bool {
        self.len() > COLLECT_FLOOR.max(2 * self.collected.kept)
    }

    /// The node of β record `index`: that of the last block starting at or
    /// before it.
    #[inline]
    fn beta_node(&self, index: usize) -> NodeId {
        let block = self.blocks.partition_point(|b| b.start as usize <= index) - 1;
        self.blocks[block].node
    }

    /// `true` if no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.betas.is_empty() && self.merges.is_empty()
    }

    /// Resolves a reference (`None` for [`PredRef::NONE`] or a reference
    /// this arena never issued).
    pub fn get(&self, r: PredRef) -> Option<PredEntry> {
        match r.slot()? {
            Slot::Beta(i) => {
                let record = *self.betas.get(i)?;
                Some(PredEntry::Buffer {
                    node: self.beta_node(i),
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
    /// the tag of the reference. Sound because a record's references
    /// always point at records before it — appends keep that, and so does
    /// a collection, which copies in post-order — so a per-space shift
    /// preserves the DAG. This is the join step of intra-net parallel
    /// solving — each subtree task records decisions in a private arena,
    /// and the main thread splices them in deterministic (topology) order.
    /// What `other`'s collections dropped counts as recorded here too, so
    /// [`PredArena::recorded_len`] and [`PredArena::recorded_bytes`] sum
    /// over the join.
    pub(crate) fn append_remapped(&mut self, other: &PredArena) -> PredRemap {
        // The appended records count as recorded and as kept, so the
        // recorded totals gain exactly `other`'s.
        self.collected.entries += other.recorded_len();
        self.collected.bytes += other.recorded_bytes();
        self.collected.kept += other.len();
        self.collected.kept_bytes += other.bytes();
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

/// Copying collector for a [`PredArena`]: the to-space, mark bits and walk
/// stack of [`PredCollector::collect`], kept between collections (one per
/// [`SolveWorkspace`](crate::SolveWorkspace) or per intra-net worker) so a
/// warm collector allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PredCollector {
    /// Where survivors are copied before being copied back over the
    /// collected arena's records: the arena keeps its one allocation, and
    /// this one only ever grows to the most survivors of a collection.
    to: PredArena,
    /// One bit per β record of the from-space, set once the record is
    /// copied; its `prev` then holds its to-space reference.
    beta_moved: Vec<u64>,
    /// The same for merge records, whose `left` holds the reference.
    merge_moved: Vec<u64>,
    /// Pending records of the post-order walk.
    stack: Vec<PredRef>,
}

#[inline]
fn is_marked(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Sizes `bits` for `len` records, none marked.
fn reset_marks(bits: &mut Vec<u64>, len: usize) {
    bits.clear();
    bits.resize(len.div_ceil(64), 0);
}

impl PredCollector {
    /// Keeps only the records of `arena` reachable from `roots`, and
    /// rewrites every root to its record's new reference
    /// ([`PredRef::NONE`] stays `NONE`). Every reference issued before is
    /// invalidated, except through the rewritten roots.
    ///
    /// Survivors are copied in post-order — a record after everything it
    /// references — so references still point backward and
    /// [`PredArena::append_remapped`] stays valid; β blocks are rebuilt,
    /// one per run of copied β at one node. The recorded totals
    /// ([`PredArena::recorded_len`], [`PredArena::recorded_bytes`]) are
    /// unchanged, and [`PredArena::peak_bytes`] keeps the size before.
    pub(crate) fn collect<'a>(
        &mut self,
        arena: &mut PredArena,
        roots: impl IntoIterator<Item = &'a mut PredRef>,
    ) {
        self.to.clear();
        reset_marks(&mut self.beta_moved, arena.betas.len());
        reset_marks(&mut self.merge_moved, arena.merges.len());
        for root in roots {
            *root = self.evacuate(arena, *root);
        }
        let (entries, bytes) = (arena.recorded_len(), arena.recorded_bytes());
        let peak_bytes = arena.peak_bytes();
        arena.blocks.clear();
        arena.blocks.extend_from_slice(&self.to.blocks);
        arena.betas.clear();
        arena.betas.extend_from_slice(&self.to.betas);
        arena.merges.clear();
        arena.merges.extend_from_slice(&self.to.merges);
        arena.collected = Collected {
            entries,
            bytes,
            kept: arena.len(),
            kept_bytes: arena.bytes(),
            peak_bytes,
        };
    }

    /// The to-space reference of `r`, once it has one.
    #[inline]
    fn forwarded(&self, from: &PredArena, r: PredRef) -> Option<PredRef> {
        match r.slot() {
            None => Some(PredRef::NONE),
            Some(Slot::Beta(i)) => is_marked(&self.beta_moved, i).then(|| from.betas[i].prev),
            Some(Slot::Merge(i)) => is_marked(&self.merge_moved, i).then(|| from.merges[i][0]),
        }
    }

    /// Copies `root` and everything it reaches that is not copied yet into
    /// the to-space, each record after its predecessors, and returns the
    /// new reference of `root`. A copied record of `from` is overwritten
    /// with its forwarding reference.
    fn evacuate(&mut self, from: &mut PredArena, root: PredRef) -> PredRef {
        if let Some(r) = self.forwarded(from, root) {
            return r;
        }
        self.stack.push(root);
        while let Some(&r) = self.stack.last() {
            if self.forwarded(from, r).is_some() {
                // Reached twice through shared structure; copied already.
                self.stack.pop();
                continue;
            }
            match r.slot() {
                Some(Slot::Beta(i)) => {
                    let record = from.betas[i];
                    match self.forwarded(from, record.prev) {
                        Some(prev) => {
                            let node = from.beta_node(i);
                            let buffer = BufferTypeId::new(usize::from(record.buffer));
                            from.betas[i].prev = self.to.push_beta(node, buffer, prev);
                            mark(&mut self.beta_moved, i);
                            self.stack.pop();
                        }
                        None => self.stack.push(record.prev),
                    }
                }
                Some(Slot::Merge(i)) => {
                    let [left, right] = from.merges[i];
                    match (self.forwarded(from, left), self.forwarded(from, right)) {
                        (Some(l), Some(r)) => {
                            from.merges[i][0] = self.to.push_merge(l, r);
                            mark(&mut self.merge_moved, i);
                            self.stack.pop();
                        }
                        (None, _) => self.stack.push(left),
                        (Some(_), None) => self.stack.push(right),
                    }
                }
                None => unreachable!("NONE is always forwarded"),
            }
        }
        self.forwarded(from, root)
            .expect("the walk copied its root")
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

    /// Deterministic stand-in for a DP's record stream over `nodes` nodes,
    /// keeping a stack of branch candidate lists like a postorder pass: a
    /// node either opens a branch at a sink or merges the top two branches
    /// pairwise; then it emits a β block of up to `b` records off the top
    /// branch and keeps at most four of its candidates (the rest are
    /// displaced, as pruning displaces β). Merged branches are disjoint,
    /// so every candidate's chain is a tree. `between` runs after each
    /// node with the arena and the live refs, like a collection trigger
    /// between nodes. Returns the live refs at the end.
    fn dp_history(
        arena: &mut PredArena,
        seed: u64,
        nodes: usize,
        b: usize,
        mut between: impl FnMut(&mut PredArena, &mut Vec<Vec<PredRef>>),
    ) -> Vec<PredRef> {
        let mut state = seed | 1;
        let mut rnd = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut branches = vec![vec![PredRef::NONE]];
        for node in 0..nodes {
            if rnd(4) == 0 {
                branches.push(vec![PredRef::NONE]);
            } else if branches.len() >= 2 && rnd(2) == 0 {
                let right = branches.pop().expect("two branches");
                let left = branches.pop().expect("two branches");
                let (mut i, mut j, mut merged) = (0, 0, Vec::new());
                while i < left.len() && j < right.len() {
                    merged.push(arena.push(PredEntry::Merge {
                        left: left[i],
                        right: right[j],
                    }));
                    if rnd(2) == 0 {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                branches.push(merged);
            }
            let top = branches.last_mut().expect("a branch is open");
            let fresh: Vec<_> = (0..1 + rnd(b))
                .map(|ty| arena.push(buffer(node, ty, top[rnd(top.len())])))
                .collect();
            top.extend(fresh);
            while top.len() > 4 {
                top.remove(rnd(top.len()));
            }
            between(arena, &mut branches);
        }
        branches.concat()
    }

    /// Every record reachable from `roots`.
    fn reachable(arena: &PredArena, roots: &[PredRef]) -> std::collections::HashSet<PredRef> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = roots.to_vec();
        while let Some(r) = stack.pop() {
            if r.is_none() || !seen.insert(r) {
                continue;
            }
            match arena.get(r).expect("reachable refs resolve") {
                PredEntry::Buffer { prev, .. } => stack.push(prev),
                PredEntry::Merge { left, right } => stack.extend([left, right]),
            }
        }
        seen
    }

    /// Every reference in the arena resolves and points at an older
    /// record of its space.
    fn assert_backward(arena: &PredArena) {
        let older = |r: PredRef, beta: Option<usize>, merge: Option<usize>| match r.slot() {
            None => {}
            Some(Slot::Beta(j)) => {
                assert!(j < arena.betas.len(), "dangling β ref {j}");
                assert!(beta.is_none_or(|i| j < i), "β ref {j} not backward");
            }
            Some(Slot::Merge(j)) => {
                assert!(j < arena.merges.len(), "dangling merge ref {j}");
                assert!(merge.is_none_or(|i| j < i), "merge ref {j} not backward");
            }
        };
        for (i, record) in arena.betas.iter().enumerate() {
            older(record.prev, Some(i), None);
        }
        for (i, &[left, right]) in arena.merges.iter().enumerate() {
            older(left, None, Some(i));
            older(right, None, Some(i));
        }
    }

    #[test]
    fn collection_keeps_exactly_what_the_roots_reach() {
        for seed in 0..8 {
            let mut arena = PredArena::new();
            let live = dp_history(&mut arena, seed, 60, 9, |_, _| {});
            let mut roots = live.clone();
            roots.push(PredRef::NONE);
            let want: Vec<_> = roots.iter().map(|&r| arena.collect_placements(r)).collect();
            let survivors = reachable(&arena, &roots).len();
            let (recorded, recorded_bytes) = (arena.len(), arena.bytes());
            assert!(
                survivors < recorded,
                "seed {seed}: history displaces records"
            );

            PredCollector::default().collect(&mut arena, roots.iter_mut());
            assert_eq!(
                arena.len(),
                survivors,
                "seed {seed}: unreachable records are gone"
            );
            assert_eq!(reachable(&arena, &roots).len(), survivors);
            assert_eq!(roots.last(), Some(&PredRef::NONE));
            for (root, want) in roots.iter().zip(&want) {
                assert_eq!(&arena.collect_placements(*root), want, "seed {seed}");
            }
            assert_backward(&arena);
            assert_eq!(arena.recorded_len(), recorded);
            assert_eq!(arena.recorded_bytes(), recorded_bytes);
            assert_eq!(arena.peak_bytes(), recorded_bytes);
        }
    }

    /// Collected refs still point backward, so a collected arena splices
    /// onto another with `append_remapped`; the receiving arena's recorded
    /// totals gain the appended arena's, collected records included.
    #[test]
    fn append_remapped_after_a_collection_resolves() {
        let mut main = PredArena::new();
        let a = main.push(buffer(100, 0, PredRef::NONE));
        main.push(PredEntry::Merge { left: a, right: a });

        let mut task = PredArena::new();
        let mut roots = dp_history(&mut task, 7, 40, 6, |_, _| {});
        let want: Vec<_> = roots.iter().map(|&r| task.collect_placements(r)).collect();
        let task_recorded = (task.recorded_len(), task.recorded_bytes());
        PredCollector::default().collect(&mut task, roots.iter_mut());
        let main_recorded = (main.recorded_len(), main.recorded_bytes());

        let remap = main.append_remapped(&task);
        for (root, want) in roots.iter().zip(&want) {
            assert_eq!(&main.collect_placements(remap.apply(*root)), want);
        }
        assert_backward(&main);
        assert_eq!(main.len(), 2 + task.len());
        assert_eq!(main.recorded_len(), main_recorded.0 + task_recorded.0);
        assert_eq!(main.recorded_bytes(), main_recorded.1 + task_recorded.1);
    }

    /// An arena collected between every few nodes reports the recorded
    /// totals of its uncollected twin, resolves the same placements, and
    /// never holds more than the twin did.
    #[test]
    fn recorded_totals_survive_repeated_collections() {
        for seed in 0..4 {
            let mut twin = PredArena::new();
            let twin_live = dp_history(&mut twin, seed, 200, 12, |_, _| {});
            let mut arena = PredArena::new();
            let mut collector = PredCollector::default();
            let mut collections = 0;
            let live = dp_history(&mut arena, seed, 200, 12, |arena, branches| {
                if arena.len() > 40 {
                    collector.collect(arena, branches.iter_mut().flatten());
                    collections += 1;
                }
            });
            assert!(collections > 10, "seed {seed}: {collections} collections");
            assert_eq!(arena.recorded_len(), twin.len(), "seed {seed}");
            assert_eq!(arena.recorded_bytes(), twin.bytes(), "seed {seed}");
            assert!(arena.peak_bytes() < twin.peak_bytes(), "seed {seed}");
            assert!(arena.peak_bytes() >= arena.bytes());
            assert_eq!(twin.peak_bytes(), twin.bytes());
            for (r, t) in live.iter().zip(&twin_live) {
                assert_eq!(arena.collect_placements(*r), twin.collect_placements(*t));
            }
            assert_backward(&arena);
            arena.clear();
            assert_eq!((arena.recorded_len(), arena.peak_bytes()), (0, 0));
        }
    }

    /// A collection is due past 2^16 entries, and after one past twice
    /// its survivors when that is more.
    #[test]
    fn collection_is_due_past_the_floor_and_twice_the_survivors() {
        let mut arena = PredArena::new();
        let mut chain = PredRef::NONE;
        for i in 0..COLLECT_FLOOR {
            chain = arena.push(buffer(i / 64, i % 64, chain));
        }
        assert!(!arena.collection_due());
        chain = arena.push(buffer(COLLECT_FLOOR, 0, chain));
        assert!(arena.collection_due());

        // The whole chain is live: every record survives.
        let mut roots = [chain];
        PredCollector::default().collect(&mut arena, roots.iter_mut());
        assert_eq!(arena.len(), COLLECT_FLOOR + 1);
        assert!(!arena.collection_due());
        for i in 0..COLLECT_FLOOR + 2 {
            arena.push(PredEntry::Merge {
                left: roots[0],
                right: PredRef::NONE,
            });
            assert_eq!(arena.collection_due(), i == COLLECT_FLOOR + 1, "push {i}");
        }
    }
}
