//! Struct-of-arrays candidate storage — the slab kernel.
//!
//! The reference DP chases `Vec<Candidate>` structs with `q`/`c`/`s`/`pred`
//! interleaved (32 bytes per candidate) through its innermost loops. The
//! [`CandidateSlab`] stores the same data as four parallel columns, so the
//! hot operations become linear column sweeps:
//!
//! * **wire propagation** shears all three lanes in one memory pass
//!   through the delay model's batched
//!   [`wire_shear`](DelayModel::wire_shear) hook (one virtual dispatch per
//!   wire instead of one per candidate), then re-prunes with the same
//!   monotone in-place pass as the reference;
//! * **dominance pruning** (the merge's monotone stack and the wire
//!   re-prune) compares plain `f64` lanes instead of struct fields;
//! * **`AddBuffer`** scans and hull walks run over the `q`/`c` columns
//!   directly (see [`crate::buffering`]'s slab variants).
//!
//! Lists are identified by [`SlabList`] handles (u32 indices into a pool of
//! column slots with a freelist); [`SlabView`] borrows the columns of one
//! list. `Candidate`/`CandidateList` remain the boundary types: the cache
//! seam, `PredArena` reconstruction, and all public APIs keep their shapes,
//! converting at the edges via [`CandidateSlab::load_list`] /
//! [`CandidateSlab::to_candidate_list`].
//!
//! **Every operation replicates the reference arithmetic expression by
//! expression, in the same order**, so results are bit-identical to the
//! `CandidateList` path — asserted by the golden-bit anchors, the
//! exhaustive oracles, and `tests/kernel_equivalence.rs`.

use fastbuf_rctree::delay::DelayModel;

use crate::arena::{PredArena, PredRef};
use crate::candidate::{Candidate, CandidateList};
use crate::hull::prunes_middle_vals;
use crate::stats::SolveStats;

/// Bytes of column storage per candidate (three `f64` lanes + one `u32`
/// pred lane) — the unit of [`CandidateSlab::peak_bytes`].
const BYTES_PER_CANDIDATE: usize = 8 * 3 + 4;

/// Handle to one candidate list inside a [`CandidateSlab`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlabList(u32);

impl SlabList {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Borrowed columns of one slab list, in nonredundant `(Q, C)` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlabView<'a> {
    /// Slack column (seconds).
    pub q: &'a [f64],
    /// Downstream-capacitance column (farads).
    pub c: &'a [f64],
    /// Stage-wire-delay column (seconds).
    pub s: &'a [f64],
    /// Predecessor-reference column.
    pub pred: &'a [PredRef],
}

impl SlabView<'_> {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    /// Materializes candidate `i` (for boundary code and `make_beta`).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Candidate {
        Candidate {
            q: self.q[i],
            c: self.c[i],
            s: self.s[i],
            pred: self.pred[i],
        }
    }
}

/// The pruned `β_i` of one `AddBuffer` as columns, in strictly increasing
/// `c` order: the incoming side of [`CandidateSlab::merge_insert`]. A β
/// starts a fresh stage at the buffer input, so its stage delay is always
/// `0.0` and there is no `s` column.
#[derive(Debug, Default)]
pub(crate) struct BetaColumns {
    q: Vec<f64>,
    c: Vec<f64>,
    pred: Vec<PredRef>,
}

impl BetaColumns {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.q.clear();
        self.c.clear();
        self.pred.clear();
    }

    /// Column replica of `candidate::push_pruned_c_order` for a β: drops
    /// it when the last β has no smaller `q`, replaces the last β on equal
    /// `c`. Requires `c` at least the last β's.
    #[inline]
    pub(crate) fn push_pruned(&mut self, q: f64, c: f64, pred: PredRef) {
        if let Some(last) = self.q.len().checked_sub(1) {
            debug_assert!(c >= self.c[last], "push_pruned requires c-sorted input");
            if q <= self.q[last] {
                return; // dominated: no better slack at no smaller load
            }
            if c == self.c[last] {
                self.q[last] = q;
                self.c[last] = c;
                self.pred[last] = pred;
                return;
            }
        }
        self.q.push(q);
        self.c.push(c);
        self.pred.push(pred);
    }

    /// Replaces `self` with the nonredundant union of two c-sorted groups:
    /// the two-pointer walk takes `a` first on equal `c` when its `q` is at
    /// least `b`'s, and every element goes through
    /// [`BetaColumns::push_pruned`].
    pub(crate) fn merge_sorted(&mut self, a: &BetaColumns, b: &BetaColumns) {
        self.clear();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take_a = if i < a.len() && j < b.len() {
                a.c[i] < b.c[j] || (a.c[i] == b.c[j] && a.q[i] >= b.q[j])
            } else {
                i < a.len()
            };
            let (side, k) = if take_a { (a, &mut i) } else { (b, &mut j) };
            self.push_pruned(side.q[*k], side.c[*k], side.pred[*k]);
            *k += 1;
        }
    }
}

/// One slot of parallel candidate columns.
#[derive(Debug, Default)]
struct Columns {
    q: Vec<f64>,
    c: Vec<f64>,
    s: Vec<f64>,
    pred: Vec<PredRef>,
}

/// First index in `from..to` where `pred(xs[i])` stops holding, assuming
/// `pred` is monotone (true-prefix) over the ascending lane `xs` —
/// equivalent to `from + xs[from..to].partition_point(|&x| pred(x))`. Runs
/// in the merge/merge-insert walks are usually a handful of elements, so a
/// short linear probe beats a binary search; long tails fall back to it.
#[inline]
fn run_split(xs: &[f64], from: usize, to: usize, pred: impl Fn(f64) -> bool) -> usize {
    let stop = (from + 8).min(to);
    let mut i = from;
    while i < stop && pred(xs[i]) {
        i += 1;
    }
    if i == stop && stop < to {
        i = stop + xs[stop..to].partition_point(|&x| pred(x));
    }
    i
}

impl Columns {
    #[inline]
    fn len(&self) -> usize {
        self.q.len()
    }

    #[inline]
    fn clear(&mut self) {
        self.q.clear();
        self.c.clear();
        self.s.clear();
        self.pred.clear();
    }

    #[inline]
    fn push(&mut self, q: f64, c: f64, s: f64, pred: PredRef) {
        self.q.push(q);
        self.c.push(c);
        self.s.push(s);
        self.pred.push(pred);
    }

    #[inline]
    fn reserve(&mut self, n: usize) {
        self.q.reserve(n);
        self.c.reserve(n);
        self.s.reserve(n);
        self.pred.reserve(n);
    }

    #[inline]
    fn truncate(&mut self, n: usize) {
        self.q.truncate(n);
        self.c.truncate(n);
        self.s.truncate(n);
        self.pred.truncate(n);
    }

    /// Copies lane `from` over lane `to` (compaction step).
    #[inline]
    fn copy_lane(&mut self, from: usize, to: usize) {
        self.q[to] = self.q[from];
        self.c[to] = self.c[from];
        self.s[to] = self.s[from];
        self.pred[to] = self.pred[from];
    }

    /// Writes lane `i`, which must be at most the current length: an
    /// in-place overwrite below it, a plain push exactly at it. The
    /// top-pointer loops below use this so a logical "pop" is just a
    /// cursor decrement — the lanes keep their stale tail until the final
    /// [`Columns::truncate`].
    #[inline]
    fn set(&mut self, i: usize, q: f64, c: f64, s: f64, pred: PredRef) {
        if i == self.q.len() {
            self.push(q, c, s, pred);
        } else {
            self.q[i] = q;
            self.c[i] = c;
            self.s[i] = s;
            self.pred[i] = pred;
        }
    }

    /// Bulk-copies `src[from..to]` onto the stack at height `top` and
    /// returns the new height: lane-wise `memcpy` over the region below the
    /// current length, lane-wise extend past it.
    #[inline]
    fn write_run(&mut self, top: usize, src: &Columns, from: usize, to: usize) -> usize {
        let n = to - from;
        if n <= 4 {
            // Tiny run: the eight slice ops below cost more than they
            // save; copy element-wise instead.
            for (k, i) in (from..to).enumerate() {
                self.set(top + k, src.q[i], src.c[i], src.s[i], src.pred[i]);
            }
            return top + n;
        }
        let overlap = n.min(self.q.len() - top);
        let split = from + overlap;
        self.q[top..top + overlap].copy_from_slice(&src.q[from..split]);
        self.c[top..top + overlap].copy_from_slice(&src.c[from..split]);
        self.s[top..top + overlap].copy_from_slice(&src.s[from..split]);
        self.pred[top..top + overlap].copy_from_slice(&src.pred[from..split]);
        self.q.extend_from_slice(&src.q[split..to]);
        self.c.extend_from_slice(&src.c[split..to]);
        self.s.extend_from_slice(&src.s[split..to]);
        self.pred.extend_from_slice(&src.pred[split..to]);
        top + n
    }

    /// Column replica of `candidate::push_pruned_c_order` against a
    /// top-pointer stack of height `top` (lanes above `top` are stale):
    /// same dominance checks against the current top, same equal-`c`
    /// replacement. Returns the new stack height.
    #[inline]
    fn push_pruned_c_order(&mut self, top: usize, q: f64, c: f64, s: f64, pred: PredRef) -> usize {
        if let Some(last) = top.checked_sub(1) {
            debug_assert!(
                c >= self.c[last],
                "push_pruned_c_order requires c-sorted input"
            );
            if q <= self.q[last] {
                return top; // dominated: no better slack at no smaller load
            }
            if c == self.c[last] {
                self.q[last] = q;
                self.c[last] = c;
                self.s[last] = s;
                self.pred[last] = pred;
                return top;
            }
        }
        self.set(top, q, c, s, pred);
        top + 1
    }

    /// Replaces the first `tail_start` elements with `head[..top]` while
    /// keeping the tail `[tail_start..]`: the tail moves as one `memmove`
    /// per lane when the head differs in length from the span it replaces,
    /// and does not move at all when the lengths match.
    fn splice_head(&mut self, head: &Columns, top: usize, tail_start: usize) {
        debug_assert!(tail_start <= self.len() && top <= head.len());
        let old_len = self.len();
        let new_len = top + (old_len - tail_start);
        if top > tail_start {
            self.q.resize(new_len, 0.0);
            self.c.resize(new_len, 0.0);
            self.s.resize(new_len, 0.0);
            self.pred.resize(new_len, PredRef::NONE);
        }
        if top != tail_start {
            self.q.copy_within(tail_start..old_len, top);
            self.c.copy_within(tail_start..old_len, top);
            self.s.copy_within(tail_start..old_len, top);
            self.pred.copy_within(tail_start..old_len, top);
            self.truncate(new_len);
        }
        self.q[..top].copy_from_slice(&head.q[..top]);
        self.c[..top].copy_from_slice(&head.c[..top]);
        self.s[..top].copy_from_slice(&head.s[..top]);
        self.pred[..top].copy_from_slice(&head.pred[..top]);
    }
}

/// Pool of struct-of-arrays candidate lists with recycled column storage.
///
/// One slab lives per solve context (inside
/// [`SolveWorkspace`](crate::SolveWorkspace), or per subtree task in
/// intra-net parallel mode). Handles freed back to the slab keep their
/// column capacity, so a warm slab performs no steady-state allocation —
/// the struct-of-arrays analogue of [`crate::pool::CandidatePool`].
#[derive(Debug, Default)]
pub(crate) struct CandidateSlab {
    slots: Vec<Columns>,
    free: Vec<u32>,
    /// Staging columns for merge/merge-insert rebuilds.
    raw: Columns,
    /// Candidates currently live across all allocated lists.
    live: usize,
    /// High-water mark of `live` since the last [`CandidateSlab::reset`].
    peak: usize,
}

impl CandidateSlab {
    /// Frees every list and zeroes the live/peak accounting (column and
    /// slot allocations are retained). Called at the start of each solve.
    pub(crate) fn reset(&mut self) {
        self.free.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.clear();
            self.free.push(i as u32);
        }
        self.live = 0;
        self.peak = 0;
    }

    /// The `pred` lane of every list, for a predecessor-arena collection
    /// to use as its root set and rewrite in place. Free slots are empty,
    /// so this yields exactly the references of the allocated lists.
    pub(crate) fn pred_lanes_mut(&mut self) -> impl Iterator<Item = &mut PredRef> {
        self.slots.iter_mut().flat_map(|slot| slot.pred.iter_mut())
    }

    /// Peak bytes of live candidate columns since the last reset.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak * BYTES_PER_CANDIDATE
    }

    #[inline]
    fn note(&mut self, old_len: usize, new_len: usize) {
        self.live = self.live + new_len - old_len;
        self.peak = self.peak.max(self.live);
    }

    /// Allocates an empty list.
    pub(crate) fn alloc(&mut self) -> SlabList {
        match self.free.pop() {
            Some(i) => SlabList(i),
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Columns::default());
                SlabList(i)
            }
        }
    }

    /// Frees `list`, recycling its column storage.
    pub(crate) fn free(&mut self, list: SlabList) {
        let n = self.slots[list.index()].len();
        self.note(n, 0);
        self.slots[list.index()].clear();
        self.free.push(list.0);
    }

    /// Number of candidates in `list`.
    #[inline]
    pub(crate) fn len(&self, list: SlabList) -> usize {
        self.slots[list.index()].len()
    }

    /// Borrows the columns of `list`.
    #[inline]
    pub(crate) fn view(&self, list: SlabList) -> SlabView<'_> {
        let cols = &self.slots[list.index()];
        SlabView {
            q: &cols.q,
            c: &cols.c,
            s: &cols.s,
            pred: &cols.pred,
        }
    }

    /// The singleton list of a sink: `Q = RAT`, `C = c_sink`, `s = 0`.
    pub(crate) fn sink(&mut self, q: f64, c: f64) -> SlabList {
        let list = self.alloc();
        self.slots[list.index()].push(q, c, 0.0, PredRef::NONE);
        self.note(0, 1);
        list
    }

    /// Loads a boundary [`CandidateList`] (cache snapshot, parallel-task
    /// result) into slab columns.
    pub(crate) fn load_list(&mut self, src: &CandidateList) -> SlabList {
        let list = self.alloc();
        let cols = &mut self.slots[list.index()];
        cols.q.extend(src.iter().map(|cand| cand.q));
        cols.c.extend(src.iter().map(|cand| cand.c));
        cols.s.extend(src.iter().map(|cand| cand.s));
        cols.pred.extend(src.iter().map(|cand| cand.pred));
        self.note(0, src.len());
        list
    }

    /// Copies `list` out to a boundary [`CandidateList`] (the columns stay
    /// allocated; free the handle separately).
    pub(crate) fn to_candidate_list(&self, list: SlabList) -> CandidateList {
        let view = self.view(list);
        let mut out = Vec::with_capacity(view.len());
        for i in 0..view.len() {
            out.push(view.get(i));
        }
        CandidateList::from_sorted(out)
    }

    /// Wire propagation — the column replica of
    /// [`CandidateList::add_wire_model`]. The whole shear runs through one
    /// batched [`DelayModel::wire_shear`] call (delay from the *pre-shear*
    /// capacitance, exactly what the scalar loop feeds `wire_delay`
    /// candidate by candidate — one virtual dispatch per wire, one memory
    /// pass over the three lanes), then the same in-place monotone pass
    /// restores the nonredundant invariant.
    pub(crate) fn add_wire(
        &mut self,
        list: SlabList,
        model: &dyn DelayModel,
        r: f64,
        cw: f64,
        stats: &mut SolveStats,
    ) {
        if r == 0.0 && cw == 0.0 {
            return;
        }
        let cols = &mut self.slots[list.index()];
        let n = cols.len();
        model.wire_shear(r, cw, &mut cols.q, &mut cols.s, &mut cols.c);
        // The shear preserves c order (strictly increasing stays strictly
        // increasing under `+ cw`), so only the q invariant can break. In
        // the common case q stays strictly increasing and the list is
        // untouched; otherwise compact from the first violation with the
        // same checks as the reference (the kept prefix is exactly what
        // the reference's single pass would have written there).
        let write = match cols.q.windows(2).position(|w| w[1] <= w[0]) {
            None => n,
            Some(v) => {
                let mut write = v + 1;
                for read in v + 1..n {
                    let (q, c) = (cols.q[read], cols.c[read]);
                    if q <= cols.q[write - 1] {
                        continue;
                    }
                    if c == cols.c[write - 1] {
                        cols.copy_lane(read, write - 1);
                        continue;
                    }
                    cols.copy_lane(read, write);
                    write += 1;
                }
                cols.truncate(write);
                write
            }
        };
        stats.slab_candidates_scanned += n as u64;
        stats.slab_candidates_pruned += (n - write) as u64;
        self.note(n, write);
    }

    /// Column replica of `CandidateList::prune_slew`: drops candidates
    /// whose stage delay exceeds `cap`, keeping the single least-bad one
    /// when all violate. Returns the number removed.
    pub(crate) fn prune_slew(&mut self, list: SlabList, cap: f64) -> usize {
        let cols = &mut self.slots[list.index()];
        if !cap.is_finite() || cols.len() == 0 {
            return 0;
        }
        let before = cols.len();
        if cols.s.iter().all(|&s| s > cap) {
            // First-minimum by total order, matching the reference's
            // `min_by(total_cmp)` (which keeps the earliest minimum).
            let mut best = 0usize;
            for i in 1..before {
                if cols.s[i].total_cmp(&cols.s[best]) == std::cmp::Ordering::Less {
                    best = i;
                }
            }
            cols.copy_lane(best, 0);
            cols.truncate(1);
            self.note(before, 1);
            return before - 1;
        }
        let mut write = 0usize;
        for read in 0..before {
            if cols.s[read] <= cap {
                if write != read {
                    cols.copy_lane(read, write);
                }
                write += 1;
            }
        }
        cols.truncate(write);
        self.note(before, write);
        before - write
    }

    /// Branch merge — the column replica of `merge_branches_pooled`.
    /// Consumes `left` and `right` (their handles are freed) and returns
    /// the merged list: the same two-pointer walk, the same monotone-stack
    /// prune, the same final slew prune, pushing the same
    /// [`PredEntry::Merge`](crate::PredEntry::Merge) records in the same order.
    pub(crate) fn merge(
        &mut self,
        left: SlabList,
        right: SlabList,
        arena: &mut PredArena,
        track: bool,
        slew_cap: f64,
        stats: &mut SolveStats,
    ) -> SlabList {
        self.merge_impl(left, right, arena, track, slew_cap, stats, true)
    }

    /// [`CandidateSlab::merge`] that leaves both inputs allocated and
    /// untouched. Because the staging pass reads the inputs through views
    /// (no drain), keeping them costs nothing — this is what lets the cost
    /// solver's level convolution reuse one list across many merges where
    /// the reference had to `clone()` per pair.
    pub(crate) fn merge_keep(
        &mut self,
        left: SlabList,
        right: SlabList,
        arena: &mut PredArena,
        track: bool,
        stats: &mut SolveStats,
    ) -> SlabList {
        self.merge_impl(left, right, arena, track, f64::INFINITY, stats, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_impl(
        &mut self,
        left: SlabList,
        right: SlabList,
        arena: &mut PredArena,
        track: bool,
        slew_cap: f64,
        stats: &mut SolveStats,
        consume: bool,
    ) -> SlabList {
        if self.len(left) == 0 {
            if consume {
                self.free(left);
                return right;
            }
            return self.copy_list(right);
        }
        if self.len(right) == 0 {
            if consume {
                self.free(right);
                return left;
            }
            return self.copy_list(left);
        }
        let out = self.alloc();
        let mut emitted = 0usize;
        let mut top = 0usize;
        {
            // Disjoint field borrows: the staging columns are written while
            // the two input slots are read.
            let raw = &mut self.raw;
            raw.clear();
            let l = &self.slots[left.index()];
            let r = &self.slots[right.index()];
            let (ln, rn) = (l.len(), r.len());
            raw.reserve(ln + rn);
            let (lq, lc, ls, lp) = (&l.q[..ln], &l.c[..ln], &l.s[..ln], &l.pred[..ln]);
            let (rq, rc, rs, rp) = (&r.q[..rn], &r.c[..rn], &r.s[..rn], &r.pred[..rn]);
            let (mut i, mut j) = (0usize, 0usize);
            // Invariant as in the reference: the partner on the other side
            // is the cheapest candidate not capping the emitted one. Each
            // step advances at least one pointer and both inputs are strict
            // (Q, C) staircases, so the emitted `c = l.c[i] + r.c[j]` is
            // *strictly increasing* across the walk — the reference's
            // monotone-stack prune (applied with the same checks in the
            // same emission order at every run boundary below) can only
            // fire on a boundary element. The tail of a run — one side
            // advancing against a fixed partner — is emitted verbatim as
            // three lane sweeps: a `q` memcpy, a `c` shift by the partner's
            // load, an `s` max against the partner's stage delay (operand
            // order preserved, so every value is bit-identical).
            while i < ln && j < rn {
                let (aq, bq) = (lq[i], rq[j]);
                let q = aq.min(bq);
                let c = lc[i] + rc[j];
                let s = ls[i].max(rs[j]);
                let pred = if track {
                    arena.push_merge(lp[i], rp[j])
                } else {
                    PredRef::NONE
                };
                emitted += 1;
                let dominated = top > 0 && q == raw.q[top - 1] && c >= raw.c[top - 1];
                if !dominated {
                    while top > 0 && raw.c[top - 1] >= c {
                        top -= 1; // new candidate dominates the stack top
                    }
                    raw.set(top, q, c, s, pred);
                    top += 1;
                }
                if aq < bq {
                    i += 1;
                    let end = run_split(lq, i, ln, |x| x < bq);
                    if i < end {
                        let (cj, sj, pj) = (rc[j], rs[j], rp[j]);
                        if end - i <= 8 {
                            // Sibling lists of similar size interleave in
                            // runs of one or two; the lane sweeps below
                            // cost more than they save there.
                            for x in i..end {
                                let pred = if track {
                                    arena.push_merge(lp[x], pj)
                                } else {
                                    PredRef::NONE
                                };
                                raw.set(top, lq[x], lc[x] + cj, ls[x].max(sj), pred);
                                top += 1;
                            }
                        } else {
                            raw.truncate(top);
                            raw.q.extend_from_slice(&lq[i..end]);
                            raw.c.extend(lc[i..end].iter().map(|&x| x + cj));
                            raw.s.extend(ls[i..end].iter().map(|&x| x.max(sj)));
                            if track {
                                for &p in &lp[i..end] {
                                    raw.pred.push(arena.push_merge(p, pj));
                                }
                            } else {
                                raw.pred.resize(raw.pred.len() + (end - i), PredRef::NONE);
                            }
                            top += end - i;
                        }
                        emitted += end - i;
                        i = end;
                    }
                } else if bq < aq {
                    j += 1;
                    let end = run_split(rq, j, rn, |x| x < aq);
                    if j < end {
                        let (ci, si, pi) = (lc[i], ls[i], lp[i]);
                        if end - j <= 8 {
                            for x in j..end {
                                let pred = if track {
                                    arena.push_merge(pi, rp[x])
                                } else {
                                    PredRef::NONE
                                };
                                raw.set(top, rq[x], ci + rc[x], ls[i].max(rs[x]), pred);
                                top += 1;
                            }
                        } else {
                            raw.truncate(top);
                            raw.q.extend_from_slice(&rq[j..end]);
                            raw.c.extend(rc[j..end].iter().map(|&x| ci + x));
                            raw.s.extend(rs[j..end].iter().map(|&x| si.max(x)));
                            if track {
                                for &p in &rp[j..end] {
                                    raw.pred.push(arena.push_merge(pi, p));
                                }
                            } else {
                                raw.pred.resize(raw.pred.len() + (end - j), PredRef::NONE);
                            }
                            top += end - j;
                        }
                        emitted += end - j;
                        j = end;
                    }
                } else {
                    i += 1;
                    j += 1;
                }
            }
        }
        // Once one side is exhausted, every remaining pair is dominated.
        self.raw.truncate(top);
        let spent = std::mem::replace(&mut self.slots[out.index()], std::mem::take(&mut self.raw));
        self.raw = spent;
        stats.slab_candidates_pruned += (emitted - top) as u64;
        if consume {
            self.free(left);
            self.free(right);
        }
        self.note(0, top);
        self.prune_slew(out, slew_cap);
        out
    }

    /// Borrows two distinct slots, the first read-only and the second
    /// mutably.
    fn slot_pair(&mut self, read: SlabList, write: SlabList) -> (&Columns, &mut Columns) {
        let (ri, wi) = (read.index(), write.index());
        assert_ne!(ri, wi, "slot_pair requires distinct lists");
        if ri < wi {
            let (a, b) = self.slots.split_at_mut(wi);
            (&a[ri], &mut b[0])
        } else {
            let (a, b) = self.slots.split_at_mut(ri);
            (&b[0], &mut a[wi])
        }
    }

    /// Allocates a fresh list holding a copy of `src`'s candidates.
    pub(crate) fn copy_list(&mut self, src: SlabList) -> SlabList {
        let dst = self.alloc();
        debug_assert_ne!(dst, src);
        let (s, d) = self.slot_pair(src, dst);
        d.q.extend_from_slice(&s.q);
        d.c.extend_from_slice(&s.c);
        d.s.extend_from_slice(&s.s);
        d.pred.extend_from_slice(&s.pred);
        let n = self.slots[dst.index()].len();
        self.note(0, n);
        dst
    }

    /// [`CandidateSlab::merge_insert`] where the incoming candidates are
    /// another slab list: merges `src` into `dst` (in place), leaving `src`
    /// untouched. Same two-pointer union, same equal-`c` tie rule.
    pub(crate) fn merge_insert_list(&mut self, dst: SlabList, src: SlabList) {
        debug_assert_ne!(dst, src);
        if self.len(src) == 0 {
            return;
        }
        let mut top = 0usize;
        {
            let out = &mut self.raw;
            let old = &self.slots[dst.index()];
            let inc = &self.slots[src.index()];
            let (mut i, mut j) = (0usize, 0usize);
            // Both sides are strict (Q, C)-staircases, so the element-wise
            // union-with-pruning decomposes into alternating runs: within a
            // run no element dominates another, domination by the stack top
            // cuts a prefix (binary-searchable on the ascending q lane),
            // and the equal-c tie always feeds the better-q element first
            // so the survivor is a clean append. Each run is then one
            // bulk lane copy — same output as the scalar walk.
            while i < old.len() || j < inc.len() {
                let take_old = if i < old.len() && j < inc.len() {
                    let (ac, bc) = (old.c[i], inc.c[j]);
                    if ac < bc {
                        true
                    } else if ac > bc {
                        false
                    } else {
                        old.q[i] >= inc.q[j]
                    }
                } else {
                    i < old.len()
                };
                let (side, pos, other_head) = if take_old {
                    (old, &mut i, (j < inc.len()).then(|| (inc.c[j], inc.q[j])))
                } else {
                    (inc, &mut j, (i < old.len()).then(|| (old.c[i], old.q[i])))
                };
                // End of this side's run: its elements with c below the
                // other side's head, plus an equal-c boundary element when
                // it wins the tie (the old side wins on q >= , mirroring
                // the element-wise rule above).
                let end = match other_head {
                    Some((bc, bq)) => {
                        let n = run_split(&side.c, *pos + 1, side.len(), |x| x < bc);
                        let tie_wins = n < side.len()
                            && side.c[n] == bc
                            && if take_old {
                                side.q[n] >= bq
                            } else {
                                side.q[n] > bq
                            };
                        if tie_wins {
                            n + 1
                        } else {
                            n
                        }
                    }
                    None => side.len(),
                };
                debug_assert!(end > *pos);
                let start = if top > 0 {
                    let tq = out.q[top - 1];
                    run_split(&side.q, *pos, end, |x| x <= tq)
                } else {
                    *pos
                };
                top = out.write_run(top, side, start, end);
                *pos = end;
            }
        }
        self.raw.truncate(top);
        let old_len = self.slots[dst.index()].len();
        let mut spent =
            std::mem::replace(&mut self.slots[dst.index()], std::mem::take(&mut self.raw));
        spent.clear();
        self.raw = spent;
        self.note(old_len, top);
    }

    /// Removes from `level` every candidate dominated by some `frontier`
    /// candidate at equal-or-smaller load (`f.c <= cand.c && f.q >= cand.q`)
    /// — the cost solver's three-dimensional dominance check. Both lists
    /// are `c`-ascending, so one linear sweep with a shared frontier cursor
    /// replaces the reference's per-candidate binary search: the cursor
    /// only ever advances, and `frontier.q` ascends with `frontier.c`, so
    /// the entry just below the cursor is the best potential dominator.
    /// Returns the number removed.
    pub(crate) fn retain_undominated(
        &mut self,
        level: SlabList,
        frontier: SlabList,
        stats: &mut SolveStats,
    ) -> usize {
        let (f, l) = self.slot_pair(frontier, level);
        let n = l.len();
        let (mut fj, mut write) = (0usize, 0usize);
        for read in 0..n {
            let (q, c) = (l.q[read], l.c[read]);
            while fj < f.len() && f.c[fj] <= c {
                fj += 1;
            }
            let dominated = fj > 0 && f.q[fj - 1] >= q;
            if !dominated {
                if write != read {
                    l.copy_lane(read, write);
                }
                write += 1;
            }
        }
        l.truncate(write);
        stats.slab_candidates_scanned += n as u64;
        stats.slab_candidates_pruned += (n - write) as u64;
        self.note(n, write);
        n - write
    }

    /// Merges `incoming` (the pruned `β_i` of `AddBuffer`, strictly
    /// increasing in `C`) into `list` — the column replica of
    /// `CandidateList::merge_insert`, including the equal-`c`
    /// better-`q`-first tie rule.
    pub(crate) fn merge_insert(&mut self, list: SlabList, incoming: &BetaColumns) {
        if incoming.is_empty() {
            return;
        }
        debug_assert!(incoming.c.windows(2).all(|w| w[0] < w[1]));
        let n = incoming.len();
        let (bq, bc, bp) = (&incoming.q[..n], &incoming.c[..n], &incoming.pred[..n]);
        let mut top = 0usize;
        let tail_start;
        {
            let out = &mut self.raw;
            out.clear();
            let old = &self.slots[list.index()];
            let (mut i, mut j) = (0usize, 0usize);
            // Runs of the old staircase between consecutive betas are
            // bulk-copied (see `merge_insert_list` for why the element-wise
            // pruning walk degenerates to prefix-skip + append within a
            // run); the handful of betas go through the scalar push. Only
            // the head — up to the last beta's landing point plus the
            // dominated prefix behind it — is staged in `raw`: β
            // capacitances are buffer input caps, which sit near the front
            // of the staircase, so the (usually much longer) tail past the
            // last insertion is left in place and spliced below.
            if old.len() <= 48 {
                // Short list: the run machinery below costs more than it
                // saves; replicate the reference's element-wise walk (every
                // element through `push_pruned_c_order`, old side first on
                // equal c) and splice the whole rebuilt list back.
                while i < old.len() || j < bq.len() {
                    let take_old = if j < bq.len() && i < old.len() {
                        let (ac, bcj) = (old.c[i], bc[j]);
                        if ac < bcj {
                            true
                        } else if ac > bcj {
                            false
                        } else {
                            old.q[i] >= bq[j]
                        }
                    } else {
                        i < old.len()
                    };
                    if take_old {
                        top =
                            out.push_pruned_c_order(top, old.q[i], old.c[i], old.s[i], old.pred[i]);
                        i += 1;
                    } else {
                        top = out.push_pruned_c_order(top, bq[j], bc[j], 0.0, bp[j]);
                        j += 1;
                    }
                }
                tail_start = i;
            } else {
                tail_start = Self::merge_insert_runs(out, old, incoming, &mut top);
            }
        }
        self.raw.truncate(top);
        let old_len = self.slots[list.index()].len();
        if tail_start >= old_len {
            // No shared tail — the whole list was rebuilt in `raw`
            // (always the case on the short-list path), so swap the
            // buffers instead of copying four lanes back.
            std::mem::swap(&mut self.slots[list.index()], &mut self.raw);
        } else {
            let raw = std::mem::take(&mut self.raw);
            self.slots[list.index()].splice_head(&raw, top, tail_start);
            self.raw = raw;
        }
        self.note(old_len, top + (old_len - tail_start));
    }

    /// The run-based walk of [`CandidateSlab::merge_insert`] for long
    /// lists: returns the index where the shared old tail starts, having
    /// staged the rebuilt head in `out[..top]`.
    fn merge_insert_runs(
        out: &mut Columns,
        old: &Columns,
        incoming: &BetaColumns,
        top: &mut usize,
    ) -> usize {
        let n = incoming.len();
        let (bq_lane, bc_lane) = (&incoming.q[..n], &incoming.c[..n]);
        let bp_lane = &incoming.pred[..n];
        let (mut i, mut j) = (0usize, 0usize);
        let mut t = *top;
        loop {
            if j == n {
                // All betas placed: skip old elements dominated by the
                // new top; the remaining tail is shared verbatim.
                if t > 0 {
                    let tq = out.q[t - 1];
                    i = run_split(&old.q, i, old.len(), |x| x <= tq);
                }
                break;
            }
            let (bq, bc) = (bq_lane[j], bc_lane[j]);
            let take_old = if i < old.len() {
                // On equal c, feed the better-q one first; the other is
                // then dropped by push_pruned_c_order.
                let ac = old.c[i];
                if ac < bc {
                    true
                } else if ac > bc {
                    false
                } else {
                    old.q[i] >= bq
                }
            } else {
                false
            };
            if take_old {
                let n = run_split(&old.c, i + 1, old.len(), |x| x < bc);
                let end = if n < old.len() && old.c[n] == bc && old.q[n] >= bq {
                    n + 1 // equal c, better q: still old's turn
                } else {
                    n
                };
                let start = if t > 0 {
                    let tq = out.q[t - 1];
                    run_split(&old.q, i, end, |x| x <= tq)
                } else {
                    i
                };
                t = out.write_run(t, old, start, end);
                i = end;
            } else {
                t = out.push_pruned_c_order(t, bq, bc, 0.0, bp_lane[j]);
                j += 1;
            }
        }
        *top = t;
        i
    }

    /// The candidate index maximizing `Q − (k + r·C)` (ties to minimum
    /// `C`), or `None` on an empty list — the column replica of
    /// [`CandidateList::best_driven`].
    pub(crate) fn best_driven(&self, list: SlabList, r: f64, k: f64) -> Option<usize> {
        let cols = &self.slots[list.index()];
        let mut best: Option<usize> = None;
        for i in 0..cols.len() {
            match best {
                None => best = Some(i),
                Some(b) => {
                    if cols.q[i] - k - r * cols.c[i] > cols.q[b] - k - r * cols.c[b] {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Convex-prunes `list` in place, keeping only upper-hull candidates —
    /// the column replica of [`crate::hull::convex_prune_in_place`].
    /// Returns the number removed.
    pub(crate) fn convex_prune(&mut self, list: SlabList) -> usize {
        let cols = &mut self.slots[list.index()];
        let before = cols.len();
        let mut top = 0usize; // hull size; lanes [..top] are the hull so far
        for i in 0..before {
            let (q, c, s, pred) = (cols.q[i], cols.c[i], cols.s[i], cols.pred[i]);
            while top >= 2
                && prunes_middle_vals(
                    cols.q[top - 2],
                    cols.c[top - 2],
                    cols.q[top - 1],
                    cols.c[top - 1],
                    q,
                    c,
                )
            {
                top -= 1;
            }
            cols.q[top] = q;
            cols.c[top] = c;
            cols.s[top] = s;
            cols.pred[top] = pred;
            top += 1;
        }
        cols.truncate(top);
        self.note(before, top);
        before - top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateList;
    use crate::hull::convex_prune_in_place;
    use crate::merge::merge_branches;
    use fastbuf_rctree::delay::ElmoreModel;

    fn cand(q: f64, c: f64) -> Candidate {
        Candidate::new(q, c, PredRef::NONE)
    }

    fn list(points: &[(f64, f64)]) -> CandidateList {
        CandidateList::from_candidates(points.iter().map(|&(q, c)| cand(q, c)).collect())
    }

    /// Deterministic pseudo-random staircase generator shared by the
    /// differential tests below.
    fn staircase(seed: u64, n: usize) -> CandidateList {
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let mut q = 0.0;
        let mut c = 0.0;
        let mut pts = Vec::new();
        for _ in 0..n {
            q += rnd() + 0.01;
            c += rnd() + 0.01;
            pts.push((q, c));
        }
        list(&pts)
    }

    /// The β columns of a nonredundant candidate sequence.
    fn beta_cols(cands: &[Candidate]) -> BetaColumns {
        let mut cols = BetaColumns::default();
        for b in cands {
            cols.push_pruned(b.q, b.c, b.pred);
        }
        assert_eq!(cols.len(), cands.len(), "input must be nonredundant");
        cols
    }

    fn bits(l: &CandidateList) -> Vec<(u64, u64, u64)> {
        l.iter()
            .map(|c| (c.q.to_bits(), c.c.to_bits(), c.s.to_bits()))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let src = staircase(7, 17);
        let mut slab = CandidateSlab::default();
        let h = slab.load_list(&src);
        assert_eq!(slab.len(h), src.len());
        let back = slab.to_candidate_list(h);
        assert_eq!(bits(&back), bits(&src));
    }

    #[test]
    fn add_wire_matches_reference_bits() {
        let mut stats = SolveStats::default();
        for seed in 1u64..20 {
            let mut reference = staircase(seed, 12);
            let mut slab = CandidateSlab::default();
            let h = slab.load_list(&reference);
            let (r, cw) = (0.5 + seed as f64, 0.25 * seed as f64);
            reference.add_wire_model(&ElmoreModel, r, cw);
            slab.add_wire(h, &ElmoreModel, r, cw, &mut stats);
            assert_eq!(
                bits(&slab.to_candidate_list(h)),
                bits(&reference),
                "seed {seed}"
            );
        }
        assert!(stats.slab_candidates_scanned > 0);
    }

    #[test]
    fn merge_matches_reference_bits() {
        for seed in 1u64..20 {
            let l = staircase(seed, 1 + (seed % 9) as usize);
            let r = staircase(seed.wrapping_mul(31), 1 + (seed % 7) as usize);
            let mut arena = PredArena::new();
            let reference = merge_branches(l.clone(), r.clone(), &mut arena, false);

            let mut slab = CandidateSlab::default();
            let mut stats = SolveStats::default();
            let mut arena2 = PredArena::new();
            let hl = slab.load_list(&l);
            let hr = slab.load_list(&r);
            let hm = slab.merge(hl, hr, &mut arena2, false, f64::INFINITY, &mut stats);
            assert_eq!(
                bits(&slab.to_candidate_list(hm)),
                bits(&reference),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn merge_insert_matches_reference_bits() {
        // Both the short-list walk and the run-based walk (> 48 elements).
        for seed in 1u64..40 {
            let mut reference = staircase(seed, if seed % 2 == 0 { 10 } else { 120 });
            let betas: Vec<Candidate> = staircase(seed ^ 0xABCD, 5).iter().copied().collect();
            let mut slab = CandidateSlab::default();
            let h = slab.load_list(&reference);
            reference.merge_insert(&betas);
            slab.merge_insert(h, &beta_cols(&betas));
            assert_eq!(
                bits(&slab.to_candidate_list(h)),
                bits(&reference),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn prune_slew_matches_reference() {
        let mk = || {
            CandidateList::from_sorted(vec![
                cand(1.0, 1.0).with_stage_delay(5.0),
                cand(2.0, 2.0).with_stage_delay(1.0),
                cand(3.0, 3.0).with_stage_delay(9.0),
            ])
        };
        for cap in [2.0, 0.5, f64::INFINITY] {
            let mut reference = mk();
            let removed_ref = reference.prune_slew(cap);
            let mut slab = CandidateSlab::default();
            let h = slab.load_list(&mk());
            let removed = slab.prune_slew(h, cap);
            assert_eq!(removed, removed_ref, "cap {cap}");
            assert_eq!(
                bits(&slab.to_candidate_list(h)),
                bits(&reference),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn convex_prune_matches_reference() {
        for seed in 1u64..15 {
            let mut reference = staircase(seed, 20);
            let mut slab = CandidateSlab::default();
            let h = slab.load_list(&reference);
            let removed_ref = convex_prune_in_place(&mut reference);
            let removed = slab.convex_prune(h);
            assert_eq!(removed, removed_ref, "seed {seed}");
            assert_eq!(
                bits(&slab.to_candidate_list(h)),
                bits(&reference),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn best_driven_matches_reference() {
        let l = staircase(3, 15);
        let mut slab = CandidateSlab::default();
        let h = slab.load_list(&l);
        for r_tenth in 0..40 {
            let r = r_tenth as f64 * 0.1;
            let reference = l.best_driven(r, 0.3).unwrap();
            let idx = slab.best_driven(h, r, 0.3).unwrap();
            let got = slab.view(h).get(idx);
            assert_eq!(got.q.to_bits(), reference.q.to_bits());
            assert_eq!(got.c.to_bits(), reference.c.to_bits());
        }
    }

    #[test]
    fn free_and_reset_recycle_storage_and_track_peak() {
        let mut slab = CandidateSlab::default();
        let a = slab.load_list(&staircase(1, 10));
        let b = slab.load_list(&staircase(2, 6));
        assert_eq!(slab.peak_bytes(), 16 * BYTES_PER_CANDIDATE);
        slab.free(a);
        slab.free(b);
        // Peak is sticky until reset; live storage is back to zero.
        assert_eq!(slab.peak_bytes(), 16 * BYTES_PER_CANDIDATE);
        let c = slab.alloc();
        assert_eq!(slab.len(c), 0);
        slab.reset();
        assert_eq!(slab.peak_bytes(), 0);
    }

    #[test]
    fn merge_keep_matches_merge_and_preserves_inputs() {
        for seed in 1u64..12 {
            let l = staircase(seed, 1 + (seed % 8) as usize);
            let r = staircase(seed.wrapping_mul(17), 1 + (seed % 5) as usize);
            let mut arena = PredArena::new();
            let reference = merge_branches(l.clone(), r.clone(), &mut arena, false);

            let mut slab = CandidateSlab::default();
            let mut stats = SolveStats::default();
            let mut arena2 = PredArena::new();
            let hl = slab.load_list(&l);
            let hr = slab.load_list(&r);
            let hm = slab.merge_keep(hl, hr, &mut arena2, false, &mut stats);
            assert_eq!(
                bits(&slab.to_candidate_list(hm)),
                bits(&reference),
                "seed {seed}"
            );
            // Inputs survive with their contents intact.
            assert_eq!(bits(&slab.to_candidate_list(hl)), bits(&l), "seed {seed}");
            assert_eq!(bits(&slab.to_candidate_list(hr)), bits(&r), "seed {seed}");
        }
    }

    #[test]
    fn merge_insert_list_matches_merge_insert() {
        for seed in 1u64..12 {
            let mut reference = staircase(seed, 9);
            let incoming = staircase(seed ^ 0x5117, 6);
            let mut slab = CandidateSlab::default();
            let dst = slab.load_list(&reference);
            let src = slab.load_list(&incoming);
            let inc: Vec<Candidate> = incoming.iter().copied().collect();
            reference.merge_insert(&inc);
            slab.merge_insert_list(dst, src);
            assert_eq!(
                bits(&slab.to_candidate_list(dst)),
                bits(&reference),
                "seed {seed}"
            );
            // Source untouched.
            assert_eq!(
                bits(&slab.to_candidate_list(src)),
                bits(&incoming),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn copy_list_preserves_bits_and_counts_live() {
        let src_list = staircase(9, 11);
        let mut slab = CandidateSlab::default();
        let a = slab.load_list(&src_list);
        let b = slab.copy_list(a);
        assert_ne!(a, b);
        assert_eq!(bits(&slab.to_candidate_list(b)), bits(&src_list));
        assert_eq!(slab.peak_bytes(), 22 * BYTES_PER_CANDIDATE);
    }

    #[test]
    fn retain_undominated_matches_partition_point_filter() {
        for seed in 1u64..15 {
            let frontier = staircase(seed, 8);
            let level = staircase(seed.wrapping_mul(101), 10);
            // Reference semantics: binary search for the best frontier
            // candidate at c <= cand.c (as in the AoS `prune_levels`).
            let expect: Vec<Candidate> = level
                .iter()
                .filter(|cand| {
                    let below = frontier.as_slice().partition_point(|f| f.c <= cand.c);
                    !(below > 0 && frontier.as_slice()[below - 1].q >= cand.q)
                })
                .copied()
                .collect();

            let mut slab = CandidateSlab::default();
            let mut stats = SolveStats::default();
            let hf = slab.load_list(&frontier);
            let hl = slab.load_list(&level);
            let removed = slab.retain_undominated(hl, hf, &mut stats);
            assert_eq!(removed, level.len() - expect.len(), "seed {seed}");
            assert_eq!(
                bits(&slab.to_candidate_list(hl)),
                bits(&CandidateList::from_sorted(expect)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_side_merge_passthrough() {
        let mut slab = CandidateSlab::default();
        let mut arena = PredArena::new();
        let mut stats = SolveStats::default();
        let l = slab.load_list(&staircase(5, 4));
        let e = slab.alloc();
        let out = slab.merge(l, e, &mut arena, false, f64::INFINITY, &mut stats);
        assert_eq!(out, l);
        assert_eq!(slab.len(out), 4);
    }

    /// Times `a` and `b` interleaved in blocks (A/B/A/B…), reporting each
    /// side's fastest block scaled back to `iters` iterations. Machine
    /// drift (frequency ramps, co-tenant load) hits both sides evenly
    /// instead of flattering whichever side runs later.
    fn ab_time(
        iters: u32,
        mut a: impl FnMut(u32),
        mut b: impl FnMut(u32),
    ) -> (std::time::Duration, std::time::Duration) {
        use std::time::Instant;
        const BLOCKS: u32 = 8;
        let per = (iters / BLOCKS).max(1);
        let (mut best_a, mut best_b) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..BLOCKS {
            let t0 = Instant::now();
            a(per);
            best_a = best_a.min(t0.elapsed());
            let t0 = Instant::now();
            b(per);
            best_b = best_b.min(t0.elapsed());
        }
        (best_a * BLOCKS, best_b * BLOCKS)
    }

    #[test]
    #[ignore = "microbenchmark; run with --release --ignored"]
    fn op_microbench() {
        use crate::merge::merge_branches_pooled;
        use crate::pool::CandidatePool;
        let iters = 20_000u32;
        for k in [16usize, 64, 256, 1024] {
            let src = staircase(42, k);
            let betas: Vec<Candidate> = staircase(9, 12).iter().copied().collect();
            let slab_betas = beta_cols(&betas);
            let right = staircase(77, k);
            let mut pool = CandidatePool::default();
            let mut slab = CandidateSlab::default();
            let mut stats = SolveStats::default();
            let mut arena = PredArena::new();
            let mut arena2 = PredArena::new();

            // --- add_wire ---
            // Small shear, like a single routing segment: compaction after
            // a wire is rare in real solves (~0.2% of scanned candidates),
            // so the wire timing must not be dominated by it.
            let (wr, wc) = (1e-3, 1e-4);
            let (ref_wire, slab_wire) = ab_time(
                iters,
                |n| {
                    for _ in 0..n {
                        let mut l = clone_pooled(&src, &mut pool);
                        l.add_wire_model(&ElmoreModel, wr, wc);
                        pool.recycle(l);
                    }
                },
                |n| {
                    for _ in 0..n {
                        let h = slab.load_list(&src);
                        slab.add_wire(h, &ElmoreModel, wr, wc, &mut stats);
                        slab.free(h);
                    }
                },
            );

            // --- merge ---
            let (ref_merge, slab_merge) = ab_time(
                iters,
                |n| {
                    for _ in 0..n {
                        let l = clone_pooled(&src, &mut pool);
                        let r = clone_pooled(&right, &mut pool);
                        let m = merge_branches_pooled(
                            l,
                            r,
                            &mut arena,
                            false,
                            &mut pool,
                            f64::INFINITY,
                        );
                        pool.recycle(m);
                    }
                },
                |n| {
                    for _ in 0..n {
                        let l = slab.load_list(&src);
                        let r = slab.load_list(&right);
                        let m = slab.merge(l, r, &mut arena2, false, f64::INFINITY, &mut stats);
                        slab.free(m);
                    }
                },
            );

            // --- merge_insert ---
            let (ref_mi, slab_mi) = ab_time(
                iters,
                |n| {
                    for _ in 0..n {
                        let mut l = clone_pooled(&src, &mut pool);
                        l.merge_insert_pooled(&betas, &mut pool);
                        pool.recycle(l);
                    }
                },
                |n| {
                    for _ in 0..n {
                        let h = slab.load_list(&src);
                        slab.merge_insert(h, &slab_betas);
                        slab.free(h);
                    }
                },
            );

            // --- hull build ---
            let mut hull = Vec::new();
            let mut hull2 = Vec::new();
            let loaded = slab.load_list(&src);
            let (ref_hull, slab_hull) = ab_time(
                iters,
                |n| {
                    for _ in 0..n {
                        crate::hull::upper_hull_into(src.as_slice(), &mut hull);
                        std::hint::black_box(hull.len());
                    }
                },
                |n| {
                    for _ in 0..n {
                        let v = slab.view(loaded);
                        crate::hull::upper_hull_cols(v.q, v.c, &mut hull2);
                        std::hint::black_box(hull2.len());
                    }
                },
            );
            slab.free(loaded);

            // --- load/clone overhead baseline ---
            let (ref_clone, slab_clone) = ab_time(
                iters,
                |n| {
                    for _ in 0..n {
                        let l = clone_pooled(&src, &mut pool);
                        pool.recycle(l);
                    }
                },
                |n| {
                    for _ in 0..n {
                        let h = slab.load_list(&src);
                        slab.free(h);
                    }
                },
            );

            eprintln!(
                "k={k:5}  wire {:>8.1?}/{:>8.1?}  merge {:>8.1?}/{:>8.1?}  mi {:>8.1?}/{:>8.1?}  hull {:>8.1?}/{:>8.1?}  clone {:>8.1?}/{:>8.1?}  (ref/slab)",
                ref_wire,
                slab_wire,
                ref_merge,
                slab_merge,
                ref_mi,
                slab_mi,
                ref_hull,
                slab_hull,
                ref_clone,
                slab_clone
            );
        }
    }

    fn clone_pooled(src: &CandidateList, pool: &mut crate::pool::CandidatePool) -> CandidateList {
        let mut v = pool.take();
        v.extend_from_slice(src.as_slice());
        CandidateList::from_sorted(v)
    }
}
