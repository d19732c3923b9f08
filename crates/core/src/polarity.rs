//! Polarity-aware buffer insertion with inverters.
//!
//! Real repeater libraries are dominated by *inverters* — they are smaller
//! and faster than two-stage buffers — but an inverter flips signal
//! polarity, so placements must deliver the right parity of inversions to
//! every sink. Lillis, Cheng & Lin's original multi-type formulation (the
//! paper's reference \[7\]) already handled this by keeping **two**
//! nonredundant candidate lists per node, one per required arriving
//! polarity; the Li–Shi convex-hull `AddBuffer` applies to each list
//! unchanged, preserving the O(bn²) bound.
//!
//! DP semantics: a candidate in the *positive* list of `T_v` is a buffering
//! of the subtree that meets all its sinks' polarity requirements **if the
//! signal arriving at `v` is positive** (even number of upstream
//! inversions); likewise for the *negative* list. Wires shear both lists;
//! branch merges combine like-polarity lists; a non-inverting buffer maps a
//! list to itself while an inverter maps it to the opposite list. The
//! source drives positive polarity, so the answer is read from the root's
//! positive list — if it is empty (e.g. a negated sink but no inverter in
//! the library), the instance is infeasible.
//!
//! # Example
//!
//! ```
//! use fastbuf_buflib::BufferLibrary;
//! use fastbuf_buflib::units::Microns;
//! use fastbuf_core::polarity::PolaritySolver;
//! # use fastbuf_buflib::{Driver, Technology};
//! # use fastbuf_buflib::units::{Farads, Ohms, Seconds};
//! # use fastbuf_rctree::{TreeBuilder, Wire};
//!
//! let lib = BufferLibrary::paper_synthetic_mixed(8)?; // buffers + inverters
//! # let tech = Technology::tsmc180_like();
//! # let mut b = TreeBuilder::new();
//! # let src = b.source(Driver::new(Ohms::new(180.0)));
//! # let site = b.buffer_site();
//! # let sink = b.sink(Farads::from_femto(10.0), Seconds::from_pico(1000.0));
//! # b.connect(src, site, Wire::from_length(&tech, Microns::new(3000.0)))?;
//! # b.connect(site, sink, Wire::from_length(&tech, Microns::new(3000.0)))?;
//! # let tree = b.build()?;
//! let solution = PolaritySolver::new(&tree, &lib).solve()?;
//! // Inverters used along any source->sink path always come in pairs
//! // unless the sink itself is negated.
//! solution.verify(&tree, &lib)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;
use std::time::Instant;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree};

use fastbuf_rctree::delay::ElmoreModel;

use crate::arena::PredArena;
use crate::buffering::{find_betas_slab, Algorithm, Scratch};
use crate::slab::{BetaColumns, CandidateSlab, SlabList};
use crate::slew::SlewPolicy;
use crate::solution::Placement;
use crate::stats::SolveStats;

/// Signal polarity relative to the source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Same polarity as the source output.
    #[default]
    Positive,
    /// Inverted relative to the source output.
    Negative,
}

impl Polarity {
    /// The opposite polarity.
    #[must_use]
    pub fn flipped(self) -> Polarity {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
        }
    }
}

/// Errors from [`PolaritySolver::solve`] and
/// [`PolaritySolution::verify`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PolarityError {
    /// No assignment can satisfy every sink's polarity requirement (e.g. a
    /// negated sink with no inverter in the library).
    Infeasible,
    /// A node passed to [`PolaritySolver::require`] is not a sink.
    NotASink(NodeId),
    /// Verification found a sink receiving the wrong polarity.
    WrongPolarity(NodeId),
    /// Verification measured a different slack than predicted.
    SlackMismatch {
        /// Slack the DP predicted.
        predicted: Seconds,
        /// Slack the forward evaluation measured.
        measured: Seconds,
    },
    /// A requested solve configuration the polarity DP does not implement
    /// (non-Elmore delay models, slew limits). Without this typed refusal
    /// the solver would silently compute Elmore/unconstrained answers for
    /// a caller who asked for something else — the same hazard
    /// `Solution::verify` had before PR 4.
    Unsupported {
        /// What was requested, human-readable.
        what: String,
    },
}

impl fmt::Display for PolarityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolarityError::Infeasible => {
                write!(
                    f,
                    "no buffer assignment satisfies the polarity requirements"
                )
            }
            PolarityError::NotASink(n) => write!(f, "{n} is not a sink"),
            PolarityError::WrongPolarity(n) => {
                write!(f, "sink {n} receives the wrong polarity")
            }
            PolarityError::SlackMismatch {
                predicted,
                measured,
            } => write!(
                f,
                "predicted slack {predicted} but forward evaluation measured {measured}"
            ),
            PolarityError::Unsupported { what } => {
                write!(f, "the polarity solver does not support {what}")
            }
        }
    }
}

impl Error for PolarityError {}

/// Result of a polarity-aware solve.
#[derive(Clone, Debug)]
pub struct PolaritySolution {
    /// Optimal slack at the source (driver delay included).
    pub slack: Seconds,
    /// Inserted repeaters (buffers and inverters).
    pub placements: Vec<Placement>,
    /// How many of the placements are inverters.
    pub inverter_count: usize,
    /// Operation counters (both polarity lists contribute).
    pub stats: SolveStats,
}

impl PolaritySolution {
    /// Checks the solution against the independent forward Elmore engine
    /// *and* the polarity requirements; returns the measured slack.
    ///
    /// # Errors
    ///
    /// [`PolarityError::WrongPolarity`] if any sink sees the wrong parity of
    /// inversions; [`PolarityError::SlackMismatch`] if the measured slack
    /// deviates from the prediction.
    pub fn verify(
        &self,
        tree: &RoutingTree,
        library: &BufferLibrary,
    ) -> Result<Seconds, PolarityError> {
        self.verify_with(tree, library, &[])
    }

    /// Like [`PolaritySolution::verify`] for instances with negated sinks.
    ///
    /// # Errors
    ///
    /// See [`PolaritySolution::verify`].
    pub fn verify_with(
        &self,
        tree: &RoutingTree,
        library: &BufferLibrary,
        negated_sinks: &[NodeId],
    ) -> Result<Seconds, PolarityError> {
        let pairs: Vec<_> = self.placements.iter().map(|p| (p.node, p.buffer)).collect();
        check_polarity(tree, library, &pairs, negated_sinks)?;
        let report = fastbuf_rctree::elmore::evaluate(tree, library, &pairs)
            .expect("reconstructed placements are legal");
        let tol = 1e-9 * self.slack.value().abs().max(1e-12);
        if (report.slack.value() - self.slack.value()).abs() > tol {
            return Err(PolarityError::SlackMismatch {
                predicted: self.slack,
                measured: report.slack,
            });
        }
        Ok(report.slack)
    }
}

/// Checks that `placements` deliver the required polarity to every sink.
///
/// Purely topological — it counts inversions along each source→sink path
/// and never evaluates delay, so it is valid under *any* delay model
/// (unlike [`PolaritySolver::solve`], which is Elmore-only).
///
/// # Errors
///
/// [`PolarityError::WrongPolarity`] naming the first offending sink.
pub fn check_polarity(
    tree: &RoutingTree,
    library: &BufferLibrary,
    placements: &[(NodeId, fastbuf_buflib::BufferTypeId)],
    negated_sinks: &[NodeId],
) -> Result<(), PolarityError> {
    let mut inverts = vec![false; tree.node_count()];
    for &(node, buf) in placements {
        if library.get(buf).is_inverting() {
            inverts[node.index()] = true;
        }
    }
    // Parity of inversions from the source to each node, top-down.
    let mut parity = vec![Polarity::Positive; tree.node_count()];
    for &node in tree.postorder().iter().rev() {
        let from_parent = match tree.parent(node) {
            None => Polarity::Positive,
            Some(p) => parity[p.index()],
        };
        parity[node.index()] = if inverts[node.index()] {
            from_parent.flipped()
        } else {
            from_parent
        };
    }
    for sink in tree.sinks() {
        let required = if negated_sinks.contains(&sink) {
            Polarity::Negative
        } else {
            Polarity::Positive
        };
        if parity[sink.index()] != required {
            return Err(PolarityError::WrongPolarity(sink));
        }
    }
    Ok(())
}

/// Branch merge for polarity lists. Unlike the plain branch merge — which
/// passes a non-empty side through when the other is empty, correct when
/// lists are never empty — an empty side here means "this branch cannot be
/// satisfied with this arriving polarity", so the merged list must be empty
/// too: the same wire feeds both branches.
fn merge_polarized(
    slab: &mut CandidateSlab,
    left: SlabList,
    right: SlabList,
    arena: &mut PredArena,
    stats: &mut SolveStats,
) -> SlabList {
    if slab.len(left) == 0 || slab.len(right) == 0 {
        slab.free(left);
        slab.free(right);
        return slab.alloc();
    }
    slab.merge(left, right, arena, true, f64::INFINITY, stats)
}

/// Per-node DP state: one nonredundant slab list per required arriving
/// polarity.
#[derive(Clone, Copy, Debug)]
struct PolarityLists {
    pos: SlabList,
    neg: SlabList,
}

/// Polarity-aware optimal buffer insertion; see the [module docs](self).
#[derive(Debug)]
pub struct PolaritySolver<'a> {
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    algorithm: Algorithm,
    negated: Vec<bool>,
    delay_model: Option<std::sync::Arc<dyn fastbuf_rctree::DelayModel>>,
    slew_limit: Option<Seconds>,
}

impl<'a> PolaritySolver<'a> {
    /// Creates a solver; all sinks initially require positive polarity.
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        PolaritySolver {
            tree,
            library,
            algorithm: Algorithm::LiShi,
            negated: vec![false; tree.node_count()],
            delay_model: None,
            slew_limit: None,
        }
    }

    /// Selects the `AddBuffer` algorithm (applied per polarity list).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Requests a delay model for the solve. The polarity DP is hard-wired
    /// to Elmore arithmetic, so anything else makes
    /// [`PolaritySolver::solve`] return a typed
    /// [`PolarityError::Unsupported`] instead of silently computing Elmore
    /// answers under the wrong name.
    #[must_use]
    pub fn delay_model(mut self, model: std::sync::Arc<dyn fastbuf_rctree::DelayModel>) -> Self {
        self.delay_model = Some(model);
        self
    }

    /// Requests a maximum output slew. The polarity DP solves
    /// unconstrained; a limit makes [`PolaritySolver::solve`] return a
    /// typed [`PolarityError::Unsupported`].
    #[must_use]
    pub fn slew_limit(mut self, limit: Option<Seconds>) -> Self {
        self.slew_limit = limit;
        self
    }

    /// Requires `sink` to receive the given polarity.
    ///
    /// # Errors
    ///
    /// [`PolarityError::NotASink`] if `sink` is not a sink of the tree.
    pub fn require(&mut self, sink: NodeId, polarity: Polarity) -> Result<(), PolarityError> {
        if sink.index() >= self.tree.node_count() || !self.tree.kind(sink).is_sink() {
            return Err(PolarityError::NotASink(sink));
        }
        self.negated[sink.index()] = polarity == Polarity::Negative;
        Ok(())
    }

    /// The sinks currently required to receive negative polarity.
    pub fn negated_sinks(&self) -> Vec<NodeId> {
        self.tree
            .node_ids()
            .filter(|n| self.negated[n.index()])
            .collect()
    }

    /// Runs the two-list dynamic program.
    ///
    /// # Errors
    ///
    /// [`PolarityError::Infeasible`] when no assignment can satisfy the
    /// polarity requirements (the root's positive list comes out empty).
    pub fn solve(&self) -> Result<PolaritySolution, PolarityError> {
        if let Some(model) = &self.delay_model {
            if model.name() != "elmore" {
                return Err(PolarityError::Unsupported {
                    what: format!(
                        "delay model `{}` (the polarity DP is Elmore-only)",
                        model.name()
                    ),
                });
            }
        }
        if self.slew_limit.is_some() {
            return Err(PolarityError::Unsupported {
                what: "slew limits (the polarity DP solves unconstrained)".to_owned(),
            });
        }
        let start = Instant::now();
        let tree = self.tree;
        let lib = self.library;
        let mut stats = SolveStats::default();
        let mut arena = PredArena::new();
        let mut scratch = Scratch::default();
        let mut slab = CandidateSlab::default();
        let mut lists: Vec<Option<PolarityLists>> = vec![None; tree.node_count()];

        for &node in tree.postorder() {
            let state = match tree.kind(node) {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    let single = slab.sink(required_arrival.value(), capacitance.value());
                    let empty = slab.alloc();
                    if self.negated[node.index()] {
                        PolarityLists {
                            pos: empty,
                            neg: single,
                        }
                    } else {
                        PolarityLists {
                            pos: single,
                            neg: empty,
                        }
                    }
                }
                NodeKind::Internal | NodeKind::Source { .. } => {
                    let mut acc: Option<PolarityLists> = None;
                    for &child in tree.children(node) {
                        let cl = lists[child.index()]
                            .take()
                            .expect("post-order guarantees children are done");
                        let wire = tree.wire_to_parent(child).expect("child wire");
                        let (r, cw) = (wire.resistance().value(), wire.capacitance().value());
                        slab.add_wire(cl.pos, &ElmoreModel, r, cw, &mut stats);
                        slab.add_wire(cl.neg, &ElmoreModel, r, cw, &mut stats);
                        stats.wire_ops += 1;
                        acc = Some(match acc {
                            None => cl,
                            Some(prev) => {
                                stats.merge_ops += 1;
                                PolarityLists {
                                    pos: merge_polarized(
                                        &mut slab, prev.pos, cl.pos, &mut arena, &mut stats,
                                    ),
                                    neg: merge_polarized(
                                        &mut slab, prev.neg, cl.neg, &mut arena, &mut stats,
                                    ),
                                }
                            }
                        });
                    }
                    let state = acc.expect("internal nodes have children");
                    if tree.is_buffer_site(node) && !lib.is_empty() {
                        self.add_repeaters(
                            state,
                            node,
                            &mut slab,
                            &mut arena,
                            &mut scratch,
                            &mut stats,
                        );
                    }
                    state
                }
            };
            stats.max_list_len = stats
                .max_list_len
                .max(slab.len(state.pos).max(slab.len(state.neg)));
            lists[node.index()] = Some(state);
        }

        let root = lists[tree.root().index()].take().expect("root processed");
        stats.root_list_len = slab.len(root.pos);
        let driver = tree.driver();
        let (dr, dk) = (
            driver.resistance().value(),
            driver.intrinsic_delay().value(),
        );
        let best = slab
            .best_driven(root.pos, dr, dk)
            .map(|i| slab.view(root.pos).get(i))
            .ok_or(PolarityError::Infeasible)?;

        let placements: Vec<Placement> = arena
            .collect_placements(best.pred)
            .into_iter()
            .map(Placement::from)
            .collect();
        let inverter_count = placements
            .iter()
            .filter(|p| lib.get(p.buffer).is_inverting())
            .count();
        stats.arena_entries = arena.len();
        stats.arena_bytes = arena.bytes();
        stats.arena_peak_bytes = arena.peak_bytes();
        stats.slab_bytes_peak = slab.peak_bytes();
        stats.elapsed = start.elapsed();
        Ok(PolaritySolution {
            slack: Seconds::new(best.q - dk - dr * best.c),
            placements,
            inverter_count,
            stats,
        })
    }

    /// `AddBuffer` across both polarity lists: betas are generated from each
    /// source list first (so one node never hosts two repeaters), then
    /// routed to the target list its type's polarity dictates.
    fn add_repeaters(
        &self,
        state: PolarityLists,
        node: NodeId,
        slab: &mut CandidateSlab,
        arena: &mut PredArena,
        scratch: &mut Scratch,
        stats: &mut SolveStats,
    ) {
        let lib = self.library;
        let constraint = self.tree.site_constraint(node);
        // Betas destined for each target list, one c-sorted group per
        // (source list, target list) combination.
        let mut groups: [[BetaColumns; 2]; 2] = Default::default();

        for (si, source_positive) in [true, false].into_iter().enumerate() {
            let source = if source_positive {
                state.pos
            } else {
                state.neg
            };
            if !find_betas_slab(
                self.algorithm,
                slab,
                source,
                lib,
                constraint,
                self.tree.site_variation(node),
                0.0,
                scratch,
                &SlewPolicy::unlimited(),
                stats,
            ) {
                continue;
            }
            let by_rank = lib.by_input_cap_asc();
            scratch
                .ranked
                .drain(lib, node, arena, true, |rank, q, c, pred| {
                    // An inverter feeding a positive-requiring subtree needs a
                    // negative arriving signal, and vice versa.
                    let target_positive = source_positive ^ lib.get(by_rank[rank]).is_inverting();
                    groups[si][if target_positive { 0 } else { 1 }].push_pruned(q, c, pred);
                });
        }
        let [[pos_a, neg_a], [pos_b, neg_b]] = &groups;
        let (mut to_pos, mut to_neg) = (BetaColumns::default(), BetaColumns::default());
        to_pos.merge_sorted(pos_a, pos_b);
        to_neg.merge_sorted(neg_a, neg_b);
        stats.betas_generated += (to_pos.len() + to_neg.len()) as u64;
        slab.merge_insert(state.pos, &to_pos);
        slab.merge_insert(state.neg, &to_neg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Solver;
    use fastbuf_buflib::units::{Farads, Microns, Ohms};
    use fastbuf_buflib::{BufferType, Driver, Technology};
    use fastbuf_rctree::{TreeBuilder, Wire};

    fn line(sites: usize, seg_um: f64) -> (RoutingTree, NodeId) {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(180.0)));
        let mut prev = src;
        for _ in 0..sites {
            let s = b.buffer_site();
            b.connect(prev, s, Wire::from_length(&tech, Microns::new(seg_um)))
                .unwrap();
            prev = s;
        }
        let snk = b.sink(Farads::from_femto(15.0), Seconds::from_pico(2000.0));
        b.connect(prev, snk, Wire::from_length(&tech, Microns::new(seg_um)))
            .unwrap();
        (b.build().unwrap(), snk)
    }

    #[test]
    fn without_inverters_matches_plain_solver() {
        let (tree, _) = line(8, 1200.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let plain = Solver::new(&tree, &lib).solve();
        let pol = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert!((plain.slack.picos() - pol.slack.picos()).abs() < 1e-9);
        assert_eq!(pol.inverter_count, 0);
        pol.verify(&tree, &lib).unwrap();
    }

    #[test]
    fn inverters_come_in_pairs_on_positive_sinks() {
        let (tree, _) = line(9, 1100.0);
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let sol = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert_eq!(sol.inverter_count % 2, 0, "{:?}", sol.placements);
        sol.verify(&tree, &lib).unwrap();
    }

    #[test]
    fn negated_sink_forces_odd_inverter_count() {
        let (tree, sink) = line(9, 1100.0);
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let mut solver = PolaritySolver::new(&tree, &lib);
        solver.require(sink, Polarity::Negative).unwrap();
        let sol = solver.solve().unwrap();
        assert_eq!(sol.inverter_count % 2, 1, "{:?}", sol.placements);
        sol.verify_with(&tree, &lib, &[sink]).unwrap();
    }

    #[test]
    fn negated_sink_without_inverters_is_infeasible() {
        let (tree, sink) = line(5, 1000.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap(); // no inverters
        let mut solver = PolaritySolver::new(&tree, &lib);
        solver.require(sink, Polarity::Negative).unwrap();
        assert_eq!(solver.solve().unwrap_err(), PolarityError::Infeasible);
    }

    #[test]
    fn non_elmore_model_is_rejected_typed() {
        use fastbuf_rctree::{DelayModel, ScaledElmoreModel};
        let (tree, _) = line(5, 1000.0);
        let lib = BufferLibrary::paper_synthetic_mixed(4).unwrap();
        let scaled: std::sync::Arc<dyn DelayModel> =
            std::sync::Arc::new(ScaledElmoreModel::new(1.1));
        let err = PolaritySolver::new(&tree, &lib)
            .delay_model(scaled)
            .solve()
            .unwrap_err();
        assert!(
            matches!(&err, PolarityError::Unsupported { what } if what.contains("scaled-elmore")),
            "{err:?}"
        );
        // Explicitly asking for Elmore is fine: identical to the default.
        let elmore: std::sync::Arc<dyn DelayModel> = std::sync::Arc::new(ElmoreModel);
        let base = PolaritySolver::new(&tree, &lib).solve().unwrap();
        let explicit = PolaritySolver::new(&tree, &lib)
            .delay_model(elmore)
            .solve()
            .unwrap();
        assert_eq!(
            base.slack.value().to_bits(),
            explicit.slack.value().to_bits()
        );
    }

    #[test]
    fn slew_limit_is_rejected_typed() {
        let (tree, _) = line(5, 1000.0);
        let lib = BufferLibrary::paper_synthetic_mixed(4).unwrap();
        let err = PolaritySolver::new(&tree, &lib)
            .slew_limit(Some(Seconds::from_pico(80.0)))
            .solve()
            .unwrap_err();
        assert!(
            matches!(&err, PolarityError::Unsupported { what } if what.contains("slew")),
            "{err:?}"
        );
        assert!(err.to_string().contains("does not support"));
        // `None` is the default: no refusal.
        PolaritySolver::new(&tree, &lib)
            .slew_limit(None)
            .solve()
            .unwrap();
    }

    #[test]
    fn require_rejects_non_sinks() {
        let (tree, _) = line(3, 800.0);
        let lib = BufferLibrary::paper_synthetic(2).unwrap();
        let mut solver = PolaritySolver::new(&tree, &lib);
        let err = solver.require(tree.root(), Polarity::Negative).unwrap_err();
        assert_eq!(err, PolarityError::NotASink(tree.root()));
        assert!(solver.negated_sinks().is_empty());
    }

    #[test]
    fn inverters_help_when_they_are_faster() {
        // Library where the inverter is strictly better than the buffer of
        // the same strength: the polarity solver should exploit pairs.
        let lib = BufferLibrary::new(vec![
            BufferType::new(
                "buf",
                Ohms::new(400.0),
                Farads::from_femto(8.0),
                Seconds::from_pico(40.0),
            ),
            BufferType::new(
                "inv",
                Ohms::new(400.0),
                Farads::from_femto(8.0),
                Seconds::from_pico(12.0),
            )
            .with_inverting(true),
        ])
        .unwrap();
        let (tree, _) = line(12, 1500.0);
        let plain_lib = lib.subset(&[fastbuf_buflib::BufferTypeId::new(0)]).unwrap();
        let buf_only = Solver::new(&tree, &plain_lib).solve();
        let with_inv = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert!(
            with_inv.slack.picos() > buf_only.slack.picos() + 1.0,
            "inverter pairs should win: {} vs {}",
            with_inv.slack,
            buf_only.slack
        );
        assert!(with_inv.inverter_count >= 2);
        with_inv.verify(&tree, &lib).unwrap();
    }

    #[test]
    fn lillis_and_lishi_agree_with_polarity() {
        let lib = BufferLibrary::paper_synthetic_mixed(12).unwrap();
        for sites in [4usize, 10, 20] {
            let (tree, sink) = line(sites, 900.0);
            for negate in [false, true] {
                let mut a = PolaritySolver::new(&tree, &lib).algorithm(Algorithm::Lillis);
                let mut b = PolaritySolver::new(&tree, &lib).algorithm(Algorithm::LiShi);
                if negate {
                    a.require(sink, Polarity::Negative).unwrap();
                    b.require(sink, Polarity::Negative).unwrap();
                }
                let sa = a.solve().unwrap();
                let sb = b.solve().unwrap();
                assert!(
                    (sa.slack.picos() - sb.slack.picos()).abs() < 1e-6,
                    "sites={sites} negate={negate}: {} vs {}",
                    sa.slack,
                    sb.slack
                );
            }
        }
    }

    #[test]
    fn multi_pin_mixed_polarity() {
        let tech = Technology::tsmc180_like();
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(250.0)));
        let s0 = b.buffer_site();
        let tee = b.internal();
        let s1 = b.buffer_site();
        let s2 = b.buffer_site();
        let k_pos = b.sink(Farads::from_femto(10.0), Seconds::from_pico(900.0));
        let k_neg = b.sink(Farads::from_femto(12.0), Seconds::from_pico(950.0));
        b.connect(src, s0, Wire::from_length(&tech, Microns::new(1500.0)))
            .unwrap();
        b.connect(s0, tee, Wire::from_length(&tech, Microns::new(600.0)))
            .unwrap();
        b.connect(tee, s1, Wire::from_length(&tech, Microns::new(1800.0)))
            .unwrap();
        b.connect(s1, k_pos, Wire::from_length(&tech, Microns::new(300.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(2200.0)))
            .unwrap();
        b.connect(s2, k_neg, Wire::from_length(&tech, Microns::new(300.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let mut solver = PolaritySolver::new(&tree, &lib);
        solver.require(k_neg, Polarity::Negative).unwrap();
        let sol = solver.solve().unwrap();
        sol.verify_with(&tree, &lib, &[k_neg]).unwrap();
        assert!(sol.inverter_count >= 1);
    }

    #[test]
    fn polarity_flip_and_error_display() {
        assert_eq!(Polarity::Positive.flipped(), Polarity::Negative);
        assert_eq!(Polarity::Negative.flipped(), Polarity::Positive);
        assert_eq!(Polarity::default(), Polarity::Positive);
        assert!(PolarityError::Infeasible.to_string().contains("polarity"));
        assert!(PolarityError::WrongPolarity(NodeId::new(3))
            .to_string()
            .contains("n3"));
    }

    #[test]
    fn check_polarity_detects_violations() {
        let (tree, sink) = line(2, 500.0);
        let lib = BufferLibrary::paper_synthetic_mixed(4).unwrap();
        // One inverter alone violates a positive sink.
        let inv = lib
            .iter()
            .find(|(_, b)| b.is_inverting())
            .map(|(id, _)| id)
            .unwrap();
        let site = tree.buffer_sites().next().unwrap();
        assert_eq!(
            check_polarity(&tree, &lib, &[(site, inv)], &[]),
            Err(PolarityError::WrongPolarity(sink))
        );
        // ...but satisfies a negated sink.
        assert_eq!(check_polarity(&tree, &lib, &[(site, inv)], &[sink]), Ok(()));
    }
}
