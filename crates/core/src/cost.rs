//! Cost-bounded buffer insertion: the slack-vs-cost Pareto frontier.
//!
//! The paper closes with *"Our algorithm can also be applied to reduce
//! buffer cost. We leave the details to the journal version."* This module
//! implements that application in the style of Lillis, Cheng & Lin's
//! power-optimal extension: the DP state is `(Q, C, W)` where `W` is the
//! accumulated buffer cost (an integer — e.g. area units; the synthetic
//! libraries derive it from drive strength). Per cost level the candidates
//! form an ordinary nonredundant `(Q, C)` list, so every level reuses the
//! O(k + b) convex-hull `AddBuffer` of the main solver; levels interact
//! through buffer insertion (level `w` feeds `w + cost(B_i)`), branch
//! merging (levels convolve) and three-dimensional dominance pruning (a
//! candidate beaten in both `Q` and `C` by a *cheaper* candidate dies).
//!
//! The cost dimension is capped by [`CostSolver::max_cost`]; the result is
//! exact for every budget up to the cap.
//!
//! # Example
//!
//! ```
//! use fastbuf_buflib::{BufferLibrary, Driver, Technology};
//! use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
//! use fastbuf_rctree::{TreeBuilder, Wire};
//! use fastbuf_core::cost::CostSolver;
//!
//! let tech = Technology::tsmc180_like();
//! let lib = BufferLibrary::paper_synthetic(8)?;
//! let mut b = TreeBuilder::new();
//! let src = b.source(Driver::new(Ohms::new(180.0)));
//! let mut prev = src;
//! for _ in 0..6 {
//!     let s = b.buffer_site();
//!     b.connect(prev, s, Wire::from_length(&tech, Microns::new(1500.0)))?;
//!     prev = s;
//! }
//! let snk = b.sink(Farads::from_femto(15.0), Seconds::from_pico(2500.0));
//! b.connect(prev, snk, Wire::from_length(&tech, Microns::new(1500.0)))?;
//! let tree = b.build()?;
//!
//! let frontier = CostSolver::new(&tree, &lib).max_cost(60).solve()?;
//! // Spending more can only help, and the frontier is strictly improving.
//! for w in frontier.points.windows(2) {
//!     assert!(w[1].cost > w[0].cost && w[1].slack > w[0].slack);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;
use std::time::Instant;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_rctree::{NodeKind, RoutingTree};

use fastbuf_rctree::delay::ElmoreModel;

use crate::arena::PredArena;
use crate::buffering::{find_betas_slab, Algorithm, Scratch};
use crate::candidate::{Candidate, CandidateList};
use crate::slab::{BetaColumns, CandidateSlab, SlabList};
use crate::slew::SlewPolicy;
use crate::solution::Placement;
use crate::stats::SolveStats;

/// Errors from [`CostSolver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CostError {
    /// A buffer's cost is not a non-negative integer (within 1e-6); the
    /// cost DP requires discrete levels.
    NonIntegerCost {
        /// Name of the offending buffer type.
        buffer: String,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::NonIntegerCost { buffer } => {
                write!(
                    f,
                    "buffer `{buffer}` has a non-integer cost; the cost DP needs integer levels"
                )
            }
        }
    }
}

impl Error for CostError {}

/// One point of the slack-vs-cost frontier.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Total buffer cost spent.
    pub cost: u32,
    /// Best achievable slack at that cost.
    pub slack: Seconds,
    /// The placements achieving it.
    pub placements: Vec<Placement>,
}

/// The Pareto frontier returned by [`CostSolver::solve`]: points sorted by
/// strictly increasing cost *and* strictly increasing slack (non-improving
/// budgets are omitted).
#[derive(Clone, Debug)]
pub struct CostFrontier {
    /// The frontier points, cheapest first. The first point is the
    /// unbuffered solution (cost 0).
    pub points: Vec<FrontierPoint>,
    /// Aggregated operation counters across all cost levels.
    pub stats: SolveStats,
}

impl CostFrontier {
    /// The best slack achievable within `budget`.
    pub fn best_within(&self, budget: u32) -> Option<&FrontierPoint> {
        self.points.iter().rev().find(|p| p.cost <= budget)
    }
}

/// Cost-bounded solver; see the [module docs](self).
#[derive(Debug)]
pub struct CostSolver<'a> {
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    max_cost: u32,
    algorithm: Algorithm,
    site_prices: Option<std::sync::Arc<[f64]>>,
}

impl<'a> CostSolver<'a> {
    /// Creates a cost solver with a default budget cap of 64 cost units and
    /// the [`Algorithm::LiShi`] `AddBuffer`.
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        CostSolver {
            tree,
            library,
            max_cost: 64,
            algorithm: Algorithm::LiShi,
            site_prices: None,
        }
    }

    /// Sets the largest total buffer cost explored.
    #[must_use]
    pub fn max_cost(mut self, max_cost: u32) -> Self {
        self.max_cost = max_cost;
        self
    }

    /// Selects the `AddBuffer` algorithm used within each cost level.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets (or, with `None`, clears) per-node buffer-usage prices in
    /// seconds, indexed by node — the same Lagrangian cost term as
    /// [`SolverOptions::site_prices`](crate::SolverOptions::site_prices):
    /// every beta at a priced node is charged the price like extra
    /// intrinsic delay, at every cost level of the frontier.
    #[must_use]
    pub fn site_prices(mut self, prices: Option<std::sync::Arc<[f64]>>) -> Self {
        self.site_prices = prices;
        self
    }

    /// Runs the three-dimensional DP and returns the frontier.
    ///
    /// # Errors
    ///
    /// [`CostError::NonIntegerCost`] if any library cost is not an integer.
    pub fn solve(&self) -> Result<CostFrontier, CostError> {
        let start = Instant::now();
        let tree = self.tree;
        let lib = self.library;
        let w_max = self.max_cost as usize;

        // Integer costs per type, validated.
        let mut costs = Vec::with_capacity(lib.len());
        for (_, b) in lib.iter() {
            let rounded = b.cost().round();
            if (b.cost() - rounded).abs() > 1e-6 || rounded < 0.0 {
                return Err(CostError::NonIntegerCost {
                    buffer: b.name().to_owned(),
                });
            }
            costs.push(rounded as usize);
        }

        let prices = self.site_prices.as_deref();
        let mut stats = SolveStats::default();
        let mut arena = PredArena::new();
        let mut scratch = Scratch::default();
        let mut slab = CandidateSlab::default();
        let mut group_betas = BetaColumns::default();
        // Per node, one slab handle per cost level; `None` is an empty
        // level (most levels are), so no columns are allocated for them.
        let mut levels: Vec<Option<Vec<Option<SlabList>>>> = vec![None; tree.node_count()];

        for &node in tree.postorder() {
            let node_levels = match tree.kind(node) {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    let mut lv: Vec<Option<SlabList>> = vec![None; w_max + 1];
                    lv[0] = Some(slab.sink(required_arrival.value(), capacitance.value()));
                    lv
                }
                NodeKind::Internal | NodeKind::Source { .. } => {
                    let mut acc: Option<Vec<Option<SlabList>>> = None;
                    for &child in tree.children(node) {
                        let cl = levels[child.index()]
                            .take()
                            .expect("post-order guarantees children are done");
                        let wire = tree.wire_to_parent(child).expect("child wire");
                        let (r, cw) = (wire.resistance().value(), wire.capacitance().value());
                        for level in cl.iter().copied().flatten() {
                            slab.add_wire(level, &ElmoreModel, r, cw, &mut stats);
                            stats.wire_ops += 1;
                        }
                        acc = Some(match acc {
                            None => cl,
                            Some(prev) => {
                                stats.merge_ops += 1;
                                merge_levels(&mut slab, prev, cl, &mut arena, &mut stats)
                            }
                        });
                    }
                    let mut lv = acc.expect("internal nodes have children");
                    if tree.is_buffer_site(node) && !lib.is_empty() {
                        // Snapshot betas from every level first, then insert,
                        // so a single node never hosts two buffers.
                        let mut pending: Vec<Vec<Candidate>> = vec![Vec::new(); w_max + 1];
                        for (w, level) in lv.iter().enumerate() {
                            let Some(level) = *level else { continue };
                            // The cost DP stays slew-unconstrained; pair it
                            // with `Solver::slew_limit` if both axes are
                            // needed (see docs/ALGORITHM.md).
                            if !find_betas_slab(
                                self.algorithm,
                                &mut slab,
                                level,
                                lib,
                                tree.site_constraint(node),
                                tree.site_variation(node),
                                prices.map_or(0.0, |p| p.get(node.index()).copied().unwrap_or(0.0)),
                                &mut scratch,
                                &SlewPolicy::unlimited(),
                                &mut stats,
                            ) {
                                continue;
                            }
                            let by_rank = lib.by_input_cap_asc();
                            scratch.ranked.drain(
                                lib,
                                node,
                                &mut arena,
                                true,
                                |rank, q, c, pred| {
                                    let target = w + costs[by_rank[rank].index()];
                                    if target <= w_max {
                                        pending[target].push(Candidate::new(q, c, pred));
                                    }
                                },
                            );
                        }
                        for (w, group) in pending.into_iter().enumerate() {
                            if group.is_empty() {
                                continue;
                            }
                            stats.betas_generated += group.len() as u64;
                            let sorted = CandidateList::from_candidates(group);
                            match lv[w] {
                                Some(list) => {
                                    group_betas.clear();
                                    for b in sorted.iter() {
                                        group_betas.push_pruned(b.q, b.c, b.pred);
                                    }
                                    slab.merge_insert(list, &group_betas);
                                }
                                None => lv[w] = Some(slab.load_list(&sorted)),
                            }
                        }
                        prune_levels(&mut slab, &mut lv, &mut stats);
                    }
                    lv
                }
            };
            for level in node_levels.iter().copied().flatten() {
                stats.max_list_len = stats.max_list_len.max(slab.len(level));
            }
            levels[node.index()] = Some(node_levels);
        }

        let root_levels = levels[tree.root().index()].take().expect("root processed");
        let driver = tree.driver();
        let (dr, dk) = (
            driver.resistance().value(),
            driver.intrinsic_delay().value(),
        );
        let mut points = Vec::new();
        let mut best = f64::NEG_INFINITY;
        for (w, level) in root_levels.iter().enumerate() {
            let Some(level) = *level else { continue };
            stats.root_list_len = stats.root_list_len.max(slab.len(level));
            if let Some(i) = slab.best_driven(level, dr, dk) {
                let cand = slab.view(level).get(i);
                let slack = cand.q - dk - dr * cand.c;
                if slack > best {
                    best = slack;
                    points.push(FrontierPoint {
                        cost: w as u32,
                        slack: Seconds::new(slack),
                        placements: arena
                            .collect_placements(cand.pred)
                            .into_iter()
                            .map(Into::into)
                            .collect(),
                    });
                }
            }
        }
        stats.arena_entries = arena.len();
        stats.arena_bytes = arena.bytes();
        stats.arena_peak_bytes = arena.peak_bytes();
        stats.slab_bytes_peak = slab.peak_bytes();
        stats.elapsed = start.elapsed();
        Ok(CostFrontier { points, stats })
    }
}

/// Convolves two per-level lists: `out[w] = nondominated union over
/// w₁+w₂=w of merge(left[w₁], right[w₂])`.
///
/// Each input level takes part in up to `w_max + 1` merges; the slab's
/// non-consuming [`CandidateSlab::merge_keep`] reads it in place each time,
/// where the reference convolution cloned both sides per pair.
fn merge_levels(
    slab: &mut CandidateSlab,
    left: Vec<Option<SlabList>>,
    right: Vec<Option<SlabList>>,
    arena: &mut PredArena,
    stats: &mut SolveStats,
) -> Vec<Option<SlabList>> {
    let w_max = left.len() - 1;
    let mut out: Vec<Option<SlabList>> = vec![None; w_max + 1];
    for (w1, l) in left.iter().enumerate() {
        let Some(l) = *l else { continue };
        for (w2, r) in right.iter().enumerate() {
            if w1 + w2 > w_max {
                continue;
            }
            let Some(r) = *r else { continue };
            let merged = slab.merge_keep(l, r, arena, true, stats);
            match out[w1 + w2] {
                None => out[w1 + w2] = Some(merged),
                Some(dst) => {
                    slab.merge_insert_list(dst, merged);
                    slab.free(merged);
                }
            }
        }
    }
    for spent in left.into_iter().chain(right).flatten() {
        slab.free(spent);
    }
    prune_levels(slab, &mut out, stats);
    out
}

/// Three-dimensional dominance: removes candidates beaten in `(Q, C)` by a
/// candidate at an equal-or-cheaper level. The running cheaper-or-equal
/// frontier is itself a slab list; each level is filtered against it by one
/// linear sweep ([`CandidateSlab::retain_undominated`]) and then unioned
/// into it in place.
fn prune_levels(slab: &mut CandidateSlab, levels: &mut [Option<SlabList>], stats: &mut SolveStats) {
    let mut frontier: Option<SlabList> = None;
    for slot in levels.iter_mut() {
        let Some(level) = *slot else { continue };
        if slab.len(level) == 0 {
            slab.free(level);
            *slot = None;
            continue;
        }
        if let Some(f) = frontier {
            slab.retain_undominated(level, f, stats);
            if slab.len(level) == 0 {
                slab.free(level);
                *slot = None;
                continue;
            }
        }
        match frontier {
            None => frontier = Some(slab.copy_list(level)),
            Some(f) => slab.merge_insert_list(f, level),
        }
    }
    if let Some(f) = frontier {
        slab.free(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Solver;
    use fastbuf_buflib::units::{Farads, Microns, Ohms};
    use fastbuf_buflib::{BufferType, Driver, Technology};
    use fastbuf_rctree::elmore;
    use fastbuf_rctree::{TreeBuilder, Wire};

    fn line_net(sites: usize, seg_um: f64, rat_ps: f64) -> RoutingTree {
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
        let snk = b.sink(Farads::from_femto(15.0), Seconds::from_pico(rat_ps));
        b.connect(prev, snk, Wire::from_length(&tech, Microns::new(seg_um)))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn frontier_starts_unbuffered_and_improves() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(80).solve().unwrap();
        assert!(!frontier.points.is_empty());
        assert_eq!(frontier.points[0].cost, 0);
        assert!(frontier.points[0].placements.is_empty());
        for w in frontier.points.windows(2) {
            assert!(w[1].cost > w[0].cost);
            assert!(w[1].slack > w[0].slack);
        }
    }

    #[test]
    fn unlimited_budget_matches_unconstrained_solver() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        // Budget large enough to never bind: 6 sites x max cost 39.
        let frontier = CostSolver::new(&tree, &lib).max_cost(250).solve().unwrap();
        let unconstrained = Solver::new(&tree, &lib).solve();
        let best = frontier.points.last().unwrap();
        assert!(
            (best.slack.picos() - unconstrained.slack.picos()).abs() < 1e-6,
            "{} vs {}",
            best.slack,
            unconstrained.slack
        );
    }

    #[test]
    fn every_frontier_point_verifies_and_costs_match() {
        let tree = line_net(5, 1800.0, 3000.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(100).solve().unwrap();
        for p in &frontier.points {
            let pairs: Vec<_> = p.placements.iter().map(|x| (x.node, x.buffer)).collect();
            let report = elmore::evaluate(&tree, &lib, &pairs).unwrap();
            assert!(
                (report.slack.picos() - p.slack.picos()).abs() < 1e-6,
                "cost {}: predicted {} measured {}",
                p.cost,
                p.slack,
                report.slack
            );
            let spent: f64 = p.placements.iter().map(|x| lib.get(x.buffer).cost()).sum();
            assert_eq!(spent as u32, p.cost, "cost bookkeeping at {}", p.cost);
        }
    }

    #[test]
    fn budget_caps_solution_cost() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(10).solve().unwrap();
        for p in &frontier.points {
            assert!(p.cost <= 10);
        }
        // A tighter budget cannot beat a looser one.
        let loose = CostSolver::new(&tree, &lib).max_cost(200).solve().unwrap();
        assert!(
            frontier.points.last().unwrap().slack.picos()
                <= loose.points.last().unwrap().slack.picos() + 1e-9
        );
    }

    #[test]
    fn best_within_selects_by_budget() {
        let tree = line_net(4, 2000.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(100).solve().unwrap();
        let p0 = frontier.best_within(0).unwrap();
        assert_eq!(p0.cost, 0);
        let all = frontier.best_within(u32::MAX).unwrap();
        assert_eq!(all.cost, frontier.points.last().unwrap().cost);
        // Budgets between points resolve to the cheaper point.
        if frontier.points.len() >= 2 {
            let second = frontier.points[1].cost;
            assert_eq!(frontier.best_within(second - 1).unwrap().cost, 0);
        }
    }

    #[test]
    fn non_integer_cost_rejected() {
        let lib = BufferLibrary::new(vec![BufferType::new(
            "x",
            Ohms::new(100.0),
            Farads::from_femto(1.0),
            Seconds::ZERO,
        )
        .with_cost(1.5)])
        .unwrap();
        let tree = line_net(1, 500.0, 100.0);
        let err = CostSolver::new(&tree, &lib).solve().unwrap_err();
        assert!(matches!(err, CostError::NonIntegerCost { .. }));
        assert!(err.to_string().contains("x"));
    }

    #[test]
    fn multi_pin_frontier_verifies() {
        let tech = Technology::tsmc180_like();
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(250.0)));
        let s0 = b.buffer_site();
        let tee = b.internal();
        let s1 = b.buffer_site();
        let s2 = b.buffer_site();
        let k1 = b.sink(Farads::from_femto(10.0), Seconds::from_pico(800.0));
        let k2 = b.sink(Farads::from_femto(25.0), Seconds::from_pico(1200.0));
        b.connect(src, s0, Wire::from_length(&tech, Microns::new(2000.0)))
            .unwrap();
        b.connect(s0, tee, Wire::from_length(&tech, Microns::new(500.0)))
            .unwrap();
        b.connect(tee, s1, Wire::from_length(&tech, Microns::new(1500.0)))
            .unwrap();
        b.connect(s1, k1, Wire::from_length(&tech, Microns::new(500.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(3000.0)))
            .unwrap();
        b.connect(s2, k2, Wire::from_length(&tech, Microns::new(800.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let frontier = CostSolver::new(&tree, &lib).max_cost(150).solve().unwrap();
        for p in &frontier.points {
            let pairs: Vec<_> = p.placements.iter().map(|x| (x.node, x.buffer)).collect();
            let report = elmore::evaluate(&tree, &lib, &pairs).unwrap();
            assert!((report.slack.picos() - p.slack.picos()).abs() < 1e-6);
        }
        let unconstrained = Solver::new(&tree, &lib).solve();
        assert!(
            (frontier.points.last().unwrap().slack.picos() - unconstrained.slack.picos()).abs()
                < 1e-6
        );
    }

    #[test]
    fn prune_levels_removes_expensive_dominated() {
        use crate::arena::PredRef;
        let mut slab = CandidateSlab::default();
        let mut stats = SolveStats::default();
        let mut mk = |pts: &[(f64, f64)]| {
            Some(
                slab.load_list(&CandidateList::from_candidates(
                    pts.iter()
                        .map(|&(q, c)| Candidate::new(q, c, PredRef::NONE))
                        .collect(),
                )),
            )
        };
        let mut levels = vec![
            mk(&[(5.0, 2.0)]),
            mk(&[(4.0, 3.0), (6.0, 4.0)]), // (4,3) dominated by cheaper (5,2)
            mk(&[(5.0, 2.0)]),             // exactly equal but pricier: dominated
        ];
        prune_levels(&mut slab, &mut levels, &mut stats);
        assert_eq!(slab.len(levels[0].unwrap()), 1);
        assert_eq!(slab.len(levels[1].unwrap()), 1);
        assert_eq!(slab.view(levels[1].unwrap()).q[0], 6.0);
        assert!(levels[2].is_none(), "fully dominated level is dropped");
        assert_eq!(stats.slab_candidates_pruned, 2);
    }
}
