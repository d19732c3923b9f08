//! Building and solving requests.

use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::channel;

use fastbuf_buflib::units::Seconds;
use fastbuf_core::cost::CostSolver;
use fastbuf_core::polarity::PolaritySolver;
use fastbuf_core::skew::SkewSolver;
use fastbuf_core::{SolveWorkspace, Solver};
use fastbuf_netgen::VariationSpec;
use fastbuf_rctree::{NodeId, RoutingTree};

use crate::error::SolveError;
use crate::outcome::{Outcome, ScenarioOutcome, ScenarioResult};
use crate::scenario::Scenario;
use crate::session::Session;

/// What a request solves for.
#[derive(Clone, Debug, PartialEq, Default)]
#[non_exhaustive]
pub enum Objective {
    /// Maximize slack at the source — the paper's problem; one
    /// [`Solution`](fastbuf_core::Solution) per scenario.
    #[default]
    MaxSlack,
    /// The full slack-vs-cost Pareto frontier up to a cost cap — one
    /// [`CostFrontier`](fastbuf_core::cost::CostFrontier) per scenario.
    /// Elmore-only: the cost DP does not take a delay model or slew limit.
    SlackCost {
        /// Largest total buffer cost explored.
        max_cost: u32,
    },
    /// Polarity-aware insertion with inverters — one
    /// [`PolaritySolution`](fastbuf_core::polarity::PolaritySolution) per
    /// scenario. Elmore-only, like [`Objective::SlackCost`].
    PolarityAware {
        /// Sinks required to receive negative polarity.
        negated_sinks: Vec<NodeId>,
    },
    /// Monte-Carlo process-variation solving: expand the request's
    /// [`VariationSpec`] (see [`SolveRequest::variation`]) into `samples`
    /// deterministic sampled scenarios, solve each through per-worker warm
    /// subtree caches, and report the slack distribution — one
    /// [`VariationOutcome`](crate::VariationOutcome) per scenario instead
    /// of a single worst-negative-slack number.
    YieldTarget {
        /// Number of Monte-Carlo samples (must be non-zero).
        samples: usize,
        /// The reported slack quantile in `[0, 1]` (e.g. `0.05` asks "what
        /// slack do 95 % of dice beat?").
        quantile: f64,
    },
    /// Skew-aware buffering for clock trees: the max-slack recursion with
    /// per-candidate sink arrival windows — one
    /// [`SkewSolution`](fastbuf_core::skew::SkewSolution) per scenario.
    /// Elmore-only, like [`Objective::SlackCost`]. With no bound the
    /// solution is bit-identical to [`Objective::MaxSlack`] and the skew is
    /// merely *reported*; with a bound, candidates whose window exceeds it
    /// are pruned at merges (feasible-or-flagged, see the
    /// [`skew`](fastbuf_core::skew) module docs for exactness caveats).
    SkewTarget {
        /// Hard sink-to-sink skew bound, or `None` to only report skew.
        /// Must be finite and non-negative when set.
        max_skew: Option<Seconds>,
    },
}

/// A solve request: one net, one [`Objective`], one or more
/// [`Scenario`]s.
///
/// Created by [`Session::request`]. An untouched request (no scenarios, no
/// objective) solves one default scenario for max slack and is
/// **bit-identical** to the legacy `Solver::new(tree, lib).solve()` shim
/// (asserted against golden slack bit patterns in the equivalence suite).
///
/// Multi-scenario requests solve scenarios concurrently over the session's
/// workspace pool ([`SolveRequest::workers`] caps the fan-out;
/// [`SolveRequest::solve_in`] runs them sequentially through one caller
/// workspace). Results are deterministic for every worker count.
///
/// ```
/// use fastbuf_api::{Objective, Scenario, Session};
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_buflib::BufferLibrary;
///
/// let session = Session::new(BufferLibrary::paper_synthetic(8)?);
/// let tree = fastbuf_netgen::line_net(Microns::new(8_000.0), 7);
/// // The Pareto frontier, in two corners at once:
/// let outcome = session
///     .request(&tree)
///     .objective(Objective::SlackCost { max_cost: 60 })
///     .scenario(Scenario::named("typical"))
///     .scenario(Scenario::named("slow").rat_derate(0.9))
///     .solve()?;
/// let typical = outcome.scenario("typical").unwrap().frontier().unwrap();
/// let slow = outcome.scenario("slow").unwrap().frontier().unwrap();
/// assert!(!typical.points.is_empty() && !slow.points.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SolveRequest<'a> {
    session: &'a Session,
    tree: &'a RoutingTree,
    objective: Objective,
    scenarios: Option<Vec<Scenario>>,
    track_predecessors: bool,
    workers: Option<NonZeroUsize>,
    intra_net_workers: usize,
    variation: Option<VariationSpec>,
}

impl<'a> SolveRequest<'a> {
    pub(crate) fn new(session: &'a Session, tree: &'a RoutingTree) -> Self {
        SolveRequest {
            session,
            tree,
            objective: Objective::MaxSlack,
            scenarios: None,
            track_predecessors: true,
            workers: None,
            intra_net_workers: 1,
            variation: None,
        }
    }

    /// Selects the objective (default [`Objective::MaxSlack`]).
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Appends a scenario. A request with no scenarios solves one
    /// [`Scenario::default`].
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.get_or_insert_with(Vec::new).push(scenario);
        self
    }

    /// Replaces the whole scenario list (an empty list is a
    /// [`SolveError::NoScenarios`] at solve time).
    #[must_use]
    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = Some(scenarios);
        self
    }

    /// Enables or disables predecessor tracking (default on;
    /// [`Objective::MaxSlack`] only — the other objectives always track).
    #[must_use]
    pub fn track_predecessors(mut self, track: bool) -> Self {
        self.track_predecessors = track;
        self
    }

    /// Sets the variation family an [`Objective::YieldTarget`] request
    /// samples from (ignored by the other objectives). A yield request
    /// without an explicit spec samples [`VariationSpec::default`] — all
    /// knobs fixed, so every sample is the nominal tree.
    #[must_use]
    pub fn variation(mut self, spec: VariationSpec) -> Self {
        self.variation = Some(spec);
        self
    }

    /// Caps the number of threads solving scenarios concurrently
    /// (default: available parallelism, capped at the scenario count).
    /// `workers(1)` forces the sequential single-workspace path.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(NonZeroUsize::new(workers.max(1)).expect("max(1) is nonzero"));
        self
    }

    /// Sets the *intra-net* worker count for [`Objective::MaxSlack`]
    /// scenarios: sibling subtrees of one net solved concurrently, joined
    /// in deterministic tree order (bit-identical at every count — see
    /// [`fastbuf_core::SolverOptions::intra_net_workers`]). Orthogonal to
    /// [`SolveRequest::workers`], which fans out across scenarios; the two
    /// multiply, so `workers(4).intra_net_workers(2)` can occupy 8 threads.
    /// Ignored by the other objectives and by cached (ECO/yield) solves.
    #[must_use]
    pub fn intra_net_workers(mut self, workers: usize) -> Self {
        self.intra_net_workers = workers.max(1);
        self
    }

    /// Validates the request and returns the effective scenario list.
    fn checked_scenarios(&self) -> Result<Vec<Scenario>, SolveError> {
        let scenarios = match &self.scenarios {
            None => vec![Scenario::default()],
            Some(list) if list.is_empty() => return Err(SolveError::NoScenarios),
            Some(list) => list.clone(),
        };
        crate::scenario::validate_scenario_list(&scenarios)?;
        Ok(scenarios)
    }

    /// Solves every scenario and returns the [`Outcome`], scenarios in
    /// request order. Multi-scenario requests fan out over the session's
    /// workspace pool; results are identical for every worker count.
    ///
    /// # Errors
    ///
    /// Request validation errors ([`SolveError::NoScenarios`],
    /// [`SolveError::DuplicateScenario`], scenario range errors),
    /// [`SolveError::Unsupported`] for objective/scenario combinations the
    /// underlying DP cannot honour, and the typed errors of the cost and
    /// polarity DPs. Never panics on user input.
    pub fn solve(&self) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let scenarios = self.checked_scenarios()?;
        let requested_workers = self
            .workers
            .map(NonZeroUsize::get)
            .unwrap_or_else(fastbuf_core::available_threads);

        // Yield-target requests parallelize across *samples*, not
        // scenarios: each scenario runs its whole Monte-Carlo sweep with
        // per-worker warm caches before the next corner starts.
        if let Objective::YieldTarget { samples, quantile } = &self.objective {
            let outcomes = scenarios
                .iter()
                .map(|s| self.solve_yield_scenario(s, *samples, *quantile, requested_workers))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Outcome {
                objective: self.objective.clone(),
                scenarios: outcomes,
                elapsed: start.elapsed(),
            });
        }

        let workers = requested_workers.clamp(1, scenarios.len());

        let outcomes = if workers == 1 {
            let mut workspace = self.session.take_workspace();
            let result: Result<Vec<_>, _> = scenarios
                .iter()
                .map(|s| self.solve_scenario(s, &mut workspace))
                .collect();
            self.session.return_workspace(workspace);
            result?
        } else {
            self.solve_parallel(&scenarios, workers)?
        };

        Ok(Outcome {
            objective: self.objective.clone(),
            scenarios: outcomes,
            elapsed: start.elapsed(),
        })
    }

    /// [`SolveRequest::solve`] through one caller-owned workspace, all
    /// scenarios sequentially on the current thread. This is the
    /// zero-allocation path batch workloads use (one workspace per worker
    /// thread, reused across nets *and* scenarios); results are identical
    /// to [`SolveRequest::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`SolveRequest::solve`].
    pub fn solve_in(&self, workspace: &mut SolveWorkspace) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let scenarios = self.checked_scenarios()?;
        let outcomes: Result<Vec<_>, _> = scenarios
            .iter()
            .map(|s| self.solve_scenario(s, workspace))
            .collect();
        Ok(Outcome {
            objective: self.objective.clone(),
            scenarios: outcomes?,
            elapsed: start.elapsed(),
        })
    }

    /// Fans the scenarios of one request out over `workers` threads, each
    /// with a workspace checked out of the session pool.
    fn solve_parallel(
        &self,
        scenarios: &[Scenario],
        workers: usize,
    ) -> Result<Vec<ScenarioOutcome>, SolveError> {
        let (tx, rx) = channel::unbounded::<usize>();
        for i in 0..scenarios.len() {
            tx.send(i).expect("receiver is alive");
        }
        drop(tx);

        let mut slots: Vec<Option<Result<ScenarioOutcome, SolveError>>> = Vec::new();
        slots.resize_with(scenarios.len(), || None);
        let slots = Mutex::new(&mut slots);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let slots = &slots;
                scope.spawn(move || {
                    let mut workspace = self.session.take_workspace();
                    while let Ok(i) = rx.recv() {
                        let outcome = self.solve_scenario(&scenarios[i], &mut workspace);
                        slots.lock().expect("no panics hold the lock")[i] = Some(outcome);
                    }
                    self.session.return_workspace(workspace);
                });
            }
        });

        slots
            .into_inner()
            .expect("workers are joined")
            .drain(..)
            .map(|slot| slot.expect("every queued scenario was solved"))
            .collect()
    }

    /// Solves one scenario's Monte-Carlo sweep, fanning sample indices
    /// over `workers` threads (each owning one incremental solver and its
    /// warm subtree cache).
    fn solve_yield_scenario(
        &self,
        scenario: &Scenario,
        samples: usize,
        quantile: f64,
        workers: usize,
    ) -> Result<ScenarioOutcome, SolveError> {
        let start = Instant::now();
        let model = scenario
            .delay_model
            .clone()
            .unwrap_or_else(|| Arc::clone(self.session.delay_model()));
        let algorithm = scenario.algorithm.unwrap_or_default();
        let spec = self.variation.clone().unwrap_or_default();
        let tree = scenario.apply_derate(self.tree);
        let outcome = crate::variation::solve_variation(
            self.session,
            &tree,
            scenario,
            &spec,
            samples,
            quantile,
            workers,
        )?;
        Ok(ScenarioOutcome {
            scenario: scenario.clone(),
            model,
            algorithm,
            result: ScenarioResult::Variation(outcome),
            elapsed: start.elapsed(),
        })
    }

    /// Solves one scenario through `workspace`.
    fn solve_scenario(
        &self,
        scenario: &Scenario,
        workspace: &mut SolveWorkspace,
    ) -> Result<ScenarioOutcome, SolveError> {
        let start = Instant::now();
        let session = self.session;
        let library = session.library();
        let model = scenario
            .delay_model
            .clone()
            .unwrap_or_else(|| Arc::clone(session.delay_model()));
        let algorithm = scenario.algorithm.unwrap_or_default();
        let tree = scenario.apply_derate(self.tree);
        let tree = &*tree;

        let result = match &self.objective {
            Objective::MaxSlack => {
                let mut solver = Solver::new(tree, library)
                    .algorithm(algorithm)
                    .track_predecessors(self.track_predecessors)
                    .intra_net_workers(self.intra_net_workers)
                    .delay_model(Arc::clone(&model));
                if let Some(limit) = scenario.slew_limit {
                    solver = solver.slew_limit(limit);
                }
                ScenarioResult::Solution(solver.solve_with(workspace))
            }
            Objective::SlackCost { max_cost } => {
                self.require_elmore_only(scenario, &model, "the slack-vs-cost frontier")?;
                ScenarioResult::Frontier(
                    CostSolver::new(tree, library)
                        .max_cost(*max_cost)
                        .algorithm(algorithm)
                        .solve()?,
                )
            }
            Objective::PolarityAware { negated_sinks } => {
                self.require_elmore_only(scenario, &model, "polarity-aware solving")?;
                let mut solver = PolaritySolver::new(tree, library).algorithm(algorithm);
                for &sink in negated_sinks {
                    solver.require(sink, fastbuf_core::polarity::Polarity::Negative)?;
                }
                ScenarioResult::Polarity(solver.solve()?)
            }
            Objective::YieldTarget { samples, quantile } => {
                // The sequential (`solve_in`) path: the whole sweep on the
                // calling thread through one warm cache — bit-identical to
                // any parallel fan-out of the same request.
                let spec = self.variation.clone().unwrap_or_default();
                ScenarioResult::Variation(crate::variation::solve_variation(
                    session, tree, scenario, &spec, *samples, *quantile, 1,
                )?)
            }
            Objective::SkewTarget { max_skew } => {
                self.require_elmore_only(scenario, &model, "skew-target solving")?;
                if let Some(bound) = max_skew {
                    let skew_ps = bound.picos();
                    if !skew_ps.is_finite() || skew_ps < 0.0 {
                        return Err(SolveError::InvalidSkewBound { skew_ps });
                    }
                }
                ScenarioResult::Skew(
                    SkewSolver::new(tree, library)
                        .algorithm(algorithm)
                        .track_predecessors(self.track_predecessors)
                        .max_skew(*max_skew)
                        .solve(),
                )
            }
        };

        Ok(ScenarioOutcome {
            scenario: scenario.clone(),
            model,
            algorithm,
            result,
            elapsed: start.elapsed(),
        })
    }

    /// The cost and polarity DPs run hard-coded Elmore wire arithmetic and
    /// no slew pruning; asking them for anything else must be a typed
    /// error, never a silent fallback.
    fn require_elmore_only(
        &self,
        scenario: &Scenario,
        model: &Arc<dyn fastbuf_rctree::DelayModel>,
        what: &str,
    ) -> Result<(), SolveError> {
        if model.name() != "elmore" {
            return Err(SolveError::Unsupported {
                scenario: scenario.name.clone(),
                reason: format!(
                    "{what} supports only the Elmore model, not `{}`",
                    model.name()
                ),
            });
        }
        if scenario.slew_limit.is_some() {
            return Err(SolveError::Unsupported {
                scenario: scenario.name.clone(),
                reason: format!("{what} does not support a slew limit"),
            });
        }
        Ok(())
    }
}
