//! The worker-pool batch solver.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;

use fastbuf_api::{Scenario, ScenarioResult, Session};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, DelayModel, ElmoreModel, SolveWorkspace};
use fastbuf_rctree::{elmore, RoutingTree};

use crate::report::{BatchReport, NetOutcome};

/// Configuration of a [`BatchSolver`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// The per-net algorithm (default [`Algorithm::LiShi`]).
    pub algorithm: Algorithm,
    /// Worker threads (`None` = available parallelism, capped at the net
    /// count).
    pub workers: Option<NonZeroUsize>,
    /// Record predecessor information so placements can be reconstructed
    /// (default `true`). Disable for pure throughput measurements.
    pub track_predecessors: bool,
    /// Wire-delay/slew model applied to every net (default
    /// [`ElmoreModel`]).
    pub delay_model: Arc<dyn DelayModel>,
    /// Optional per-net maximum output slew (default `None`).
    pub slew_limit: Option<Seconds>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            algorithm: Algorithm::default(),
            workers: None,
            track_predecessors: true,
            delay_model: Arc::new(ElmoreModel),
            slew_limit: None,
        }
    }
}

/// Solves a fleet of independent nets against one shared buffer library,
/// fanned out over a pool of worker threads.
///
/// Scheduling: net indices are queued **largest net first** (by node
/// count) into a shared multi-consumer channel, and idle workers steal the
/// next-largest remaining net. Large nets therefore start earliest and
/// cannot straggle at the end of the batch, which is what limits speedup
/// under naive round-robin partitioning when net sizes are heavy-tailed.
///
/// Each worker owns one [`SolveWorkspace`], so after the first few nets a
/// worker solves with no steady-state allocation. Results are written back
/// by input index: the report is **deterministic and bit-identical for any
/// worker count** (nets are independent sub-problems; only the wall time
/// changes).
///
/// # Example
///
/// ```
/// use fastbuf_batch::BatchSolver;
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_netgen::SuiteSpec;
///
/// let nets = SuiteSpec { nets: 12, seed: 5, ..SuiteSpec::default() }.build();
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// let report = BatchSolver::new(&nets, &lib).workers(4).solve();
/// assert_eq!(report.outcomes.len(), 12);
/// // Every net improved (or kept) its slack:
/// assert!(report.outcomes.iter().all(|o| o.slack >= o.slack_before));
/// # Ok::<(), fastbuf_buflib::LibraryError>(())
/// ```
#[derive(Debug)]
pub struct BatchSolver<'a> {
    nets: &'a [RoutingTree],
    library: &'a BufferLibrary,
    options: BatchOptions,
}

impl<'a> BatchSolver<'a> {
    /// Creates a batch solver with default options.
    pub fn new(nets: &'a [RoutingTree], library: &'a BufferLibrary) -> Self {
        BatchSolver {
            nets,
            library,
            options: BatchOptions::default(),
        }
    }

    /// Replaces all options.
    #[must_use]
    pub fn with_options(mut self, options: BatchOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the worker count (at least 1; capped at the net count).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = Some(NonZeroUsize::new(workers.max(1)).expect("max(1) is nonzero"));
        self
    }

    /// Selects the per-net algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Enables or disables predecessor tracking.
    #[must_use]
    pub fn track_predecessors(mut self, track: bool) -> Self {
        self.options.track_predecessors = track;
        self
    }

    /// Selects the wire-delay/slew model for every net.
    #[must_use]
    pub fn delay_model(mut self, model: Arc<dyn DelayModel>) -> Self {
        self.options.delay_model = model;
        self
    }

    /// Sets (or, with a non-finite value, clears) the per-net maximum
    /// output slew.
    #[must_use]
    pub fn slew_limit(mut self, limit: Seconds) -> Self {
        self.options.slew_limit = limit.is_finite().then_some(limit);
        self
    }

    /// Solves every net and returns the aggregated report, with per-net
    /// outcomes in input order.
    ///
    /// Per-net solving is routed through the `fastbuf-api` request layer
    /// (one [`Session`] for the whole batch, one single-scenario
    /// `SolveRequest` per net through each worker's reusable workspace) —
    /// results are bit-identical to the legacy direct-`Solver` path, which
    /// the equivalence tests assert.
    pub fn solve(&self) -> BatchReport {
        let start = Instant::now();
        let nets = self.nets;
        let library = self.library;
        let session = Session::builder(library.clone())
            .delay_model(Arc::clone(&self.options.delay_model))
            .build();
        let scenario = {
            let mut s = Scenario::named("batch").algorithm(self.options.algorithm);
            if let Some(limit) = self.options.slew_limit {
                s = s.slew_limit(limit);
            }
            s
        };
        let workers = self
            .options
            .workers
            .map(NonZeroUsize::get)
            .unwrap_or_else(fastbuf_core::available_threads)
            .clamp(1, nets.len().max(1));

        // Largest-first dispatch order (ties broken by index, so the
        // schedule itself is deterministic even though completion order is
        // not).
        let mut order: Vec<usize> = (0..nets.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(nets[i].node_count()), i));

        let (tx, rx) = channel::unbounded::<usize>();
        for i in order {
            tx.send(i).expect("receiver is alive");
        }
        drop(tx);

        let mut outcomes: Vec<Option<NetOutcome>> = Vec::with_capacity(nets.len());
        outcomes.resize_with(nets.len(), || None);

        let track = self.options.track_predecessors;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let rx = rx.clone();
                    let session = session.clone();
                    let scenario = scenario.clone();
                    scope.spawn(move || {
                        let model: &dyn DelayModel = &**session.delay_model();
                        let mut workspace = SolveWorkspace::new();
                        let mut local: Vec<(usize, NetOutcome)> = Vec::new();
                        while let Ok(i) = rx.recv() {
                            let tree = &nets[i];
                            let t0 = Instant::now();
                            let before = elmore::evaluate_with(tree, library, &[], model)
                                .expect("the empty placement is always legal");
                            let outcome = session
                                .request(tree)
                                .track_predecessors(track)
                                .scenario(scenario.clone())
                                .solve_in(&mut workspace)
                                .expect("a validated max-slack scenario cannot fail");
                            let solution = outcome
                                .scenarios
                                .into_iter()
                                .next()
                                .and_then(|so| match so.result {
                                    ScenarioResult::Solution(s) => Some(s),
                                    _ => None,
                                })
                                .expect("max-slack outcomes carry one solution");
                            // Ground-truth worst slew of the solved net: a
                            // forward evaluation of the reconstructed
                            // placements (falls back to the DP's root-stage
                            // slew when tracking is off).
                            let max_slew = if solution.tracked {
                                elmore::evaluate_with(
                                    tree,
                                    library,
                                    &solution.placement_pairs(),
                                    model,
                                )
                                .expect("reconstructed placements are legal")
                                .max_slew
                            } else {
                                solution.root_slew
                            };
                            local.push((
                                i,
                                NetOutcome {
                                    index: i,
                                    sinks: tree.sink_count(),
                                    sites: tree.buffer_site_count(),
                                    slack_before: before.slack,
                                    slack: solution.slack,
                                    cost: solution.total_cost(library),
                                    slew_before: before.max_slew,
                                    max_slew,
                                    slew_ok: solution.slew_ok,
                                    placements: solution.placements,
                                    stats: solution.stats,
                                    elapsed: t0.elapsed(),
                                },
                            ));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, outcome) in handle.join().expect("worker panicked") {
                    outcomes[i] = Some(outcome);
                }
            }
        });

        let outcomes: Vec<NetOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every queued net was solved"))
            .collect();
        BatchReport::from_outcomes(
            outcomes,
            self.options.algorithm,
            workers,
            self.options.delay_model.name(),
            self.options.slew_limit,
            start.elapsed(),
        )
    }
}
