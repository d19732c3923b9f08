//! Design-level repeater insertion: buffer every net of a netlist, in
//! parallel.
//!
//! The paper's introduction motivates fast buffer insertion with Saxena et
//! al.'s projection that **35% of all cells will be intra-block repeaters**
//! — i.e. the algorithm runs once per net over an entire design, and its
//! runtime is multiplied by tens of thousands of nets. This crate supplies
//! that outer loop:
//!
//! * [`Design`] — a named collection of routing trees;
//! * [`DesignSpec`] — a deterministic generator drawing net sizes from a
//!   power-law-ish mix (most nets small, a heavy tail of large ones, as in
//!   real netlists);
//! * [`solve_design`] — solves every net with a chosen
//!   [`Algorithm`], fanned out over worker threads through a
//!   `crossbeam` channel, and aggregates a timing report (WNS/TNS, buffer
//!   count, cost, wall time).
//!
//! Parallelism note: nets are independent problems, so the results are
//! bit-identical regardless of thread count (asserted in tests); only the
//! wall time changes.
//!
//! ```
//! use fastbuf_buflib::BufferLibrary;
//! use fastbuf_core::Algorithm;
//! use fastbuf_design::{solve_design, DesignSolveOptions, DesignSpec};
//!
//! let design = DesignSpec { nets: 12, seed: 1, ..DesignSpec::default() }.build();
//! let lib = BufferLibrary::paper_synthetic(8)?;
//! let report = solve_design(&design, &lib, &DesignSolveOptions::default());
//! assert_eq!(report.nets.len(), 12);
//! assert!(report.wns_after >= report.wns_before);
//! # Ok::<(), fastbuf_buflib::LibraryError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;

use fastbuf_api::{Scenario, Session};
use fastbuf_buflib::units::{Microns, Seconds};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, DelayModel, ElmoreModel};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::{elmore, RoutingTree};

/// One net of a design.
#[derive(Clone, Debug)]
pub struct DesignNet {
    /// Net name (unique within the design).
    pub name: String,
    /// The routing tree.
    pub tree: RoutingTree,
}

/// A collection of nets to be buffered together.
#[derive(Clone, Debug, Default)]
pub struct Design {
    /// The nets, in insertion order.
    pub nets: Vec<DesignNet>,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Self {
        Design::default()
    }

    /// Adds a net.
    pub fn push(&mut self, name: impl Into<String>, tree: RoutingTree) {
        self.nets.push(DesignNet {
            name: name.into(),
            tree,
        });
    }

    /// Total sink count across all nets.
    pub fn total_sinks(&self) -> usize {
        self.nets.iter().map(|n| n.tree.sink_count()).sum()
    }

    /// Total buffer-position count across all nets.
    pub fn total_sites(&self) -> usize {
        self.nets.iter().map(|n| n.tree.buffer_site_count()).sum()
    }
}

/// Deterministic generator of synthetic designs.
///
/// Net sizes follow a heavy-tailed mix: ~70% small nets (2–8 sinks), ~25%
/// medium (9–64), ~5% large (65–`max_sinks`) — the shape of real netlists,
/// where a few big buses and clock spines dominate the runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignSpec {
    /// Number of nets.
    pub nets: usize,
    /// Largest net the tail can produce.
    pub max_sinks: usize,
    /// Buffer-site pitch used for every net.
    pub site_pitch: Microns,
    /// Master seed; net `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for DesignSpec {
    fn default() -> Self {
        DesignSpec {
            nets: 64,
            max_sinks: 256,
            site_pitch: Microns::new(200.0),
            seed: 1,
        }
    }
}

impl DesignSpec {
    /// Builds the design.
    ///
    /// # Panics
    ///
    /// Panics if `nets == 0` or `max_sinks < 8`.
    pub fn build(&self) -> Design {
        assert!(self.nets > 0, "a design needs at least one net");
        // The size mix and per-net construction are shared with
        // `fastbuf_netgen::SuiteSpec`, so designs and batch suites built
        // from the same parameters contain the same nets.
        let suite = SuiteSpec {
            nets: self.nets,
            max_sinks: self.max_sinks,
            site_pitch: self.site_pitch,
            seed: self.seed,
            slew_stress: false,
        };
        let mut design = Design::new();
        for i in 0..self.nets {
            design.push(format!("net{i:05}"), suite.build_net(i));
        }
        design
    }
}

/// Options for [`solve_design`].
#[derive(Clone, Debug)]
pub struct DesignSolveOptions {
    /// The per-net algorithm.
    pub algorithm: Algorithm,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<NonZeroUsize>,
    /// Wire-delay/slew model applied to every net.
    pub delay_model: Arc<dyn DelayModel>,
    /// Optional per-net maximum output slew — the design-level scenario
    /// knob for slew-constrained signoff runs.
    pub slew_limit: Option<Seconds>,
}

impl Default for DesignSolveOptions {
    fn default() -> Self {
        DesignSolveOptions {
            algorithm: Algorithm::LiShi,
            threads: None,
            delay_model: Arc::new(ElmoreModel),
            slew_limit: None,
        }
    }
}

/// Per-net outcome within a [`DesignReport`].
#[derive(Clone, Debug)]
pub struct NetResult {
    /// Net name.
    pub name: String,
    /// Slack before buffering.
    pub slack_before: Seconds,
    /// Slack after optimal buffering.
    pub slack_after: Seconds,
    /// Buffers inserted.
    pub buffers: usize,
    /// Total buffer cost.
    pub cost: f64,
    /// `false` when a slew limit was set and this net could not meet it.
    pub slew_ok: bool,
    /// Per-net solve time.
    pub elapsed: Duration,
}

/// Aggregated outcome of [`solve_design`].
#[derive(Clone, Debug)]
pub struct DesignReport {
    /// Per-net results, in design order.
    pub nets: Vec<NetResult>,
    /// Worst net slack before buffering.
    pub wns_before: Seconds,
    /// Worst net slack after buffering.
    pub wns_after: Seconds,
    /// Total negative slack (sum over nets of `min(slack, 0)`) before.
    pub tns_before: Seconds,
    /// Total negative slack after.
    pub tns_after: Seconds,
    /// Buffers inserted across the design.
    pub total_buffers: usize,
    /// Total buffer cost across the design.
    pub total_cost: f64,
    /// Wall-clock time for the whole design.
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Number of nets that could not meet the slew limit.
    pub slew_violations: usize,
}

/// Buffers every net of `design` with `library`, in parallel, and
/// aggregates the report. Results are deterministic and independent of the
/// thread count.
///
/// Per-net solving is routed through the `fastbuf-api` request layer: one
/// [`Session`] for the design, one single-scenario request per net, warm
/// workspaces shared through the session pool.
pub fn solve_design(
    design: &Design,
    library: &BufferLibrary,
    options: &DesignSolveOptions,
) -> DesignReport {
    let start = Instant::now();
    let session = Session::builder(library.clone())
        .delay_model(Arc::clone(&options.delay_model))
        .build();
    let scenario = {
        let mut s = Scenario::named("design").algorithm(options.algorithm);
        if let Some(limit) = options.slew_limit {
            s = s.slew_limit(limit);
        }
        s
    };
    let threads = options
        .threads
        .map(NonZeroUsize::get)
        .unwrap_or_else(fastbuf_core::available_threads)
        .max(1)
        .min(design.nets.len().max(1));

    let (tx, rx) = channel::unbounded::<usize>();
    for i in 0..design.nets.len() {
        tx.send(i).expect("channel open");
    }
    drop(tx);

    let mut slots: Vec<Option<NetResult>> = Vec::with_capacity(design.nets.len());
    slots.resize_with(design.nets.len(), || None);
    let slot_refs = &design.nets;
    let results = std::sync::Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let results = &results;
            let session = &session;
            let scenario = &scenario;
            scope.spawn(move || {
                // One workspace per worker, reused across nets via
                // `solve_in` — same pattern as `fastbuf-batch`, no
                // per-net pool traffic.
                let mut workspace = fastbuf_core::SolveWorkspace::new();
                while let Ok(i) = rx.recv() {
                    let net = &slot_refs[i];
                    let t0 = Instant::now();
                    let before =
                        elmore::evaluate_with(&net.tree, library, &[], &*options.delay_model)
                            .expect("empty assignment is always legal");
                    let outcome = session
                        .request(&net.tree)
                        .scenario(scenario.clone())
                        .solve_in(&mut workspace)
                        .expect("a validated max-slack scenario cannot fail");
                    let sol = outcome.solution().expect("single-scenario max-slack");
                    let result = NetResult {
                        name: net.name.clone(),
                        slack_before: before.slack,
                        slack_after: sol.slack,
                        buffers: sol.placements.len(),
                        cost: sol.total_cost(library),
                        slew_ok: sol.slew_ok,
                        elapsed: t0.elapsed(),
                    };
                    results.lock().expect("no panics hold the lock")[i] = Some(result);
                }
            });
        }
    });

    let nets: Vec<NetResult> = slots
        .into_iter()
        .map(|r| r.expect("every net was solved"))
        .collect();
    let mut report = DesignReport {
        wns_before: Seconds::new(f64::INFINITY),
        wns_after: Seconds::new(f64::INFINITY),
        tns_before: Seconds::ZERO,
        tns_after: Seconds::ZERO,
        total_buffers: 0,
        total_cost: 0.0,
        elapsed: start.elapsed(),
        threads,
        slew_violations: 0,
        nets,
    };
    for n in &report.nets {
        report.wns_before = report.wns_before.min(n.slack_before);
        report.wns_after = report.wns_after.min(n.slack_after);
        report.tns_before += n.slack_before.min(Seconds::ZERO);
        report.tns_after += n.slack_after.min(Seconds::ZERO);
        report.total_buffers += n.buffers;
        report.total_cost += n.cost;
        report.slew_violations += usize::from(!n.slew_ok);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> Design {
        DesignSpec {
            nets: 10,
            max_sinks: 32,
            seed: 42,
            ..DesignSpec::default()
        }
        .build()
    }

    #[test]
    fn generator_is_deterministic() {
        let a = small_design();
        let b = small_design();
        assert_eq!(a.nets.len(), b.nets.len());
        for (x, y) in a.nets.iter().zip(&b.nets) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                fastbuf_rctree::io::write(&x.tree),
                fastbuf_rctree::io::write(&y.tree)
            );
        }
    }

    #[test]
    fn sizes_follow_the_mix() {
        let d = DesignSpec {
            nets: 300,
            max_sinks: 128,
            seed: 7,
            ..DesignSpec::default()
        }
        .build();
        let small = d.nets.iter().filter(|n| n.tree.sink_count() <= 8).count();
        let large = d.nets.iter().filter(|n| n.tree.sink_count() >= 65).count();
        assert!(small > 150, "most nets should be small: {small}");
        assert!(large >= 3, "the tail should exist: {large}");
        assert!(d.total_sinks() > 300);
        assert!(d.total_sites() > d.total_sinks());
    }

    #[test]
    fn report_aggregates_consistently() {
        let design = small_design();
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let report = solve_design(&design, &lib, &DesignSolveOptions::default());
        assert_eq!(report.nets.len(), design.nets.len());
        assert!(report.wns_after >= report.wns_before);
        assert!(report.tns_after >= report.tns_before);
        let sum: usize = report.nets.iter().map(|n| n.buffers).sum();
        assert_eq!(sum, report.total_buffers);
        for n in &report.nets {
            assert!(n.slack_after >= n.slack_before, "{}", n.name);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let design = small_design();
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let solve = |threads| {
            solve_design(
                &design,
                &lib,
                &DesignSolveOptions {
                    threads: NonZeroUsize::new(threads),
                    ..DesignSolveOptions::default()
                },
            )
        };
        let one = solve(1);
        let four = solve(4);
        assert_eq!(one.threads, 1);
        assert!(four.threads >= 1);
        for (a, b) in one.nets.iter().zip(&four.nets) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.slack_after, b.slack_after);
            assert_eq!(a.buffers, b.buffers);
        }
    }

    #[test]
    fn algorithms_agree_design_wide() {
        let design = small_design();
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let mk = |algorithm| {
            solve_design(
                &design,
                &lib,
                &DesignSolveOptions {
                    algorithm,
                    ..DesignSolveOptions::default()
                },
            )
        };
        let a = mk(Algorithm::Lillis);
        let b = mk(Algorithm::LiShi);
        for (x, y) in a.nets.iter().zip(&b.nets) {
            assert!(
                (x.slack_after.picos() - y.slack_after.picos()).abs() < 1e-6,
                "{}",
                x.name
            );
        }
        assert!((a.wns_after.picos() - b.wns_after.picos()).abs() < 1e-6);
    }

    #[test]
    fn slew_limited_signoff_reports_violations() {
        let design = small_design();
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let unconstrained = solve_design(&design, &lib, &DesignSolveOptions::default());
        assert_eq!(unconstrained.slew_violations, 0);
        let constrained = solve_design(
            &design,
            &lib,
            &DesignSolveOptions {
                slew_limit: Some(Seconds::from_pico(150.0)),
                ..DesignSolveOptions::default()
            },
        );
        assert_eq!(constrained.nets.len(), design.nets.len());
        assert_eq!(
            constrained.slew_violations,
            constrained.nets.iter().filter(|n| !n.slew_ok).count()
        );
        // Tightening a constraint can only cost slack.
        assert!(constrained.wns_after.value() <= unconstrained.wns_after.value() + 1e-15);
    }

    #[test]
    fn scaled_model_design_runs() {
        use fastbuf_core::ScaledElmoreModel;
        let design = small_design();
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let report = solve_design(
            &design,
            &lib,
            &DesignSolveOptions {
                delay_model: Arc::new(ScaledElmoreModel::default()),
                ..DesignSolveOptions::default()
            },
        );
        assert_eq!(report.nets.len(), design.nets.len());
        assert!(report.wns_after >= report.wns_before);
    }

    #[test]
    #[should_panic(expected = "at least one net")]
    fn empty_spec_panics() {
        let _ = DesignSpec {
            nets: 0,
            ..DesignSpec::default()
        }
        .build();
    }

    #[test]
    fn manual_design_assembly() {
        let mut d = Design::new();
        d.push(
            "alpha",
            fastbuf_netgen::line_net(fastbuf_buflib::units::Microns::new(4000.0), 3),
        );
        assert_eq!(d.nets.len(), 1);
        assert_eq!(d.total_sinks(), 1);
        assert_eq!(d.total_sites(), 3);
        let lib = BufferLibrary::paper_synthetic(2).unwrap();
        let report = solve_design(&d, &lib, &DesignSolveOptions::default());
        assert_eq!(report.nets[0].name, "alpha");
        assert_eq!(report.threads, 1); // one net -> one worker
    }
}
