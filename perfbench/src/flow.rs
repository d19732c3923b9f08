//! `design_flow`: one caller runs a design-closure pass, with library
//! fan-out at 2 workers. A pass is four steps, sized so that none is more
//! than about half of it:
//!
//! 1. a `BatchSolver` over a seeded heavy-tailed `SuiteSpec` suite;
//! 2. a bounded-skew `SkewSolver::solve` on a seeded 256-sink CTS
//!    topology;
//! 3. a `YieldTarget` request (256 samples) on the suite's largest net;
//! 4. a small `GlobalSolver` pricing loop on a `SharedSuiteSpec` fleet.
//!
//! Every pass is deterministic, so each one must reproduce the reference
//! digest computed at set-up, where the batch and yield steps are also
//! checked to agree at 1 and 2 workers.

use std::time::{Duration, Instant};

use fastbuf_api::{Objective, Session, VariationSpec};
use fastbuf_batch::{BatchReport, BatchSolver};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::skew::{SkewSolution, SkewSolver};
use fastbuf_global::{GlobalNet, GlobalOutcome, GlobalSolver, SiteCapacityMap};
use fastbuf_netgen::{
    build_topology, CtsPlacementSpec, CtsTopologySpec, SharedSuiteSpec, SuiteSpec,
};
use fastbuf_rctree::{io as netio, RoutingTree};

use crate::layers::{overhead_share, span_summary, Metrics, SetupTimes};
use crate::measure::{closed_loop, median, ms, CpuTimer};
use crate::trace::Recorder;
use crate::{Params, Run, Traced};

/// Library fan-out of the batch, yield and global steps.
const WORKERS: usize = 2;
/// Library size of every step.
const LIB_SIZE: usize = 16;

/// Input sizes of one pass.
struct Sizes {
    suite_nets: usize,
    suite_max_sinks: usize,
    cts_sinks: usize,
    yield_samples: usize,
    fleet_nets: usize,
    fleet_sites_per_net: usize,
}

impl Sizes {
    fn of(p: Params) -> Self {
        if p.tiny {
            Sizes {
                suite_nets: 6,
                suite_max_sinks: 16,
                cts_sinks: 16,
                yield_samples: 8,
                fleet_nets: 3,
                fleet_sites_per_net: 8,
            }
        } else {
            Sizes {
                suite_nets: 400,
                suite_max_sinks: 96,
                cts_sinks: 256,
                yield_samples: 256,
                fleet_nets: 16,
                fleet_sites_per_net: 24,
            }
        }
    }
}

struct Inputs {
    suite: Vec<RoutingTree>,
    lib: BufferLibrary,
    cts: RoutingTree,
    skew_bound: Seconds,
    largest: usize,
    session: Session,
    variation: VariationSpec,
    samples: usize,
    fleet: Vec<GlobalNet>,
    capacity: SiteCapacityMap,
    /// The digest every pass must reproduce.
    reference: Vec<u64>,
}

/// One pass's results.
struct Pass {
    batch: BatchReport,
    skew: SkewSolution,
    yield_: fastbuf_api::Outcome,
    global: Result<GlobalOutcome, fastbuf_global::GlobalError>,
}

fn build(p: Params, times: &mut SetupTimes) -> Inputs {
    let s = Sizes::of(p);
    let (suite, lib, placements, fleet_spec) = SetupTimes::time(&mut times.generate_ms, || {
        let suite = SuiteSpec {
            nets: s.suite_nets,
            max_sinks: s.suite_max_sinks,
            seed: p.stream(5),
            ..SuiteSpec::default()
        }
        .build();
        let placements = CtsPlacementSpec {
            sinks: s.cts_sinks,
            seed: p.stream(6),
            ..CtsPlacementSpec::default()
        }
        .generate();
        let fleet = SharedSuiteSpec {
            nets: s.fleet_nets,
            pool_sites: (s.fleet_nets * s.fleet_sites_per_net / 4) as u32,
            sites_per_net: s.fleet_sites_per_net,
            seed: p.stream(7),
            ..SharedSuiteSpec::default()
        };
        (
            suite,
            BufferLibrary::paper_synthetic(LIB_SIZE).expect("b > 0"),
            placements,
            fleet,
        )
    });
    // The program sees the suite and library as text, like a flow would
    // hand them over.
    let texts: Vec<String> = suite.iter().map(netio::write).collect();
    let lib_text = lib.to_text();
    let suite: Vec<RoutingTree> = SetupTimes::time(&mut times.net_parse_ms, || {
        texts
            .iter()
            .map(|t| netio::parse(t).expect("generated nets parse"))
            .collect()
    });
    let lib = SetupTimes::time(&mut times.lib_parse_ms, || {
        BufferLibrary::from_text(&lib_text).expect("generated libraries parse")
    });
    let cts = build_topology(&placements, &CtsTopologySpec::default())
        .expect("generated placements are valid")
        .tree;
    // A bound just under the free-running skew, so the bounded DP prunes.
    let free = SkewSolver::new(&cts, &lib).solve();
    let skew_bound = Seconds::new(free.skew.value() * 0.9);
    let largest = (0..suite.len())
        .max_by_key(|&i| suite[i].buffer_site_count())
        .expect("non-empty suite");
    let fleet = fleet_spec
        .build()
        .into_iter()
        .enumerate()
        .map(|(i, net)| GlobalNet::new(format!("shared/{i:04}"), net.tree, net.site_of))
        .collect();
    let mut inputs = Inputs {
        suite,
        session: Session::new(lib.clone()),
        lib,
        cts,
        skew_bound,
        largest,
        variation: VariationSpec::gaussian(0.05, 0.02, p.stream(8)),
        samples: s.yield_samples,
        fleet,
        capacity: SiteCapacityMap::uniform(fleet_spec.pool_sites, 1),
        reference: Vec::new(),
    };
    // The reference at 1 worker; the warm-up pass at 2 must agree.
    let reference = digest(&pass_with(&inputs, 1, None));
    let warm = digest(&pass_with(&inputs, WORKERS, None));
    assert_eq!(
        reference, warm,
        "batch, yield and global results must not depend on the worker count"
    );
    inputs.reference = reference;
    inputs
}

/// Runs the four steps, each as a span of `traced` when given.
fn pass_with(inp: &Inputs, workers: usize, mut traced: Option<(&mut Recorder, usize)>) -> Pass {
    let mut step = |name: &'static str, f: &mut dyn FnMut()| match traced.as_mut() {
        Some((rec, root)) => {
            let id = rec.spans()[*root].request;
            rec.time(name, id, Some(*root), f);
        }
        None => f(),
    };
    let mut batch = None;
    step("batch.solve", &mut || {
        batch = Some(
            BatchSolver::new(&inp.suite, &inp.lib)
                .workers(workers)
                .solve(),
        );
    });
    let mut skew = None;
    step("core.skew_solve", &mut || {
        skew = Some(
            SkewSolver::new(&inp.cts, &inp.lib)
                .max_skew(Some(inp.skew_bound))
                .solve(),
        );
    });
    let mut yield_ = None;
    step("api.yield", &mut || {
        yield_ = Some(
            inp.session
                .request(&inp.suite[inp.largest])
                .objective(Objective::YieldTarget {
                    samples: inp.samples,
                    quantile: 0.5,
                })
                .variation(inp.variation.clone())
                .workers(workers)
                .solve()
                .expect("generated yield requests are valid"),
        );
    });
    let mut global = None;
    step("global.solve", &mut || {
        global = Some(
            GlobalSolver::new(inp.fleet.clone(), inp.lib.clone(), inp.capacity.clone())
                .max_iters(128)
                .workers(workers)
                .solve(),
        );
    });
    Pass {
        batch: batch.expect("step ran"),
        skew: skew.expect("step ran"),
        yield_: yield_.expect("step ran"),
        global: global.expect("step ran"),
    }
}

/// Every output bit a pass must reproduce.
fn digest(pass: &Pass) -> Vec<u64> {
    let mut d = Vec::new();
    for o in &pass.batch.outcomes {
        d.extend([o.slack.value().to_bits(), o.placements.len() as u64]);
    }
    d.extend([
        pass.batch.wns_after.value().to_bits(),
        pass.batch.tns_after.value().to_bits(),
    ]);
    d.extend([
        pass.skew.slack.value().to_bits(),
        pass.skew.skew.value().to_bits(),
        pass.skew.placements.len() as u64,
    ]);
    match pass.yield_.scenarios.first().and_then(|s| s.variation()) {
        Some(v) => {
            let s = &v.summary;
            d.extend([
                s.samples as u64,
                s.min_slack.value().to_bits(),
                s.max_slack.value().to_bits(),
                s.mean_slack.value().to_bits(),
                s.quantile_slack.value().to_bits(),
                s.yield_fraction.to_bits(),
            ]);
            d.extend(v.samples.iter().map(|x| x.slack.value().to_bits()));
        }
        None => d.push(u64::MAX),
    }
    match &pass.global {
        Ok(g) => {
            d.extend([g.report.iterations as u64, u64::from(g.report.feasible)]);
            d.extend(g.solutions.iter().map(|s| s.slack.value().to_bits()));
        }
        Err(_) => d.push(u64::MAX - 1),
    }
    d
}

/// The untraced run.
pub fn run(p: Params, budget: Duration) -> Run {
    let mut run = Run::default();
    let mut times = SetupTimes::default();
    let inp = run.repeat_setup(|| build(p, &mut times));
    let cpu = CpuTimer::start();
    let start = Instant::now();
    let mut failed = 0;
    run.latency_ms = closed_loop(budget, || {
        failed += u64::from(digest(&pass_with(&inp, WORKERS, None)) != inp.reference);
    });
    run.end_window(start, cpu);
    run.ops = run.latency_ms.len() as u64;
    run.failed = failed;
    run
}

/// The traced run: an untraced half, then a half where each step of each
/// pass is a span.
pub fn traced(p: Params, budget: Duration) -> Traced {
    let mut times = SetupTimes::default();
    let inp = build(p, &mut times);
    let half = budget / 2;
    let mut failed = 0;

    let start = Instant::now();
    let untraced = closed_loop(half, || {
        failed += u64::from(digest(&pass_with(&inp, WORKERS, None)) != inp.reference);
    })
    .len() as u64;
    let untraced_rate = untraced as f64 / start.elapsed().as_secs_f64();

    let mut rec = Recorder::new(Instant::now());
    let mut ops = 0u64;
    let mut last = None;
    let start = Instant::now();
    while ops == 0 || start.elapsed() < half {
        let root = rec.open("op.flow", ops, None);
        let pass = pass_with(&inp, WORKERS, Some((&mut rec, root)));
        rec.close(root);
        failed += u64::from(digest(&pass) != inp.reference);
        ops += 1;
        last = Some(pass);
    }
    let traced_rate = ops as f64 / start.elapsed().as_secs_f64();

    // Batch CPU share: three more batch steps timed on the process clock
    // (the only work in flight, so the process clock is the pool's).
    let efficiency: Vec<f64> = (0..3)
        .map(|_| {
            let (cpu, wall) = (CpuTimer::start(), Instant::now());
            std::hint::black_box(
                BatchSolver::new(&inp.suite, &inp.lib)
                    .workers(WORKERS)
                    .solve(),
            );
            ms(cpu.elapsed()) / (ms(wall.elapsed()) * WORKERS as f64)
        })
        .collect();

    let mut metrics = Metrics::new();
    let batch_ms = median(&rec.durations_ms("batch.solve"));
    metrics.insert("batch.solve_ms", batch_ms);
    metrics.insert(
        "batch.nets_per_s",
        inp.suite.len() as f64 / (batch_ms / 1e3),
    );
    metrics.insert("batch.parallel_efficiency", median(&efficiency));
    metrics.insert(
        "core.skew_solve_ms",
        median(&rec.durations_ms("core.skew_solve")),
    );
    metrics.insert("api.yield_ms", median(&rec.durations_ms("api.yield")));
    metrics.insert("global.solve_ms", median(&rec.durations_ms("global.solve")));
    let last = last.expect("at least one traced pass");
    if let Some(v) = last.yield_.scenarios.first().and_then(|s| s.variation()) {
        let s = &v.summary;
        metrics.insert(
            "api.yield_reuse_ratio",
            s.nodes_reused as f64 / (s.nodes_reused + s.nodes_recomputed).max(1) as f64,
        );
    }
    if let Ok(g) = &last.global {
        metrics.insert("global.iterations", g.report.iterations as f64);
        metrics.insert("global.inner_solves", g.report.total_resolved as f64);
    }
    times.metrics(&mut metrics);
    span_summary(&rec, ops, &mut metrics);
    metrics.insert(
        "trace.overhead_share",
        overhead_share(untraced_rate, traced_rate),
    );
    Traced {
        metrics,
        rec,
        attempted: untraced + ops,
        failed,
    }
}
