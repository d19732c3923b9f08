//! `paper_b64`: the paper's own regime. One caller thread runs
//! `Session::request(&tree).solve()` then `Outcome::verify` on the scaled
//! 1944-sink paper net (486 sinks, ≈ 8k positions) with the 64-type
//! synthetic library — what `fastbuf solve` does, without the file I/O.

use std::time::{Duration, Instant};

use fastbuf_api::Session;
use fastbuf_bench::time_solve;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::{io as netio, RoutingTree};

use crate::layers::{overhead_share, span_summary, CoreReplay, Metrics, SetupTimes};
use crate::measure::{closed_loop, median, CpuTimer};
use crate::trace::Recorder;
use crate::{Params, Run, Traced};

/// Sinks of the paper's 1944-sink net at scale 0.25.
const SINKS: usize = 486;
/// Paper density: about 17 positions per sink (`table1`'s rule).
const POSITIONS: usize = SINKS * 17;
/// Library size of the paper's largest Table 1 column.
const LIB_SIZE: usize = 64;

struct Inputs {
    tree: RoutingTree,
    session: Session,
    /// Bits of the worst slack every op must reproduce.
    reference: u64,
}

fn build(p: Params, times: &mut SetupTimes) -> Inputs {
    let (sinks, positions, b) = if p.tiny {
        (24, 400, 8)
    } else {
        (SINKS, POSITIONS, LIB_SIZE)
    };
    let (tree, lib) = SetupTimes::time(&mut times.generate_ms, || {
        let tree = RandomNetSpec {
            seed: p.stream(1),
            ..RandomNetSpec::paper(sinks)
        }
        .with_target_positions(positions)
        .build();
        (tree, BufferLibrary::paper_synthetic(b).expect("b > 0"))
    });
    let (net_text, lib_text) = (netio::write(&tree), lib.to_text());
    let tree = SetupTimes::time(&mut times.net_parse_ms, || {
        netio::parse(&net_text).expect("generated nets parse")
    });
    let lib = SetupTimes::time(&mut times.lib_parse_ms, || {
        BufferLibrary::from_text(&lib_text).expect("generated libraries parse")
    });
    let session = Session::new(lib);
    // Warm-up op; its slack is the reference every timed op must match.
    let outcome = session.request(&tree).solve().expect("paper net solves");
    outcome
        .verify(&tree, session.library())
        .expect("warm-up solve verifies");
    let reference = outcome
        .worst_slack()
        .expect("max-slack outcome")
        .value()
        .to_bits();
    Inputs {
        tree,
        session,
        reference,
    }
}

/// One op; `true` when its output passes every check.
fn op(inp: &Inputs) -> bool {
    match inp.session.request(&inp.tree).solve() {
        Ok(outcome) => {
            outcome.verify(&inp.tree, inp.session.library()).is_ok()
                && outcome.worst_slack().map(|s| s.value().to_bits()) == Some(inp.reference)
        }
        Err(_) => false,
    }
}

/// Theorem 1: Li–Shi and Lillis find bit-identical slack.
fn theorem1(inp: &Inputs) -> bool {
    let lib = inp.session.library();
    let lishi = Solver::new(&inp.tree, lib)
        .algorithm(Algorithm::LiShi)
        .solve();
    let lillis = Solver::new(&inp.tree, lib)
        .algorithm(Algorithm::Lillis)
        .solve();
    lishi.slack.value().to_bits() == lillis.slack.value().to_bits()
}

/// The untraced run.
pub fn run(p: Params, budget: Duration) -> Run {
    let mut run = Run::default();
    let mut times = SetupTimes::default();
    let inp = run.repeat_setup(|| build(p, &mut times));
    let cpu = CpuTimer::start();
    let start = Instant::now();
    let mut failed = 0;
    run.latency_ms = closed_loop(budget, || failed += u64::from(!op(&inp)));
    run.end_window(start, cpu);
    run.ops = run.latency_ms.len() as u64;
    run.failed = failed;
    // Outside the timed window.
    run.checks.push(("lishi_lillis_same_slack", theorem1(&inp)));
    run
}

/// The traced run: an untraced half, then a half where each op's request
/// and verify are spans and the DP inside them is replayed directly.
pub fn traced(p: Params, budget: Duration) -> Traced {
    let mut times = SetupTimes::default();
    let inp = build(p, &mut times);
    let (tree, lib) = (&inp.tree, inp.session.library());
    let model = inp.session.delay_model();
    let half = budget / 2;
    let mut failed = 0;

    let start = Instant::now();
    let untraced = closed_loop(half, || failed += u64::from(!op(&inp))).len() as u64;
    let untraced_rate = untraced as f64 / start.elapsed().as_secs_f64();

    let mut rec = Recorder::new(Instant::now());
    let mut core = CoreReplay::default();
    let mut ops = 0u64;
    let start = Instant::now();
    while ops == 0 || start.elapsed() < half {
        let root = rec.open("op.paper", ops, None);
        let (outcome, request) = rec.time("api.request", ops, Some(root), || {
            inp.session.request(tree).solve()
        });
        let ok = match outcome {
            Ok(outcome) => {
                let (verified, verify) = rec.time("api.outcome_verify", ops, Some(root), || {
                    outcome.verify(tree, lib).is_ok()
                });
                rec.close(root);
                let solution = core.solve(&mut rec, request, tree, lib, model);
                let replay_ok = CoreReplay::verify(&mut rec, verify, &solution, tree, lib, model);
                verified
                    && replay_ok
                    && solution.slack.value().to_bits() == inp.reference
                    && outcome.worst_slack().map(|s| s.value().to_bits()) == Some(inp.reference)
            }
            Err(_) => {
                rec.close(root);
                false
            }
        };
        failed += u64::from(!ok);
        ops += 1;
    }
    let traced_rate = ops as f64 / start.elapsed().as_secs_f64();

    let mut metrics = Metrics::new();
    core.metrics(&rec, &mut metrics);
    metrics.insert(
        "api.request_overhead_ms",
        median(&rec.self_ms_of("api.request")),
    );
    metrics.insert(
        "api.outcome_verify_ms",
        median(&rec.durations_ms("api.outcome_verify")),
    );
    let reps = if p.tiny { 1 } else { 3 };
    let lillis = time_solve(tree, lib, Algorithm::Lillis, reps).0;
    let lishi = time_solve(tree, lib, Algorithm::LiShi, reps).0;
    metrics.insert(
        "core.lillis_over_lishi",
        lillis.as_secs_f64() / lishi.as_secs_f64(),
    );
    let fastest = |workers: usize| {
        (0..reps + 2)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(Solver::new(tree, lib).intra_net_workers(workers).solve());
                t.elapsed()
            })
            .min()
            .expect("at least one repetition")
    };
    metrics.insert(
        "core.intra2_speedup",
        fastest(1).as_secs_f64() / fastest(2).as_secs_f64(),
    );
    failed += u64::from(!theorem1(&inp));
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
