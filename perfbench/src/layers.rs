//! The per-layer metric set and the probes shared by several workloads.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{DelayModel, Solution, SolveStats, SolveWorkspace, Solver};
use fastbuf_rctree::RoutingTree;

use crate::measure::{mean, median, ms};
use crate::trace::Recorder;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How long the census runs each other workload's traced loop for.
pub const CENSUS_BUDGET: Duration = Duration::from_millis(600);

/// Layers whose spans the generic `<layer>.span_count` / `<layer>.self_ms`
/// metrics summarise. `transport` is the client round trip less the
/// handler: queueing, sockets and thread hand-off.
pub const SPAN_LAYERS: [&str; 7] = [
    "core",
    "api",
    "server",
    "incremental",
    "batch",
    "global",
    "transport",
];

/// Per-layer metrics (`--trace 1`) and their units. `WORKLOADS.md` maps
/// each to the end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.solve_ms", "ms"),
    ("core.solve_cpu_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.addbuffer_ops", "count"),
    ("core.hull_input_candidates", "count"),
    ("core.hull_walk_steps", "count"),
    ("core.betas_generated", "count"),
    ("core.addbuffer_work", "count"),
    ("core.wire_ops", "count"),
    ("core.merge_ops", "count"),
    ("core.slab_prune_ratio", "ratio"),
    ("core.max_list_len", "count"),
    ("core.slab_bytes_peak", "bytes"),
    ("core.lillis_over_lishi", "ratio"),
    ("core.intra2_speedup", "ratio"),
    ("core.skew_solve_ms", "ms"),
    ("api.request_overhead_ms", "ms"),
    ("api.outcome_verify_ms", "ms"),
    ("api.parse_frame_ms", "ms"),
    ("api.serialize_ms", "ms"),
    ("api.yield_ms", "ms"),
    ("api.yield_reuse_ratio", "ratio"),
    ("server.handle_frame_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.lock_wait_ms", "ms"),
    ("server.unattributed_share", "share"),
    ("server.eco_warm_hit_ratio", "ratio"),
    ("server.load_ms", "ms"),
    ("incremental.apply_ms", "ms"),
    ("incremental.solve_ms", "ms"),
    ("incremental.reuse_ratio", "ratio"),
    ("batch.solve_ms", "ms"),
    ("batch.nets_per_s", "1/s"),
    ("batch.parallel_efficiency", "ratio"),
    ("global.solve_ms", "ms"),
    ("global.iterations", "count"),
    ("global.inner_solves", "count"),
    ("rctree.parse_ms", "ms"),
    ("buflib.parse_ms", "ms"),
    ("netgen.generate_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("core.span_count", "count"),
    ("core.self_ms", "ms"),
    ("api.span_count", "count"),
    ("api.self_ms", "ms"),
    ("server.span_count", "count"),
    ("server.self_ms", "ms"),
    ("incremental.span_count", "count"),
    ("incremental.self_ms", "ms"),
    ("batch.span_count", "count"),
    ("batch.self_ms", "ms"),
    ("global.span_count", "count"),
    ("global.self_ms", "ms"),
    ("transport.span_count", "count"),
    ("transport.self_ms", "ms"),
];

/// Adds the generic per-op span count and self time of every layer in
/// [`SPAN_LAYERS`] that `rec` holds spans of. `ops` is the number of
/// traced ops the spans cover.
pub fn span_summary(rec: &Recorder, ops: u64, out: &mut Metrics) {
    let per_op = 1.0 / ops.max(1) as f64;
    for (layer, (count, self_ms)) in rec.layers() {
        let Some(&name) = SPAN_LAYERS.iter().find(|l| **l == layer) else {
            continue;
        };
        let (count_key, self_key) = span_keys(name);
        out.insert(count_key, count as f64 * per_op);
        out.insert(self_key, self_ms * per_op);
    }
}

fn span_keys(layer: &str) -> (&'static str, &'static str) {
    let find = |suffix: &str| {
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_suffix(suffix) == Some(layer))
            .expect("every span layer has its metrics listed")
    };
    (find(".span_count"), find(".self_ms"))
}

/// The direct DP replay behind a request span: `Solver::solve_with` on the
/// request's tree with the request's options, on one warm workspace, with
/// the thread's on-CPU time and the solve's exact counters.
#[derive(Debug, Default)]
pub struct CoreReplay {
    workspace: SolveWorkspace,
    cpu_ms: Vec<f64>,
    last: Option<SolveStats>,
}

impl CoreReplay {
    /// Replays the solve as a child of `parent` and returns its solution.
    pub fn solve(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        tree: &RoutingTree,
        library: &BufferLibrary,
        model: &Arc<dyn DelayModel>,
    ) -> Solution {
        let cpu0 = fastbuf_bench::thread_cpu_ns();
        let (solution, _) = rec.replay("core.solve", parent, || {
            Solver::new(tree, library)
                .delay_model(Arc::clone(model))
                .solve_with(&mut self.workspace)
        });
        if let (Some(a), Some(b)) = (cpu0, fastbuf_bench::thread_cpu_ns()) {
            self.cpu_ms.push(b.saturating_sub(a) as f64 / 1e6);
        }
        self.last = Some(solution.stats.clone());
        solution
    }

    /// Replays the forward-Elmore check of `solution` (what
    /// `Outcome::verify` runs per scenario) as a child of `parent`;
    /// `true` when it passes.
    pub fn verify(
        rec: &mut Recorder,
        parent: usize,
        solution: &Solution,
        tree: &RoutingTree,
        library: &BufferLibrary,
        model: &Arc<dyn DelayModel>,
    ) -> bool {
        rec.replay("core.verify", parent, || {
            solution.verify_with(tree, library, &**model).is_ok()
        })
        .0
    }

    /// Folds another thread's replays into this one.
    pub fn absorb(&mut self, other: CoreReplay) {
        self.cpu_ms.extend(other.cpu_ms);
        if other.last.is_some() {
            self.last = other.last;
        }
    }

    /// The `core.*` solve, verify and counter metrics.
    pub fn metrics(&self, rec: &Recorder, out: &mut Metrics) {
        out.insert("core.solve_ms", median(&rec.durations_ms("core.solve")));
        out.insert("core.verify_ms", median(&rec.durations_ms("core.verify")));
        if !self.cpu_ms.is_empty() {
            out.insert("core.solve_cpu_ms", median(&self.cpu_ms));
        }
        if let Some(s) = &self.last {
            counters(s, out);
        }
    }
}

/// The exact per-solve work counters of one solve.
pub fn counters(s: &SolveStats, out: &mut Metrics) {
    out.insert("core.addbuffer_ops", s.addbuffer_ops as f64);
    out.insert("core.hull_input_candidates", s.hull_input_candidates as f64);
    out.insert("core.hull_walk_steps", s.hull_walk_steps as f64);
    out.insert("core.betas_generated", s.betas_generated as f64);
    out.insert("core.addbuffer_work", s.addbuffer_work() as f64);
    out.insert("core.wire_ops", s.wire_ops as f64);
    out.insert("core.merge_ops", s.merge_ops as f64);
    out.insert(
        "core.slab_prune_ratio",
        s.slab_candidates_pruned as f64 / s.slab_candidates_scanned.max(1) as f64,
    );
    out.insert("core.max_list_len", s.max_list_len as f64);
    out.insert("core.slab_bytes_peak", s.slab_bytes_peak as f64);
}

/// Timings of one workload set-up: generation, serialization round trip.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// `netgen` (and synthetic-library) generation.
    pub generate_ms: Vec<f64>,
    /// `rctree::io::parse` of the generated net text.
    pub net_parse_ms: Vec<f64>,
    /// `BufferLibrary::from_text` of the generated library text.
    pub lib_parse_ms: Vec<f64>,
}

impl SetupTimes {
    /// Times `f` into `field`.
    pub fn time<T>(field: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let out = f();
        field.push(ms(t.elapsed()));
        out
    }

    /// The `netgen`/`rctree`/`buflib` set-up metrics.
    pub fn metrics(&self, out: &mut Metrics) {
        out.insert("netgen.generate_ms", mean(&self.generate_ms));
        out.insert("rctree.parse_ms", mean(&self.net_parse_ms));
        out.insert("buflib.parse_ms", mean(&self.lib_parse_ms));
    }
}

/// `1 − traced / untraced` throughput: the share of ops per second the
/// traced half lost to recording and replaying.
pub fn overhead_share(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    1.0 - traced_ops_per_s / untraced_ops_per_s
}
