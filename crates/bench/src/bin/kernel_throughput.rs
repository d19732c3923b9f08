//! Kernel throughput: the struct-of-arrays candidate slab vs the
//! reference `Vec<Candidate>` kernel, plus intra-net subtree scaling.
//!
//! Solves the largest nets of one reproducible `netgen::SuiteSpec` suite
//! single-net at a time and reports solves/sec for:
//!
//! * `reference@1` — the pre-refactor AoS kernel, single-threaded;
//! * `slab@1` — the SoA slab kernel, single-threaded (the headline
//!   kernel speedup is `slab@1` vs `reference@1`);
//! * `slab@1+tracked` — `slab@1` with predecessor tracking on, as every
//!   `Session` and served solve runs it: the gap to `slab@1` is the cost
//!   of recording the records that rebuild the placements;
//! * `slab@2`, `slab@4` — the slab kernel with 2 and 4 intra-net
//!   workers solving sibling subtrees concurrently (bit-identical
//!   results at every count; on a 1-thread machine these rows record
//!   the scheduling overhead honestly);
//! * `slab@2+tracked` — `slab@2` with predecessor tracking on: what a
//!   default single-scenario `SolveRequest` runs on a large net of a
//!   2-thread machine.
//!
//! Results go to `BENCH_kernel.json` (current directory) together with
//! `hw_threads` so the scaling rows are self-describing.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin kernel_throughput --
//!       [--nets N] [--max-sinks M] [--top K] [--seed S] [--repeats R]
//!       [--lib B] [--out FILE] [--quick]`

use std::time::{Duration, Instant};

use fastbuf_bench::{fmt_duration, print_table};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Kernel, Solver};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::RoutingTree;

struct Options {
    nets: usize,
    max_sinks: usize,
    top: usize,
    seed: u64,
    repeats: usize,
    lib: usize,
    algo: Algorithm,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: kernel_throughput [--nets N] [--max-sinks M] [--top K] [--seed S] \
         [--repeats R] [--lib B] [--algo A] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    // Defaults reproduce the committed `BENCH_kernel.json`: the two
    // largest nets of a 48-net suite (candidate lists long enough for
    // lane-wise kernels to matter) against the paper's largest Table 1
    // library, b = 64 — the struct-of-arrays payoff grows with `b`
    // because every buffer type rescans the same staircase.
    let mut opts = Options {
        nets: 48,
        max_sinks: 2048,
        top: 2,
        seed: 7,
        repeats: 15,
        lib: 64,
        algo: Algorithm::LiShi,
        out: "BENCH_kernel.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match arg.as_str() {
            "--nets" => {
                opts.nets = next("--nets needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --nets"))
            }
            "--max-sinks" => {
                opts.max_sinks = next("--max-sinks needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --max-sinks"))
            }
            "--top" => {
                opts.top = next("--top needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --top"))
            }
            "--seed" => {
                opts.seed = next("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--repeats" => {
                opts.repeats = next("--repeats needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --repeats"))
            }
            "--lib" => {
                opts.lib = next("--lib needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --lib"))
            }
            "--algo" => {
                opts.algo = next("--algo needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --algo"))
            }
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: run the real pipeline in seconds.
                opts.nets = 8;
                opts.max_sinks = 48;
                opts.top = 2;
                opts.repeats = 1;
                opts.lib = 8;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.repeats == 0 || opts.nets == 0 || opts.top == 0 {
        usage("--repeats, --nets, and --top must be at least 1");
    }
    if opts.max_sinks < 8 {
        usage("--max-sinks must be at least 8");
    }
    if opts.lib == 0 {
        usage("--lib must be at least 1");
    }
    opts
}

/// One timed configuration: which kernel, how many intra-net workers, and
/// whether predecessors are tracked.
struct Config {
    name: &'static str,
    kernel: Kernel,
    workers: usize,
    tracked: bool,
}

/// Fastest-of-`repeats` time per config to solve every net in `nets` one
/// at a time (single-net solves, not a batch pool — this measures the
/// kernel).
///
/// The configs are timed **interleaved**: each repeat runs every config
/// once, round-robin, and each config keeps its own minimum. Timing them
/// back-to-back instead would hand the earlier configs whatever thermal
/// and frequency headroom the machine started with and charge the decay
/// to the later ones; interleaving spreads machine drift evenly, so the
/// recorded ratios survive a busy host.
///
/// Per repeat each config records wall time and, when the OS exposes
/// per-thread on-CPU accounting, the solving thread's on-CPU time (immune
/// to preemption, though not to frequency drift). With more than one
/// intra-net worker the solve runs on several threads, of which the
/// solving thread is only one, so only wall time is meaningful and the
/// on-CPU reading is skipped.
fn time_configs(
    nets: &[RoutingTree],
    lib: &BufferLibrary,
    configs: &[Config],
    algo: Algorithm,
    repeats: usize,
) -> Vec<(Duration, Option<u64>)> {
    let mut best = vec![(Duration::MAX, None::<u64>); configs.len()];
    for _ in 0..repeats {
        for (cfg, slot) in configs.iter().zip(best.iter_mut()) {
            let cpu0 = fastbuf_bench::thread_cpu_ns();
            let start = Instant::now();
            for tree in nets {
                let sol = Solver::new(tree, lib)
                    .algorithm(algo)
                    .track_predecessors(cfg.tracked)
                    .kernel(cfg.kernel)
                    .intra_net_workers(cfg.workers)
                    .solve();
                std::hint::black_box(sol.slack);
            }
            slot.0 = slot.0.min(start.elapsed());
            if cfg.workers == 1 {
                if let (Some(a), Some(b)) = (cpu0, fastbuf_bench::thread_cpu_ns()) {
                    let spent = b.saturating_sub(a);
                    slot.1 = Some(slot.1.map_or(spent, |prev| prev.min(spent)));
                }
            }
        }
    }
    best
}

fn main() {
    let opts = parse_args();
    let suite = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
        ..SuiteSpec::default()
    };
    // Largest-first: the kernel numbers should come from the heavy tail
    // of the suite, where candidate lists are long enough to matter.
    let mut nets = suite.build();
    nets.sort_by_key(|t| std::cmp::Reverse(t.buffer_site_count()));
    nets.truncate(opts.top);
    let lib = BufferLibrary::paper_synthetic(opts.lib).expect("nonzero library");
    let total_sites: usize = nets.iter().map(|t| t.buffer_site_count()).sum();
    let largest = nets.first().map(|t| t.buffer_site_count()).unwrap_or(0);
    println!(
        "# kernel throughput: {} largest suite nets ({} total buffer positions, largest {}), \
         library {}, {} hardware threads\n",
        nets.len(),
        total_sites,
        largest,
        opts.lib,
        fastbuf_bench::hw_threads(),
    );

    let configs = [
        Config {
            name: "reference@1",
            kernel: Kernel::Reference,
            workers: 1,
            tracked: false,
        },
        Config {
            name: "slab@1",
            kernel: Kernel::Slab,
            workers: 1,
            tracked: false,
        },
        Config {
            name: "slab@1+tracked",
            kernel: Kernel::Slab,
            workers: 1,
            tracked: true,
        },
        Config {
            name: "slab@2",
            kernel: Kernel::Slab,
            workers: 2,
            tracked: false,
        },
        Config {
            name: "slab@2+tracked",
            kernel: Kernel::Slab,
            workers: 2,
            tracked: true,
        },
        Config {
            name: "slab@4",
            kernel: Kernel::Slab,
            workers: 4,
            tracked: false,
        },
    ];
    let mut rows = Vec::new();
    let mut measured: Vec<(&Config, f64, f64, Option<f64>)> = Vec::new();
    let mut reference_secs = None;
    let mut reference_cpu = None;
    let timed = time_configs(&nets, &lib, &configs, opts.algo, opts.repeats);
    for (cfg, (best, best_cpu)) in configs.iter().zip(timed) {
        let secs = best.as_secs_f64();
        let cpu_secs = best_cpu.map(|ns| ns as f64 / 1e9);
        let solves_per_sec = nets.len() as f64 / secs;
        let base = *reference_secs.get_or_insert(secs);
        if reference_cpu.is_none() {
            reference_cpu = cpu_secs;
        }
        let cpu_ratio = match (reference_cpu, cpu_secs) {
            (Some(r), Some(c)) => format!("{:.2}x", r / c),
            _ => "-".to_owned(),
        };
        rows.push(vec![
            cfg.name.to_owned(),
            fmt_duration(best),
            format!("{solves_per_sec:.1}"),
            format!("{:.2}x", base / secs),
            cpu_ratio,
        ]);
        measured.push((cfg, secs, solves_per_sec, cpu_secs));
    }
    print_table(
        &[
            "config",
            "wall time",
            "solves/sec",
            "speedup vs reference@1",
            "on-cpu speedup",
        ],
        &rows,
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"hw_threads\": {},\n",
        fastbuf_bench::hw_threads()
    ));
    json.push_str(&format!("  \"nets\": {},\n", nets.len()));
    json.push_str(&format!("  \"largest_sites\": {largest},\n"));
    json.push_str(&format!("  \"total_sites\": {total_sites},\n"));
    json.push_str(&format!("  \"library\": {},\n", opts.lib));
    json.push_str(&format!("  \"algorithm\": \"{}\",\n", opts.algo));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!("  \"repeats\": {},\n", opts.repeats));
    json.push_str("  \"runs\": [\n");
    for (k, (cfg, secs, sps, cpu)) in measured.iter().enumerate() {
        let cpu_fields = match (measured[0].3, cpu) {
            (Some(ref_cpu), Some(cpu)) => format!(
                ", \"cpu_secs\": {:.6}, \"cpu_speedup_vs_reference\": {:.3}",
                cpu,
                ref_cpu / cpu
            ),
            _ => String::new(),
        };
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"intra_net_workers\": {}, \"tracked\": {}, \
             \"secs\": {:.6}, \"solves_per_sec\": {:.2}, \"speedup_vs_reference\": {:.3}{}}}{}\n",
            cfg.name,
            cfg.workers,
            cfg.tracked,
            secs,
            sps,
            measured[0].1 / secs,
            cpu_fields,
            if k + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("warning: cannot write {}: {e}", opts.out);
    } else {
        println!("\nrecorded to {}", opts.out);
    }
}
