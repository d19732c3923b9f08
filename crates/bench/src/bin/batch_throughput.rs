//! Batch throughput: nets/sec of `fastbuf-batch` vs worker count.
//!
//! Solves one reproducible heavy-tailed net suite (`netgen::SuiteSpec`)
//! with 1, 2, 4, and 8 workers, prints a table, and records the numbers in
//! `BENCH_batch.json` (written to the current directory) so successive
//! runs can be compared. Speedup is relative to the 1-worker run; on a
//! single-core machine all rows will be ~1×, which the JSON records
//! honestly together with the machine's available parallelism.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin batch_throughput --
//!       [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE]
//!       [--quick]`

use std::time::Duration;

use fastbuf_batch::BatchSolver;
use fastbuf_bench::{fmt_duration, print_table};
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::SuiteSpec;

struct Options {
    nets: usize,
    max_sinks: usize,
    seed: u64,
    repeats: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: batch_throughput [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        nets: 100,
        max_sinks: 128,
        seed: 1,
        repeats: 3,
        out: "BENCH_batch.json".to_owned(),
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
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: run the real pipeline in seconds.
                opts.nets = 16;
                opts.max_sinks = 24;
                opts.repeats = 1;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.repeats == 0 {
        usage("--repeats must be at least 1");
    }
    if opts.nets == 0 {
        usage("--nets must be at least 1");
    }
    if opts.max_sinks < 8 {
        usage("--max-sinks must be at least 8");
    }
    opts
}

fn main() {
    let opts = parse_args();
    let suite = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
        ..SuiteSpec::default()
    };
    let nets = suite.build();
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    let total_sites: usize = nets.iter().map(|t| t.buffer_site_count()).sum();
    let cores = fastbuf_core::available_threads();
    println!(
        "# batch throughput: {} nets, {} total buffer positions, {} hardware threads\n",
        nets.len(),
        total_sites,
        cores
    );

    let worker_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut measured: Vec<(usize, f64, f64)> = Vec::new(); // (workers, secs, nets/sec)
    let mut base_secs = None;
    for &workers in &worker_counts {
        // Fastest of `repeats` runs, like the paper-reproduction harnesses.
        let mut best = Duration::MAX;
        let mut nets_per_sec = 0.0;
        for _ in 0..opts.repeats {
            let report = BatchSolver::new(&nets, &lib)
                .workers(workers)
                .track_predecessors(false)
                .solve();
            if report.elapsed < best {
                best = report.elapsed;
                nets_per_sec = report.nets_per_sec();
            }
        }
        let secs = best.as_secs_f64();
        let base = *base_secs.get_or_insert(secs);
        rows.push(vec![
            workers.to_string(),
            fmt_duration(best),
            format!("{nets_per_sec:.0}"),
            format!("{:.2}x", base / secs),
        ]);
        measured.push((workers, secs, nets_per_sec));
    }
    print_table(&["workers", "wall time", "nets/sec", "speedup vs 1"], &rows);

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"hw_threads\": {},\n",
        fastbuf_bench::hw_threads()
    ));
    json.push_str(&format!("  \"nets\": {},\n", nets.len()));
    json.push_str(&format!("  \"total_sites\": {total_sites},\n"));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!("  \"repeats\": {},\n", opts.repeats));
    json.push_str(&format!("  \"hardware_threads\": {cores},\n"));
    json.push_str("  \"runs\": [\n");
    for (k, (workers, secs, nps)) in measured.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"secs\": {:.6}, \"nets_per_sec\": {:.2}, \"speedup\": {:.3}}}{}\n",
            workers,
            secs,
            nps,
            measured[0].1 / secs,
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
