//! Differential proof of the slab kernel's headline guarantee: **the
//! struct-of-arrays candidate kernel is bit-identical to the reference
//! `Vec<Candidate>` kernel** — same slack bits, same placements, same
//! root slew, same slew verdict — across netgen nets × all algorithms ×
//! slew on/off × intra-net worker counts, and across ECO edit scripts
//! where every cached re-solve is compared under both kernels.
//!
//! Bit-identity (`f64::to_bits`, not approximate equality) is the
//! contract that lets `BENCH_kernel.json` claim a kernel speedup rather
//! than a different algorithm: both layouts must run the same floating-
//! point program in the same order. The same contract extends to the
//! intra-net parallel mode: sibling subtrees are joined in tree order,
//! never completion order, so `slab@4` equals `slab@1` equals
//! `reference@1` to the last bit.

use proptest::prelude::*;

use fastbuf::incremental::{EditScriptSpec, IncrementalSolver};
use fastbuf::prelude::*;

fn net(sinks: usize, seed: u64, pitch: f64) -> fastbuf::rctree::RoutingTree {
    fastbuf::netgen::RandomNetSpec {
        sinks,
        seed,
        die: Microns::new(1500.0 + 50.0 * sinks as f64),
        site_pitch: Some(Microns::new(pitch)),
        ..fastbuf::netgen::RandomNetSpec::default()
    }
    .build()
}

fn assert_identical(slab: &Solution, reference: &Solution, context: &dyn std::fmt::Display) {
    assert_eq!(
        slab.slack.value().to_bits(),
        reference.slack.value().to_bits(),
        "slack diverged {context}: slab {} vs reference {}",
        slab.slack,
        reference.slack
    );
    assert_eq!(
        slab.root_q.value().to_bits(),
        reference.root_q.value().to_bits(),
        "root Q diverged {context}"
    );
    assert_eq!(
        slab.root_load.value().to_bits(),
        reference.root_load.value().to_bits(),
        "root load diverged {context}"
    );
    assert_eq!(
        slab.root_slew.value().to_bits(),
        reference.root_slew.value().to_bits(),
        "root slew diverged {context}"
    );
    assert_eq!(
        slab.placements, reference.placements,
        "placements diverged {context}"
    );
    assert_eq!(
        slab.slew_ok, reference.slew_ok,
        "slew verdict diverged {context}"
    );
}

fn options(
    algo: Algorithm,
    slew: Option<Seconds>,
    kernel: Kernel,
    workers: usize,
) -> SolverOptions {
    let mut options = SolverOptions::default();
    options.algorithm = algo;
    options.slew_limit = slew;
    options.kernel = kernel;
    options.intra_net_workers = workers;
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property: one random net and configuration, the
    /// reference kernel as the oracle, and the slab kernel at 1, 2, and 4
    /// intra-net workers all bit-identical to it. Library size, algorithm
    /// and slew mode are part of the sampled space; predecessor tracking
    /// is on so placements are compared too.
    #[test]
    fn slab_kernel_is_bit_identical_to_reference(
        sinks in 2usize..40,
        net_seed in 0u64..500,
        pitch in 120.0f64..450.0,
        lib_b in 1usize..12,
        algo_idx in 0usize..3,
        slew_sel in 0u32..2,
    ) {
        let tree = net(sinks, net_seed, pitch);
        let lib = BufferLibrary::paper_synthetic(lib_b).expect("b > 0");
        let algo = Algorithm::ALL[algo_idx];
        let slew = (slew_sel == 1).then(|| Seconds::from_pico(320.0));

        let reference = Solver::new(&tree, &lib)
            .with_options(options(algo, slew, Kernel::Reference, 1))
            .solve();
        for workers in [1usize, 2, 4] {
            let slab = Solver::new(&tree, &lib)
                .with_options(options(algo, slew, Kernel::Slab, workers))
                .solve();
            assert_identical(
                &slab,
                &reference,
                &format!("(slab@{workers}, {algo}, slew {slew:?})"),
            );
        }
    }

    /// ECO scripts under both kernels: two incremental solvers replay the
    /// same random edit script, one per kernel, and every cached re-solve
    /// must agree bit-for-bit (the slab also re-solves with 2 intra-net
    /// workers requested — a no-op for cached solves, which must not
    /// change the bits either).
    #[test]
    fn cached_re_solves_agree_across_kernels(
        sinks in 2usize..24,
        net_seed in 0u64..300,
        edits in 1usize..31,
        script_seed in 0u64..1000,
        algo_idx in 0usize..3,
        slew_sel in 0u32..2,
    ) {
        let tree = net(sinks, net_seed, 220.0);
        let lib = BufferLibrary::paper_synthetic(8).expect("b > 0");
        let algo = Algorithm::ALL[algo_idx];
        let slew = (slew_sel == 1).then(|| Seconds::from_pico(320.0));

        let mut on_reference = IncrementalSolver::new(tree.clone(), lib.clone())
            .with_options(options(algo, slew, Kernel::Reference, 1));
        let mut on_slab = IncrementalSolver::new(tree, lib)
            .with_options(options(algo, slew, Kernel::Slab, 2));
        assert_identical(&on_slab.solve(), &on_reference.solve(), &"cold solve");

        let script = EditScriptSpec {
            edits,
            locality: 0.3,
            seed: script_seed,
            swap_library_every: 11,
        }
        .generate(on_reference.tree());
        for (k, edit) in script.iter().enumerate() {
            on_reference.apply(edit).expect("generated edits are valid");
            on_slab.apply(edit).expect("generated edits are valid");
            assert_identical(
                &on_slab.solve(),
                &on_reference.solve(),
                &format!("after edit {k} (`{edit}`)"),
            );
        }
    }
}

/// `net` with every buffer site restricted to a pseudo-random, nonempty
/// subset of the library's types (`SiteConstraint::Subset`).
fn with_subset_sites(
    mut tree: fastbuf::rctree::RoutingTree,
    lib_b: usize,
    seed: u64,
) -> fastbuf::rctree::RoutingTree {
    use fastbuf::buflib::{BufferSet, BufferTypeId};
    use std::sync::Arc;
    let sites: Vec<NodeId> = tree
        .postorder()
        .iter()
        .copied()
        .filter(|&n| tree.is_buffer_site(n))
        .collect();
    let mut state = seed | 1;
    for node in sites {
        let mut allowed = BufferSet::empty(lib_b);
        for ty in 0..lib_b {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !(state >> 33).is_multiple_of(3) {
                allowed.insert(BufferTypeId::new(ty));
            }
        }
        // Keep one type so every site stays a site.
        allowed.insert(BufferTypeId::new(node.index() % lib_b));
        tree.set_site_constraint(node, SiteConstraint::Subset(Arc::new(allowed)))
            .expect("buffer sites are internal nodes");
    }
    tree
}

/// The paper library with a load limit on every `stride`-th type, so those
/// types take the walk's exact-scan fallback and may emit no β at all.
fn load_limited_library(b: usize, stride: usize, limit_ff: f64) -> BufferLibrary {
    let base = BufferLibrary::paper_synthetic(b).expect("b > 0");
    BufferLibrary::new(
        base.iter()
            .map(|(id, ty)| {
                if id.index() % stride == 0 {
                    ty.clone().with_max_load(Farads::from_femto(limit_ff))
                } else {
                    ty.clone()
                }
            })
            .collect(),
    )
    .expect("valid library")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sites that allow only a subset of the library and types with load
    /// limits make `AddBuffer` skip types, so its β blocks have gaps and
    /// vary in length from site to site. The slab kernel at 1, 2 and 4
    /// intra-net workers must still match the reference bit for bit,
    /// placements included, and record as many predecessor entries, in as
    /// many bytes, at every worker count.
    #[test]
    fn subset_sites_and_load_limits_stay_bit_identical(
        sinks in 2usize..40,
        net_seed in 0u64..500,
        site_seed in 0u64..1000,
        lib_b in 2usize..12,
        stride in 1usize..4,
        limit_ff in 15.0f64..200.0,
        algo_idx in 0usize..3,
        slew_sel in 0u32..2,
    ) {
        let tree = with_subset_sites(net(sinks, net_seed, 180.0), lib_b, site_seed);
        let lib = load_limited_library(lib_b, stride, limit_ff);
        let algo = Algorithm::ALL[algo_idx];
        let slew = (slew_sel == 1).then(|| Seconds::from_pico(320.0));

        let reference = Solver::new(&tree, &lib)
            .with_options(options(algo, slew, Kernel::Reference, 1))
            .solve();
        for workers in [1usize, 2, 4] {
            let slab = Solver::new(&tree, &lib)
                .with_options(options(algo, slew, Kernel::Slab, workers))
                .solve();
            let context = format!("(slab@{workers}, {algo}, slew {slew:?})");
            assert_identical(&slab, &reference, &context);
            prop_assert_eq!(slab.stats.arena_entries, reference.stats.arena_entries);
            prop_assert_eq!(slab.stats.arena_bytes, reference.stats.arena_bytes);
        }
    }
}

/// Deterministic heavy case kept outside proptest so `--nocapture` runs
/// show a stable, quotable count: a 24-net suite × 3 algorithms × slew
/// on/off × slab at {1, 2, 4} workers, every configuration compared
/// bit-for-bit against the reference kernel.
#[test]
fn suite_nets_stay_bit_identical_across_kernels_and_workers() {
    let spec = fastbuf::netgen::SuiteSpec {
        nets: 24,
        max_sinks: 64,
        seed: 41,
        ..fastbuf::netgen::SuiteSpec::default()
    };
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let mut comparisons = 0usize;
    for i in 0..spec.nets {
        let tree = spec.build_net(i);
        for algo in Algorithm::ALL {
            for slew in [None, Some(Seconds::from_pico(350.0))] {
                let reference = Solver::new(&tree, &lib)
                    .with_options(options(algo, slew, Kernel::Reference, 1))
                    .solve();
                for workers in [1usize, 2, 4] {
                    let slab = Solver::new(&tree, &lib)
                        .with_options(options(algo, slew, Kernel::Slab, workers))
                        .solve();
                    assert_identical(
                        &slab,
                        &reference,
                        &format!("net {i} algo {algo} slew {slew:?} slab@{workers}"),
                    );
                    comparisons += 1;
                }
            }
        }
    }
    assert!(
        comparisons >= 400,
        "expected >= 400 differential comparisons, ran {comparisons}"
    );
    println!("ran {comparisons} slab-vs-reference comparisons");
}

/// The paper regime (486 sinks, ≈ 8k buffer positions, b = 64) is the
/// size at which tracked scratch solves collect their predecessor arenas
/// between nodes — and intra-net tasks collect theirs before the join —
/// while the reference kernel never collects. Both must still agree bit
/// for bit, placements included, at 1, 2 and 4 workers, and report the
/// same recorded entries and bytes; `arena_peak_bytes` below
/// `arena_bytes` proves a collection ran. The second case adds
/// `Subset` sites and load-limited types, so β blocks have gaps.
#[test]
fn collected_arenas_stay_bit_identical_on_paper_nets() {
    let b = 64;
    let tree = fastbuf::netgen::RandomNetSpec {
        seed: 1,
        ..fastbuf::netgen::RandomNetSpec::paper(486)
    }
    .with_target_positions(486 * 17)
    .build();
    let cases = [
        (
            "paper",
            tree.clone(),
            BufferLibrary::paper_synthetic(b).expect("b > 0"),
        ),
        (
            "subset + max load",
            with_subset_sites(tree, b, 29),
            load_limited_library(b, 3, 60.0),
        ),
    ];
    for (name, tree, lib) in &cases {
        let reference = Solver::new(tree, lib)
            .with_options(options(Algorithm::LiShi, None, Kernel::Reference, 1))
            .solve();
        assert_eq!(
            reference.stats.arena_peak_bytes, reference.stats.arena_bytes,
            "{name}: the reference kernel never collects"
        );
        for workers in [1usize, 2, 4] {
            let slab = Solver::new(tree, lib)
                .with_options(options(Algorithm::LiShi, None, Kernel::Slab, workers))
                .solve();
            let context = format!("({name}, slab@{workers})");
            assert_identical(&slab, &reference, &context);
            assert_eq!(
                slab.stats.arena_entries, reference.stats.arena_entries,
                "{context}"
            );
            assert_eq!(
                slab.stats.arena_bytes, reference.stats.arena_bytes,
                "{context}"
            );
            assert!(
                slab.stats.arena_peak_bytes < slab.stats.arena_bytes,
                "{context}: peak {} of {} recorded bytes — no collection ran",
                slab.stats.arena_peak_bytes,
                slab.stats.arena_bytes
            );
        }
    }
}
