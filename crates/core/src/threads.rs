//! The machine's thread count, read once per process.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Threads this process may run in parallel
/// ([`std::thread::available_parallelism`], or 1 when the OS cannot say),
/// read once per process and cached: each query of the OS reads cgroup
/// files, which costs about a fifth of a small solve. Every default worker
/// count in the workspace (request fan-out, batch and design passes, the
/// server pool, benchmark stamps) comes from here.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive_and_stable() {
        let first = available_threads();
        assert!(first >= 1);
        for _ in 0..4 {
            assert_eq!(available_threads(), first);
        }
        let from_threads: Vec<usize> = (0..2)
            .map(|_| std::thread::spawn(available_threads))
            .map(|h| h.join().expect("thread ran"))
            .collect();
        assert_eq!(from_threads, [first, first]);
    }
}
