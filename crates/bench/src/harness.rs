//! The measurement loop behind `bench_poa`.
//!
//! The offline build has no crates.io, so cases run on this hand-rolled
//! driver with a deliberately simple loop: warm up, pick an iteration
//! count targeting ~10 ms per sample, take the requested number of
//! samples and keep them sorted so callers can read the median and
//! tail quantiles. Good enough for the order-of-magnitude comparisons
//! the evaluation needs (the calibrated Raspberry Pi 3 numbers come
//! from the cost model, not wall time).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The per-case measurement driver.
pub struct Bencher {
    samples: usize,
    /// Every measured sample (ns/iter), sorted ascending after a run —
    /// retained so callers can read tail quantiles, not just the median.
    samples_ns: Vec<f64>,
}

/// Target wall time per measured sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

impl Bencher {
    /// A driver taking `samples` measurements (at least one) per run.
    pub fn with_samples(samples: usize) -> Bencher {
        Bencher {
            samples: samples.max(1),
            samples_ns: Vec::new(),
        }
    }

    /// Times `routine`, called repeatedly.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up and calibration: how many iterations fill the target?
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.commit(samples_ns);
    }

    /// Times `routine` once per sample over an input built by `setup`.
    /// Only the routine is timed: the clock stops when it returns, and
    /// its output and the input it borrowed are dropped after that.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(&mut I) -> O,
    ) {
        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let mut input = setup();
            let t0 = Instant::now();
            let output = black_box(routine(&mut input));
            samples_ns.push(t0.elapsed().as_nanos() as f64);
            drop((output, input));
        }
        self.commit(samples_ns);
    }

    fn commit(&mut self, mut samples_ns: Vec<f64>) {
        samples_ns.sort_by(f64::total_cmp);
        self.samples_ns = samples_ns;
    }

    /// Number of samples taken by the last run (0 before any run).
    pub fn sample_count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Median nanoseconds per iteration from the last run.
    pub fn median_ns(&self) -> f64 {
        self.quantile_ns(0.5)
    }

    /// The `q`-quantile (nearest-rank, `0.0..=1.0`) of the last run's
    /// per-iteration nanoseconds. Returns 0.0 before any run.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.samples_ns.len() - 1) as f64).ceil() as usize;
        self.samples_ns[rank.min(self.samples_ns.len() - 1)]
    }

    /// 95th-percentile nanoseconds per iteration from the last run.
    pub fn p95_ns(&self) -> f64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile nanoseconds per iteration from the last run.
    pub fn p99_ns(&self) -> f64 {
        self.quantile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something_positive() {
        let mut b = Bencher::with_samples(3);
        b.iter(|| {
            let mut x = 0u64;
            for i in 0..100 {
                x = x.wrapping_add(black_box(i));
            }
            x
        });
        assert!(b.median_ns() > 0.0);
    }

    /// Sleeps for 20 ms when dropped.
    struct SlowDrop;

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn iter_batched_times_routine_only() {
        let mut b = Bencher::with_samples(3);
        // Setup, the input's drop and the output's drop each take 20 ms;
        // none of them is the routine.
        b.iter_batched(
            || {
                std::thread::sleep(Duration::from_millis(20));
                SlowDrop
            },
            |_input| SlowDrop,
        );
        assert!(b.median_ns() > 0.0);
        assert!(
            b.median_ns() < 20e6,
            "median {} ns includes a drop",
            b.median_ns()
        );
    }

    #[test]
    fn quantiles_track_the_retained_sample_set() {
        let mut b = Bencher::with_samples(5);
        b.iter_batched(|| (), |_| black_box(1 + 1));
        assert_eq!(b.sample_count(), 5);
        assert!(b.median_ns() > 0.0);
        // Quantiles are read off the sorted sample vector, so they are
        // monotone and bracketed by min/max.
        assert!(b.quantile_ns(0.0) <= b.median_ns());
        assert!(b.median_ns() <= b.p95_ns());
        assert!(b.p95_ns() <= b.p99_ns());
        assert!(b.p99_ns() <= b.quantile_ns(1.0));
    }

    #[test]
    fn quantiles_before_any_run_are_zero() {
        let b = Bencher::with_samples(3);
        assert_eq!(b.sample_count(), 0);
        assert_eq!(b.quantile_ns(0.5), 0.0);
    }
}
