//! The bounded admission queue's backpressure contract: under random
//! submit bursts against a capacity-bounded queue, every job either
//! completes exactly once or is rejected synchronously with
//! [`DistError::QueueFull`] — no lost results, no duplicated results,
//! no other failure mode. The service's counters must account for every
//! submission.

use abft_core::AbftConfig;
use abft_dist::{DistError, DistService, JobHandle, JobSpec, ServiceConfig};
use abft_grid::Grid3D;
use abft_stencil::Stencil3D;
use proptest::prelude::*;

fn job(seed: usize, ranks: usize, iters: usize) -> JobSpec<f64> {
    JobSpec::over(
        Grid3D::from_fn(10, 16, 2, |x, y, z| (x * 3 + y * 5 + z * 7 + seed) as f64),
        Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
    )
    .with_ranks(ranks)
    .with_iters(iters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// Random bursts of mixed-size jobs against a small bounded queue:
    /// every `submit` returns either a handle whose `wait` yields a
    /// report, or `QueueFull` — and the completed/rejected counters
    /// partition the burst exactly.
    #[test]
    fn bursts_complete_exactly_once_or_reject_with_queue_full(
        burst in proptest::collection::vec(
            (0usize..2, 1usize..7),   // (rank pick, iters)
            1..25,
        ),
        capacity in 1usize..5,
    ) {
        let service = DistService::<f64>::with_config(
            ServiceConfig::new(2).with_queue_capacity(capacity),
        )
        .unwrap();
        let mut handles: Vec<JobHandle<f64>> = Vec::new();
        let mut rejected = 0u64;
        for (i, &(ranks, iters)) in burst.iter().enumerate() {
            match service.submit(job(i, [1, 2][ranks], iters)) {
                Ok(handle) => handles.push(handle),
                Err(DistError::QueueFull { capacity: c }) => {
                    prop_assert_eq!(c, capacity);
                    rejected += 1;
                }
                Err(other) => prop_assert!(false, "unexpected admission error: {}", other),
            }
        }
        let admitted = handles.len() as u64;
        // Every admitted job yields its report exactly once (the handle
        // type makes a second claim unrepresentable).
        for handle in handles {
            let report = handle.wait();
            prop_assert!(report.is_ok(), "admitted job failed: {:?}", report.err());
        }
        let stats = service.stats();
        prop_assert_eq!(stats.jobs_completed, admitted);
        prop_assert_eq!(stats.jobs_rejected, rejected);
        prop_assert_eq!(stats.jobs_failed, 0);
        prop_assert_eq!(admitted + rejected, burst.len() as u64);
        service.shutdown();
    }

    /// Epoch-batched jobs behave no differently under the concurrent
    /// scheduler: bursts of `steps_per_exchange > 1` jobs, protected or
    /// not, all complete exactly once, each report echoes the epoch
    /// length its job was submitted with, and no clean run raises a
    /// detection.
    #[test]
    fn epoch_batched_jobs_complete_exactly_once_under_concurrent_scheduling(
        burst in proptest::collection::vec(
            (0usize..2, 1usize..7, 2usize..4, any::<bool>()),  // (rank pick, iters, k, protect)
            1..12,
        ),
    ) {
        let service = DistService::<f64>::new(4).unwrap();
        let mut handles: Vec<(usize, JobHandle<f64>)> = Vec::new();
        for (i, &(ranks, iters, k, protect)) in burst.iter().enumerate() {
            let mut spec = job(i, [1, 2][ranks], iters).with_steps_per_exchange(k);
            if protect {
                spec = spec.with_abft(AbftConfig::<f64>::paper_defaults());
            }
            handles.push((k, service.submit_wait(spec).unwrap()));
        }
        for (k, handle) in handles {
            let report = handle.wait();
            prop_assert!(report.is_ok(), "epoch-batched job failed: {:?}", report.err());
            let report = report.unwrap();
            prop_assert_eq!(report.steps_per_exchange, k);
            prop_assert_eq!(report.total_stats().detections, 0);
        }
        let stats = service.stats();
        prop_assert_eq!(stats.jobs_completed, burst.len() as u64);
        prop_assert_eq!(stats.jobs_rejected, 0);
        prop_assert_eq!(stats.jobs_failed, 0);
        service.shutdown();
    }

    /// The lossless variant: `submit_wait` blocks for queue room instead
    /// of rejecting, so the same bursts land every single job.
    #[test]
    fn submit_wait_bursts_are_lossless(
        burst in proptest::collection::vec(1usize..6, 1..15),
        capacity in 1usize..4,
    ) {
        let service = DistService::<f64>::with_config(
            ServiceConfig::new(2).with_queue_capacity(capacity),
        )
        .unwrap();
        let handles: Vec<JobHandle<f64>> = burst
            .iter()
            .enumerate()
            .map(|(i, &iters)| service.submit_wait(job(i, 2, iters)).unwrap())
            .collect();
        for handle in handles {
            prop_assert!(handle.wait().is_ok());
        }
        let stats = service.stats();
        prop_assert_eq!(stats.jobs_completed, burst.len() as u64);
        prop_assert_eq!(stats.jobs_rejected, 0);
        service.shutdown();
    }
}
