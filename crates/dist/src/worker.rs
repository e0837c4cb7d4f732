//! The pool worker: the body of one persistent **pool** thread that parks
//! between tasks and drives one rank's stepper per task — the threaded
//! driver of [`crate::step`]'s step machine. Ordering between ranks is
//! enforced purely by the bounded channels: there is no global barrier.

use crate::service::SchedEvent;
use crate::step::{RankExit, RankStepper};
use abft_num::Real;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};

/// One rank's share of one job (or of one of its recovery rounds),
/// dispatched to a pool worker.
pub(crate) struct RankTask<T: Real> {
    /// The job this rank belongs to (echoed back so the concurrent
    /// scheduler can route the completion to the right in-flight job).
    pub(crate) job: u64,
    /// The pool slot the scheduler dispatched this task to (echoed back
    /// so the slot returns to the free list the moment the worker parks).
    pub(crate) slot: usize,
    pub(crate) stepper: RankStepper<T>,
}

/// What a pool worker hands back per task: the stepper and how its round
/// ended (its rank and ports are reusable after `Ok`; after an early exit
/// the rank is returned for rollback with its ports hung up), or the
/// message of a panic that dropped everything.
pub(crate) struct TaskDone<T: Real> {
    pub(crate) job: u64,
    pub(crate) slot: usize,
    /// Rank index within the job.
    pub(crate) idx: usize,
    pub(crate) result: Result<(RankStepper<T>, Result<(), RankExit>), String>,
}

/// Render a caught panic payload (the `&str`/`String` forms `panic!`
/// produces) for a structured [`crate::DistError::RankPanicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// The body of one long-lived pool thread: park on the task channel
/// between tasks, run one rank per task, and contain any panic so a
/// poisoned *job* never becomes a poisoned *pool* — the loop survives
/// and the next `recv` parks it for the next task. Completions ride the
/// scheduler's unified event channel, interleaved with submissions from
/// whichever jobs are running concurrently.
pub(crate) fn pool_worker<T: Real>(tasks: Receiver<RankTask<T>>, events: Sender<SchedEvent<T>>) {
    while let Ok(RankTask {
        job,
        slot,
        mut stepper,
    }) = tasks.recv()
    {
        let idx = stepper.idx;
        let result = match catch_unwind(AssertUnwindSafe(|| stepper.run())) {
            Ok(exit) => {
                if exit.is_err() {
                    stepper.hang_up();
                }
                Ok((stepper, exit))
            }
            Err(payload) => {
                // Drop the rank and its ports: hung-up channels unblock
                // (and fail) every neighbour still waiting on this rank.
                drop(stepper);
                Err(panic_message(payload))
            }
        };
        let done = TaskDone {
            job,
            slot,
            idx,
            result,
        };
        if events.send(SchedEvent::Done(done)).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{HaloMsg, TopologyCache};
    use crate::step::{common_epoch, Job};
    use crate::JobSpec;
    use abft_checkpoint::CheckpointPolicy;
    use abft_core::AbftConfig;
    use abft_fault::{BitFlip, RankKill};
    use abft_grid::Grid3D;
    use abft_stencil::Stencil3D;
    use std::sync::mpsc::{channel, sync_channel};

    /// A single-rank job over a 6×6×4 clamped domain with a seven-point
    /// kernel.
    fn one_rank_spec(iters: usize) -> JobSpec<f64> {
        JobSpec::over(
            Grid3D::from_fn(6, 6, 4, |x, y, z| (x * 3 + y + z * 5) as f64),
            Stencil3D::seven_point(0.4f64, 0.1, 0.1, 0.1),
        )
        .with_iters(iters)
    }

    /// The job's only stepper, over a fresh topology.
    fn one_stepper(spec: &JobSpec<f64>) -> RankStepper<f64> {
        let (_, mut steppers) = Job::build(spec, &mut TopologyCache::new()).unwrap();
        steppers.remove(0)
    }

    fn one_rank_task(iters: usize) -> RankTask<f64> {
        RankTask {
            job: 1,
            slot: 0,
            stepper: one_stepper(&one_rank_spec(iters)),
        }
    }

    fn flip(iteration: usize, x: usize, y: usize, bit: u32) -> BitFlip {
        BitFlip {
            iteration,
            x,
            y,
            z: 1,
            bit,
        }
    }

    /// Unwrap the `Done` event a pool worker sends (the only variant a
    /// worker ever produces).
    fn done_event(event: SchedEvent<f64>) -> TaskDone<f64> {
        match event {
            SchedEvent::Done(done) => done,
            _ => panic!("pool workers only send Done events"),
        }
    }

    /// The pool invariant: a panicking job fails *that task* but the
    /// worker thread survives, parks, and serves the next job normally.
    #[test]
    fn pool_worker_contains_a_panic_and_serves_the_next_job() {
        let (task_tx, task_rx) = channel();
        let (done_tx, done_rx) = channel();
        let worker = std::thread::spawn(move || pool_worker::<f64>(task_rx, done_tx));

        // Poison the first task: a flip with an impossible bit position
        // blows the hook constructor's assert mid-job, inside the worker
        // thread.
        let mut poisoned = one_rank_task(3);
        poisoned.stepper.flips.push(flip(1, 0, 0, 64));
        poisoned.job = 9;
        poisoned.slot = 5;
        task_tx.send(poisoned).unwrap();
        let done = done_event(done_rx.recv().unwrap());
        assert_eq!((done.job, done.slot, done.idx), (9, 5, 0));
        let message = match done.result {
            Err(message) => message,
            Ok(_) => panic!("poisoned task must panic"),
        };
        assert!(
            message.contains("out of range"),
            "unexpected panic message: {message}"
        );

        // The same worker must still be alive for a clean task.
        task_tx.send(one_rank_task(3)).unwrap();
        let done = done_event(done_rx.recv().unwrap());
        assert_eq!((done.job, done.slot, done.idx), (1, 0, 0));
        assert!(
            matches!(done.result, Ok((_, Ok(())))),
            "pool worker was poisoned by the panic"
        );

        drop(task_tx);
        worker.join().expect("worker thread exits cleanly");
    }

    /// A dead producer channel is no longer a panic: the worker reports a
    /// clean recoverable abort carrying the iteration it died at, and the
    /// rank still holds its last committed state.
    #[test]
    fn dead_producer_aborts_cleanly_as_peer_lost() {
        let (task_tx, task_rx) = channel();
        let (done_tx, done_rx) = channel();
        let worker = std::thread::spawn(move || pool_worker::<f64>(task_rx, done_tx));

        let mut task = one_rank_task(3);
        let (dead_tx, dead_rx) = sync_channel::<HaloMsg<f64>>(2);
        drop(dead_tx);
        task.stepper.ports.recvs.push((dead_rx, Vec::new()));
        task_tx.send(task).unwrap();
        let done = done_event(done_rx.recv().unwrap());
        match done.result {
            Ok((stepper, exit)) => {
                assert_eq!(exit, Err(RankExit::PeerLost { iter: 0 }));
                assert_eq!(stepper.sim.iteration(), 0, "aborted step must not commit");
                assert!(stepper.ports.recvs.is_empty(), "worker must hang up");
            }
            Err(message) => panic!("dead producer must abort, not panic: {message}"),
        }

        drop(task_tx);
        worker.join().expect("worker thread exits cleanly");
    }

    /// A kill plan fires at the start of its iteration: the rank exits
    /// with `Killed` having committed exactly `iter` steps, and its own
    /// ring holds every due epoch (including 0).
    #[test]
    fn kill_plan_fires_at_iteration_start_after_checkpointing() {
        let spec = one_rank_spec(6)
            .with_rank_kill(RankKill::new(0, 4))
            .with_checkpoint(CheckpointPolicy::every(2).with_keep(8));
        let (_, mut steppers) = Job::build(&spec, &mut TopologyCache::new()).unwrap();
        assert_eq!(steppers[0].run(), Err(RankExit::Killed { iter: 4 }));
        assert_eq!(steppers[0].sim.iteration(), 4);
        // epochs 0, 2 and 4: the snapshot at t=4 lands before the kill
        let ring = steppers[0].ring().expect("policy arms a ring");
        assert_eq!(ring.epochs(), vec![0, 2, 4]);
        assert_eq!(common_epoch(&steppers), Some(4));
    }

    /// A rank's replay bound is its stepper's `t` — the first iteration
    /// it has not durably executed — whichever way its round ended.
    #[test]
    fn rank_exit_progress_bounds() {
        let mut done = one_stepper(&one_rank_spec(7));
        assert_eq!(done.run(), Ok(()));
        assert_eq!(done.t, 7);

        let mut killed = one_stepper(&one_rank_spec(7).with_rank_kill(RankKill::new(0, 3)));
        assert_eq!(killed.run(), Err(RankExit::Killed { iter: 3 }));
        assert_eq!(killed.t, 3);

        // A dead producer is found in the second half of iteration 0.
        let mut bereaved = one_stepper(&one_rank_spec(7));
        let (dead_tx, dead_rx) = sync_channel::<HaloMsg<f64>>(2);
        drop(dead_tx);
        bereaved.ports.recvs.push((dead_rx, Vec::new()));
        assert_eq!(bereaved.run(), Err(RankExit::PeerLost { iter: 0 }));
        assert_eq!(bereaved.t, 0);

        // A strike at rest on the time-t grid defeats the repair: sweeping
        // the flagged layers again reads the same struck cell. The step
        // commits before the damage is found, so replay starts past it.
        let guarded = one_rank_spec(7)
            .with_abft(AbftConfig::<f64>::paper_defaults())
            .with_checkpoint(CheckpointPolicy::every(2));
        let mut defeated = one_stepper(&guarded);
        for _ in 0..2 {
            defeated.post().unwrap();
            defeated.complete().unwrap();
        }
        let [x, y, z] = [
            2 + defeated.pad.lo[0],
            3 + defeated.pad.lo[1],
            1 + defeated.pad.lo[2],
        ];
        let v = defeated.sim.current().at(x, y, z);
        defeated.sim.current_mut().set(x, y, z, v + 10.0);
        assert_eq!(defeated.run(), Err(RankExit::Uncorrectable { iter: 2 }));
        assert_eq!(defeated.t, 3);
    }

    #[test]
    fn panic_message_renders_both_payload_shapes() {
        let s = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(s), "plain str");
        let owned = catch_unwind(|| panic!("{}", String::from("owned"))).unwrap_err();
        assert_eq!(panic_message(owned), "owned");
    }
}
