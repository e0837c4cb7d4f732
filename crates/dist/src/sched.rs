//! The scheduler's decisions as plain data: the admission queue with its
//! overtake counts, the free pool slots, each running job's ranks and the
//! service counters, with no thread, channel, clock or rank state.
//! [`SchedCore::on`] takes one [`Event`] and returns the [`Action`]s it
//! calls for, in order; the shell in [`crate::service`] runs them and
//! feeds their outcomes back. A decision changes when a job runs, never
//! what it computes.
//!
//! There is one admission rule, [`plan_admissions`], for new and
//! rolled-back jobs alike. A rolled-back job re-enters the queue at the
//! front, behind earlier recoveries only, with its overtake budget spent:
//! it starts first or stops the pass as a barrier, so the slots its job
//! just released cannot be taken from under it.

use crate::step::RankExit;
use crate::DistError;
use std::collections::HashMap;

/// How many times a queued job may be overtaken by later, smaller jobs
/// before it becomes a head-of-line barrier (nothing behind it is
/// admitted until it starts). Bounds the worst-case queue delay of a
/// pool-sized job to `MAX_OVERTAKES` small-job executions plus one
/// pool drain, which is what makes the bounded-skip policy
/// starvation-free.
pub const MAX_OVERTAKES: u32 = 8;

/// Service counters: completed/failed/rejected jobs, topology-cache
/// traffic and the high-water mark of concurrent jobs.
///
/// `topology_hits` counting up while `topology_misses` stays flat is the
/// pool-reuse signal: repeat jobs skip halo-plan and channel construction
/// entirely. `peak_concurrent` above 1 is the slot-allocation signal: the
/// scheduler actually ran jobs side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs that produced a report.
    pub jobs_completed: u64,
    /// Jobs that failed after admission: a failed build, a rank loss
    /// with nothing to roll back to (`RankLost`, `NoCommonEpoch`) or a
    /// rank panic.
    pub jobs_failed: u64,
    /// Jobs bounced at admission with
    /// [`DistError::QueueFull`](crate::DistError::QueueFull).
    pub jobs_rejected: u64,
    /// Jobs that reused a cached channel topology.
    pub topology_hits: u64,
    /// Jobs that had to build their topology.
    pub topology_misses: u64,
    /// Most jobs ever in flight at once (lock-step jobs included).
    pub peak_concurrent: u64,
    /// Simulated ranks lost to kill injections, across all jobs.
    pub rank_losses: u64,
    /// Recovery rounds completed, by pipelined and lock-step jobs alike.
    pub recoveries: u64,
}

/// How one rank's task ended: ran to the end (`Ok(Ok(()))`), stopped
/// early (`Ok(Err(exit))`, for a rollback) or panicked (`Err(message)`).
pub(crate) type RankEnd = Result<Result<(), RankExit>, String>;

/// What the scheduler learns, in the order it learns it.
pub(crate) enum Event {
    /// Job `id` is admitted, needing one pool slot per rank, or none to
    /// run in lock-step on the scheduler thread.
    Submit { id: u64, demand: usize },
    /// The outcome of an [`Action::Build`].
    Built { id: u64, ok: bool },
    /// Rank `idx` of job `id` is home from pool slot `slot`.
    RankDone {
        id: u64,
        slot: usize,
        idx: usize,
        end: RankEnd,
    },
    /// The outcome of an [`Action::RollBack`].
    RolledBack { id: u64, ok: bool },
    /// Shutdown: finish the queue and the running jobs, then exit.
    Drain,
}

/// What the shell must do, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Build job `id` (answer with [`Event::Built`]).
    Build(u64),
    /// Send rank `r` of job `id` to pool slot `slots[r]`.
    Dispatch(u64, Vec<usize>),
    /// Run job `id` to its end in lock-step on the scheduler thread.
    RunLockstep(u64),
    /// Every rank of job `id` is home and some stopped early with these
    /// exits: roll the job back (answer with [`Event::RolledBack`]).
    RollBack(u64, Vec<Result<(), RankExit>>),
    /// Every rank of job `id` ran to the end: gather its report.
    Finish(u64),
    /// Job `id` has left the scheduler: hand out this error, or else the
    /// result its last action decided.
    Publish(u64, Option<DistError>),
    /// Drained: release the pool.
    Exit,
}

/// A dispatched pipelined job, from its first dispatch to its publication.
#[derive(Default)]
struct Running {
    /// Ranks still on a worker.
    remaining: usize,
    /// How each rank's latest task ended.
    exits: Vec<Result<(), RankExit>>,
    /// The lowest panicking rank and its message.
    failure: Option<(usize, String)>,
}

/// The scheduler's state between events.
#[derive(Default)]
pub(crate) struct SchedCore {
    /// Queued job ids, new and rolled back, in admission order.
    queue: Vec<u64>,
    /// Each queued job's `(slot demand, times overtaken)`, as
    /// [`plan_admissions`] reads and bumps them.
    demands: Vec<(usize, u32)>,
    /// Free pool-slot indices (a slot is free again the moment its rank
    /// comes home, not when its whole job finishes).
    free: Vec<usize>,
    /// Picked jobs awaiting their build, with the slots set aside for
    /// them (none for a lock-step job).
    building: HashMap<u64, Vec<usize>>,
    running: HashMap<u64, Running>,
    draining: bool,
    /// The counters. The core counts concurrency; the shell adds what only
    /// it sees: each published job's outcome and recovery ledger, and the
    /// topology cache's traffic.
    pub(crate) stats: ServeStats,
}

impl SchedCore {
    /// A core over a pool of `pool` slots, all free.
    pub(crate) fn new(pool: usize) -> Self {
        let free = (0..pool).collect();
        Self {
            free,
            ..Self::default()
        }
    }

    /// Fold one event in, then run an admission pass.
    pub(crate) fn on(&mut self, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Submit { id, demand } => {
                self.queue.push(id);
                self.demands.push((demand, 0));
            }
            Event::Built { id, ok } => {
                let slots = self.building.remove(&id).expect("built job was picked");
                let lockstep = slots.is_empty();
                if !ok {
                    // None of its ranks will come home to free its slots:
                    // they go back now, to this event's pass.
                    self.free.extend(slots.into_iter().rev());
                    out.push(Action::Publish(id, None));
                } else if lockstep {
                    out.extend([Action::RunLockstep(id), Action::Publish(id, None)]);
                } else {
                    let run = self.running.entry(id).or_default();
                    (run.remaining, run.exits) = (slots.len(), vec![Ok(()); slots.len()]);
                    out.push(Action::Dispatch(id, slots));
                }
                let now = self.running.len() + usize::from(ok && lockstep);
                self.stats.peak_concurrent = self.stats.peak_concurrent.max(now as u64);
            }
            Event::RankDone { id, slot, idx, end } => {
                self.free.push(slot);
                out = self.rank_done(id, idx, end);
            }
            Event::RolledBack { id, ok: true } => {
                let demand = self.running[&id].exits.len();
                // A front entry, behind earlier recoveries only, with its
                // overtake budget spent: it starts first or is a barrier.
                let ahead = self.queue.iter();
                let at = ahead.take_while(|id| self.running.contains_key(id)).count();
                self.queue.insert(at, id);
                self.demands.insert(at, (demand, MAX_OVERTAKES));
            }
            Event::RolledBack { id, ok: false } => {
                self.running.remove(&id);
                out.push(Action::Publish(id, None));
            }
            Event::Drain => self.draining = true,
        }
        self.admit(out)
    }

    /// Fold one rank's end into its job; after the job's last, roll it
    /// back if some rank stopped early, else finish or fail it.
    fn rank_done(&mut self, id: u64, rank: usize, end: RankEnd) -> Vec<Action> {
        // Unreachable (nothing is dispatched before it is built), but the
        // slot is back either way, so even a bug leaks no capacity.
        let Some(run) = self.running.get_mut(&id) else {
            return Vec::new();
        };
        match end {
            Ok(exit) => run.exits[rank] = exit,
            // Keep the lowest panicking rank's message: the cascade's
            // "hung up" echoes from higher ranks are noise.
            Err(message) if run.failure.as_ref().is_none_or(|(r, _)| rank < *r) => {
                run.failure = Some((rank, message));
            }
            Err(_) => {}
        }
        run.remaining -= 1;
        if run.remaining > 0 {
            return Vec::new();
        }
        // A panic is fatal for the job (the panicked rank's state is
        // gone, so there is nothing to roll back); any other early exit
        // starts a recovery round.
        if run.failure.is_none() && run.exits.iter().any(Result::is_err) {
            return vec![Action::RollBack(id, run.exits.clone())];
        }
        match self.running.remove(&id).and_then(|run| run.failure) {
            Some((rank, message)) => {
                let e = DistError::RankPanicked {
                    rank: Some(rank),
                    message,
                };
                vec![Action::Publish(id, Some(e))]
            }
            None => vec![Action::Finish(id), Action::Publish(id, None)],
        }
    }

    /// One admission pass: start every job [`plan_admissions`] picks, in
    /// queue order. A rolled-back job goes straight back onto its slots;
    /// a new one has them set aside while it is built. Ends with
    /// [`Action::Exit`] once a drain has nothing left to wait for.
    fn admit(&mut self, mut out: Vec<Action>) -> Vec<Action> {
        let picks = plan_admissions(&mut self.demands, self.free.len(), MAX_OVERTAKES);
        for (n, i) in picks.into_iter().enumerate() {
            let (id, (demand, _)) = (self.queue.remove(i - n), self.demands.remove(i - n));
            // Rank 0 takes the slot freed last, as a stack pop would.
            let slots = self.free.drain(self.free.len() - demand..).rev().collect();
            if let Some(run) = self.running.get_mut(&id) {
                (run.remaining, run.exits) = (demand, vec![Ok(()); demand]);
                out.push(Action::Dispatch(id, slots));
            } else {
                self.building.insert(id, slots);
                out.push(Action::Build(id));
            }
        }
        let idle = self.queue.is_empty() && self.building.is_empty() && self.running.is_empty();
        out.extend((self.draining && idle).then_some(Action::Exit));
        out
    }
}

/// The bounded-skip admission plan, as a pure function so the starvation
/// properties are unit-testable: given the queued jobs' `(slot demand,
/// times overtaken)` in queue order and the number of free slots,
/// return the indices to start now (ascending).
///
/// A job is admitted when its demand fits what is left after every
/// earlier admission in this pass. Each admission bumps the overtaken
/// count of every still-blocked job ahead of it; scanning **stops** as
/// soon as a blocked job has been overtaken `max` times (the overtake
/// that spends its budget included), making it a head-of-line barrier —
/// later jobs cannot pass it again, slots drain back as running jobs
/// finish, and since admission capped its demand at the pool size it
/// eventually fits. That is the starvation-freedom argument, and
/// `overtaking_stops_at_the_barrier` pins it.
pub(crate) fn plan_admissions(queue: &mut [(usize, u32)], mut free: usize, max: u32) -> Vec<usize> {
    let (mut picks, mut blocked) = (Vec::new(), Vec::<usize>::new());
    for i in 0..queue.len() {
        if blocked.iter().any(|&j| queue[j].1 >= max) {
            break;
        }
        let need = queue[i].0;
        if need > free {
            blocked.push(i);
            continue;
        }
        free -= need;
        picks.push(i);
        for &j in &blocked {
            queue[j].1 += 1;
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    const POOL: usize = 4;

    /// The shell with no threads and no rank state: it runs the core's
    /// actions as bookkeeping and holds each outcome the core waits for
    /// until the script picks it, so any order of outcomes can be tried.
    struct Script {
        core: SchedCore,
        /// Each job's slot demand, by id − 1 (0: lock-step).
        demands: Vec<usize>,
        submitted: usize,
        drained: bool,
        /// Builds and rollbacks asked for and not yet answered.
        builds: Vec<u64>,
        rollbacks: Vec<u64>,
        /// Ranks on a worker: job, slot, rank.
        tasks: Vec<(u64, usize, usize)>,
        /// Rolled-back jobs not yet dispatched again, in rollback order.
        waiting: Vec<u64>,
        /// Recovery rounds per job.
        rounds: HashMap<u64, usize>,
        published: HashSet<u64>,
        exited: bool,
    }

    impl Script {
        fn new(demands: Vec<usize>) -> Self {
            Self {
                core: SchedCore::new(POOL),
                demands,
                submitted: 0,
                drained: false,
                builds: Vec::new(),
                rollbacks: Vec::new(),
                tasks: Vec::new(),
                waiting: Vec::new(),
                rounds: HashMap::new(),
                published: HashSet::new(),
                exited: false,
            }
        }

        /// Feed one event, run its actions and check the invariants.
        fn feed(&mut self, event: Event) -> Result<(), TestCaseError> {
            prop_assert!(!self.exited, "an event after exit");
            for action in self.core.on(event) {
                match action {
                    Action::Build(id) => {
                        let waiting = &self.waiting;
                        prop_assert!(waiting.is_empty(), "{} overtook {:?}", id, waiting);
                        self.builds.push(id);
                    }
                    Action::Dispatch(id, slots) => {
                        if let Some(at) = self.waiting.iter().position(|&w| w == id) {
                            prop_assert_eq!(at, 0, "a recovery overtook an earlier one");
                            self.waiting.remove(0);
                        }
                        prop_assert_eq!(slots.len(), self.demands[id as usize - 1]);
                        for (rank, slot) in slots.into_iter().enumerate() {
                            self.tasks.push((id, slot, rank));
                        }
                    }
                    Action::RollBack(id, exits) => {
                        prop_assert!(exits.iter().any(Result::is_err));
                        self.rollbacks.push(id);
                    }
                    Action::RunLockstep(id) => prop_assert_eq!(self.demands[id as usize - 1], 0),
                    Action::Finish(_) => {}
                    Action::Publish(id, _) => {
                        prop_assert!(self.published.insert(id), "{} published twice", id);
                    }
                    Action::Exit => self.exited = true,
                }
            }
            // Slot conservation: every slot is free, set aside for a build
            // or on a worker, and none is two of these at once.
            let mut slots = self.core.free.clone();
            slots.extend(self.core.building.values().flatten());
            slots.extend(self.tasks.iter().map(|&(_, slot, _)| slot));
            slots.sort_unstable();
            prop_assert_eq!(slots, (0..POOL).collect::<Vec<_>>());
            let overtaken = self.core.demands.iter().map(|&(_, o)| o);
            prop_assert!(overtaken.max().unwrap_or(0) <= MAX_OVERTAKES);
            Ok(())
        }

        /// Feed the event `draw` picks among those that can happen next: a
        /// submission (then, once all are in, a drain), the outcome of a
        /// pending build or rollback, or a rank coming home — clean,
        /// stopped early (twice per job at most, so every script ends) or
        /// panicked.
        fn step(&mut self, draw: usize) -> Result<(), TestCaseError> {
            let more = usize::from(!self.drained);
            let (b, r, t) = (self.builds.len(), self.rollbacks.len(), self.tasks.len());
            let choices = more + b + r + t;
            prop_assert!(choices > 0, "stalled: nothing can happen and no exit");
            let (pick, fate) = (draw % choices, draw / choices % 8);
            if pick < more {
                if self.submitted < self.demands.len() {
                    self.submitted += 1;
                    let demand = self.demands[self.submitted - 1];
                    let id = self.submitted as u64;
                    return self.feed(Event::Submit { id, demand });
                }
                self.drained = true;
                return self.feed(Event::Drain);
            }
            let ok = fate != 0;
            let pick = pick - more;
            if pick < b {
                let id = self.builds.remove(pick);
                return self.feed(Event::Built { id, ok });
            }
            let pick = pick - b;
            if pick < r {
                let id = self.rollbacks.remove(pick);
                *self.rounds.entry(id).or_default() += 1;
                if ok {
                    self.waiting.push(id);
                }
                return self.feed(Event::RolledBack { id, ok });
            }
            let (id, slot, idx) = self.tasks.remove(pick - r);
            let end = match fate {
                0 | 1 if self.rounds.get(&id).copied().unwrap_or(0) < 2 => {
                    Ok(Err(RankExit::Killed { iter: 0 }))
                }
                2 => Err(format!("rank {idx} panicked")),
                _ => Ok(Ok(())),
            };
            self.feed(Event::RankDone { id, slot, idx, end })
        }
    }

    /// A blocked job one overtake short of its budget lets one more job
    /// pass in a pass, not every job that fits: the overtake that spends
    /// the budget makes it a barrier at once.
    #[test]
    fn the_overtake_that_spends_a_budget_ends_the_pass() {
        let mut queue = [(4, MAX_OVERTAKES - 1), (1, 0), (1, 0)];
        assert_eq!(plan_admissions(&mut queue, 2, MAX_OVERTAKES), [1]);
        assert_eq!(queue[0].1, MAX_OVERTAKES);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// Any order of submissions, builds that succeed or fail, ranks
        /// that finish, stop early or panic, rollbacks that succeed or
        /// fail, and a drain: every job is published exactly once, no
        /// slot is lost or handed out twice, no queued job is overtaken
        /// more than `MAX_OVERTAKES` times, no job starts while a
        /// rolled-back one waits, and the core exits with every slot free.
        #[test]
        fn scripted_events_keep_every_scheduling_invariant(
            demands in proptest::collection::vec(0usize..=POOL, 1..24),
            draws in proptest::collection::vec(0usize..1 << 20, 64),
        ) {
            let mut script = Script::new(demands);
            let mut step = 0;
            while !script.exited {
                prop_assert!(step < 100_000, "the script never ended");
                script.step(draws[step % draws.len()] + step / draws.len())?;
                step += 1;
            }
            let all: HashSet<u64> = (1..=script.demands.len() as u64).collect();
            prop_assert_eq!(&script.published, &all);
            prop_assert_eq!(script.core.free.len(), POOL);
            prop_assert!(script.tasks.is_empty() && script.waiting.is_empty());
        }
    }
}
