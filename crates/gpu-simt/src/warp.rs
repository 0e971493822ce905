//! Warp and thread execution state.
//!
//! A [`Warp`] bundles up to 32 (configurable) thread slots that execute in
//! lockstep, the transactional SIMT stack, the warp's logical timestamp
//! (`warpts`, used by GETM), and its backoff state. The cycle-level engine
//! in the `gputm` facade drives these structures; this module owns the
//! invariants of the per-thread state machine.

use crate::backoff::Backoff;
use crate::log::TxLogs;
use crate::program::{BoxedProgram, Op, OpResult};
use crate::stack::{full_mask, lanes_of, LaneMask, TxStack};
use sim_core::Cycle;

/// The execution status of one thread slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// May fetch and issue its next op.
    Ready,
    /// Waiting for a memory or protocol response.
    Blocked,
    /// Reached `TxCommit`; waits for the rest of the warp.
    AtCommit,
    /// Aborted; waits for the warp commit point, then retries.
    Aborted,
    /// The program returned [`Op::Done`].
    Finished,
}

/// One thread slot of a warp.
pub struct ThreadSlot {
    program: BoxedProgram,
    /// Current status; written only through [`Warp::set_lane_status`], which
    /// keeps the warp's lane-status masks in step.
    status: ThreadStatus,
    /// Result to feed the program on its next fetch.
    pub pending_result: OpResult,
    /// An op that was fetched but could not issue yet (kept until issued).
    pub staged_op: Option<Op>,
    /// The thread's transaction logs.
    pub logs: TxLogs,
    /// Whether the thread is inside a transaction.
    pub in_tx: bool,
    /// Committed transactions executed by this thread.
    pub commits: u64,
    /// Aborts suffered by this thread.
    pub aborts: u64,
}

impl std::fmt::Debug for ThreadSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadSlot")
            .field("status", &self.status)
            .field("in_tx", &self.in_tx)
            .field("staged_op", &self.staged_op)
            .finish()
    }
}

impl ThreadSlot {
    /// Wraps a program in a fresh slot.
    pub fn new(program: BoxedProgram) -> Self {
        ThreadSlot {
            program,
            status: ThreadStatus::Ready,
            pending_result: OpResult::None,
            staged_op: None,
            logs: TxLogs::new(),
            in_tx: false,
            commits: 0,
            aborts: 0,
        }
    }

    /// Current status.
    pub fn status(&self) -> ThreadStatus {
        self.status
    }

    /// Fetches the thread's next op, consuming the pending result. If an op
    /// is already staged (fetched but not yet issued), returns it instead.
    pub fn fetch_op(&mut self) -> Op {
        if let Some(op) = self.staged_op {
            return op;
        }
        let prev = std::mem::replace(&mut self.pending_result, OpResult::None);
        let op = self.program.next(prev);
        self.staged_op = Some(op);
        op
    }

    /// Marks the staged op as issued.
    pub fn consume_op(&mut self) {
        self.staged_op = None;
    }

    /// Rewinds the program to the transaction start and clears speculative
    /// state (logs, staged op) for a retry.
    pub fn rollback(&mut self) {
        self.program.rollback();
        self.logs.clear();
        self.staged_op = None;
        self.pending_result = OpResult::None;
    }
}

/// Warp-level status, derived from thread states plus timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStatus {
    /// At least one thread can issue.
    Ready,
    /// Every unfinished thread is blocked / at commit / aborted, or the
    /// warp is sleeping until a future cycle.
    Stalled,
    /// All threads finished.
    Finished,
}

/// A warp: lockstep threads plus transactional state.
///
/// Besides the thread slots, a warp keeps two lane-status summaries, the
/// masks of lanes that are [`ThreadStatus::Ready`] and
/// [`ThreadStatus::Finished`]. Every status write goes through
/// [`Warp::set_lane_status`], so readiness and completion are single mask
/// tests instead of scans over the slots, and the engine walks only the
/// ready lanes, in ascending lane order.
pub struct Warp {
    /// Thread slots (index = lane). A slot's status is set only through
    /// [`Warp::set_lane_status`].
    pub threads: Vec<ThreadSlot>,
    /// Lanes whose status is `Ready`.
    ready: LaneMask,
    /// Lanes whose status is `Finished`.
    finished: LaneMask,
    /// Every lane of the warp.
    full: LaneMask,
    /// The transactional SIMT stack.
    pub tx_stack: TxStack,
    /// GETM logical timestamp for this warp's transactions.
    pub warpts: u64,
    /// Backoff state for aborted transactions.
    pub backoff: Backoff,
    /// The warp may not issue before this cycle (compute latency, backoff).
    pub sleep_until: Cycle,
    /// Outstanding memory/protocol responses the warp is waiting for.
    pub outstanding: u32,
    /// Highest conflicting timestamp reported by aborts in the current
    /// round (GETM advances `warpts` past it on restart).
    pub abort_cause_ts: u64,
    /// Cycle at which the current transaction round began (stats).
    pub tx_round_started: Cycle,
    /// Whether this warp currently holds a slot in the core's transactional
    /// concurrency throttle.
    pub holds_tx_token: bool,
}

impl std::fmt::Debug for Warp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("threads", &self.threads.len())
            .field("warpts", &self.warpts)
            .field("outstanding", &self.outstanding)
            .field("tx_open", &self.tx_stack.is_open())
            .finish()
    }
}

impl Warp {
    /// Builds a warp from per-lane programs.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or wider than 64 lanes.
    pub fn new(programs: Vec<BoxedProgram>) -> Self {
        assert!(
            !programs.is_empty() && programs.len() <= 64,
            "a warp has 1..=64 lanes"
        );
        let full = full_mask(programs.len() as u32);
        Warp {
            threads: programs.into_iter().map(ThreadSlot::new).collect(),
            ready: full,
            finished: 0,
            full,
            tx_stack: TxStack::new(),
            warpts: 0,
            backoff: Backoff::paper_default(),
            sleep_until: Cycle::ZERO,
            outstanding: 0,
            abort_cause_ts: 0,
            tx_round_started: Cycle::ZERO,
            holds_tx_token: false,
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.threads.len()
    }

    /// Sets lane `lane`'s status, keeping the lane-status masks in step.
    pub fn set_lane_status(&mut self, lane: u32, status: ThreadStatus) {
        self.threads[lane as usize].status = status;
        let bit = 1u64 << lane;
        self.ready &= !bit;
        self.finished &= !bit;
        match status {
            ThreadStatus::Ready => self.ready |= bit,
            ThreadStatus::Finished => self.finished |= bit,
            _ => {}
        }
    }

    /// The mask of lanes whose status is `status`, by scanning the slots.
    fn scan_mask(&self, status: ThreadStatus) -> LaneMask {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == status)
            .fold(0, |m, (l, _)| m | 1 << l)
    }

    /// The mask of lanes in [`ThreadStatus::Ready`].
    fn ready_mask(&self) -> LaneMask {
        debug_assert_eq!(self.ready, self.scan_mask(ThreadStatus::Ready));
        self.ready
    }

    /// Whether every thread has finished.
    pub fn all_finished(&self) -> bool {
        debug_assert_eq!(self.finished, self.scan_mask(ThreadStatus::Finished));
        self.finished == self.full
    }

    /// Whether any thread is in [`ThreadStatus::Ready`].
    pub fn any_ready(&self) -> bool {
        self.ready_mask() != 0
    }

    /// The warp status at cycle `now`.
    ///
    /// A warp with outstanding memory responses can still issue for its
    /// *ready* lanes — divergent lanes on the other side of a branch (or a
    /// spin loop) proceed independently, exactly as the SIMT divergence
    /// stack allows. Only sleep (compute/backoff) and having no ready lane
    /// stall the whole warp.
    pub fn status(&self, now: Cycle) -> WarpStatus {
        if self.all_finished() {
            WarpStatus::Finished
        } else if now < self.sleep_until || !self.any_ready() {
            WarpStatus::Stalled
        } else {
            WarpStatus::Ready
        }
    }

    /// Whether the warp has an open transaction region.
    pub fn in_tx(&self) -> bool {
        self.tx_stack.is_open()
    }

    /// If the warp is asleep at `now` (compute latency or backoff), the
    /// cycle it wakes at. `None` for an awake warp. The engine's idle
    /// skip-ahead uses this as a hop bound: nothing about a sleeping warp
    /// changes before `sleep_until`, so cycles up to (exclusive) that point
    /// can be elided wholesale.
    pub fn sleeping_until(&self, now: Cycle) -> Option<Cycle> {
        (now < self.sleep_until).then_some(self.sleep_until)
    }

    /// Lanes that are currently `Ready`, in ascending order.
    pub fn ready_lanes(&self) -> impl Iterator<Item = u32> {
        lanes_of(self.ready_mask())
    }

    /// Total commits across lanes.
    pub fn total_commits(&self) -> u64 {
        self.threads.iter().map(|t| t.commits).sum()
    }

    /// Total aborts across lanes.
    pub fn total_aborts(&self) -> u64 {
        self.threads.iter().map(|t| t.aborts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use gpu_mem::Addr;
    use proptest::prelude::*;

    fn warp_of(scripts: Vec<Vec<Op>>) -> Warp {
        Warp::new(
            scripts
                .into_iter()
                .map(|ops| Box::new(ScriptProgram::new(ops)) as BoxedProgram)
                .collect(),
        )
    }

    #[test]
    fn fetch_and_consume() {
        let mut w = warp_of(vec![vec![Op::Compute(2), Op::Load(Addr(8))]]);
        let t = &mut w.threads[0];
        assert_eq!(t.fetch_op(), Op::Compute(2));
        // Fetch again without consuming: same staged op.
        assert_eq!(t.fetch_op(), Op::Compute(2));
        t.consume_op();
        assert_eq!(t.fetch_op(), Op::Load(Addr(8)));
    }

    #[test]
    fn status_transitions() {
        let mut w = warp_of(vec![vec![Op::Compute(1)]]);
        assert_eq!(w.status(Cycle(0)), WarpStatus::Ready);
        w.sleep_until = Cycle(10);
        assert_eq!(w.status(Cycle(5)), WarpStatus::Stalled);
        assert_eq!(w.status(Cycle(10)), WarpStatus::Ready);
        // Outstanding responses do not stall ready lanes (divergence).
        w.outstanding = 1;
        assert_eq!(w.status(Cycle(10)), WarpStatus::Ready);
        w.outstanding = 0;
        w.set_lane_status(0, ThreadStatus::Blocked);
        assert_eq!(w.status(Cycle(10)), WarpStatus::Stalled);
        w.set_lane_status(0, ThreadStatus::Finished);
        assert_eq!(w.status(Cycle(10)), WarpStatus::Finished);
        assert!(w.all_finished());
    }

    #[test]
    fn ready_lanes_lists_indices() {
        let mut w = warp_of(vec![vec![Op::Done], vec![Op::Done], vec![Op::Done]]);
        w.set_lane_status(1, ThreadStatus::Blocked);
        assert_eq!(w.ready_lanes().collect::<Vec<_>>(), vec![0, 2]);
        w.set_lane_status(1, ThreadStatus::Ready);
        w.set_lane_status(0, ThreadStatus::Finished);
        assert_eq!(w.ready_lanes().collect::<Vec<_>>(), vec![1, 2]);
    }

    const STATUSES: [ThreadStatus; 5] = [
        ThreadStatus::Ready,
        ThreadStatus::Blocked,
        ThreadStatus::AtCommit,
        ThreadStatus::Aborted,
        ThreadStatus::Finished,
    ];

    proptest! {
        /// The lane-status masks agree with a scan of the slots after any
        /// sequence of writes, including at the full 64-lane width where a
        /// shift by the width would overflow.
        #[test]
        fn status_masks_match_lane_scan(
            width_pick in 0usize..3,
            writes in proptest::collection::vec((0u32..64, 0usize..5), 0..200),
        ) {
            let width = [1usize, 32, 64][width_pick];
            let mut w = warp_of(vec![vec![Op::Done]; width]);
            for (lane, s) in writes {
                w.set_lane_status(lane % width as u32, STATUSES[s]);
                let ready: Vec<u32> = (0..width as u32)
                    .filter(|&l| w.threads[l as usize].status() == ThreadStatus::Ready)
                    .collect();
                let finished = w.threads.iter().all(|t| t.status() == ThreadStatus::Finished);
                prop_assert_eq!(w.any_ready(), !ready.is_empty());
                prop_assert_eq!(w.all_finished(), finished);
                prop_assert_eq!(w.ready_lanes().collect::<Vec<_>>(), ready);
            }
        }
    }

    #[test]
    fn rollback_clears_speculative_state() {
        let g = gpu_mem::Geometry::new(128, 32, 6);
        let mut w = warp_of(vec![vec![
            Op::TxBegin,
            Op::TxStore(Addr(0), 1),
            Op::TxCommit,
        ]]);
        let t = &mut w.threads[0];
        assert_eq!(t.fetch_op(), Op::TxBegin);
        t.consume_op();
        assert_eq!(t.fetch_op(), Op::TxStore(Addr(0), 1));
        t.consume_op();
        t.logs.record_write(Addr(0), 1, &g);
        t.rollback();
        assert!(t.logs.is_empty());
        assert_eq!(t.staged_op, None);
        // Program rewound to just after TxBegin.
        assert_eq!(t.fetch_op(), Op::TxStore(Addr(0), 1));
    }

    #[test]
    fn commit_abort_counters() {
        let mut w = warp_of(vec![vec![Op::Done], vec![Op::Done]]);
        w.threads[0].commits = 3;
        w.threads[1].commits = 2;
        w.threads[1].aborts = 5;
        assert_eq!(w.total_commits(), 5);
        assert_eq!(w.total_aborts(), 5);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn empty_warp_rejected() {
        let _ = Warp::new(vec![]);
    }
}
