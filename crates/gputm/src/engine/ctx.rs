//! The two halves of a cycle as split borrows of the engine.
//!
//! The engine's per-cycle work splits into a *core side* (issue, reply
//! handling, commit sequences) and a *partition side* (VU/CU/LLC service).
//! [`CoreCtx`] and [`PartCtx`] borrow exactly the `Engine` fields each side
//! touches, named as on `Engine` (`self.cores`, `self.stats`, `self.wd`,
//! ...), so the protocol code in `core_side.rs` / `partition_side.rs` reads
//! like `&mut Engine` methods while the borrow checker sees which state
//! each side may change.

use super::watchdog::WatchdogState;
use super::{CommitCtx, CoreState, DownMsg, Engine, EngineStats, Partition, Pending, UpMsg};
use crate::config::{GpuConfig, TmSystem};
use getm::CommitEntry;
use gpu_mem::{Addr, Crossbar, Geometry, MemImage};
use sim_core::history::HistoryRecorder;
use sim_core::trace::Recorder;
use sim_core::{Cycle, TokenSlab};

/// The core-side execution context: every core plus everything issue,
/// reply and commit code touches.
pub(crate) struct CoreCtx<'e> {
    pub cfg: &'e GpuConfig,
    pub system: TmSystem,
    pub geom: Geometry,
    pub now: Cycle,
    pub cores: &'e mut [CoreState],
    pub mem: &'e mut MemImage,
    pub pending: &'e mut TokenSlab<Pending>,
    pub commits_in_flight: &'e mut TokenSlab<CommitCtx>,
    pub up: &'e mut Crossbar<UpMsg>,
    pub stats: &'e mut EngineStats,
    pub rec: &'e Recorder,
    pub hist: &'e HistoryRecorder,
    pub wd: &'e mut WatchdogState,
    /// Set by `finish_round` when a logical clock reaches `ts_limit`.
    pub rollover_pending: &'e mut bool,
    /// Decremented as finished warps retire.
    pub live_warps: &'e mut usize,
    pub ready_buf: &'e mut Vec<bool>,
    pub survivors_buf: &'e mut Vec<(u32, Addr, u64)>,
    pub group_buf: &'e mut Vec<(gpu_mem::Granule, Vec<(u32, Addr)>)>,
    pub lane_pool: &'e mut Vec<Vec<(u32, Addr)>>,
    pub value_pool: &'e mut Vec<Vec<u64>>,
    pub entry_pool: &'e mut Vec<Vec<CommitEntry>>,
    pub attempt_pool: &'e mut Vec<Vec<u32>>,
    pub word_buf: &'e mut Vec<(u64, u64)>,
}

/// The partition-side execution context: every partition plus the
/// committed memory and the reply crossbar.
pub(crate) struct PartCtx<'e> {
    pub cfg: &'e GpuConfig,
    pub system: TmSystem,
    pub geom: Geometry,
    pub now: Cycle,
    pub parts: &'e mut [Partition],
    pub mem: &'e mut MemImage,
    pub pending: &'e mut TokenSlab<Pending>,
    pub commits_in_flight: &'e TokenSlab<CommitCtx>,
    /// Core state, read for history attribution only.
    pub cores: &'e [CoreState],
    pub stats: &'e mut EngineStats,
    pub rec: &'e Recorder,
    pub hist: &'e HistoryRecorder,
    pub down: &'e mut Crossbar<DownMsg>,
    pub value_pool: &'e mut Vec<Vec<u64>>,
    pub entry_pool: &'e mut Vec<Vec<CommitEntry>>,
    pub attempt_pool: &'e mut Vec<Vec<u32>>,
    pub word_buf: &'e mut Vec<(u64, u64)>,
    pub line_buf: &'e mut Vec<gpu_mem::LineAddr>,
}

impl Engine {
    /// The core side of the current cycle.
    pub(crate) fn core_ctx(&mut self) -> CoreCtx<'_> {
        CoreCtx {
            cfg: &self.cfg,
            system: self.system,
            geom: self.geom,
            now: self.now,
            cores: &mut self.cores,
            mem: &mut self.mem,
            pending: &mut self.pending,
            commits_in_flight: &mut self.commits_in_flight,
            up: &mut self.up,
            stats: &mut self.stats,
            rec: &self.rec,
            hist: &self.hist,
            wd: &mut self.wd,
            rollover_pending: &mut self.rollover_pending,
            live_warps: &mut self.live_warps,
            ready_buf: &mut self.ready_buf,
            survivors_buf: &mut self.survivors_buf,
            group_buf: &mut self.group_buf,
            lane_pool: &mut self.lane_pool,
            value_pool: &mut self.value_pool,
            entry_pool: &mut self.entry_pool,
            attempt_pool: &mut self.attempt_pool,
            word_buf: &mut self.word_buf,
        }
    }

    /// The partition side of the current cycle.
    pub(crate) fn part_ctx(&mut self) -> PartCtx<'_> {
        PartCtx {
            cfg: &self.cfg,
            system: self.system,
            geom: self.geom,
            now: self.now,
            parts: &mut self.parts,
            mem: &mut self.mem,
            pending: &mut self.pending,
            commits_in_flight: &self.commits_in_flight,
            cores: &self.cores,
            stats: &mut self.stats,
            rec: &self.rec,
            hist: &self.hist,
            down: &mut self.down,
            value_pool: &mut self.value_pool,
            entry_pool: &mut self.entry_pool,
            attempt_pool: &mut self.attempt_pool,
            word_buf: &mut self.word_buf,
            line_buf: &mut self.line_buf,
        }
    }
}
