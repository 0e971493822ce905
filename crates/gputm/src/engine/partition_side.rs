//! Partition-side message processing.
//!
//! Each memory partition serializes its validation-unit work (1 request
//! per cycle plus metadata-table cycles) and its commit-unit work (the CU
//! runs at half the core clock: two cycles per unit of work). LLC hits add
//! the pipelined LLC service latency to a reply; misses add a DRAM access
//! on top. Replies are injected into the down crossbar at their
//! service-completion time.
//!
//! Load values are captured *here*, at partition processing time, so a
//! reply in flight can never observe logically later writes.

use super::ctx::{DownSend, DownSink, PartCtx};
use super::{DownMsg, Pending, UpMsg};
use crate::config::MemModel;
use fglock::AtomicOp;
use gpu_mem::{AccessKind, Addr, CacheResult, Granule, LineAddr};
use sim_core::trace::{SimEvent, Stamp};
use sim_core::{Cycle, SimError};
use std::sync::Arc;

/// Cycles an LLC sub-bank's tag+data pipeline is held per access under
/// the HBM tier (Khairy et al. model banked L2 slices with a small fixed
/// occupancy; contention, not raw latency, is the modelled effect).
const LLC_BANK_OCCUPANCY: u64 = 2;

/// Index of the smallest element (first on ties, deterministic).
fn min_index(v: &[Cycle]) -> usize {
    let mut best = 0;
    for (i, &c) in v.iter().enumerate().skip(1) {
        if c < v[best] {
            best = i;
        }
    }
    best
}

impl PartCtx<'_> {
    /// Handles one up-crossbar delivery at partition `p`.
    pub(crate) fn handle_up(&mut self, p: usize, msg: UpMsg) -> Result<(), SimError> {
        match msg {
            UpMsg::GetmAccess(req) => self.getm_access(p, req),
            UpMsg::GetmLog(entries, attempts) => self.getm_log(p, entries, attempts),
            UpMsg::TxLoadWtm { addr, token } => self.wtm_tx_load(p, addr, token),
            UpMsg::PlainLoad { addr, token } => self.plain_load(p, addr, token),
            UpMsg::PlainStore { addr, .. } => {
                self.plain_store(p, addr);
                Ok(())
            }
            UpMsg::Atomic { op, token } => self.atomic(p, op, token),
            UpMsg::Validate(job) => self.wtm_validate(p, job),
            UpMsg::CommitCmd {
                token,
                commit,
                failed_lanes,
            } => self.wtm_commit_cmd(p, token, commit, failed_lanes),
            UpMsg::ElWriteLog { token, writes } => self.el_write_log(p, token, writes),
        }
    }

    /// Charges an LLC (and possibly DRAM) access for data at `addr`,
    /// returning the extra service cycles.
    ///
    /// Under [`MemModel::FermiFixed`] every miss costs exactly
    /// `llc_service + dram.latency`; under [`MemModel::Hbm`] the request
    /// also queues behind its LLC sub-bank and rides a pseudo-channel
    /// whose occupancy and bounded outstanding queue it shares with
    /// every other miss in the partition (DESIGN.md §16).
    fn data_cycles(&mut self, p: usize, addr: Addr, kind: AccessKind) -> u64 {
        let line = self.geom.line_of(addr);
        let sector = self.llc_sector_of(addr);
        let part = &mut self.parts[p];
        let res = part.llc.access_at(line, sector, kind);
        let dram = !res.is_hit();
        if dram {
            part.dram_accesses += 1;
        }
        let now = self.now.raw();
        self.rec.emit(|| {
            (
                Stamp::partition(now, p as u32),
                SimEvent::MemAccess { dram },
            )
        });
        match self.cfg.mem_model {
            MemModel::FermiFixed => {
                if dram {
                    self.cfg.llc_service + self.cfg.dram.latency
                } else {
                    self.cfg.llc_service
                }
            }
            MemModel::Hbm => {
                let mut extra = self.cfg.llc_service + self.llc_bank_delay(p, line);
                if dram {
                    // Sectored arrays fill just the sector; unsectored
                    // ones pull the whole line.
                    let bytes = self
                        .cfg
                        .llc_bank
                        .sector_bytes
                        .unwrap_or(self.cfg.line_bytes);
                    extra += self.hbm_dram_cycles(p, bytes);
                }
                if let CacheResult::Miss { writeback: Some(_) } = res {
                    // The victim writeback occupies a pseudo-channel but
                    // is off the reply's critical path.
                    self.hbm_occupy(p, self.cfg.line_bytes);
                }
                extra
            }
        }
    }

    /// The LLC sector index `addr` falls in (0 when the LLC is
    /// unsectored, where the cache ignores it anyway).
    fn llc_sector_of(&self, addr: Addr) -> u32 {
        match self.cfg.llc_bank.sector_bytes {
            Some(s) => ((addr.0 % self.cfg.line_bytes) / s) as u32,
            None => 0,
        }
    }

    /// Queueing delay at `line`'s LLC sub-bank, advancing the bank's
    /// busy horizon (each access holds the bank's tag+data pipeline for
    /// [`LLC_BANK_OCCUPANCY`] cycles; different banks proceed in
    /// parallel). Zero with a single bank and nothing queued.
    fn llc_bank_delay(&mut self, p: usize, line: LineAddr) -> u64 {
        let part = &mut self.parts[p];
        let banks = part.bank_free.len() as u64;
        // Partition selection consumed the low line bits; use the next
        // bits up so one partition's stream still spreads over banks.
        let bank = ((line.0 / self.cfg.partitions as u64) % banks) as usize;
        let start = part.bank_free[bank].max(self.now);
        part.bank_free[bank] = start + LLC_BANK_OCCUPANCY;
        start - self.now
    }

    /// Charges a `bytes`-byte DRAM access to partition `p`'s HBM stack,
    /// returning cycles until the data is back: admission delay if the
    /// bounded outstanding queue is full, service on the least-loaded
    /// pseudo-channel, then the access latency.
    fn hbm_dram_cycles(&mut self, p: usize, bytes: u64) -> u64 {
        let part = &mut self.parts[p];
        let now = self.now;
        part.hbm_inflight.retain(|&c| c > now);
        let mut admit = now;
        if part.hbm_inflight.len() >= self.cfg.dram.queue_capacity {
            // Queue full: the request waits until the earliest in-flight
            // access completes and frees a slot.
            let (i, &earliest) = part
                .hbm_inflight
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| **c)
                .expect("full queue is nonempty");
            part.hbm_inflight.swap_remove(i);
            admit = earliest;
            part.hbm_queue_stalls += 1;
        }
        let service = bytes.max(1).div_ceil(self.cfg.dram.bytes_per_cycle);
        let pc = min_index(&part.chan_free);
        let start = part.chan_free[pc].max(admit);
        part.chan_free[pc] = start + service;
        let done = part.chan_free[pc] + self.cfg.dram.latency;
        part.hbm_inflight.push(done);
        done - now
    }

    /// Occupies a pseudo-channel with `bytes` of off-critical-path
    /// traffic (victim writebacks): later requests queue behind it, but
    /// nothing waits on its completion.
    fn hbm_occupy(&mut self, p: usize, bytes: u64) {
        let part = &mut self.parts[p];
        let service = bytes.max(1).div_ceil(self.cfg.dram.bytes_per_cycle);
        let pc = min_index(&part.chan_free);
        let start = part.chan_free[pc].max(self.now);
        part.chan_free[pc] = start + service;
    }

    /// Reserves the validation unit starting no earlier than `now`,
    /// consuming `cycles`, and returns the completion time.
    fn vu_slot(&mut self, p: usize, cycles: u64) -> Cycle {
        let start = self.parts[p].vu_free.max(self.now);
        let done = start + cycles.max(1);
        self.parts[p].vu_free = done;
        done
    }

    /// Reserves the commit unit (half-rate clock: 2 cycles per unit of
    /// work), returning the completion time.
    fn cu_slot(&mut self, p: usize, units: u64) -> Cycle {
        let start = self.parts[p].cu_free.max(self.now);
        let done = start + 2 * units.max(1);
        self.parts[p].cu_free = done;
        done
    }

    /// Per-lane values for a pending access token, read from the committed
    /// image *now*. When history recording is on, the committed version tag
    /// observed by each transactional load lane is captured alongside the
    /// value — stored inside the pending context itself, so the core side
    /// can attribute the read once the reply is delivered and no path can
    /// leak the capture.
    fn capture_values(&mut self, token: u64) -> Result<(usize, Vec<u64>), SimError> {
        if self.hist.is_on() {
            // History recording runs serial, so the pending tap is the
            // mutable one and the version capture can write into the
            // context.
            return match self.pending.get_mut(token) {
                Some(Pending::Access {
                    core,
                    lanes,
                    is_store,
                    is_tx,
                    versions,
                    ..
                }) => {
                    let mut values = self.value_pool.pop().unwrap_or_default();
                    values.clear();
                    values.extend(lanes.iter().map(|&(_, a)| self.mem.get(a.0)));
                    if *is_tx && !*is_store {
                        versions.clear();
                        versions.extend(lanes.iter().map(|&(_, a)| self.hist.version_of(a.0)));
                    }
                    Ok((*core, values))
                }
                Some(Pending::AtomicOp { core, .. }) => Ok((*core, Vec::new())),
                None => Err(SimError::ProtocolViolation {
                    what: "memory reply for unknown token",
                    token,
                    cycle: self.now.raw(),
                }),
            };
        }
        // Recording off (every sharded phase, most serial runs): the
        // pending slab is only read, so a shared tap suffices.
        match self.pending.get(token) {
            Some(Pending::Access { core, lanes, .. }) => {
                let mut values = self.value_pool.pop().unwrap_or_default();
                values.clear();
                values.extend(lanes.iter().map(|&(_, a)| self.mem.get(a.0)));
                Ok((*core, values))
            }
            Some(Pending::AtomicOp { core, .. }) => Ok((*core, Vec::new())),
            None => Err(SimError::ProtocolViolation {
                what: "memory reply for unknown token",
                token,
                cycle: self.now.raw(),
            }),
        }
    }

    // ----- GETM ----------------------------------------------------------

    fn getm_access(&mut self, p: usize, req: getm::AccessRequest) -> Result<(), SimError> {
        self.stats
            .vu_queue_delay
            .observe(self.parts[p].vu_free.raw().saturating_sub(self.now.raw()) as f64);
        let out = self.parts[p].vu.access(req, || 0);
        self.stats.meta_latency.observe(out.cycles as u64);
        // Table II: validation bandwidth is one request per cycle per
        // partition — the metadata banks are pipelined, so multi-cycle
        // table walks add latency to this reply without throttling the
        // unit's throughput.
        let vu_done = self.vu_slot(p, 1) + out.cycles.saturating_sub(1) as u64;
        let now = self.now.raw();
        match out.reply {
            Some(reply) => {
                // A successful store placed (or renewed) the reservation.
                if reply.kind == getm::ReplyKind::Success && req.kind == getm::AccessKind::Store {
                    self.rec
                        .emit(|| (Stamp::partition(now, p as u32), SimEvent::LockAcquire));
                }
                // Successful loads also touch the LLC line for data; a
                // store reservation is metadata-only (the write data only
                // arrives with the commit log).
                let extra = if reply.kind == getm::ReplyKind::Success
                    && req.kind == getm::AccessKind::Load
                {
                    self.data_cycles(p, req.addr, AccessKind::Read)
                } else {
                    0
                };
                self.stats.data_latency.observe(extra as f64);
                let (core, values) = self.capture_values(reply.token)?;
                self.send_down(
                    vu_done + extra,
                    core,
                    getm::msg::ACCESS_REPLY_BYTES,
                    DownMsg::GetmReply(reply, values),
                    "getm-reply",
                );
            }
            None => {
                // Queued in the stall buffer; the reply will surface when
                // the owning transaction commits or aborts.
                self.rec
                    .emit(|| (Stamp::partition(now, p as u32), SimEvent::StallPark));
            }
        }
        Ok(())
    }

    fn getm_log(
        &mut self,
        p: usize,
        entries: Vec<getm::CommitEntry>,
        attempts: Vec<u32>,
    ) -> Result<(), SimError> {
        let batch = self.parts[p].cu.receive(&entries);
        let regions = self.parts[p].cu.drain();
        let cu_done = self.cu_slot(p, regions.len().max(1) as u64);
        {
            let now = self.now.raw();
            self.rec.emit(|| {
                (
                    Stamp::partition(now, p as u32),
                    SimEvent::Probe {
                        name: "cu-batch",
                        value: batch as f64,
                    },
                )
            });
        }

        // Apply word data before any lock release, so woken readers see
        // the committed values. `attempts` (when recording) runs parallel
        // to `entries` and names the history attempt that produced each
        // committed word, letting the history attribute the version chain.
        let apply_cycle = self.now.raw();
        for (i, e) in entries.iter().enumerate() {
            if let Some(v) = e.data {
                self.mem.set(e.addr.0, v);
                if let Some(&attempt) = attempts.get(i) {
                    self.hist.write_applied(attempt, e.addr.0, v, apply_cycle);
                }
                self.data_cycles(p, e.addr, AccessKind::Write);
            }
        }
        // The log batch has been applied: return its buffers to the core
        // side's pools for the next commit.
        {
            let mut entries = entries;
            entries.clear();
            self.entry_pool.push(entries);
            let mut attempts = attempts;
            attempts.clear();
            self.attempt_pool.push(attempts);
        }
        // Merge per-granule write counts (ascending granule order) into the
        // scratch buffer, then release each, waking stalled requests.
        let mut merged = std::mem::take(self.word_buf);
        merged.clear();
        merged.extend(regions.iter().map(|r| (r.granule, r.writes as u64)));
        merged.sort_unstable_by_key(|&(g, _)| g);
        let mut m = 0;
        let mut i = 0;
        while i < merged.len() {
            let g = merged[i].0;
            let mut count = 0u64;
            while i < merged.len() && merged[i].0 == g {
                count += merged[i].1;
                i += 1;
            }
            merged[m] = (g, count);
            m += 1;
        }
        merged.truncate(m);
        if !merged.is_empty() {
            let now = self.now.raw();
            let granules = merged.len() as u32;
            self.rec.emit(|| {
                (
                    Stamp::partition(now, p as u32),
                    SimEvent::LockRelease { granules },
                )
            });
        }
        for &(g, count) in &merged {
            // The release consumes VU cycles, but the VU clock must not be
            // chained to the commit unit's backlog — only the *visibility*
            // of this release (and its woken replies) waits for the data
            // to have been applied at `cu_done`.
            let (woken, vu_done) = {
                let mem = &self.mem;
                let part = &mut self.parts[p];
                let (woken, cycles) = part
                    .vu
                    .release(Granule(g), count as u32, |r| mem.get(r.addr.0));
                let start = part.vu_free.max(self.now);
                part.vu_free = start + 1; // pipelined: 1 request/cycle
                (woken, start + cycles.max(1) as u64)
            };
            for wk in woken {
                let now = self.now.raw();
                self.rec
                    .emit(|| (Stamp::partition(now, p as u32), SimEvent::StallWake));
                let extra = self.data_cycles(p, wk.request.addr, AccessKind::Read);
                let (core, values) = self.capture_values(wk.reply.token)?;
                let at = vu_done.max(cu_done) + wk.cycles as u64 + extra;
                self.send_down(
                    at,
                    core,
                    getm::msg::ACCESS_REPLY_BYTES,
                    DownMsg::GetmReply(wk.reply, values),
                    "getm-reply",
                );
            }
        }
        *self.word_buf = merged;
        Ok(())
    }

    // ----- WarpTM --------------------------------------------------------

    fn wtm_tx_load(&mut self, p: usize, addr: Addr, token: u64) -> Result<(), SimError> {
        let g = self.geom.granule_of(addr);
        let last_write = self.parts[p].tcd.last_write(g);
        let extra = self.data_cycles(p, addr, AccessKind::Read);
        let done = self.vu_slot(p, 1) + extra;
        let (core, values) = self.capture_values(token)?;
        self.send_down(
            done,
            core,
            16,
            DownMsg::LoadReply {
                token,
                values,
                last_write: Some(last_write),
            },
            "tx-load",
        );
        Ok(())
    }

    #[allow(unused_mut)]
    fn wtm_validate(&mut self, p: usize, mut job: warptm::ValidationJob) -> Result<(), SimError> {
        let token = job.token;
        // Fault-injection hook: forge every logged read value to the
        // *current* committed value so value-based validation always
        // passes, even for stale snapshots. Stale lanes then push their
        // writes through commit, manufacturing lost updates the history
        // checker must flag.
        #[cfg(feature = "sabotage")]
        if self.cfg.sabotage == crate::config::Sabotage::WtmForgeReadValidation {
            for e in job.reads.iter_mut() {
                e.value = self.mem.get(e.addr.0);
            }
        }
        // Value-based validation reads the *current* value of every logged
        // line from the LLC: charge the (pipelined) LLC latency once plus
        // a DRAM access per missing line.
        let mut lines = std::mem::take(self.line_buf);
        lines.clear();
        lines.extend(job.reads.iter().map(|e| self.geom.line_of(e.addr)));
        lines.sort_unstable();
        lines.dedup();
        let mut extra = if lines.is_empty() {
            0
        } else {
            self.cfg.llc_service
        };
        for &line in &lines {
            let hit = matches!(
                self.parts[p].llc.access(line, AccessKind::Read),
                CacheResult::Hit
            );
            if !hit {
                self.parts[p].dram_accesses += 1;
                extra += match self.cfg.mem_model {
                    MemModel::FermiFixed => self.cfg.dram.latency,
                    // Validation re-reads whole logged lines, so the
                    // refill is line-sized regardless of sectoring.
                    MemModel::Hbm => self.hbm_dram_cycles(p, self.cfg.line_bytes),
                };
            }
        }
        *self.line_buf = lines;
        let verdict = {
            let mem = &self.mem;
            self.parts[p].wtm.validate(job, |a| mem.get(a.0))
        };
        let done = self.vu_slot(p, verdict.cycles as u64) + extra;
        let core = self.commit_core(token)?;
        self.send_down(
            done,
            core,
            8,
            DownMsg::Verdict {
                token,
                failed_lanes: verdict.failed_lanes,
            },
            "verdict",
        );
        Ok(())
    }

    fn wtm_commit_cmd(
        &mut self,
        p: usize,
        token: u64,
        commit: bool,
        failed_lanes: u64,
    ) -> Result<(), SimError> {
        if !commit {
            self.parts[p].wtm.abort(token);
            return Ok(());
        }
        let (writes, cycles) = self.parts[p].wtm.commit(token, failed_lanes);
        let done = self.cu_slot(p, cycles as u64);
        let core = self.commit_core(token)?;
        // Committed-write attribution: surviving lane entries carry their
        // lane id, and the in-flight commit context names the warp, so the
        // history can chain each applied word to its transaction attempt.
        // The core-state lookup only exists while recording (which forces
        // the serial loop, where the context carries the core slice).
        let gwid = if self.hist.is_on() {
            let cores = self.cores.expect("history recording runs serial");
            self.commits_in_flight
                .get(token)
                .and_then(|ctx| cores[ctx.core].warps[ctx.warp].as_ref())
                .map(|slot| slot.gwid.0)
        } else {
            None
        };
        let apply_cycle = self.now.raw();
        let mut granules: Vec<Granule> = Vec::new();
        for e in writes {
            self.mem.set(e.addr.0, e.value);
            if let Some(gwid) = gwid {
                let attempt = self.hist.current_txn(gwid, e.lane);
                self.hist
                    .write_applied(attempt, e.addr.0, e.value, apply_cycle);
            }
            self.data_cycles(p, e.addr, AccessKind::Write);
            let g = self.geom.granule_of(e.addr);
            self.parts[p].tcd.note_write(g, done);
            if !granules.contains(&g) {
                granules.push(g);
            }
        }
        self.send_down(done, core, 8, DownMsg::CommitAck { token }, "commit-ack");
        // EAPG: broadcast the committed write set to every core.
        if self.system == crate::config::TmSystem::Eapg && !granules.is_empty() {
            self.stats.eapg_broadcasts += self.n_cores as u64;
            let writes: Arc<[Granule]> = granules.into();
            for c in 0..self.n_cores {
                self.send_down(
                    done,
                    c,
                    8,
                    DownMsg::Broadcast {
                        writes: Arc::clone(&writes),
                    },
                    "eapg-broadcast",
                );
            }
        }
        Ok(())
    }

    fn el_write_log(
        &mut self,
        p: usize,
        token: u64,
        writes: Vec<(Addr, u64)>,
    ) -> Result<(), SimError> {
        // WarpTM-EL idealization: the writes were applied atomically at
        // commit initiation (core side); here we only charge the commit
        // bandwidth and acknowledge.
        let done = self.cu_slot(p, writes.len().max(1) as u64);
        for (a, _) in &writes {
            self.data_cycles(p, *a, AccessKind::Write);
        }
        let core = self.commit_core(token)?;
        self.send_down(done, core, 8, DownMsg::CommitAck { token }, "commit-ack");
        Ok(())
    }

    // ----- Plain memory and atomics ---------------------------------------

    fn plain_load(&mut self, p: usize, addr: Addr, token: u64) -> Result<(), SimError> {
        let extra = self.data_cycles(p, addr, AccessKind::Read);
        let done = self.now + 1 + extra;
        let (core, values) = self.capture_values(token)?;
        self.send_down(
            done,
            core,
            16,
            DownMsg::LoadReply {
                token,
                values,
                last_write: None,
            },
            "load",
        );
        Ok(())
    }

    /// Plain stores were applied at issue (GPU store-buffer semantics);
    /// the partition only charges LLC bandwidth.
    fn plain_store(&mut self, p: usize, addr: Addr) {
        self.data_cycles(p, addr, AccessKind::Write);
    }

    fn atomic(&mut self, p: usize, op: AtomicOp, token: u64) -> Result<(), SimError> {
        let extra = self.data_cycles(p, op.addr(), AccessKind::Write);
        // Atomics serialize at the partition (one per cycle, like the VU).
        let done = self.vu_slot(p, 1) + extra;
        let (old, new_value) = {
            // Split read and write phases to satisfy the borrow checker;
            // the unit's closures are invoked sequentially anyway.
            let current = self.mem.get(op.addr().0);
            let mut new_value: Option<u64> = None;
            let old = self.parts[p]
                .atomic
                .execute(op, |_| current, |_, v| new_value = Some(v));
            if let Some(v) = new_value {
                self.mem.set(op.addr().0, v);
            }
            (old, new_value)
        };
        let (core, warp, lane) = match self.pending.get(token) {
            Some(Pending::AtomicOp { core, warp, lane }) => (*core, *warp, *lane),
            _ => {
                return Err(SimError::ProtocolViolation {
                    what: "atomic reply for unknown token",
                    token,
                    cycle: self.now.raw(),
                })
            }
        };
        if self.hist.is_on() {
            // An atomic is a committed singleton transaction: it observes
            // `old` and (for mutating ops) installs a new version in the
            // same indivisible step. (Recording forces the serial loop, so
            // the core slice is present.)
            let cores = self.cores.expect("history recording runs serial");
            let gwid = cores[core].warps[warp]
                .as_ref()
                .map(|s| s.gwid.0)
                .unwrap_or(u32::MAX);
            self.hist.singleton_rmw(
                core,
                gwid,
                lane,
                op.addr().0,
                old,
                new_value,
                self.now.raw(),
            );
        }
        self.send_down(
            done,
            core,
            16,
            DownMsg::AtomicReply { token, old },
            "atomic",
        );
        Ok(())
    }

    // ----- Helpers ---------------------------------------------------------

    /// Injects a reply onto the down crossbar — directly in serial
    /// execution, or into the shard's ordered buffer during a parallel
    /// partition phase (the lead thread replays buffered sends sorted by
    /// `(delivery index, send ordinal)`, reconstructing the exact serial
    /// injection sequence).
    pub(crate) fn send_down(
        &mut self,
        at: Cycle,
        core: usize,
        bytes: u64,
        msg: DownMsg,
        category: &'static str,
    ) {
        match &mut self.down {
            DownSink::Direct(down) => {
                down.send(at, core, bytes, msg, category);
            }
            DownSink::Buffer { buf, idx, k } => {
                buf.push(DownSend {
                    idx: *idx,
                    k: *k,
                    at,
                    dst: core,
                    bytes,
                    msg,
                    cat: category,
                });
                *k += 1;
            }
        }
    }

    /// The destination core of an in-flight commit token.
    fn commit_core(&self, token: u64) -> Result<usize, SimError> {
        self.commits_in_flight
            .get(token)
            .map(|c| c.core)
            .ok_or(SimError::ProtocolViolation {
                what: "validation or commit traffic for unknown commit",
                token,
                cycle: self.now.raw(),
            })
    }
}
