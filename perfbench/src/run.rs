//! Runs a workload's cells one after another on the calling thread,
//! timing each call into the layers from outside: `Benchmark::build`,
//! `Engine::new`, `Engine::run`, `Workload::check`, the opacity checker,
//! and the result cache through the sweep path the figure bins use.

use crate::alloc::{self, Allocs};
use crate::host;
use gputm::engine::Engine;
use gputm::metrics::Metrics;
use gputm::sweep::{run_sweep_report, CellSpec, ExperimentSpec, ResultCache, SweepOptions};
use gputm::verify::Checker;
use sim_core::hash::StableHasher;
use sim_core::history::HistoryRecorder;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Host time spent in each layer call of one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `Benchmark::build` (the workload generator).
    pub build: Duration,
    /// `Engine::new`.
    pub new: Duration,
    /// `Engine::run`, with history recording on in verified cells.
    pub run: Duration,
    /// `Workload::check` on the final memory.
    pub check: Duration,
    /// `verify::Checker::check` (verified cells only).
    pub verify: Duration,
}

/// One cell's outcome.
pub struct CellRun {
    /// The cell.
    pub cell: CellSpec,
    /// Its metrics (`None` when the engine returned an error).
    pub metrics: Option<Metrics>,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
    /// Host time per layer.
    pub spans: Spans,
    /// Heap traffic during `Engine::run` (zero unless counted).
    pub allocs: Allocs,
    /// Transactional attempts the opacity checker judged.
    pub verified_attempts: u64,
    /// Wall time of the whole cell, every layer call included.
    pub elapsed: Duration,
    /// How much slower than nominal the host ran, from the reference
    /// sample taken right after the cell (1 outside a pass).
    pub slowdown: f64,
}

impl CellRun {
    /// A digest of the simulated metrics, leaving out the host-time
    /// profile exactly as `Metrics`' `PartialEq` does.
    pub fn digest(&self) -> String {
        let mut h = StableHasher::new();
        match &self.metrics {
            Some(m) => {
                let m = Metrics {
                    host_profile: Default::default(),
                    ..m.clone()
                };
                h.write_str(&format!("{m:?}"));
            }
            None => h.write_str(self.failure.as_deref().unwrap_or("no metrics")),
        }
        h.finish_hex()
    }
}

/// Builds, runs and checks one cell, timing each layer call.
pub fn run_cell(cell: &CellSpec, verify: bool, count_allocs: bool) -> CellRun {
    let mut spans = Spans::default();
    let mut out = CellRun {
        cell: cell.clone(),
        metrics: None,
        failure: None,
        spans,
        allocs: Allocs::default(),
        verified_attempts: 0,
        elapsed: Duration::ZERO,
        slowdown: 1.0,
    };

    let t = Instant::now();
    let workload = cell.benchmark.build(cell.scale);
    spans.build = t.elapsed();

    let t = Instant::now();
    let engine = Engine::new(workload.as_ref(), cell.system, &cell.cfg);
    spans.new = t.elapsed();
    let mut engine = match engine {
        Ok(e) => e,
        Err(e) => {
            out.failure = Some(format!("Engine::new: {e}"));
            out.spans = spans;
            return out;
        }
    };
    if verify {
        engine.attach_history(HistoryRecorder::recording());
    }

    let t = Instant::now();
    let (result, allocs) = alloc::counted(count_allocs, || engine.run());
    spans.run = t.elapsed();
    out.allocs = allocs;
    let mut metrics = match result {
        Ok(m) => m,
        Err(e) => {
            out.failure = Some(format!("Engine::run: {e}"));
            out.spans = spans;
            return out;
        }
    };

    let t = Instant::now();
    let check = workload.check(&engine.memory_reader());
    spans.check = t.elapsed();
    if let Err(e) = &check {
        out.failure = Some(format!("Workload::check: {e}"));
    }
    metrics.check = Some(check);

    if verify {
        let history = engine
            .detach_history()
            .take()
            .expect("the engine held the only history handle");
        let final_mem = engine.memory_image();
        let initial: HashMap<u64, u64> = workload
            .initial_memory()
            .into_iter()
            .map(|(a, v)| (a.0, v))
            .collect();
        let t = Instant::now();
        let verdict = Checker::for_run(&initial, &final_mem)
            .strict(cell.system.guarantees_opacity())
            .check(&history);
        spans.verify = t.elapsed();
        out.verified_attempts = verdict.stats.attempts;
        if !verdict.ok() && out.failure.is_none() {
            out.failure = Some(format!("oracle: {}", verdict.summary()));
        }
    }

    out.metrics = Some(metrics);
    out.spans = spans;
    out
}

/// Times `Benchmark::build` + `Engine::new` of every cell once more, for
/// the repeated set-up samples behind `setup_s`, and returns them with
/// the host slowdown sampled just before and after the round.
pub fn time_setup_round(cells: &[CellSpec]) -> (Vec<Duration>, f64) {
    let before = host::sample();
    let times = cells
        .iter()
        .map(|cell| {
            let t = Instant::now();
            let workload = cell.benchmark.build(cell.scale);
            let engine = Engine::new(workload.as_ref(), cell.system, &cell.cfg);
            let elapsed = t.elapsed();
            drop(engine);
            elapsed
        })
        .collect();
    let after = host::sample();
    (times, host::slowdown(before + after, 2))
}

/// One pass over a workload's cells.
pub struct Pass {
    /// Every cell, in spec order.
    pub cells: Vec<CellRun>,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Process CPU time (user + sys) of the whole pass.
    pub cpu: Duration,
    /// `ResultCache::store` of every cell into a cold cache.
    pub store: Duration,
    /// `run_sweep_report` over the now-warm cache (every cell a load).
    pub load: Duration,
    /// Cells whose result did not come back from the sweep path intact.
    pub cache_failures: Vec<String>,
    /// Total time of the host reference kernel, sampled after each cell
    /// (included in `wall`).
    pub reference: Duration,
}

impl Pass {
    /// How much slower than nominal the host ran during this pass.
    pub fn slowdown(&self) -> f64 {
        host::slowdown(self.reference, self.cells.len())
    }

    /// `f` summed over the cells, each at nominal host speed by the
    /// reference sample taken right after it. Over ten seeds, this left
    /// a quartile spread of 6.8% in fig11-fast's `Engine::run` total
    /// where the pass's mean slowdown left 8.3% (volta-fast: 10.6% and
    /// 10.9%).
    pub fn norm_s(&self, f: impl Fn(&CellRun) -> Duration) -> f64 {
        self.cells
            .iter()
            .map(|r| f(r).as_secs_f64() / r.slowdown)
            .sum()
    }

    /// Wall time without the reference samples, at nominal host speed:
    /// the cells scaled one by one, the rest (the result cache's store
    /// and load) by the pass's mean slowdown.
    pub fn norm_wall_s(&self) -> f64 {
        let cells: Duration = self.cells.iter().map(|r| r.elapsed).sum();
        let rest = self.wall.saturating_sub(cells + self.reference);
        self.norm_s(|r| r.elapsed) + rest.as_secs_f64() / self.slowdown()
    }
}

/// Runs every cell serially, then stores each result into a cold result
/// cache under `cache_dir` and reads the whole spec back through
/// `run_sweep_report`, as a figure bin's warm rerun would. A host
/// reference sample follows every cell.
pub fn run_pass(cells: &[CellSpec], verify: bool, count_allocs: bool, cache_dir: &Path) -> Pass {
    let _ = std::fs::remove_dir_all(cache_dir);
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let mut reference = Duration::ZERO;
    let runs: Vec<CellRun> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let t = Instant::now();
            let mut r = run_cell(c, verify, count_allocs);
            r.elapsed = t.elapsed();
            let sample = host::sample();
            reference += sample;
            r.slowdown = host::slowdown(sample, 1);
            let s = r.spans;
            eprintln!(
                "[{:>2}/{}] {:<24} {:>9} cycles  setup {:>6.3}s  run {:>7.3}s  ref {:>5.3}s",
                i + 1,
                cells.len(),
                c.label(),
                r.metrics.as_ref().map_or(0, |m| m.cycles),
                (s.build + s.new).as_secs_f64(),
                s.run.as_secs_f64(),
                sample.as_secs_f64(),
            );
            r
        })
        .collect();

    let mut cache_failures = Vec::new();
    let cache = ResultCache::new(cache_dir);
    let t = Instant::now();
    for r in &runs {
        if let Some(m) = &r.metrics {
            if let Err(e) = cache.store(&r.cell.cache_key(), m) {
                cache_failures.push(format!("{}: ResultCache::store: {e}", r.cell.label()));
            }
        }
    }
    let store = t.elapsed();

    let ok: Vec<&CellRun> = runs.iter().filter(|r| r.metrics.is_some()).collect();
    let spec = ExperimentSpec::from_cells(ok.iter().map(|r| r.cell.clone()).collect());
    let opts = SweepOptions::new().threads(1).cache(cache);
    let t = Instant::now();
    let report = run_sweep_report(&spec, &opts);
    let load = t.elapsed();
    for f in &report.failures {
        cache_failures.push(format!("sweep: {f}"));
    }
    for (r, o) in ok.iter().zip(&report.outcomes) {
        if !o.cached || r.metrics.as_ref() != Some(&o.metrics) {
            cache_failures.push(format!(
                "{}: sweep path did not recall the stored metrics",
                r.cell.label()
            ));
        }
    }

    let wall = t0.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let _ = std::fs::remove_dir_all(cache_dir);
    Pass {
        cells: runs,
        wall,
        cpu,
        store,
        load,
        cache_failures,
        reference,
    }
}

/// User + system CPU time of this process so far, from `/proc/self/stat`
/// (in the kernel's fixed 100 Hz `USER_HZ` ticks).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, the 12th and 13th after it.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
