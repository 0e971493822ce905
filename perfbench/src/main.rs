//! The repository's benchmark: regenerates the paper's headline cells
//! serially on one thread and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig11-fast [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload once untraced and once traced (allocation counting on),
//! asserts both simulated the same metrics, and prints the per-layer
//! metrics. Host times are given at nominal host speed (see `host`).
//! The last stdout line is one JSON object; the exit code is nonzero
//! when any cell failed. See `perfbench/README.md`.

mod alloc;
mod host;
mod paper;
mod run;

use bench::figures;
use gputm::config::{GpuConfig, TmSystem};
use gputm::metrics::Metrics as SimMetrics;
use gputm::sweep::CellSpec;
use run::{CellRun, Pass};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::suite::{Benchmark, Scale};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The preset seed every figure cell uses.
const FIGURE_SEED: u64 = 0x6E7A;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Fig11,
    Volta,
    Verify,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Fig11, Workload::Volta, Workload::Verify];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig11 => "fig11-fast",
            Workload::Volta => "volta-fast",
            Workload::Verify => "verify-fast",
        }
    }

    /// The figure cells this workload runs, with the machine seed set.
    fn cells(self, seed: u64) -> Vec<CellSpec> {
        let spec = |id: &str| {
            let f = figures::by_id(id).expect("the figure exists");
            (f.spec)(Scale::Fast).cells().to_vec()
        };
        let volta_cores = GpuConfig::volta_80core().cores;
        let mut cells: Vec<CellSpec> = match self {
            Workload::Fig11 => spec("fig11"),
            // AP is left out on Volta: its GETM cell is an abort storm
            // (1.4M simulated cycles, about 55 s of host time alone) that
            // does not fit the per-run time limit; see README.md.
            Workload::Volta => spec("volta")
                .into_iter()
                .filter(|c| c.cfg.cores == volta_cores && c.benchmark != Benchmark::Ap)
                .collect(),
            Workload::Verify => spec("fig11")
                .into_iter()
                .filter(|c| matches!(c.system, TmSystem::WarpTmLL | TmSystem::Getm))
                .collect(),
        };
        for c in &mut cells {
            c.cfg.seed = seed;
        }
        cells
    }

    fn verify(self) -> bool {
        self == Workload::Verify
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = FIGURE_SEED;
    let mut seconds = 35.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Named metrics in print order: `(name, value, unit)`.
type Report = Vec<(String, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cells = w.cells(args.seed);
    let cache_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join(format!("perfbench-cache-{}", std::process::id()));

    // Untraced passes: at least one, and more while another fits in the
    // time budget.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = run::run_pass(&cells, w.verify(), false, &cache_dir);
        eprintln!(
            "pass {}: wall {:.3}s  host slowdown {:.3}  normalized wall {:.3}s",
            passes.len() + 1,
            p.wall.as_secs_f64(),
            p.slowdown(),
            p.norm_wall_s(),
        );
        passes.push(p);
        let per_pass = start.elapsed().as_secs_f64() / passes.len() as f64;
        if args.trace || start.elapsed().as_secs_f64() + per_pass > args.seconds {
            break;
        }
    }
    let traced = args
        .trace
        .then(|| run::run_pass(&cells, w.verify(), true, &cache_dir));

    // Every pass must simulate exactly what the first one did.
    let reference: Vec<String> = passes[0].cells.iter().map(CellRun::digest).collect();
    let mut mismatches = Vec::new();
    for p in passes.iter().skip(1).chain(traced.as_ref()) {
        for (r, d) in p.cells.iter().zip(&reference) {
            if r.digest() != *d {
                mismatches.push(format!("{}: metrics differ between passes", r.cell.label()));
            }
        }
    }
    for (r, d) in passes[0].cells.iter().zip(&reference) {
        println!("cell {:<24} {d}", r.cell.label());
    }
    let mut all = sim_core::hash::StableHasher::new();
    for d in &reference {
        all.write_str(d);
    }
    println!("digest {} {}", w.name(), all.finish_hex());

    let mut failures: Vec<String> = mismatches;
    for p in passes.iter().chain(traced.as_ref()) {
        for r in &p.cells {
            if let Some(f) = &r.failure {
                failures.push(format!("{}: {f}", r.cell.label()));
            }
        }
        failures.extend(p.cache_failures.iter().cloned());
    }
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let attempted = cells.len() * (passes.len() + usize::from(traced.is_some()));
    let failed = passes
        .iter()
        .chain(traced.as_ref())
        .flat_map(|p| &p.cells)
        .filter(|r| r.failure.is_some())
        .count();

    let metrics = match &traced {
        None => end_to_end(&passes, &cells, attempted, failed),
        Some(t) => per_layer(&passes[0], t, w.verify()),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failed,
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number, or `null` for a metric left undefined by failed cells
/// (a fidelity error with no WarpTM/GETM pair to compare).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn simulated_cycles(p: &Pass) -> u64 {
    p.cells
        .iter()
        .filter_map(|r| r.metrics.as_ref())
        .map(|m| m.cycles)
        .sum()
}

/// `(speedup_err, abort_ratio_err)` of a workload's WarpTM/GETM pairs.
fn fidelity(runs: &[CellRun]) -> (f64, f64) {
    let cells: Vec<_> = runs
        .iter()
        .filter_map(|r| Some((r.cell.benchmark, r.cell.system, r.metrics.as_ref()?)))
        .collect();
    let pairs = paper::pairs(&cells);
    (paper::speedup_err(&pairs), paper::abort_ratio_err(&pairs))
}

/// Set-up samples per cell behind `setup_s`: the passes' own, plus
/// repeats outside the timed passes until there are this many.
const SETUP_SAMPLES: usize = 3;

/// End-to-end metrics: times are at nominal host speed and medians over
/// the untraced passes, and `setup_s` sums each cell's median set-up
/// time.
fn end_to_end(passes: &[Pass], cells: &[CellSpec], attempted: usize, failed: usize) -> Report {
    let med = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let (speedup_err, abort_ratio_err) = fidelity(&passes[0].cells);
    let mut setups: Vec<Vec<f64>> = (0..cells.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| {
                    let r = &p.cells[i];
                    (r.spans.build + r.spans.new).as_secs_f64() / r.slowdown
                })
                .collect()
        })
        .collect();
    // The passes' own set-up samples are topped up by rounds over every
    // cell, each scaled by the host speed sampled around it.
    for _ in passes.len()..SETUP_SAMPLES {
        let (times, slowdown) = run::time_setup_round(cells);
        for (xs, t) in setups.iter_mut().zip(times) {
            xs.push(t.as_secs_f64() / slowdown);
        }
    }
    vec![
        ("wall_norm_s".into(), med(&Pass::norm_wall_s), "s"),
        ("setup_s".into(), setups.into_iter().map(median).sum(), "s"),
        ("peak_rss_mb".into(), run::peak_rss_mb(), "MB"),
        (
            "sim_kcycles_per_norm_s".into(),
            med(&|p| simulated_cycles(p) as f64 / 1000.0 / p.norm_s(|r| r.spans.run).max(1e-9)),
            "kcycles/s",
        ),
        ("speedup_err".into(), speedup_err, "ln-ratio"),
        ("abort_ratio_err".into(), abort_ratio_err, "ln-ratio"),
        (
            "pass_frac".into(),
            (attempted - failed) as f64 / attempted as f64,
            "fraction",
        ),
    ]
}

fn system_key(s: TmSystem) -> &'static str {
    match s {
        TmSystem::FgLock => "fglock",
        TmSystem::WarpTmLL => "warptm",
        TmSystem::Eapg => "eapg",
        TmSystem::Getm => "getm",
        TmSystem::WarpTmEL => "warptm_el",
    }
}

const SYSTEMS: [TmSystem; 4] = [
    TmSystem::FgLock,
    TmSystem::WarpTmLL,
    TmSystem::Eapg,
    TmSystem::Getm,
];

/// Per-layer metrics from the traced pass, plus its overhead against
/// the untraced pass of the same invocation. Host times other than
/// `host.*` are at nominal host speed.
fn per_layer(untraced: &Pass, t: &Pass, verify: bool) -> Report {
    let mut out: Report = Vec::new();
    let slowdown = t.slowdown();
    let ok: Vec<(&CellRun, &SimMetrics)> = t
        .cells
        .iter()
        .filter_map(|r| Some((r, r.metrics.as_ref()?)))
        .collect();
    let of = |s: TmSystem| ok.iter().filter(move |(r, _)| r.cell.system == s);
    let sum_s = |f: &dyn Fn(&CellRun) -> std::time::Duration| t.norm_s(f);
    let cycles = simulated_cycles(t) as f64;
    // Transactions exist under the TM systems only; FGLock's run time
    // would dilute the per-attempt cost.
    let (tm_run_s, attempts) =
        ok.iter()
            .filter(|(r, _)| r.cell.system.is_tm())
            .fold((0.0, 0u64), |(s, n), (r, m)| {
                (
                    s + r.spans.run.as_secs_f64() / r.slowdown,
                    n + m.commits + m.aborts,
                )
            });
    let run_s = sum_s(&|r| r.spans.run);

    // The host itself, for reading the normalized times back.
    out.push(("host.wall_s".into(), untraced.wall.as_secs_f64(), "s"));
    out.push(("host.cpu_s".into(), untraced.cpu.as_secs_f64(), "s"));
    out.push(("host.slowdown".into(), untraced.slowdown(), "ratio"));

    // Host time per layer.
    out.push(("engine.run_s".into(), run_s, "s"));
    for s in SYSTEMS {
        let v: f64 = of(s)
            .map(|(r, _)| r.spans.run.as_secs_f64() / r.slowdown)
            .sum();
        out.push((format!("engine.run_s.{}", system_key(s)), v, "s"));
    }
    out.push((
        "engine.ns_per_cycle".into(),
        run_s * 1e9 / cycles.max(1.0),
        "ns",
    ));
    out.push((
        "engine.us_per_attempt".into(),
        tm_run_s * 1e6 / attempts.max(1) as f64,
        "us",
    ));
    out.push(("engine.new_s".into(), sum_s(&|r| r.spans.new), "s"));
    out.push(("workloads.build_s".into(), sum_s(&|r| r.spans.build), "s"));
    out.push(("workloads.check_s".into(), sum_s(&|r| r.spans.check), "s"));
    let verified_attempts: u64 = t.cells.iter().map(|r| r.verified_attempts).sum();
    let verify_s = sum_s(&|r| r.spans.verify);
    out.push((
        "verify.record_s".into(),
        if verify { run_s } else { 0.0 },
        "s",
    ));
    out.push(("verify.check_s".into(), verify_s, "s"));
    out.push(("verify.attempts".into(), verified_attempts as f64, "count"));
    out.push((
        "verify.us_per_attempt".into(),
        verify_s * 1e6 / verified_attempts.max(1) as f64,
        "us",
    ));
    out.push((
        "sweep.store_ms".into(),
        t.store.as_secs_f64() * 1e3 / slowdown,
        "ms",
    ));
    out.push((
        "sweep.load_ms".into(),
        t.load.as_secs_f64() * 1e3 / slowdown,
        "ms",
    ));
    let (allocs, bytes) = t.cells.iter().fold((0u64, 0u64), |(n, b), r| {
        (n + r.allocs.count, b + r.allocs.bytes)
    });
    out.push((
        "engine.allocs_per_kcycle".into(),
        allocs as f64 * 1000.0 / cycles.max(1.0),
        "count",
    ));
    out.push((
        "engine.alloc_mb".into(),
        bytes as f64 / (1024.0 * 1024.0),
        "MB",
    ));
    out.push((
        "trace.overhead_pct".into(),
        (t.norm_wall_s() / untraced.norm_wall_s().max(1e-9) - 1.0) * 100.0,
        "%",
    ));

    // Deterministic simulated counts, per system that owns them.
    for s in SYSTEMS {
        let k = system_key(s);
        let (c, commits, aborts, xbar) = of(s).fold((0, 0, 0, 0), |(c, n, a, x), (_, m)| {
            (c + m.cycles, n + m.commits, a + m.aborts, x + m.xbar_bytes)
        });
        out.push((format!("sim.cycles.{k}"), c as f64, "cycles"));
        out.push((
            format!("sim.aborts_per_1k.{k}"),
            aborts as f64 * 1000.0 / commits.max(1) as f64,
            "count",
        ));
        out.push((
            format!("sim.commit_ratio.{k}"),
            commits as f64 / (commits + aborts).max(1) as f64,
            "fraction",
        ));
        out.push((format!("xbar.bytes.{k}"), xbar as f64, "bytes"));
    }
    let sum = |s: Option<TmSystem>, f: &dyn Fn(&SimMetrics) -> u64| -> f64 {
        ok.iter()
            .filter(|(r, _)| s.is_none_or(|s| r.cell.system == s))
            .map(|(_, m)| f(m))
            .sum::<u64>() as f64
    };
    let mean = |s: Option<TmSystem>, f: &dyn Fn(&SimMetrics) -> Option<f64>| {
        let xs: Vec<f64> = ok
            .iter()
            .filter(|(r, _)| s.is_none_or(|s| r.cell.system == s))
            .filter_map(|(_, m)| f(m))
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let getm = Some(TmSystem::Getm);
    let warptm = Some(TmSystem::WarpTmLL);
    let eapg = Some(TmSystem::Eapg);
    let fglock = Some(TmSystem::FgLock);
    let counts: [(&str, f64, &'static str); 24] = [
        (
            "getm.vu_queue_delay",
            mean(getm, &|m| Some(m.mean_vu_queue_delay)),
            "cycles",
        ),
        (
            "getm.meta_access_cycles",
            mean(getm, &|m| m.mean_metadata_access_cycles),
            "cycles",
        ),
        ("getm.stall_queued", sum(getm, &|m| m.stall_queued), "count"),
        (
            "getm.stall_full_aborts",
            sum(getm, &|m| m.stall_full_aborts),
            "count",
        ),
        (
            "getm.max_stall_occupancy",
            ok.iter()
                .filter(|(r, _)| r.cell.system == TmSystem::Getm)
                .map(|(_, m)| m.max_stall_occupancy)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "getm.aborts_load",
            sum(getm, &|m| m.getm_aborts_load),
            "count",
        ),
        (
            "getm.aborts_store",
            sum(getm, &|m| m.getm_aborts_store),
            "count",
        ),
        (
            "warptm.silent_commits",
            sum(warptm, &|m| m.silent_commits),
            "count",
        ),
        (
            "warptm.validation_aborts",
            sum(warptm, &|m| m.aborts_validation),
            "count",
        ),
        (
            "warptm.intra_warp_aborts",
            sum(warptm, &|m| m.aborts_intra_warp),
            "count",
        ),
        (
            "eapg.broadcasts",
            sum(eapg, &|m| m.eapg_broadcasts),
            "count",
        ),
        (
            "eapg.early_aborts",
            sum(eapg, &|m| m.eapg_early_aborts),
            "count",
        ),
        ("fglock.atomics", sum(fglock, &|m| m.atomics), "count"),
        (
            "fglock.cas_failures",
            sum(fglock, &|m| m.cas_failures),
            "count",
        ),
        (
            "gpu-mem.l1_hit_rate",
            mean(None, &|m| Some(m.l1_hit_rate)),
            "fraction",
        ),
        (
            "gpu-mem.llc_hit_rate",
            mean(None, &|m| Some(m.llc_hit_rate)),
            "fraction",
        ),
        (
            "gpu-mem.dram_accesses",
            sum(None, &|m| m.dram_accesses),
            "count",
        ),
        (
            "gpu-mem.dram_queue_stalls",
            sum(None, &|m| m.dram_queue_stalls),
            "count",
        ),
        (
            "gpu-mem.l1_sector_misses",
            sum(None, &|m| m.l1_sector_misses),
            "count",
        ),
        (
            "gpu-mem.llc_sector_misses",
            sum(None, &|m| m.llc_sector_misses),
            "count",
        ),
        (
            "gpu-mem.access_rt",
            mean(None, &|m| Some(m.mean_access_rt)),
            "cycles",
        ),
        ("tx.exec_cycles", sum(None, &|m| m.tx_exec_cycles), "cycles"),
        ("tx.wait_cycles", sum(None, &|m| m.tx_wait_cycles), "cycles"),
        (
            "watchdog.degraded_cells",
            sum(None, &|m| u64::from(m.degraded)),
            "count",
        ),
    ];
    out.extend(counts.into_iter().map(|(n, v, u)| (n.to_string(), v, u)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins fig11-fast's `speedup_err` to what the `fig11` binary prints
    /// at the figure seed: WarpTM and GETM gmeans of 0.816 and 1.161
    /// (cycles normalized to FGLock). A model change that moves them
    /// must update both numbers here.
    #[test]
    fn fig11_fast_speedup_err_matches_the_fig11_gmeans() {
        let runs: Vec<CellRun> = Workload::Fig11
            .cells(FIGURE_SEED)
            .iter()
            .map(|c| run::run_cell(c, false, false))
            .collect();
        assert!(runs.iter().all(|r| r.failure.is_none()));
        let cycles = |b: Benchmark, s: TmSystem| {
            let r = runs
                .iter()
                .find(|r| r.cell.benchmark == b && r.cell.system == s)
                .expect("fig11 runs every benchmark under every system");
            r.metrics.as_ref().expect("the cell ran").cycles as f64
        };
        let normalized_gmean = |s: TmSystem| {
            let xs: Vec<f64> = Benchmark::ALL
                .iter()
                .map(|&b| cycles(b, s) / cycles(b, TmSystem::FgLock).max(1.0))
                .collect();
            sim_core::stats::gmean(&xs)
        };
        let (wtm, getm) = (
            normalized_gmean(TmSystem::WarpTmLL),
            normalized_gmean(TmSystem::Getm),
        );
        assert_eq!(format!("{wtm:.3}"), "0.816");
        assert_eq!(format!("{getm:.3}"), "1.161");
        let (speedup_err, _) = fidelity(&runs);
        let from_gmeans = (wtm / getm / paper::FIG11_GETM_OVER_WARPTM).ln().abs();
        assert!((speedup_err - from_gmeans).abs() < 1e-9);
        assert!((speedup_err - 0.535).abs() < 0.001, "{speedup_err}");
    }

    #[test]
    fn workloads_run_the_figure_cells() {
        assert_eq!(Workload::Fig11.cells(FIGURE_SEED).len(), 36);
        assert_eq!(Workload::Verify.cells(FIGURE_SEED).len(), 18);
        assert_eq!(Workload::Volta.cells(FIGURE_SEED).len(), 16);
        let fig11 = figures::by_id("fig11").expect("fig11 exists");
        let keys: Vec<String> = (fig11.spec)(Scale::Fast)
            .cells()
            .iter()
            .map(CellSpec::cache_key)
            .collect();
        for c in Workload::Verify.cells(FIGURE_SEED) {
            assert!(
                keys.contains(&c.cache_key()),
                "{} is a fig11 cell",
                c.label()
            );
        }
        let reseeded = Workload::Fig11.cells(7);
        assert!(reseeded.iter().all(|c| c.cfg.seed == 7));
    }
}
