//! Integration tests for campaign telemetry: the event stream a sweep
//! emits is coherent (each cell queued, started, then exactly one
//! terminal event, bracketed by campaign start/finish) and schema-valid
//! JSONL on disk.

use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{run_sweep, ExperimentSpec, ResultCache, SweepOptions};
use gputm::telemetry::{CampaignEvent, JsonlSink, MemorySink, Telemetry};
use std::path::PathBuf;
use workloads::suite::Benchmark;

fn small_spec() -> ExperimentSpec {
    ExperimentSpec::grid()
        .benchmarks([Benchmark::HtH])
        .systems([TmSystem::Getm, TmSystem::FgLock])
        .base(GpuConfig::tiny_test())
        .build()
}

/// A scratch directory that cleans up after itself (no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("getm-tel-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs the small grid on one sweep worker with a capture sink attached
/// and returns the captured events.
fn run_captured() -> Vec<CampaignEvent> {
    let (sink, captured) = MemorySink::new();
    let opts = SweepOptions::new()
        .threads(1)
        .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
    run_sweep(&small_spec(), &opts).expect("sweep");
    let events = captured.lock().unwrap();
    events.iter().map(|(_, e)| e.clone()).collect()
}

/// Stream coherence: bracketed by campaign start/finish, every cell
/// queued then started, and exactly one terminal event per cell. The
/// order *between* cells depends on thread scheduling (the collector's
/// terminal event for one cell can land after a worker's start event for
/// the next), so nothing here compares cross-cell order.
#[test]
fn stream_is_coherent() {
    let events = run_captured();
    let total = small_spec().len();

    assert!(matches!(
        events.first(),
        Some(CampaignEvent::CampaignStarted { resumed: 0, .. })
    ));
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::CampaignFinished {
            failed: 0,
            skipped: 0,
            ..
        })
    ));
    for idx in 0..total {
        let of_cell: Vec<_> = events
            .iter()
            .filter(|e| e.cell_idx() == Some(idx))
            .collect();
        assert!(matches!(
            of_cell.first(),
            Some(CampaignEvent::CellQueued { .. })
        ));
        assert!(matches!(
            of_cell.get(1),
            Some(CampaignEvent::CellStarted { .. })
        ));
        assert_eq!(
            of_cell.iter().filter(|e| e.is_terminal()).count(),
            1,
            "cell {idx} must have exactly one terminal event"
        );
    }
    // Throughput samples at every completion: deterministic event count.
    let samples = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::Throughput { .. }))
        .count();
    assert_eq!(samples, total);
}

/// A warm second run recalls every cell from the cache and says so.
#[test]
fn cache_hits_are_reported_as_such() {
    let tmp = TempDir::new("hits");
    let run = || {
        let (sink, captured) = MemorySink::new();
        let opts = SweepOptions::new()
            .threads(1)
            .cache(ResultCache::new(&tmp.0))
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        run_sweep(&small_spec(), &opts).expect("sweep");
        let events: Vec<CampaignEvent> = captured
            .lock()
            .unwrap()
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        events
    };
    let cold = run();
    let warm = run();
    let hits = |evs: &[CampaignEvent]| {
        evs.iter()
            .filter(|e| matches!(e, CampaignEvent::CellCacheHit { .. }))
            .count()
    };
    let total = small_spec().len();
    assert_eq!(hits(&cold), 0);
    assert_eq!(hits(&warm), total);
    // Cache hits skip the worker entirely: no started events either.
    assert!(!warm
        .iter()
        .any(|e| matches!(e, CampaignEvent::CellStarted { .. })));
    // The recalled cycles match what the cold run computed.
    let cycles_of = |evs: &[CampaignEvent], want: usize| {
        evs.iter().find_map(|e| match e {
            CampaignEvent::CellFinished { idx, cycles, .. } if *idx == want => Some(*cycles),
            CampaignEvent::CellCacheHit { idx, cycles, .. } if *idx == want => Some(*cycles),
            _ => None,
        })
    };
    for idx in 0..total {
        assert_eq!(cycles_of(&cold, idx), cycles_of(&warm, idx));
    }
}

/// The JSONL sink writes one schema-valid JSON object per line with
/// monotonically non-decreasing timestamps.
#[test]
fn jsonl_file_is_schema_valid() {
    let tmp = TempDir::new("jsonl");
    std::fs::create_dir_all(&tmp.0).unwrap();
    let path = tmp.0.join("campaign.telemetry.jsonl");
    let opts = SweepOptions::new()
        .threads(1)
        .telemetry(Telemetry::to_sinks(vec![Box::new(
            JsonlSink::create(&path).expect("create"),
        )]));
    run_sweep(&small_spec(), &opts).expect("sweep");

    let text = std::fs::read_to_string(&path).expect("read back");
    let mut last_t = 0u64;
    let mut kinds = Vec::new();
    for line in text.lines() {
        assert!(
            line.starts_with("{\"t_ms\":") && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        let t: u64 = line["{\"t_ms\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("t_ms is a number");
        assert!(t >= last_t, "timestamps must be monotone");
        last_t = t;
        let ev = line
            .split("\"ev\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("ev field present");
        kinds.push(ev.to_string());
    }
    assert_eq!(kinds.first().map(String::as_str), Some("campaign_started"));
    assert_eq!(kinds.last().map(String::as_str), Some("campaign_finished"));
    assert_eq!(
        kinds.iter().filter(|k| *k == "cell_finished").count(),
        small_spec().len()
    );
}
