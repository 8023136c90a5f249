//! The three bench measurements and the one regression gate that judges
//! them.
//!
//! [`bench_engine`] (and its [`bench_engine_scale`] sweep) times whole
//! simulations, [`bench_serve`] each `step` of the serving path, and
//! [`bench_journal`] the binary journal codec, per (scenario, policy)
//! cell; the `bench_engine`, `bench_serve` and `bench_journal` binaries
//! write the rows to `BENCH_engine.json`, `BENCH_serve.json` and
//! `BENCH_journal.json`.
//!
//! [`gate_against_baseline`] judges every document the same way: CI
//! re-measures, prints the per-cell delta table against the committed
//! rows, and fails the job when any cell's throughput drops beyond the
//! (deliberately generous) tolerance. The engine gate reads slots/sec,
//! the serve and journal gates read events/sec.

use crate::policies::PolicyCell;
use crate::scenario::Experiment;
use serde::{Deserialize, Serialize};
use spes_baselines::FixedKeepAlive;
use spes_sim::{
    try_simulate, EventLog, JournalEvent, JournalMeta, JournalReader, JournalWriter, SimConfig,
    SimDriver, SimEvent, Simulation,
};
use spes_stats::online::OnlineStats;
use spes_trace::{synth, Slot, SynthStream};
use std::time::Instant;

/// One measured (scenario, policy) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineBenchRow {
    /// Scenario registry name.
    pub scenario: String,
    /// Policy registry name.
    pub policy: String,
    /// Functions in the generated trace.
    pub n_functions: usize,
    /// Simulated slots (the full trace horizon).
    pub slots: u64,
    /// Timed iterations behind the statistics below.
    pub iters: u32,
    /// Mean wall-clock seconds per simulation iteration (excluding
    /// generation and policy fitting).
    pub secs: f64,
    /// Fastest iteration, seconds.
    pub secs_min: f64,
    /// Slowest iteration, seconds.
    pub secs_max: f64,
    /// Population standard deviation over the iterations, seconds.
    pub secs_std: f64,
    /// Slots simulated per second, from the mean iteration time.
    pub slots_per_sec: f64,
}

/// The `BENCH_engine.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineBenchReport {
    /// Every measured cell, scenario-major.
    pub rows: Vec<EngineBenchRow>,
}

/// What every bench row carries besides its measurements.
pub trait BenchRow {
    /// The (scenario, policy) cell the row measured.
    fn cell(&self) -> (&str, &str);
    /// The measured trace's (slots, functions). A baseline row of another
    /// shape is stale.
    fn shape(&self) -> (u64, usize);
}

/// A `BENCH_*.json` document: `{"rows": [...]}` over one row type.
pub trait BenchReport: Serialize + Deserialize {
    /// The document's row type.
    type Row: BenchRow;

    /// The document over `rows`.
    fn from_rows(rows: Vec<Self::Row>) -> Self;

    /// Every measured cell, in measurement order.
    fn rows(&self) -> &[Self::Row];

    /// The row of one (scenario, policy) cell, if measured.
    fn row_of(&self, scenario: &str, policy: &str) -> Option<&Self::Row> {
        self.rows().iter().find(|r| r.cell() == (scenario, policy))
    }
}

/// Implements [`BenchRow`] and [`BenchReport`] for a document whose rows
/// have `scenario`, `policy`, `slots` and `n_functions` fields.
macro_rules! bench_document {
    ($report:ty, $row:ty) => {
        impl BenchRow for $row {
            fn cell(&self) -> (&str, &str) {
                (&self.scenario, &self.policy)
            }

            fn shape(&self) -> (u64, usize) {
                (self.slots, self.n_functions)
            }
        }

        impl BenchReport for $report {
            type Row = $row;

            fn from_rows(rows: Vec<$row>) -> Self {
                Self { rows }
            }

            fn rows(&self) -> &[$row] {
                &self.rows
            }
        }
    };
}

bench_document!(EngineBenchReport, EngineBenchRow);
bench_document!(ServeBenchReport, ServeBenchRow);
bench_document!(JournalBenchReport, JournalBenchRow);

/// Runs the engine `iters` times per policy on one scenario and measures
/// simulation throughput. The trace is generated once and each policy is
/// re-fitted per iteration outside the timed section, so the numbers
/// isolate the engine + policy decision loop. `quick` applies the
/// scenario's CI shrink (7-day horizon, capped population) before
/// sizing.
///
/// Only capacity-self-contained policies can be measured this way
/// (`faascache` needs a donor run and is rejected by name, see
/// [`PolicyCell::standalone`]).
///
/// # Errors
/// Returns a message for unknown scenario/policy names or a zero `iters`.
pub fn bench_engine(
    scenario: &str,
    n_functions: usize,
    seed: u64,
    policy_names: &[&str],
    quick: bool,
    iters: u32,
) -> Result<Vec<EngineBenchRow>, String> {
    if iters == 0 {
        return Err("iters must be at least 1".to_owned());
    }
    let exp = Experiment::cell(scenario, n_functions, seed, quick)?;
    let data = exp.generate();
    let trace = &data.trace;
    let window = SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);

    let mut rows = Vec::new();
    for &name in policy_names {
        let cell = PolicyCell::new(name, &data)?.standalone()?;
        let mut samples = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            // A fresh policy per iteration: policies are stateful, and
            // fitting stays outside the timed section.
            let mut policy = cell.build();
            let begin = Instant::now();
            let run = try_simulate(trace, policy.as_mut(), window).map_err(|e| e.to_string())?;
            samples.push(begin.elapsed().as_secs_f64());
            // Keep the optimiser honest about the run actually happening.
            assert_eq!(run.n_slots(), u64::from(trace.n_slots - data.train_end));
        }
        let (mean, min, max, std) = sample_stats(&samples);
        let slots = u64::from(trace.n_slots);
        rows.push(EngineBenchRow {
            scenario: scenario.to_owned(),
            policy: name.to_owned(),
            n_functions: trace.n_functions(),
            slots,
            iters,
            secs: mean,
            secs_min: min,
            secs_max: max,
            secs_std: std,
            slots_per_sec: slots as f64 / mean.max(f64::MIN_POSITIVE),
        });
    }
    Ok(rows)
}

/// Scale-sweep row label for a population size: `1_000` → `"scale-1k"`,
/// `1_000_000` → `"scale-1m"`. Distinct from every registered scenario
/// name, so sweep rows and quick rows coexist in one `BENCH_engine.json`
/// without colliding in [`EngineBenchReport::row_of`].
#[must_use]
pub fn scale_label(n_functions: usize) -> String {
    if n_functions >= 1_000_000 && n_functions.is_multiple_of(1_000_000) {
        format!("scale-{}m", n_functions / 1_000_000)
    } else if n_functions >= 1_000 && n_functions.is_multiple_of(1_000) {
        format!("scale-{}k", n_functions / 1_000)
    } else {
        format!("scale-{n_functions}")
    }
}

/// Timed iterations for one scale cell: enough repeats to expose noise at
/// small sizes, a single pass at the million-function scale where one
/// iteration already runs for tens of seconds.
#[must_use]
pub fn scale_iters(n_functions: usize) -> u32 {
    match n_functions {
        0..=1_000 => 5,
        1_001..=10_000 => 3,
        10_001..=100_000 => 2,
        _ => 1,
    }
}

/// Scale sweep: engine throughput at growing population sizes on the
/// paper-default workload shrunk to the 7-day quick horizon, one cell per
/// entry of `sizes` (the CLI sweeps 1k/10k/100k and, with `--scale-full`,
/// 1M). Rows carry [`scale_label`] scenario names and extend the same
/// blocking gate as the quick cells, so throughput-per-core at scale is a
/// tracked trajectory rather than a one-off number.
///
/// The workload comes from the streaming producer ([`SynthStream`]) and
/// is fed straight into a step-driven [`SimDriver`] — no materialised
/// [`spes_trace::Trace`], no per-window bucket vectors — so the sweep
/// exercises exactly the O(active)-per-slot path the million-function
/// cell depends on. The policy is the paper-default 10-minute fixed
/// keep-alive: per-slot work proportional to the loaded set, the
/// realistic engine-dominated case.
///
/// # Errors
/// Returns a message when generation fails or a driver step is rejected.
pub fn bench_engine_scale(sizes: &[usize], seed: u64) -> Result<Vec<EngineBenchRow>, String> {
    let mut rows = Vec::new();
    for &size in sizes {
        let mut cfg = synth::scenario_config("paper-default")
            .ok_or_else(|| "paper-default scenario missing from the registry".to_owned())?
            .quick();
        cfg.n_functions = size;
        cfg.seed = seed;
        let stream = SynthStream::build(&cfg).map_err(|e| e.to_string())?;
        let n_slots = stream.n_slots();
        let window = SimConfig::new(0, n_slots).with_metrics_start(stream.train_end());
        let iters = scale_iters(size);
        let mut samples = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            // A fresh policy per iteration; construction is O(n) and
            // stays outside the timed section, like the fitting step in
            // `bench_engine`.
            let mut policy = FixedKeepAlive::paper_default(size);
            let begin = Instant::now();
            let mut driver =
                SimDriver::new(size, window, &mut policy, Vec::new()).map_err(|e| e.to_string())?;
            for t in 0..n_slots {
                driver.step(t, stream.batch(t)).map_err(|e| e.to_string())?;
            }
            let run = driver.finish();
            samples.push(begin.elapsed().as_secs_f64());
            // Keep the optimiser honest about the run actually happening.
            assert_eq!(run.n_slots(), u64::from(n_slots - stream.train_end()));
        }
        let (mean, min, max, std) = sample_stats(&samples);
        let slots = u64::from(n_slots);
        rows.push(EngineBenchRow {
            scenario: scale_label(size),
            policy: "fixed-keep-alive".to_owned(),
            n_functions: size,
            slots,
            iters,
            secs: mean,
            secs_min: min,
            secs_max: max,
            secs_std: std,
            slots_per_sec: slots as f64 / mean.max(f64::MIN_POSITIVE),
        });
    }
    Ok(rows)
}

/// One measured (scenario, policy) cell of the serving-latency benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchRow {
    /// Scenario registry name.
    pub scenario: String,
    /// Policy registry name.
    pub policy: String,
    /// Functions in the replayed trace.
    pub n_functions: usize,
    /// Slots stepped through the driver (each step is one decision).
    pub slots: u64,
    /// Invocation events replayed across those slots.
    pub events: u64,
    /// Total wall-clock seconds spent inside [`spes_sim::SimDriver::step`].
    pub secs: f64,
    /// Median per-step decision latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-step decision latency, microseconds.
    pub p99_us: f64,
    /// Worst per-step decision latency, microseconds.
    pub max_us: f64,
    /// Invocation events ingested per second of stepping time.
    pub events_per_sec: f64,
}

/// The `BENCH_serve.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Every measured cell, scenario-major.
    pub rows: Vec<ServeBenchRow>,
}

/// Measures per-slot decision latency on the serving path: the scenario's
/// trace is pre-parsed into per-slot invocation buckets (the daemon's
/// post-parse state), then every slot is stepped through a
/// [`spes_sim::SimDriver`] with each `step` call timed individually. The
/// percentiles are over those per-decision latencies, so they capture
/// what a serve-protocol client waits per closed slot, excluding JSON
/// parse and I/O.
///
/// # Errors
/// Returns a message for unknown scenario/policy names, or when a step
/// fails inside the measured loop.
pub fn bench_serve(
    scenario: &str,
    n_functions: usize,
    seed: u64,
    policy_names: &[&str],
    quick: bool,
) -> Result<Vec<ServeBenchRow>, String> {
    let exp = Experiment::cell(scenario, n_functions, seed, quick)?;
    let data = exp.generate();
    let trace = &data.trace;
    let window = SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);

    // The daemon's post-parse state: one invocation batch per slot.
    let batches = trace.slot_batches(0, trace.n_slots);
    let events = batches.n_events() as u64;

    let mut rows = Vec::new();
    for &name in policy_names {
        let mut policy = PolicyCell::new(name, &data)?.standalone()?.build();
        let mut driver =
            spes_sim::SimDriver::new(trace.n_functions(), window, policy.as_mut(), Vec::new())
                .map_err(|e| e.to_string())?;
        let mut samples_ns = Vec::with_capacity(trace.n_slots as usize);
        for (slot, batch) in batches.iter() {
            let begin = Instant::now();
            let outcome = driver.step(slot, batch).map_err(|e| e.to_string())?;
            let elapsed = begin.elapsed().as_nanos();
            // Keep the optimiser honest about the decision happening.
            assert_eq!(outcome.slot, slot);
            samples_ns.push(elapsed as u64);
        }
        let run = driver.finish();
        assert_eq!(run.n_slots(), u64::from(trace.n_slots - data.train_end));
        samples_ns.sort_unstable();
        let total_secs: f64 = samples_ns.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9;
        let pct = |p: f64| -> f64 {
            let idx = ((samples_ns.len() - 1) as f64 * p / 100.0).round() as usize;
            samples_ns[idx] as f64 / 1e3
        };
        rows.push(ServeBenchRow {
            scenario: scenario.to_owned(),
            policy: name.to_owned(),
            n_functions: trace.n_functions(),
            slots: u64::from(trace.n_slots),
            events,
            secs: total_secs,
            p50_us: pct(50.0),
            p99_us: pct(99.0),
            max_us: pct(100.0),
            events_per_sec: events as f64 / total_secs.max(f64::MIN_POSITIVE),
        });
    }
    Ok(rows)
}

/// Mean, min, max, and population standard deviation of a non-empty
/// sample set (mean/stddev via the same [`OnlineStats`] the matrix
/// aggregates use — one variance definition across the workspace).
fn sample_stats(samples: &[f64]) -> (f64, f64, f64, f64) {
    let mut stats = OnlineStats::new();
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &s in samples {
        stats.push(s);
        min = min.min(s);
        max = max.max(s);
    }
    (stats.mean(), min, max, stats.stddev())
}

// ---------------------------------------------------------------------
// Journal codec benchmark
// ---------------------------------------------------------------------

/// One measured (scenario, policy) cell of the journal codec benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalBenchRow {
    /// Scenario registry name.
    pub scenario: String,
    /// Policy registry name.
    pub policy: String,
    /// Functions in the generated trace.
    pub n_functions: usize,
    /// Simulated slots behind the event stream.
    pub slots: u64,
    /// Events encoded and decoded per iteration.
    pub events: u64,
    /// Size of the complete journal, header included.
    pub bytes: u64,
    /// Mean seconds to encode the stream into the journal.
    pub encode_secs: f64,
    /// Mean seconds to decode the journal back into events.
    pub decode_secs: f64,
    /// Events per second of one encode plus one decode.
    pub events_per_sec: f64,
}

/// The `BENCH_journal.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalBenchReport {
    /// Every measured cell, scenario-major.
    pub rows: Vec<JournalBenchRow>,
}

fn encode_journal(events: &[(Slot, SimEvent)], meta: &JournalMeta) -> Result<Vec<u8>, String> {
    let mut writer =
        JournalWriter::new(Vec::with_capacity(64 * 1024), meta).map_err(|e| e.to_string())?;
    for &(slot, ref event) in events {
        writer.append(slot, event).map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())
}

fn decode_journal(bytes: &[u8]) -> Result<Vec<JournalEvent>, String> {
    JournalReader::new(bytes)
        .and_then(JournalReader::read_all)
        .map_err(|e| e.to_string())
}

/// Measures the binary journal codec: each (scenario, policy) cell runs
/// the engine once to capture its events, verifies that the journal
/// decodes back to them, then times `iters` iterations of encode and
/// decode.
///
/// # Errors
/// Returns a message for unknown scenario/policy names, a zero `iters`,
/// or a codec failure.
pub fn bench_journal(
    scenario: &str,
    n_functions: usize,
    seed: u64,
    policy_names: &[&str],
    quick: bool,
    iters: u32,
) -> Result<Vec<JournalBenchRow>, String> {
    if iters == 0 {
        return Err("iters must be at least 1".to_owned());
    }
    let exp = Experiment::cell(scenario, n_functions, seed, quick)?;
    let data = exp.generate();
    let trace = &data.trace;
    let window = SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);

    let mut rows = Vec::new();
    for &name in policy_names {
        let mut policy = PolicyCell::new(name, &data)?.standalone()?.build();
        let log: EventLog = Simulation::new(trace, window)
            .with_observer(Box::new(EventLog::new()))
            .run(policy.as_mut())
            .map_err(|e| e.to_string())?
            .take()
            .ok_or("the event log comes back from the run")?;
        let events: Vec<(Slot, SimEvent)> = log.events.iter().map(|e| (e.slot, e.event)).collect();
        let meta = JournalMeta {
            policy_name: name.to_owned(),
            n_functions: trace.n_functions(),
            config: window,
            trace_digest: trace.digest64(),
            seed,
            extra: Vec::new(),
        };

        // Round-trip verification up front: the codec must reproduce the
        // stream exactly before its timings mean anything.
        let journal = encode_journal(&events, &meta)?;
        if decode_journal(&journal)? != log.events {
            return Err(format!("journal round-trip diverged for {name:?}"));
        }

        let mut encode = Vec::with_capacity(iters as usize);
        let mut decode = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let begin = Instant::now();
            let encoded = encode_journal(&events, &meta)?;
            encode.push(begin.elapsed().as_secs_f64());
            assert_eq!(encoded.len(), journal.len());

            let begin = Instant::now();
            let back = decode_journal(&encoded)?;
            decode.push(begin.elapsed().as_secs_f64());
            assert_eq!(back.len(), events.len());
        }
        let (encode_secs, ..) = sample_stats(&encode);
        let (decode_secs, ..) = sample_stats(&decode);
        rows.push(JournalBenchRow {
            scenario: scenario.to_owned(),
            policy: name.to_owned(),
            n_functions: trace.n_functions(),
            slots: u64::from(trace.n_slots),
            events: events.len() as u64,
            bytes: journal.len() as u64,
            encode_secs,
            decode_secs,
            events_per_sec: events.len() as f64
                / (encode_secs + decode_secs).max(f64::MIN_POSITIVE),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// The perf-regression gate
// ---------------------------------------------------------------------

/// Verdict on one (scenario, policy) cell of the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance of the baseline (or faster).
    Ok,
    /// Slower than the baseline beyond the tolerance.
    Regression,
    /// The committed baseline has no row for this cell; regenerate it.
    BaselineMissing,
    /// The baseline row measured a different trace shape (slots or
    /// population changed); the comparison is meaningless until the
    /// baseline is regenerated.
    StaleBaseline,
}

impl std::fmt::Display for GateStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Ok => "ok",
            Self::Regression => "REGRESSION",
            Self::BaselineMissing => "NO BASELINE",
            Self::StaleBaseline => "STALE BASELINE",
        })
    }
}

/// One row of the gate's delta table. The throughput metric is
/// slots/sec for the engine gate and events/sec for the serve and
/// journal gates.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Scenario registry name.
    pub scenario: String,
    /// Policy registry name.
    pub policy: String,
    /// Baseline throughput (`None` when the baseline lacks the cell).
    pub baseline_throughput: Option<f64>,
    /// Freshly measured throughput.
    pub current_throughput: f64,
    /// Relative throughput change in percent (positive = faster);
    /// `None` without a comparable baseline.
    pub delta_pct: Option<f64>,
    /// The cell's verdict.
    pub status: GateStatus,
}

/// The gate outcome over every measured cell.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// One row per measured cell, in measurement order.
    pub rows: Vec<GateRow>,
    /// Allowed slowdown in percent before a cell counts as a regression.
    pub tolerance_pct: f64,
}

impl GateReport {
    /// Whether every cell passed: no regression, no missing or stale
    /// baseline rows.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.status == GateStatus::Ok)
    }

    /// The rows that keep [`GateReport::passed`] false.
    #[must_use]
    pub fn failures(&self) -> Vec<&GateRow> {
        self.rows
            .iter()
            .filter(|r| r.status != GateStatus::Ok)
            .collect()
    }
}

/// Compares a fresh measurement against the committed baseline cell by
/// cell on the throughput `throughput` reads (slots/sec for the engine,
/// events/sec for serving and the journal). A cell regresses when its
/// throughput drops more than `tolerance_pct` percent below the
/// baseline; baseline rows that are missing or measured a different
/// trace shape fail the gate too (the fix in both cases is regenerating
/// the committed document).
/// Baseline rows for cells the current run did not measure are ignored.
#[must_use]
pub fn gate_against_baseline<R: BenchReport>(
    baseline: &R,
    current: &R,
    tolerance_pct: f64,
    throughput: impl Fn(&R::Row) -> f64,
) -> GateReport {
    let rows = current
        .rows()
        .iter()
        .map(|cell| {
            let (scenario, policy) = cell.cell();
            let current_throughput = throughput(cell);
            let base = baseline.row_of(scenario, policy);
            let (delta_pct, status) = match base {
                None => (None, GateStatus::BaselineMissing),
                Some(b) if b.shape() != cell.shape() => (None, GateStatus::StaleBaseline),
                Some(b) => {
                    let delta = (current_throughput - throughput(b)) / throughput(b) * 100.0;
                    let status = if delta < -tolerance_pct {
                        GateStatus::Regression
                    } else {
                        GateStatus::Ok
                    };
                    (Some(delta), status)
                }
            };
            GateRow {
                scenario: scenario.to_owned(),
                policy: policy.to_owned(),
                baseline_throughput: base.map(&throughput),
                current_throughput,
                delta_pct,
                status,
            }
        })
        .collect();
    GateReport {
        rows,
        tolerance_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_cover_every_requested_policy() {
        let rows =
            bench_engine("quick", 40, 3, &["keep-forever", "no-keep-alive"], false, 2).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.scenario, "quick");
            assert!(row.slots > 0);
            assert_eq!(row.iters, 2);
            assert!(row.slots_per_sec > 0.0, "{row:?}");
            assert!(
                row.secs_min <= row.secs && row.secs <= row.secs_max,
                "{row:?}"
            );
            assert!(row.secs_std >= 0.0);
        }
    }

    #[test]
    fn quick_mode_shrinks_every_scenario() {
        let rows = bench_engine("chain-heavy", 40, 3, &["no-keep-alive"], true, 1).unwrap();
        // The quick shrink caps the horizon at 7 days.
        assert_eq!(rows[0].slots, u64::from(7 * spes_trace::SLOTS_PER_DAY));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(bench_engine("no-such", 10, 1, &["keep-forever"], false, 1).is_err());
        assert!(bench_engine("quick", 10, 1, &["no-such"], false, 1).is_err());
        assert!(bench_engine("quick", 10, 1, &["keep-forever"], false, 0).is_err());
        // FaaSCache's capacity depends on a SPES run.
        let err = bench_engine("quick", 10, 1, &["faascache"], false, 1).unwrap_err();
        assert!(err.contains("capacity donor"), "{err}");
    }

    #[test]
    fn serve_bench_measures_every_requested_policy() {
        let rows = bench_serve("quick", 40, 3, &["keep-forever", "no-keep-alive"], false).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.scenario, "quick");
            assert!(row.slots > 0);
            assert!(row.events > 0);
            assert!(row.events_per_sec > 0.0, "{row:?}");
            assert!(
                row.p50_us <= row.p99_us && row.p99_us <= row.max_us,
                "{row:?}"
            );
        }
    }

    #[test]
    fn serve_bench_rejects_unknown_names_and_donors() {
        assert!(bench_serve("no-such", 10, 1, &["keep-forever"], false).is_err());
        assert!(bench_serve("quick", 10, 1, &["no-such"], false).is_err());
        let err = bench_serve("quick", 10, 1, &["faascache"], false).unwrap_err();
        assert!(err.contains("capacity donor"), "{err}");
    }

    #[test]
    fn serve_report_round_trips_through_json() {
        let report = ServeBenchReport {
            rows: vec![ServeBenchRow {
                scenario: "quick".into(),
                policy: "keep-forever".into(),
                n_functions: 40,
                slots: 10_080,
                events: 12_345,
                secs: 0.01,
                p50_us: 0.8,
                p99_us: 2.5,
                max_us: 40.0,
                events_per_sec: 1_234_500.0,
            }],
        };
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(report.row_of("quick", "keep-forever").is_some());
        assert!(report.row_of("quick", "spes").is_none());
    }

    #[test]
    fn journal_bench_verifies_the_round_trip_and_times_the_codec() {
        let rows = bench_journal("quick", 40, 3, &["fixed-keep-alive"], true, 1).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.events > 0 && row.bytes > 0, "{row:?}");
        assert!(row.encode_secs > 0.0 && row.decode_secs > 0.0, "{row:?}");
        let rate = row.events as f64 / (row.encode_secs + row.decode_secs);
        assert!((row.events_per_sec - rate).abs() <= 1e-9 * rate, "{row:?}");
    }

    /// The committed journal rows' counts are a golden: each row,
    /// recomputed at the `--quick` defaults, journals exactly as many
    /// events into exactly as many bytes. A change that moves a count
    /// regenerates `BENCH_journal.json` and names the cause.
    #[test]
    fn committed_journal_rows_reproduce_their_counts() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_journal.json");
        let committed: JournalBenchReport =
            crate::bench_cli::read_json(std::path::Path::new(path)).unwrap();
        assert!(!committed.rows.is_empty());
        let counts = |r: &JournalBenchRow| {
            (
                r.scenario.clone(),
                r.policy.clone(),
                r.n_functions,
                r.slots,
                r.events,
                r.bytes,
            )
        };
        for row in &committed.rows {
            let fresh = bench_journal(
                &row.scenario,
                crate::bench_cli::QUICK_FUNCTIONS,
                7,
                &[row.policy.as_str()],
                true,
                1,
            )
            .unwrap();
            assert_eq!(counts(&fresh[0]), counts(row));
        }
    }

    #[test]
    fn journal_bench_rejects_unknown_names_and_donors() {
        assert!(bench_journal("no-such", 10, 1, &["keep-forever"], true, 1).is_err());
        assert!(bench_journal("quick", 10, 1, &["no-such"], true, 1).is_err());
        assert!(bench_journal("quick", 10, 1, &["keep-forever"], true, 0).is_err());
        let err = bench_journal("quick", 10, 1, &["faascache"], true, 1).unwrap_err();
        assert!(err.contains("capacity donor"), "{err}");
    }

    #[test]
    fn sample_stats_are_consistent() {
        let (mean, min, max, std) = sample_stats(&[1.0, 2.0, 3.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        assert_eq!((min, max), (1.0, 3.0));
        assert!((std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (m1, lo1, hi1, s1) = sample_stats(&[0.25]);
        assert_eq!((m1, lo1, hi1, s1), (0.25, 0.25, 0.25, 0.0));
    }

    fn engine_throughput(row: &EngineBenchRow) -> f64 {
        row.slots_per_sec
    }

    fn serve_throughput(row: &ServeBenchRow) -> f64 {
        row.events_per_sec
    }

    fn row(scenario: &str, policy: &str, slots_per_sec: f64) -> EngineBenchRow {
        EngineBenchRow {
            scenario: scenario.into(),
            policy: policy.into(),
            n_functions: 120,
            slots: 10_080,
            iters: 5,
            secs: 10_080.0 / slots_per_sec,
            secs_min: 0.0,
            secs_max: 1.0,
            secs_std: 0.0,
            slots_per_sec,
        }
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = EngineBenchReport {
            rows: vec![row("quick", "keep-forever", 100_000.0)],
        };
        // 30% slower: inside a 40% tolerance.
        let ok = EngineBenchReport {
            rows: vec![row("quick", "keep-forever", 70_000.0)],
        };
        let report = gate_against_baseline(&baseline, &ok, 40.0, engine_throughput);
        assert!(report.passed(), "{:?}", report.rows);
        assert!((report.rows[0].delta_pct.unwrap() + 30.0).abs() < 1e-9);

        // 50% slower: regression.
        let slow = EngineBenchReport {
            rows: vec![row("quick", "keep-forever", 50_000.0)],
        };
        let report = gate_against_baseline(&baseline, &slow, 40.0, engine_throughput);
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.rows[0].status, GateStatus::Regression);

        // Faster is always fine.
        let fast = EngineBenchReport {
            rows: vec![row("quick", "keep-forever", 250_000.0)],
        };
        assert!(gate_against_baseline(&baseline, &fast, 40.0, engine_throughput).passed());
    }

    #[test]
    fn gate_flags_missing_and_stale_baselines() {
        let baseline = EngineBenchReport {
            rows: vec![row("quick", "keep-forever", 100_000.0)],
        };
        let current = EngineBenchReport {
            rows: vec![
                row("quick", "keep-forever", 100_000.0),
                row("quick", "no-keep-alive", 90_000.0),
            ],
        };
        let report = gate_against_baseline(&baseline, &current, 40.0, engine_throughput);
        assert!(!report.passed());
        assert_eq!(report.rows[1].status, GateStatus::BaselineMissing);

        let mut resized = row("quick", "keep-forever", 100_000.0);
        resized.n_functions = 999;
        let report = gate_against_baseline(
            &baseline,
            &EngineBenchReport {
                rows: vec![resized],
            },
            40.0,
            engine_throughput,
        );
        assert_eq!(report.rows[0].status, GateStatus::StaleBaseline);
        assert!(!report.passed());

        // Baseline rows the current run did not measure are ignored.
        let report = gate_against_baseline(
            &EngineBenchReport {
                rows: vec![
                    row("quick", "keep-forever", 100_000.0),
                    row("bursty", "keep-forever", 100_000.0),
                ],
            },
            &EngineBenchReport {
                rows: vec![row("quick", "keep-forever", 95_000.0)],
            },
            40.0,
            engine_throughput,
        );
        assert!(report.passed());
        assert_eq!(report.rows.len(), 1);
    }

    fn serve_row(scenario: &str, policy: &str, events_per_sec: f64) -> ServeBenchRow {
        ServeBenchRow {
            scenario: scenario.into(),
            policy: policy.into(),
            n_functions: 120,
            slots: 10_080,
            events: 50_000,
            secs: 50_000.0 / events_per_sec,
            p50_us: 1.0,
            p99_us: 3.0,
            max_us: 50.0,
            events_per_sec,
        }
    }

    #[test]
    fn serve_gate_mirrors_the_engine_gate_semantics() {
        let baseline = ServeBenchReport {
            rows: vec![serve_row("quick", "keep-forever", 1_000_000.0)],
        };
        // 10% slower: inside a 25% tolerance.
        let ok = ServeBenchReport {
            rows: vec![serve_row("quick", "keep-forever", 900_000.0)],
        };
        let report = gate_against_baseline(&baseline, &ok, 25.0, serve_throughput);
        assert!(report.passed(), "{:?}", report.rows);
        assert!((report.rows[0].delta_pct.unwrap() + 10.0).abs() < 1e-9);

        // 40% slower: regression.
        let slow = ServeBenchReport {
            rows: vec![serve_row("quick", "keep-forever", 600_000.0)],
        };
        let report = gate_against_baseline(&baseline, &slow, 25.0, serve_throughput);
        assert!(!report.passed());
        assert_eq!(report.rows[0].status, GateStatus::Regression);

        // Unknown cell and reshaped trace both fail until the committed
        // baseline is regenerated.
        let current = ServeBenchReport {
            rows: vec![serve_row("quick", "no-keep-alive", 1_000_000.0)],
        };
        let report = gate_against_baseline(&baseline, &current, 25.0, serve_throughput);
        assert_eq!(report.rows[0].status, GateStatus::BaselineMissing);
        let mut resized = serve_row("quick", "keep-forever", 1_000_000.0);
        resized.slots = 20_160;
        let report = gate_against_baseline(
            &baseline,
            &ServeBenchReport {
                rows: vec![resized],
            },
            25.0,
            serve_throughput,
        );
        assert_eq!(report.rows[0].status, GateStatus::StaleBaseline);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = EngineBenchReport {
            rows: vec![EngineBenchRow {
                scenario: "paper-default".into(),
                policy: "keep-forever".into(),
                n_functions: 800,
                slots: 20_160,
                iters: 5,
                secs: 0.25,
                secs_min: 0.2,
                secs_max: 0.3,
                secs_std: 0.03,
                slots_per_sec: 80_640.0,
            }],
        };
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: EngineBenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert!(report.row_of("paper-default", "keep-forever").is_some());
        assert!(report.row_of("paper-default", "spes").is_none());
    }
}
