//! Workload inputs made from the benchmark seed.
//!
//! A 2000-function paper-default trace holds between about 2.0 M and
//! 3.1 M invocation events depending on its seed, and every timing the
//! benchmark reports scales with that count. So the seed does not name
//! the trace directly: it starts a deterministic sequence of candidate
//! trace seeds, and the first candidate whose event count lies within
//! [`EVENT_BAND`] of [`TARGET_EVENTS`] is the workload. Different seeds
//! give different traces of the same size; the same seed always gives the
//! same trace.
//!
//! The search runs in a child process ([`trace_seed_for`]): the
//! candidates it generates and drops are as large as the workload's own
//! trace, and in the workload's process the largest of them, not the
//! workload, would set the peak RSS.

use spes_bench::Experiment;
use spes_trace::SynthTrace;
use std::process::{Command, Stdio};

/// The flag that makes this program run the search and print its result.
pub const PICK_FLAG: &str = "--pick-trace-seed";

/// Functions in the paper-default workloads.
pub const FUNCTIONS: usize = 2000;
/// The event count a selected trace must match: the median over seeds.
const TARGET_EVENTS: f64 = 2.53e6;
/// Allowed relative distance from [`TARGET_EVENTS`].
const EVENT_BAND: f64 = 0.02;
/// Candidates tried before giving up (about one in seven matches).
const MAX_CANDIDATES: u64 = 1000;

/// SplitMix64: decorrelates nearby seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper-default experiment at [`FUNCTIONS`] functions.
pub fn experiment(trace_seed: u64) -> Result<Experiment, String> {
    Experiment::scenario("paper-default", FUNCTIONS, trace_seed)
        .ok_or_else(|| "paper-default is a registered scenario".to_owned())
}

/// Generates the trace of `trace_seed`.
pub fn generate(trace_seed: u64) -> Result<SynthTrace, String> {
    Ok(experiment(trace_seed)?.generate())
}

/// The trace seed the benchmark seed `seed` selects, found by a child
/// process (this program with [`PICK_FLAG`]), which has ended when this
/// returns.
pub fn trace_seed_for(seed: u64) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([PICK_FLAG, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("trace-seed search: {e}"))?;
    if !out.status.success() {
        return Err(format!("trace-seed search failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("trace-seed search printed no seed: {e}"))
}

/// The trace seed the benchmark seed `seed` selects.
pub fn pick_trace_seed(seed: u64) -> Result<u64, String> {
    let base = mix(seed);
    for j in 0..MAX_CANDIDATES {
        let candidate = mix(base.wrapping_add(j));
        let data = generate(candidate)?;
        let trace = &data.trace;
        let events = trace.slot_batches(0, trace.n_slots).n_events() as f64;
        if (events / TARGET_EVENTS - 1.0).abs() <= EVENT_BAND {
            return Ok(candidate);
        }
    }
    Err(format!(
        "no trace within {EVENT_BAND} of {TARGET_EVENTS} events after {MAX_CANDIDATES} candidates"
    ))
}
