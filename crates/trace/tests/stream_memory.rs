//! The streaming generator's memory contract: building a `SynthStream`
//! grows the process by at most 12 bytes per event at its peak (the
//! day-block assembly reads about 9.5; holding a function-major triple
//! list next to the slot index read about 20).
//!
//! One test in its own file, so it runs in its own process and no other
//! test's allocations reach its high-water mark.

use spes_trace::{synth, SynthStream};

/// The `kB` value of one `/proc/self/status` field, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[test]
fn stream_build_peaks_under_twelve_bytes_per_event() {
    let Some(before) = status_bytes("VmRSS:") else {
        eprintln!("no /proc/self/status: memory contract not checked on this platform");
        return;
    };
    let mut cfg = synth::scenario_config("paper-default")
        .expect("registered scenario")
        .quick();
    cfg.n_functions = 20_000;
    let stream = SynthStream::build(&cfg).expect("valid config");
    let peak = status_bytes("VmHWM:").expect("VmHWM next to VmRSS");
    let events = stream.batches().n_events() as f64;
    let per_event = peak.saturating_sub(before) as f64 / events;
    assert!(
        per_event <= 12.0,
        "building {events} events grew the peak by {per_event:.2} B/event (contract: <= 12)"
    );
    eprintln!("stream build: {events} events, {per_event:.2} B/event at peak");
}
