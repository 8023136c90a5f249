//! `scale-stream`: the million-function path at a size a shared machine
//! holds. 100 000 paper-default functions on the 7-day quick horizon are
//! generated by `SynthStream` and stepped through `SimDriver` with the
//! suite's observers, once each for three engine-bound policies.

use crate::checks::{invocations_per_function, Checks};
use crate::layers::{self, Layers, ObserverPlan};
use crate::probe::{self, HostClock, StepCounts, TracedPolicy};
use crate::{median_of, repeat, Report};
use spes_baselines::FixedKeepAlive;
use spes_sim::{
    DynObserver, EvictionAudit, Fairness, KeepForever, MemoryPressure, NoKeepAlive, Policy,
    RunResult, SimConfig, SimDriver, SlotSeries,
};
use spes_trace::{synth, AppId, FunctionId, Slot, SlotBatches, SynthConfig, SynthStream};
use std::time::Instant;

const FUNCTIONS: usize = 100_000;
const POLICIES: [&str; 3] = ["fixed-keep-alive", "no-keep-alive", "keep-forever"];
const HEADLINE: &str = "fixed-keep-alive";
/// Over the one measured day at least a quarter of the invoked functions
/// are cold on every invocation under both the headline and
/// no-keep-alive, so both Q3-CSRs are 1. The gain reported is the
/// headroom instead: keep-forever's Q3-CSR reduction over the headline,
/// the most any keep-alive policy could claim here.
const BOUND: &str = "keep-forever";

fn config(seed: u64) -> Result<SynthConfig, String> {
    let mut cfg = synth::scenario_config("paper-default")
        .ok_or("paper-default is a registered scenario")?
        .quick();
    cfg.n_functions = FUNCTIONS;
    cfg.seed = seed;
    Ok(cfg)
}

fn policy(name: &str) -> Box<dyn Policy> {
    match name {
        "fixed-keep-alive" => Box::new(FixedKeepAlive::paper_default(FUNCTIONS)),
        "no-keep-alive" => Box::new(NoKeepAlive),
        _ => Box::new(KeepForever),
    }
}

fn suite_observers(apps: &[AppId]) -> Vec<Box<dyn DynObserver>> {
    vec![
        Box::new(SlotSeries::new()),
        Box::new(EvictionAudit::new(spes_sim::PREMATURE_RELOAD_WINDOW)),
        Box::new(Fairness::new(apps)),
        Box::new(MemoryPressure::new()),
    ]
}

fn window(stream: &SynthStream) -> SimConfig {
    SimConfig::new(0, stream.n_slots()).with_metrics_start(stream.train_end())
}

fn apps_of(stream: &SynthStream) -> Vec<AppId> {
    stream.metas().iter().map(|m| m.app).collect()
}

struct Iteration {
    setup_s: f64,
    run_s: f64,
    run_ref: f64,
    /// Step times (µs), one list per policy run.
    step_us: Vec<Vec<f64>>,
    runs: Vec<RunResult>,
    expected: Vec<u64>,
    steps: u64,
    step_errors: u64,
}

/// Steps `policy` through the whole stream, optionally timing each step,
/// sampling the host's speed between steps and counting pool decisions;
/// counts step errors instead of stopping at them.
fn drive(
    stream: &SynthStream,
    policy: &mut dyn Policy,
    observers: Vec<Box<dyn DynObserver>>,
    mut step_us: Option<&mut Vec<f64>>,
    mut host: Option<&mut HostClock>,
    mut counts: Option<&mut StepCounts>,
    step_errors: &mut u64,
) -> Result<(RunResult, spes_sim::ObserverSet), String> {
    let mut driver =
        SimDriver::new(FUNCTIONS, window(stream), policy, observers).map_err(|e| e.to_string())?;
    for t in 0..stream.n_slots() {
        let batch = stream.batch(t);
        let begin = Instant::now();
        let stepped = driver.step(t, batch);
        let elapsed = begin.elapsed();
        match (stepped, counts.as_deref_mut()) {
            (Ok(outcome), Some(counts)) => counts.record(batch, &outcome),
            (Ok(_), None) => {}
            (Err(_), _) => *step_errors += 1,
        }
        if let Some(samples) = step_us.as_deref_mut() {
            samples.push(elapsed.as_secs_f64() * 1e6);
        }
        if let Some(host) = host.as_deref_mut() {
            host.tick();
        }
        if let Some(counts) = counts.as_deref_mut() {
            counts.settle(driver.pool());
        }
    }
    Ok(driver.finish_with_observers())
}

fn measured_invocations(stream: &SynthStream) -> Vec<u64> {
    invocations_per_function(
        stream.batches(),
        FUNCTIONS,
        stream.train_end(),
        stream.n_slots(),
    )
}

fn iteration(seed: u64) -> Result<Iteration, String> {
    let cfg = config(seed)?;
    let begin = Instant::now();
    let stream = SynthStream::build(&cfg).map_err(|e| e.to_string())?;
    let setup_s = begin.elapsed().as_secs_f64();

    let apps = apps_of(&stream);
    let mut step_us = Vec::new();
    let mut step_errors = 0;
    let mut runs = Vec::new();
    let mut host = HostClock::new();
    let begin = Instant::now();
    for name in POLICIES {
        let mut p = policy(name);
        let mut times = Vec::with_capacity(stream.n_slots() as usize);
        let (run, _) = drive(
            &stream,
            p.as_mut(),
            suite_observers(&apps),
            Some(&mut times),
            Some(&mut host),
            None,
            &mut step_errors,
        )?;
        runs.push(run);
        step_us.push(times);
    }
    let run_s = begin.elapsed().as_secs_f64() - host.spent_s();
    Ok(Iteration {
        setup_s,
        run_s,
        run_ref: host.in_ref(run_s),
        step_us,
        runs,
        expected: measured_invocations(&stream),
        steps: POLICIES.len() as u64 * u64::from(stream.n_slots()),
        step_errors,
    })
}

fn check_runs(checks: &mut Checks, label: &str, runs: &[RunResult], expected: &[u64]) {
    for (name, run) in POLICIES.iter().zip(runs) {
        checks.check(run.policy_name == *name, || {
            format!(
                "{label}: run of {} where {name} was driven",
                run.policy_name
            )
        });
        checks.run_invariants(&format!("{label} {name}"), run, expected);
    }
}

fn q3(run: &RunResult) -> f64 {
    run.csr_percentile(75.0).unwrap_or(f64::NAN)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    if trace {
        return traced(seed);
    }
    let mut iterations = repeat(seconds, 2, || iteration(seed))?;
    let mut report = Report::default();
    for (i, it) in iterations.iter().enumerate() {
        check_runs(
            &mut report.checks,
            &format!("iteration {i}"),
            &it.runs,
            &it.expected,
        );
        report.ops += it.steps;
        report.failed_ops += it.step_errors;
    }
    let first = &iterations[0].runs;
    for it in &iterations[1..] {
        for (a, b) in first.iter().zip(&it.runs) {
            report
                .checks
                .same_run(&format!("repeat {}", a.policy_name), a, b);
        }
    }
    let mut steps: Vec<f64> = (0..POLICIES.len())
        .flat_map(|p| {
            let repeats: Vec<Vec<f64>> = iterations
                .iter_mut()
                .map(|it| std::mem::take(&mut it.step_us[p]))
                .collect();
            probe::per_slot_min(&repeats)
        })
        .collect();
    report.metric("setup_s", median_of(&iterations, |it| it.setup_s), "s");
    report.run_time(
        median_of(&iterations, |it| it.run_s),
        median_of(&iterations, |it| it.run_ref),
    );
    report.slot_times(&mut steps);
    report.metric(
        "peak_rss_mb",
        probe::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    Ok(report)
}

/// Function-major `(slot, function, count)` triples of `batches`, the
/// input `SlotBatches::from_function_major` is built from.
fn function_major(batches: &SlotBatches) -> Vec<(Slot, FunctionId, u32)> {
    let mut triples: Vec<(Slot, FunctionId, u32)> = (batches.start()..batches.end())
        .flat_map(|t| batches.batch(t).iter().map(move |&(f, c)| (t, f, c)))
        .collect();
    triples.sort_by_key(|&(_, f, _)| f);
    triples
}

fn traced(seed: u64) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut report = Report::default();

    let cfg = config(seed)?;
    let begin = Instant::now();
    let stream = SynthStream::build(&cfg).map_err(|e| e.to_string())?;
    layers.stream_build_s = begin.elapsed().as_secs_f64();

    // The slot-major index is built inside `SynthStream::build`; rebuild
    // it from the same triples to time that step on its own.
    let triples = function_major(stream.batches());
    let begin = Instant::now();
    let rebuilt = SlotBatches::from_function_major(0, stream.n_slots(), &triples);
    layers.slot_batches_s = begin.elapsed().as_secs_f64();
    drop(triples);
    report.checks.check(&rebuilt == stream.batches(), || {
        "rebuilt slot batches differ from the stream's".to_owned()
    });
    drop(rebuilt);

    let apps = apps_of(&stream);
    let expected = measured_invocations(&stream);
    let mut step_errors = 0;

    let begin = Instant::now();
    let mut reference = Vec::new();
    for name in POLICIES {
        let mut p = policy(name);
        let (run, _) = drive(
            &stream,
            p.as_mut(),
            suite_observers(&apps),
            None,
            None,
            None,
            &mut step_errors,
        )?;
        reference.push(run);
    }
    let untraced_s = begin.elapsed().as_secs_f64();
    check_runs(&mut report.checks, "reference", &reference, &expected);

    let plan = ObserverPlan {
        slot_series: true,
        counts: false,
    };
    let mut spans_s = 0.0;
    let mut twins_s = 0.0;
    let traced_section = Instant::now();
    for (name, expected_run) in POLICIES.iter().zip(&reference) {
        let mut p = TracedPolicy::new(policy(name));
        let mut counts = StepCounts::new(FUNCTIONS);
        let begin = Instant::now();
        let (run, mut set) = drive(
            &stream,
            &mut p,
            vec![layers::traced_observers(plan, &apps, Vec::new())],
            None,
            None,
            Some(&mut counts),
            &mut step_errors,
        )?;
        let run_s = begin.elapsed().as_secs_f64();
        spans_s += run_s;
        let observed = layers::take_observed(&mut set)?;
        // The driver's internal collector does the same work as its
        // timed twin; charge it to the collector, not to the engine.
        let internal_collector_s = observed.observer_secs[0];
        twins_s += internal_collector_s;
        layers.add_run(&p, &observed, counts.counts, run_s, internal_collector_s);
        report
            .checks
            .same_run(&format!("traced {name}"), expected_run, &run);
        let twin = observed.collector.into_result();
        report
            .checks
            .same_run(&format!("collector twin {name}"), &run, &twin);
    }
    let traced_s = traced_section.elapsed().as_secs_f64();
    report.ops += 2 * POLICIES.len() as u64 * u64::from(stream.n_slots());
    report.failed_ops += step_errors;
    // The twin collector repeats work the untraced run does too (in the
    // driver's internal collector); the overhead is the instrumentation's
    // own cost beyond that duplicate.
    layers.overhead_pct = (traced_s - twins_s - untraced_s) / untraced_s * 100.0;
    layers.unattributed_s = traced_s - spans_s;
    let run_of = |name: &str| &reference[POLICIES.iter().position(|&p| p == name).unwrap_or(0)];
    let (headline, bound) = (run_of(HEADLINE), run_of(BOUND));
    layers.csr_p75 = q3(headline);
    layers.wmt_min = headline.total_wmt() as f64;
    layers.csr_p75_gain_pct = (q3(headline) - q3(bound)) / q3(headline) * 100.0;
    report.metrics = layers.metrics();
    Ok(report)
}
