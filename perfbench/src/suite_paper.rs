//! `suite-paper`: what a `repro` user waits on. The paper-default
//! scenario (2000 functions, 14 days) is generated, the default six-policy
//! suite runs through `run_suite_comparison`, and the main figures are
//! built and serialised.

use crate::checks::{invocations_per_function, Checks};
use crate::inputs;
use crate::layers::{self, Layers, ObserverPlan};
use crate::probe::{self, FitLog, MeteredFactory, TracedPolicy};
use crate::{median_of, repeat, Report};
use spes_bench::figures_main;
use spes_bench::{default_suite, run_suite_comparison, ComparisonRun};
use spes_core::SpesConfig;
use spes_sim::suite::{CapacityRule, FitContext, PolicySpec, SuiteEntry};
use spes_sim::{SimConfig, Simulation};
use spes_trace::SynthTrace;
use std::time::Instant;

const HEADLINE: &str = "spes";

fn suite() -> Vec<PolicySpec> {
    default_suite(&SpesConfig::default())
}

/// Builds and serialises the main figures; returns the JSON byte count.
fn build_figures(cmp: &ComparisonRun) -> Result<usize, String> {
    fn json<T: serde::Serialize>(value: &T) -> Result<usize, String> {
        serde_json::to_string_pretty(value)
            .map(|s| std::hint::black_box(s).len())
            .map_err(|e| e.to_string())
    }
    let mut bytes = 0;
    if let Some(census) = figures_main::table1(cmp) {
        bytes += json(&census)?;
    }
    bytes += json(&figures_main::fig8(cmp))?;
    bytes += json(&figures_main::fig9(cmp))?;
    if let Some(fig) = figures_main::fig10(cmp) {
        bytes += json(&fig)?;
    }
    bytes += json(&figures_main::fig11(cmp))?;
    if let Some(fig) = figures_main::fig12(cmp) {
        bytes += json(&fig)?;
    }
    bytes += json(&figures_main::timeline(cmp, 60))?;
    bytes += json(&figures_main::evictions(cmp))?;
    bytes += json(&figures_main::fairness(cmp))?;
    bytes += json(&figures_main::pressure(cmp))?;
    bytes += json(&figures_main::overhead(cmp))?;
    Ok(bytes)
}

/// Per-function invocations over the suite's measured window.
fn measured_invocations(data: &SynthTrace) -> Vec<u64> {
    let trace = &data.trace;
    let batches = trace.slot_batches(data.train_end, trace.n_slots);
    invocations_per_function(&batches, trace.n_functions(), data.train_end, trace.n_slots)
}

struct Iteration {
    setup_s: f64,
    run_s: f64,
    run_ref: f64,
    /// Per simulated minute, the time the suite took to close it: the sum
    /// over its policies of one engine slot (µs).
    slot_gaps_us: Vec<f64>,
    cmp: ComparisonRun,
    expected: Vec<u64>,
    slots: u64,
}

/// Slot by slot, the sum of every clocked run's slot gap. Each policy
/// simulates a few seconds; the sum spreads one slot's reading over the
/// whole suite, so it does not hinge on how busy the host was during any
/// one simulation.
fn suite_slot_gaps(log: FitLog) -> Vec<f64> {
    let runs: Vec<Vec<f64>> = log.slot_gaps_us.into_iter().map(|(_, g)| g).collect();
    let slots = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..slots)
        .map(|i| runs.iter().map(|g| g[i]).sum())
        .collect()
}

fn iteration(trace_seed: u64) -> Result<Iteration, String> {
    let begin = Instant::now();
    let data = inputs::generate(trace_seed)?;
    let generate_s = begin.elapsed().as_secs_f64();

    let (specs, metered) = MeteredFactory::wrap_suite(&suite());
    let begin = Instant::now();
    let cmp = run_suite_comparison(&data, &specs).map_err(|e| e.to_string())?;
    let suite_s = begin.elapsed().as_secs_f64();
    let begin = Instant::now();
    build_figures(&cmp)?;
    let figures_s = begin.elapsed().as_secs_f64();

    let log = std::mem::take(&mut *metered.lock().map_err(|e| e.to_string())?);
    let fit_s: f64 = log.fits.iter().map(|(_, s)| s).sum();
    let slots = cmp.runs.len() as u64 * u64::from(data.trace.n_slots);
    let run_s = suite_s - fit_s - log.host.spent_s() + figures_s;
    Ok(Iteration {
        setup_s: generate_s + fit_s,
        run_s,
        run_ref: log.host.in_ref(run_s),
        slot_gaps_us: suite_slot_gaps(log),
        expected: measured_invocations(&data),
        cmp,
        slots,
    })
}

fn check_comparison(checks: &mut Checks, label: &str, cmp: &ComparisonRun, expected: &[u64]) {
    checks.check(cmp.runs.len() == spes_bench::POLICY_ORDER.len(), || {
        format!("{label}: {} runs, expected six", cmp.runs.len())
    });
    for run in &cmp.runs {
        checks.run_invariants(&format!("{label} {}", run.policy_name), run, expected);
    }
}

fn headline(cmp: &ComparisonRun) -> Result<&spes_sim::RunResult, String> {
    cmp.try_run_of(HEADLINE)
        .ok_or_else(|| "the default suite lost its spes run".to_owned())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let trace_seed = inputs::trace_seed_for(seed)?;
    if trace {
        return traced(trace_seed);
    }
    let iterations = repeat(seconds, 1, || iteration(trace_seed))?;
    let mut report = Report::default();
    for (i, it) in iterations.iter().enumerate() {
        check_comparison(
            &mut report.checks,
            &format!("iteration {i}"),
            &it.cmp,
            &it.expected,
        );
        report.ops += it.slots;
    }
    // Every iteration simulates the same inputs: the runs must repeat.
    let first = &iterations[0].cmp;
    for it in &iterations[1..] {
        for (a, b) in first.runs.iter().zip(&it.cmp.runs) {
            report
                .checks
                .same_run(&format!("repeat {}", a.policy_name), a, b);
        }
    }
    report.metric("setup_s", median_of(&iterations, |it| it.setup_s), "s");
    report.run_time(
        median_of(&iterations, |it| it.run_s),
        median_of(&iterations, |it| it.run_ref),
    );
    let repeats: Vec<Vec<f64>> = iterations.into_iter().map(|it| it.slot_gaps_us).collect();
    let mut gaps = probe::per_slot_min(&repeats);
    report.slot_times(&mut gaps);
    report.metric(
        "peak_rss_mb",
        probe::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    Ok(report)
}

/// The traced run: the untraced suite once as the reference, then the
/// same two-phase protocol rebuilt from `PolicySpec::build` and
/// `Simulation` with every policy and observer wrapped.
fn traced(trace_seed: u64) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut report = Report::default();

    let begin = Instant::now();
    let data = inputs::generate(trace_seed)?;
    layers.generate_s = begin.elapsed().as_secs_f64();
    let trace = &data.trace;
    let expected = measured_invocations(&data);

    let specs = suite();
    let begin = Instant::now();
    let reference = run_suite_comparison(&data, &specs).map_err(|e| e.to_string())?;
    let untraced_s = begin.elapsed().as_secs_f64();
    check_comparison(&mut report.checks, "reference", &reference, &expected);

    let window = SimConfig::new(0, trace.n_slots).with_metrics_start(data.train_end);
    let apps: Vec<_> = trace.metas.iter().map(|m| m.app).collect();
    let plan = ObserverPlan {
        slot_series: true,
        counts: true,
    };
    let mut spans_s = 0.0;
    let protocol = Instant::now();
    // Phase two reads phase one's runs (FaaSCache's capacity donor).
    let mut phase_one: Vec<SuiteEntry> = Vec::new();
    let mut ran = 0;
    for phase_two in [false, true] {
        for spec in specs
            .iter()
            .filter(|s| s.capacity().is_self_contained() != phase_two)
        {
            let prior: &[SuiteEntry] = if phase_two { &phase_one } else { &[] };
            let ctx = FitContext {
                trace,
                train_start: 0,
                train_end: data.train_end,
                prior,
            };
            let capacity = match spec.capacity() {
                CapacityRule::Unlimited => None,
                CapacityRule::Fixed(budget) => Some(*budget),
                CapacityRule::PeakOf(donor) => Some(
                    ctx.prior_run(donor)
                        .ok_or_else(|| format!("capacity donor {donor} has not run"))?
                        .peak_loaded
                        .max(1),
                ),
            };
            let config = capacity.map_or(window, |c| window.with_capacity(c));
            let begin = Instant::now();
            let mut policy = TracedPolicy::new(spec.build(&ctx));
            let fit_s = begin.elapsed().as_secs_f64();
            layers.add_fit(spec.name(), fit_s);

            // `Simulation::run` builds the window's slot batches first;
            // time an identical build just before it and charge that to
            // the trace layer rather than the engine.
            let begin = Instant::now();
            std::hint::black_box(trace.slot_batches(0, trace.n_slots));
            let batches_s = begin.elapsed().as_secs_f64();

            let sim = Simulation::new(trace, config).with_observer(layers::traced_observers(
                plan,
                &apps,
                Vec::new(),
            ));
            let begin = Instant::now();
            let mut set = sim.run(&mut policy).map_err(|e| e.to_string())?;
            let run_s = begin.elapsed().as_secs_f64();
            spans_s += fit_s + batches_s + run_s;
            report.ops += u64::from(trace.n_slots);

            let observed = layers::take_observed(&mut set)?;
            let counts = observed.counts.unwrap_or_default();
            layers.add_run(&policy, &observed, counts, run_s, batches_s);
            layers.slot_batches_s += batches_s;
            let run = observed.collector.into_result();
            match reference.try_run_of(spec.name()) {
                Some(expected_run) => {
                    report
                        .checks
                        .same_run(&format!("traced {}", spec.name()), expected_run, &run)
                }
                None => report.checks.check(false, || {
                    format!("reference suite has no {} run", spec.name())
                }),
            }
            ran += 1;
            if !phase_two {
                phase_one.push(SuiteEntry {
                    name: spec.name().to_owned(),
                    run,
                    series: observed.slot_series.ok_or("traced runs attach a series")?,
                    audit: observed.audit,
                    fairness: observed.fairness,
                    pressure: observed.pressure,
                    resolved_capacity: capacity,
                    policy: Box::new(policy),
                });
            }
        }
    }
    let protocol_s = protocol.elapsed().as_secs_f64();
    report.checks.check(ran == specs.len(), || {
        format!("traced protocol ran {ran} of {} policies", specs.len())
    });

    let begin = Instant::now();
    let json_bytes = build_figures(&reference)?;
    layers.figures_s = begin.elapsed().as_secs_f64();
    layers.figures_json_bytes = json_bytes as u64;
    let spes = headline(&reference)?;
    layers.csr_p75 = spes.csr_percentile(75.0).unwrap_or(f64::NAN);
    layers.wmt_min = spes.total_wmt() as f64;
    layers.csr_p75_gain_pct = figures_main::fig8(&reference).q3_improvement_pct;
    // The timed slot-batch builds are extra work the untraced suite does
    // not do (inside its runs it does the same builds, untimed).
    layers.overhead_pct = (protocol_s - layers.slot_batches_s - untraced_s) / untraced_s * 100.0;
    layers.unattributed_s = protocol_s - spans_s;
    report.metrics = layers.metrics();
    Ok(report)
}
