//! Per-layer accounting of a traced run: the wrapped observers attached
//! to one policy run, what they measured, and the per-layer metric set
//! every workload reports (a layer a workload does not exercise reads 0).

use crate::probe::{LayerCounts, PoolCounts, TimedSet, TracedPolicy};
use spes_sim::{
    DynObserver, EvictionAudit, Fairness, MemoryPressure, ObserverSet, RunCollector, SlotSeries,
};
use spes_trace::AppId;

/// Policies with per-policy hook metrics, in report order.
pub const POLICIES: [&str; 8] = [
    "spes",
    "defuse",
    "hybrid-function",
    "hybrid-application",
    "fixed-keep-alive",
    "faascache",
    "no-keep-alive",
    "keep-forever",
];

/// Policies with a fitting step, in report order.
pub const FITTED: [&str; 5] = [
    "spes",
    "defuse",
    "hybrid-function",
    "hybrid-application",
    "faascache",
];

/// Observers with per-observer metrics, in report order.
pub const OBSERVERS: [&str; 5] = [
    "run_collector",
    "slot_series",
    "eviction_audit",
    "fairness",
    "memory_pressure",
];

/// Which optional observers ride a traced run, beyond a `RunCollector`
/// (on `SimDriver` runs a twin of the driver's internal collector, which
/// cannot be wrapped), an `EvictionAudit`, `Fairness` and
/// `MemoryPressure`.
#[derive(Clone, Copy)]
pub struct ObserverPlan {
    pub slot_series: bool,
    /// A [`LayerCounts`] observer (`Simulation` runs; `SimDriver` runs
    /// count from step outcomes instead).
    pub counts: bool,
}

/// Builds the timed observer set of one traced run; `extra` observers
/// ride in the same set.
pub fn traced_observers(
    plan: ObserverPlan,
    apps: &[AppId],
    extra: Vec<Box<dyn DynObserver>>,
) -> Box<dyn DynObserver> {
    let mut observers: Vec<Box<dyn DynObserver>> = vec![Box::new(RunCollector::new())];
    if plan.slot_series {
        observers.push(Box::new(SlotSeries::new()));
    }
    observers.push(Box::new(EvictionAudit::new(
        spes_sim::PREMATURE_RELOAD_WINDOW,
    )));
    observers.push(Box::new(Fairness::new(apps)));
    observers.push(Box::new(MemoryPressure::new()));
    if plan.counts {
        observers.push(Box::new(LayerCounts::new(apps.len())));
    }
    observers.extend(extra);
    Box::new(TimedSet::new(observers))
}

/// What the timed observers of one traced run recorded.
pub struct Observed {
    pub collector: RunCollector,
    pub slot_series: Option<SlotSeries>,
    pub audit: EvictionAudit,
    pub fairness: Fairness,
    pub pressure: MemoryPressure,
    /// Pool counts, when a [`LayerCounts`] observer rode the run.
    pub counts: Option<PoolCounts>,
    /// Estimated seconds per observer, [`OBSERVERS`] order.
    pub observer_secs: [f64; 5],
    /// Estimated seconds inside observers that are not layers of the
    /// program: the counter and any `extra` observer.
    pub counter_secs: f64,
    pub events: u64,
    /// What is left of the set: the `extra` observers.
    pub rest: TimedSet,
}

/// Takes the timed observer set back out of a finished run.
pub fn take_observed(set: &mut ObserverSet) -> Result<Observed, String> {
    let mut timed = set
        .take::<TimedSet>()
        .ok_or("traced runs attach a timed observer set")?;
    let (collector, collector_s) = timed.take::<RunCollector>().ok_or("no collector")?;
    let series = timed.take::<SlotSeries>();
    let (audit, audit_s) = timed.take::<EvictionAudit>().ok_or("no audit")?;
    let (fairness, fairness_s) = timed.take::<Fairness>().ok_or("no fairness")?;
    let (pressure, pressure_s) = timed.take::<MemoryPressure>().ok_or("no pressure")?;
    let counts = timed.take::<LayerCounts>();
    Ok(Observed {
        observer_secs: [
            collector_s,
            series.as_ref().map_or(0.0, |s| s.1),
            audit_s,
            fairness_s,
            pressure_s,
        ],
        counter_secs: counts.as_ref().map_or(0.0, |c| c.1),
        events: timed.events(),
        collector,
        slot_series: series.map(|s| s.0),
        audit,
        fairness,
        pressure,
        counts: counts.map(|c| c.0.counts),
        rest: timed,
    })
}

/// Per-policy hook and pool counters.
#[derive(Default, Clone, Copy)]
struct PolicyLayer {
    on_slot_s: f64,
    pick_victim_s: f64,
    loads: u64,
    evictions: u64,
    prewarm_hits: u64,
}

/// The per-layer figures of one traced workload run.
#[derive(Default)]
pub struct Layers {
    pub generate_s: f64,
    pub stream_build_s: f64,
    pub slot_batches_s: f64,
    fit: [f64; 5],
    policy: [PolicyLayer; 8],
    pub engine_self_s: f64,
    pub events: u64,
    pub capacity_evictions: u64,
    observers: [f64; 5],
    pub journal_encode_s: f64,
    pub journal_bytes: u64,
    pub journal_events: u64,
    pub serve_protocol_s: f64,
    pub serve_write_s: f64,
    pub serve_output_bytes: u64,
    pub serve_lines: u64,
    pub figures_s: f64,
    pub figures_json_bytes: u64,
    pub overhead_pct: f64,
    pub unattributed_s: f64,
    /// The headline policy's simulated outcome: Q3-CSR, WMT in slot
    /// minutes, and its Q3-CSR gain over the workload's reference policy.
    pub csr_p75: f64,
    pub wmt_min: f64,
    pub csr_p75_gain_pct: f64,
}

impl Layers {
    /// Records a policy's fit time.
    pub fn add_fit(&mut self, policy: &str, secs: f64) {
        if let Some(i) = FITTED.iter().position(|&p| p == policy) {
            self.fit[i] += secs;
        }
    }

    /// Accounts one traced policy run whose wall time was `run_secs`.
    /// The engine's self time is what the policy hooks, the observers,
    /// the instrumentation's own counter and `other_secs` (work inside
    /// the span that belongs to another layer, e.g. a slot-batch build,
    /// or an unwrappable internal collector) leave of it.
    pub fn add_run(
        &mut self,
        policy: &TracedPolicy,
        observed: &Observed,
        counts: PoolCounts,
        run_secs: f64,
        other_secs: f64,
    ) {
        let name = spes_sim::Policy::name(policy);
        if let Some(i) = POLICIES.iter().position(|&p| p == name) {
            let layer = &mut self.policy[i];
            layer.on_slot_s += policy.on_slot.as_secs_f64();
            layer.pick_victim_s += policy.pick_victim.as_secs_f64();
            layer.loads += counts.policy_loads;
            layer.evictions += counts.policy_evictions;
            layer.prewarm_hits += counts.prewarm_hits;
        }
        let observers: f64 = observed.observer_secs.iter().sum();
        for (total, secs) in self.observers.iter_mut().zip(observed.observer_secs) {
            *total += secs;
        }
        self.engine_self_s +=
            run_secs - policy.hook_secs() - observers - observed.counter_secs - other_secs;
        self.events += observed.events;
        self.capacity_evictions += counts.capacity_evictions;
    }

    /// Every per-layer metric, `(name, value, unit)`, in a fixed order.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out: Vec<(String, f64, &'static str)> = vec![
            ("trace.generate_s".into(), self.generate_s, "s"),
            ("trace.stream_build_s".into(), self.stream_build_s, "s"),
            ("trace.slot_batches_s".into(), self.slot_batches_s, "s"),
        ];
        for (name, secs) in FITTED.iter().zip(self.fit) {
            out.push((format!("fit.{name}_s"), secs, "s"));
        }
        for (name, p) in POLICIES.iter().zip(self.policy) {
            let ratio = if p.loads == 0 {
                0.0
            } else {
                p.prewarm_hits as f64 / p.loads as f64
            };
            out.push((format!("policy.{name}.on_slot_s"), p.on_slot_s, "s"));
            // Only a capacity-limited run asks for victims, and only
            // FaaSCache runs under a capacity.
            if *name == "faascache" {
                out.push((format!("policy.{name}.pick_victim_s"), p.pick_victim_s, "s"));
            }
            out.push((format!("policy.{name}.loads"), p.loads as f64, "count"));
            out.push((
                format!("policy.{name}.evictions"),
                p.evictions as f64,
                "count",
            ));
            out.push((format!("policy.{name}.prewarm_hit_ratio"), ratio, "ratio"));
        }
        let ns_per_event = if self.events == 0 {
            0.0
        } else {
            self.engine_self_s / self.events as f64 * 1e9
        };
        out.push(("engine.self_s".into(), self.engine_self_s, "s"));
        out.push(("engine.events".into(), self.events as f64, "count"));
        out.push(("engine.ns_per_event".into(), ns_per_event, "ns"));
        out.push((
            "engine.capacity_evictions".into(),
            self.capacity_evictions as f64,
            "count",
        ));
        for (name, secs) in OBSERVERS.iter().zip(self.observers) {
            out.push((format!("events.{name}_s"), secs, "s"));
        }
        let bytes_per_event = if self.journal_events == 0 {
            0.0
        } else {
            self.journal_bytes as f64 / self.journal_events as f64
        };
        out.extend([
            ("journal.encode_s".into(), self.journal_encode_s, "s"),
            ("journal.bytes_per_event".into(), bytes_per_event, "B"),
            ("serve.protocol_s".into(), self.serve_protocol_s, "s"),
            ("serve.write_s".into(), self.serve_write_s, "s"),
            (
                "serve.output_bytes".into(),
                self.serve_output_bytes as f64,
                "B",
            ),
            ("serve.lines".into(), self.serve_lines as f64, "count"),
            ("figures.s".into(), self.figures_s, "s"),
            (
                "figures.json_bytes".into(),
                self.figures_json_bytes as f64,
                "B",
            ),
            ("trace.overhead_pct".into(), self.overhead_pct, "%"),
            ("trace.unattributed_s".into(), self.unattributed_s, "s"),
            ("csr_p75".into(), self.csr_p75, "ratio"),
            ("wmt_min".into(), self.wmt_min, "min"),
            ("csr_p75_gain_pct".into(), self.csr_p75_gain_pct, "%"),
        ]);
        out
    }
}
