//! Spans recorded by the benchmark's own workload code around calls into the
//! library crates, with the work counters each span caused.
//!
//! Spans are flat (never nested), so a span's self time is its duration and
//! the part of the traced wall that no span covers is the benchmark's own
//! "other" time. Work counts come from a scoped [`WorkMeter`] per span; the
//! process-global counters (plan cache, transposes, recovery events) are
//! read only as deltas around a span, while the single client thread runs
//! nothing else.

use koala_exec::{WorkLedger, WorkMeter};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sum of every recovery counter the library keeps.
pub fn recovery_events() -> u64 {
    let s = koala_error::recovery::snapshot();
    s.svd_sweep_escalations
        + s.gram_svd_fallbacks
        + s.qr_degradations
        + s.rsvd_resketches
        + s.nonfinite_detections
        + s.summa_round_retries
        + s.collective_retries
        + s.checkpoints_saved
        + s.checkpoints_restored
        + s.faults_injected
}

/// Counter deltas accumulated over every span of a traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub work: WorkLedger,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub transposes: u64,
    pub recovery_events: u64,
}

/// The span recorder. A disabled tracer runs every closure bare, so one
/// workload loop serves both the untraced and the traced runs.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    /// Busy nanoseconds per span name.
    busy_ns: BTreeMap<&'static str, u128>,
    counters: Counters,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::default()
    }

    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as span `name`: time it and collect the work it caused.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let meter = WorkMeter::new();
        let plan0 = koala_tensor::plan_stats();
        let transposes0 = koala_linalg::transpose_counter();
        let recovery0 = recovery_events();
        let start = Instant::now();
        let out = meter.scope(f);
        let ns = start.elapsed().as_nanos();
        let plan1 = koala_tensor::plan_stats();
        let c = &mut self.counters;
        c.work = c.work.plus(&meter.ledger());
        c.plan_hits += plan1.hits - plan0.hits;
        c.plan_misses += plan1.misses - plan0.misses;
        c.plan_evictions += plan1.evictions - plan0.evictions;
        c.transposes += koala_linalg::transpose_counter() - transposes0;
        c.recovery_events += recovery_events() - recovery0;
        *self.busy_ns.entry(name).or_default() += ns;
        out
    }

    /// Busy nanoseconds of span `name` (0 when it never ran).
    pub fn busy_ns(&self, name: &str) -> u128 {
        self.busy_ns.get(name).copied().unwrap_or(0)
    }

    /// Busy nanoseconds summed over every span.
    pub fn total_busy_ns(&self) -> u128 {
        self.busy_ns.values().sum()
    }

    pub fn span_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.busy_ns.keys().copied()
    }

    pub fn counters(&self) -> Counters {
        self.counters
    }
}
