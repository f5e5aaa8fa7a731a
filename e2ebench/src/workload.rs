//! The interface every workload implements, and the closed loop that runs it.

use crate::trace::Tracer;
use std::time::Instant;

/// What one closed-loop step did: the latency of each op it ran and how many
/// of those ops failed (engine error, non-`ok` receipt or failed output
/// check).
#[derive(Debug, Default)]
pub struct Step {
    pub latencies_s: Vec<f64>,
    pub failed: usize,
}

impl Step {
    /// A step of one op that took `seconds` and passed or failed its check.
    pub fn one(seconds: f64, ok: bool) -> Step {
        Step { latencies_s: vec![seconds], failed: usize::from(!ok) }
    }
}

/// A set-up workload, ready to run ops.
pub trait Workload {
    /// Compute the benchmark's own reference values (oracles, solo runs) and
    /// run the set-up checks. Not part of `setup_s`.
    fn prepare_checks(&mut self) -> Result<(), String>;

    /// One closed-loop step. With the tracer on, the step replays the same
    /// work through the per-layer public calls, each under a span, and its
    /// outputs are checked bit for bit against the untraced reference.
    fn step(&mut self, tracer: &mut Tracer) -> Step;

    /// Abandon any job in flight, so the next phase starts a fresh job.
    fn restart(&mut self) {}

    /// Reset the workload's own per-layer accumulators before a traced phase.
    fn begin_traced(&mut self) {}

    /// Workload-specific per-layer metrics of the traced phase (`serve.*`,
    /// `json.*`, `cluster.*`), given the number of ops it ran.
    fn layer_metrics(&mut self, _tracer: &Tracer, _ops: usize) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Per-site energy gap of the 40-step 4x4 ITE job to the exact ground
    /// state, when the workload runs that job itself.
    fn energy_err(&self) -> Option<f64> {
        None
    }
}

/// Totals of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub latencies_s: Vec<f64>,
    pub failed: usize,
}

impl Phase {
    pub fn ops(&self) -> usize {
        self.latencies_s.len()
    }

    /// Wall seconds per op.
    pub fn per_op_s(&self) -> f64 {
        self.wall_s / self.ops().max(1) as f64
    }
}

/// Run `workload` as a closed loop with one client for `seconds`: each step
/// starts when the previous one has finished.
pub fn run_phase(workload: &mut dyn Workload, tracer: &mut Tracer, seconds: f64) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    while start.elapsed().as_secs_f64() < seconds {
        let step = workload.step(tracer);
        phase.latencies_s.extend(step.latencies_s);
        phase.failed += step.failed;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Linear-interpolation percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
