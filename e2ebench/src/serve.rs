//! `serve_mixed`: batches of 6 jobs from 4 tenants through
//! `koala_serve::Server`, every request and reply passing through the
//! `serve_stdio` JSON wire form.
//!
//! The batch holds two 3x3 ITE jobs (r = 2, one signature, different hx),
//! two 2x3 PEPS VQE jobs (r = 2, m = 4, Nelder-Mead for 20 iterations) and
//! two 32-qubit Ry/Rz/CNOT chain circuits (auto dispatch picks MPS). The
//! benchmark seed draws the ITE fields and RNG streams and the circuits'
//! angles and bitstrings. The VQE inputs stay fixed: the Nelder-Mead path,
//! and with it the number of energy evaluations, depends on them.
//!
//! One op is one job; its latency runs from when its request line is parsed
//! until its result line is encoded.

use crate::trace::Tracer;
use crate::workload::{percentile, Step, Workload};
use koala_circuit::{Circuit, Gate1, Gate2};
use koala_json::JsonValue;
use koala_serve::{
    CircuitJob, IteJob, JobSpec, JobStatus, Server, ServerConfig, VqeJob, WorkLedger, WorkMeter,
};
use koala_sim::{Optimizer, VqeBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use std::time::Instant;

const CHAIN_QUBITS: usize = 32;
const CHAIN_LAYERS: usize = 8;
const QUERIES: usize = 4;
/// The wire form carries numbers as f64, so job seeds are drawn below 2^53,
/// the range of integers it represents exactly. A larger seed would reach
/// the server rounded (the spec's `to_json` does not reject it).
const MAX_WIRE_INT: u64 = 1 << 53;

/// One line of the `serve_stdio` wire: the compact form of a JSON value.
fn wire_line(v: &JsonValue) -> String {
    v.pretty().lines().map(str::trim_start).collect()
}

/// Decode a `submit` request line into its tenant and validated-shape spec.
fn parse_request(line: &str) -> Result<(String, JobSpec), String> {
    let request = JsonValue::parse(line)?;
    let tenant = request.get("tenant").and_then(JsonValue::as_str).ok_or("missing tenant")?;
    let job = request.get("job").ok_or("missing job")?;
    let spec = JobSpec::from_json(job).map_err(|e| e.to_string())?;
    Ok((tenant.to_string(), spec))
}

/// A brickwork chain of Ry/Rz rotations and CNOTs with seeded angles.
fn chain_circuit(rng: &mut StdRng) -> Result<Circuit, String> {
    let mut c = Circuit::new(CHAIN_QUBITS);
    for layer in 0..CHAIN_LAYERS {
        for q in 0..CHAIN_QUBITS {
            c.push_one(q, Gate1::Ry(rng.gen_range(-PI..PI))).map_err(|e| e.to_string())?;
            c.push_one(q, Gate1::Rz(rng.gen_range(-PI..PI))).map_err(|e| e.to_string())?;
        }
        for q in (layer % 2..CHAIN_QUBITS - 1).step_by(2) {
            c.push_two(q, q + 1, Gate2::Cnot).map_err(|e| e.to_string())?;
        }
    }
    Ok(c)
}

/// The batch, in submission order, with each job's tenant.
fn batch(seed: u64) -> Result<Vec<(&'static str, JobSpec)>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ite = || {
        JobSpec::Ite(IteJob {
            hx: -1.5 - rng.gen_range(0.0..1.0),
            seed: rng.gen_range(0..MAX_WIRE_INT),
            ..IteJob::new(3, 3, 2)
        })
    };
    let (ite_a, ite_b) = (ite(), ite());
    let vqe = |seed| {
        let mut job = VqeJob::new(2, 3, VqeBackend::Peps { bond: 2, contraction_bond: 4 });
        job.optimizer = Optimizer::NelderMead { scale: 0.4, max_iterations: 20 };
        job.seed = seed;
        JobSpec::Vqe(job)
    };
    let mut circuit = || -> Result<JobSpec, String> {
        let c = chain_circuit(&mut rng)?;
        let bits = (0..QUERIES)
            .map(|_| (0..CHAIN_QUBITS).map(|_| rng.gen_range(0..2usize)).collect())
            .collect();
        Ok(JobSpec::Circuit(CircuitJob::new(c, bits)))
    };
    Ok(vec![
        ("alpha", ite_a),
        ("beta", vqe(11)),
        ("gamma", circuit()?),
        ("delta", ite_b),
        ("alpha", vqe(12)),
        ("beta", circuit()?),
    ])
}

/// Server-side figures of the traced phase.
#[derive(Debug, Default)]
struct ServeLayer {
    exec_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    receipt_wall_s: f64,
    drain_wall_s: f64,
    reply_bytes: usize,
    batches: usize,
    plan_misses: u64,
}

pub struct Serve {
    server: Server,
    jobs: Vec<(&'static str, JobSpec)>,
    /// The request lines a client sends for one batch.
    requests: Vec<String>,
    /// Each job's result run alone with `run_one`, as wire text. The wire
    /// form prints every number to round-trip exactly, so equal text means
    /// bit-identical results.
    solo: Vec<String>,
    layer: ServeLayer,
}

impl Serve {
    /// Build the batch and its request lines, start the server on the
    /// shared executor pool, and run one batch as warm-up.
    pub fn setup(seed: u64) -> Result<Serve, String> {
        let jobs = batch(seed)?;
        let requests = jobs
            .iter()
            .map(|(tenant, spec)| {
                wire_line(&JsonValue::object([
                    ("op", JsonValue::str("submit")),
                    ("tenant", JsonValue::str(*tenant)),
                    ("job", spec.to_json()),
                ]))
            })
            .collect();
        let mut serve = Serve {
            server: Server::new(ServerConfig::default()),
            jobs,
            requests,
            solo: Vec::new(),
            layer: ServeLayer::default(),
        };
        serve.step(&mut Tracer::off());
        Ok(serve)
    }
}

impl Workload for Serve {
    /// Check that every request line decodes to the spec it was built from,
    /// and run each job alone for the bit-identity reference.
    fn prepare_checks(&mut self) -> Result<(), String> {
        for (line, (tenant, spec)) in self.requests.iter().zip(&self.jobs) {
            if parse_request(line)? != (tenant.to_string(), spec.clone()) {
                return Err(format!("serve_mixed: {} request does not round-trip", spec.kind()));
            }
        }
        let mut solo = Vec::with_capacity(self.jobs.len());
        for (tenant, spec) in &self.jobs {
            let outcome = self.server.run_one(tenant, spec.clone()).map_err(|e| e.to_string())?;
            match (&outcome.receipt.status, &outcome.result) {
                (JobStatus::Ok, Some(result)) => solo.push(wire_line(&result.to_json())),
                _ => return Err(format!("serve_mixed: solo {} job failed", spec.kind())),
            }
        }
        self.solo = solo;
        Ok(())
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let mut step = Step::default();
        // (request index, when its line started parsing) per admitted job.
        let mut admitted = Vec::with_capacity(self.requests.len());
        for (i, line) in self.requests.iter().enumerate() {
            let start = Instant::now();
            let server = &mut self.server;
            let submitted =
                tracer.span("json.parse", || parse_request(line)).and_then(|(tenant, spec)| {
                    tracer
                        .span("serve.submit", || server.submit(&tenant, spec))
                        .map_err(|e| e.to_string())
                });
            match submitted {
                Ok(_) => admitted.push((i, start)),
                Err(_) => {
                    step.latencies_s.push(start.elapsed().as_secs_f64());
                    step.failed += 1;
                }
            }
        }

        let global_before = WorkMeter::global().ledger();
        let misses_before = koala_tensor::plan_stats().misses;
        let drain_start = Instant::now();
        let outcomes = tracer.span("serve.drain", || self.server.drain());
        let drain_wall_s = drain_start.elapsed().as_secs_f64();
        let plan_misses = koala_tensor::plan_stats().misses - misses_before;
        // The receipts must bill exactly the work the drain did.
        let global_delta = WorkMeter::global().ledger().minus(&global_before);
        let billed =
            outcomes.iter().fold(WorkLedger::default(), |sum, o| sum.plus(&o.receipt.work));
        let ledgers_ok = billed == global_delta && outcomes.len() == admitted.len();

        let mut replies = Vec::with_capacity(outcomes.len());
        for (outcome, &(_, start)) in outcomes.iter().zip(&admitted) {
            let reply = tracer.span("json.encode", || wire_line(&outcome.to_json()));
            replies.push((reply.len(), start.elapsed().as_secs_f64()));
        }
        for ((outcome, &(i, _)), (bytes, latency)) in outcomes.iter().zip(&admitted).zip(replies) {
            let ok = ledgers_ok
                && outcome.receipt.status == JobStatus::Ok
                && outcome.result.as_ref().map(|r| wire_line(&r.to_json())).as_ref()
                    == self.solo.get(i);
            step.latencies_s.push(latency);
            step.failed += usize::from(!ok);
            if tracer.enabled() {
                let wall = outcome.receipt.wall.as_secs_f64();
                self.layer.exec_s.push(wall);
                self.layer.queue_wait_s.push(latency - wall);
                self.layer.receipt_wall_s += wall;
                self.layer.reply_bytes += bytes;
            }
        }
        if tracer.enabled() {
            self.layer.drain_wall_s += drain_wall_s;
            self.layer.batches += 1;
            self.layer.plan_misses += plan_misses;
        }
        step
    }

    fn begin_traced(&mut self) {
        self.layer = ServeLayer::default();
    }

    fn layer_metrics(&mut self, tracer: &Tracer, ops: usize) -> Vec<(&'static str, f64)> {
        let l = &self.layer;
        let per_job_us = |span: &str| tracer.busy_ns(span) as f64 / 1e3 / ops.max(1) as f64;
        vec![
            ("serve.submit_us", per_job_us("serve.submit")),
            ("serve.exec_ms", percentile(&l.exec_s, 0.5) * 1e3),
            ("serve.queue_wait_ms", percentile(&l.queue_wait_s, 0.5) * 1e3),
            ("serve.concurrency", l.receipt_wall_s / l.drain_wall_s),
            ("serve.warm_plan_misses", l.plan_misses as f64 / l.batches.max(1) as f64),
            ("json.parse_us", per_job_us("json.parse")),
            ("json.encode_us", per_job_us("json.encode")),
            ("json.reply_bytes", l.reply_bytes as f64 / l.exec_s.len().max(1) as f64),
        ]
    }
}
