//! `ite_tfi`: imaginary-time evolution of the 4x4 transverse-field Ising
//! model (the paper's Figure 13 workload).
//!
//! A job is 40 Trotter steps from |0...0> (tau = 0.05, PEPS bond r = 2,
//! IBMPS contraction bond m = 4, QR-SVD update), measuring the energy every
//! 5 steps. One op is one 5-step chunk ending on a measure step, run through
//! `koala_sim::ite_peps_from`. The traced replay drives the same chunk
//! through the per-layer calls in the order `ite_peps_from` makes them.

use crate::trace::Tracer;
use crate::workload::{Step, Workload};
use koala_linalg::c64;
use koala_peps::expectation::{expectation_normalized, ExpectationOptions};
use koala_peps::operators::Observable;
use koala_peps::{
    apply_one_site, apply_two_site_any, norm_sqr, ContractionMethod, Peps, UpdateMethod,
};
use koala_sim::{
    ite_checkpoint, ite_peps, ite_peps_from, tfi_hamiltonian, trotter_gates, IteCheckpoint,
    IteOptions, TfiParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SIDE: usize = 4;
const TAU: f64 = 0.05;
const STEPS: usize = 40;
const CHUNK: usize = 5;
const EVOLUTION_BOND: usize = 2;
const CONTRACTION_BOND: usize = 4;

/// Step-40 energy per site of the job above. The IBMPS sketches draw from
/// the seeded RNG, which moves this value only in its last digits.
const STORED_E40: f64 = -2.212_615_225_888_406;
/// Relative tolerance of the check against [`STORED_E40`].
const STORED_TOL: f64 = 1e-9;
/// Exact ground-state energy per site of the 4x4 model (Lanczos).
const EXACT_E0: f64 = -2.244_204;

fn hamiltonian() -> Observable {
    tfi_hamiltonian(SIDE, SIDE, TfiParams { jz: -1.0, hx: -2.0 })
}

fn options(steps: usize) -> IteOptions {
    let mut options = IteOptions::new(TAU, steps, EVOLUTION_BOND, CONTRACTION_BOND);
    options.measure_every = CHUNK;
    options
}

/// Run one whole job single-shot with `ite_peps`, check its step-40 energy
/// against [`STORED_E40`], and return its measured energies (steps 5, 10,
/// ..., 40).
pub fn reference_job(seed: u64) -> Result<Vec<f64>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zeros = Peps::computational_zeros(SIDE, SIDE);
    let result =
        ite_peps(&zeros, &hamiltonian(), options(STEPS), &mut rng).map_err(|e| e.to_string())?;
    let energies: Vec<f64> = result.energies.iter().map(|&(_, e)| e).collect();
    let e40 = result.final_energy();
    if energies.len() != STEPS / CHUNK || (e40 - STORED_E40).abs() > STORED_TOL * STORED_E40.abs() {
        return Err(format!("ite_tfi: step-40 energy {e40} does not match stored {STORED_E40}"));
    }
    Ok(energies)
}

/// Per-site gap of a step-40 energy to the exact ground state.
pub fn energy_gap(e40: f64) -> f64 {
    (e40 - EXACT_E0).abs()
}

/// A job replayed through the per-layer calls: the evolving PEPS, the RNG
/// stream the contractions draw from, and the completed step count.
struct Replay {
    peps: Peps,
    rng: StdRng,
    step: usize,
}

pub struct Ite {
    seed: u64,
    hamiltonian: Observable,
    /// The job in flight through `ite_peps_from`.
    job: Option<IteCheckpoint<StdRng>>,
    replay: Option<Replay>,
    /// Energies of the reference job at steps 5, 10, ..., 40.
    reference: Vec<f64>,
}

impl Ite {
    /// Build the inputs and run one whole job as warm-up.
    pub fn setup(seed: u64) -> Result<Ite, String> {
        let mut ite = Ite {
            seed,
            hamiltonian: hamiltonian(),
            job: None,
            replay: None,
            reference: Vec::new(),
        };
        for _ in 0..STEPS / CHUNK {
            ite.library_chunk().map_err(|e| format!("ite_tfi warm-up: {e}"))?;
        }
        Ok(ite)
    }

    /// One chunk through `ite_peps_from`; returns (step, energy) measured.
    fn library_chunk(&mut self) -> Result<(usize, f64), String> {
        let state = match self.job.take() {
            Some(state) => state,
            None => ite_checkpoint(
                &Peps::computational_zeros(SIDE, SIDE),
                &StdRng::seed_from_u64(self.seed),
            ),
        };
        let target = state.step() + CHUNK;
        let (result, next) =
            ite_peps_from(state, &self.hamiltonian, options(target)).map_err(|e| e.to_string())?;
        if target < STEPS {
            self.job = Some(next);
        }
        result.energies.last().copied().ok_or_else(|| "no energy measured".to_string())
    }

    /// The same chunk through the per-layer calls, in `ite_peps_from`'s
    /// order: Trotter layer (one- and two-site updates), norm and rescale,
    /// then the energy on measure steps.
    fn replay_chunk(&mut self, tracer: &mut Tracer) -> Result<(usize, f64), String> {
        let mut job = self.replay.take().unwrap_or_else(|| Replay {
            peps: Peps::computational_zeros(SIDE, SIDE),
            rng: StdRng::seed_from_u64(self.seed),
            step: 0,
        });
        let gates = trotter_gates(&self.hamiltonian, c64(-TAU, 0.0)).map_err(|e| e.to_string())?;
        let update = UpdateMethod::qr_svd(EVOLUTION_BOND);
        let n_sites = job.peps.num_sites() as f64;
        let mut measured = None;
        for step in job.step + 1..=job.step + CHUNK {
            for gate in &gates {
                let peps = &mut job.peps;
                match gate.sites.as_slice() {
                    [site] => tracer
                        .span("peps.update", || apply_one_site(peps, &gate.matrix, *site))
                        .map_err(|e| e.to_string())?,
                    [a, b] => {
                        tracer
                            .span("peps.update", || {
                                apply_two_site_any(peps, &gate.matrix, *a, *b, update)
                            })
                            .map_err(|e| e.to_string())?;
                    }
                    _ => return Err("trotter gate on more than two sites".to_string()),
                }
            }
            let (peps, rng) = (&mut job.peps, &mut job.rng);
            let norm = tracer
                .span("peps.norm", || {
                    norm_sqr(peps, ContractionMethod::ibmps(CONTRACTION_BOND), rng)
                })
                .map_err(|e| e.to_string())?;
            rescale(peps, norm);
            if step % CHUNK == 0 || step == STEPS {
                let e = tracer
                    .span("peps.expectation", || {
                        expectation_normalized(
                            peps,
                            &self.hamiltonian,
                            ExpectationOptions::ibmps_cached(CONTRACTION_BOND),
                            rng,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                measured = Some((step, e.re / n_sites));
            }
        }
        job.step += CHUNK;
        if job.step < STEPS {
            self.replay = Some(job);
        }
        measured.ok_or_else(|| "no energy measured".to_string())
    }
}

/// `ite_peps_from`'s renormalization: spread `norm^(-1/4)` evenly over the sites.
fn rescale(peps: &mut Peps, norm: f64) {
    if norm > 0.0 && norm.is_finite() {
        let per_site = norm.powf(-0.25).powf(1.0 / peps.num_sites() as f64);
        for r in 0..peps.nrows() {
            for c in 0..peps.ncols() {
                let t = peps.tensor((r, c)).scale(c64(per_site, 0.0));
                peps.set_tensor((r, c), t);
            }
        }
    }
}

impl Workload for Ite {
    fn prepare_checks(&mut self) -> Result<(), String> {
        self.reference = reference_job(self.seed)?;
        Ok(())
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let start = Instant::now();
        let out = if tracer.enabled() { self.replay_chunk(tracer) } else { self.library_chunk() };
        let seconds = start.elapsed().as_secs_f64();
        // Every chunk's energy must equal the reference job's bit for bit.
        let ok = match out {
            Ok((step, e)) => self
                .reference
                .get(step / CHUNK - 1)
                .is_some_and(|r| step % CHUNK == 0 && r.to_bits() == e.to_bits()),
            Err(_) => {
                self.restart();
                false
            }
        };
        Step::one(seconds, ok)
    }

    fn restart(&mut self) {
        self.job = None;
        self.replay = None;
    }

    fn energy_err(&self) -> Option<f64> {
        self.reference.last().map(|&e| energy_gap(e))
    }
}
