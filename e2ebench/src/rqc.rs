//! `rqc_peps`: amplitudes of a random quantum circuit on a 4x4 lattice
//! through the circuit front end on the PEPS backend (the complex path).
//!
//! The circuit is the seed-21 random circuit (8 layers, an iSWAP layer
//! every 4), evolved at bond 16 and contracted with IBMPS at bond 16. The
//! benchmark seed draws the 4 queried bitstrings and the contraction RNG
//! stream. The circuit stays fixed, because the cost of an op differs up to
//! 60-fold between circuit seeds.
//! One op is one `koala_circuit::amplitudes` call for the 4 bitstrings.

use crate::trace::Tracer;
use crate::workload::{Step, Workload};
use koala_circuit::{amplitudes, simplify, Backend, BackendChoice, Circuit, Gate};
use koala_linalg::C64;
use koala_peps::{apply_one_site, apply_two_site_any, ContractionMethod, Peps, UpdateMethod};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SIDE: usize = 4;
const LAYERS: usize = 8;
const ENTANGLE_EVERY: usize = 4;
const CIRCUIT_SEED: u64 = 21;
const BOND: usize = 16;
const QUERIES: usize = 4;
/// Allowed distance to the statevector oracle, relative to the larger of
/// the batch's largest oracle amplitude and 2^(-n/2), the typical amplitude
/// size (a queried amplitude may be exactly zero).
const ORACLE_TOL: f64 = 1e-10;

fn backend() -> Backend {
    Backend::Peps { evolution_bond: BOND, method: ContractionMethod::ibmps(BOND) }
}

pub struct Rqc {
    seed: u64,
    circuit: Circuit,
    bitstrings: Vec<Vec<usize>>,
    /// Amplitudes of the first untraced call; every op must match them bit
    /// for bit.
    reference: Vec<C64>,
}

impl Rqc {
    /// Build the circuit and the queries, and run one call as warm-up.
    pub fn setup(seed: u64) -> Result<Rqc, String> {
        let mut circuit_rng = StdRng::seed_from_u64(CIRCUIT_SEED);
        let lattice =
            koala_sim::random_circuit(SIDE, SIDE, LAYERS, ENTANGLE_EVERY, &mut circuit_rng);
        let circuit =
            Circuit::from_lattice_circuit(&lattice, SIDE, SIDE).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let bitstrings = (0..QUERIES)
            .map(|_| (0..SIDE * SIDE).map(|_| rng.gen_range(0..2usize)).collect())
            .collect();
        let rqc = Rqc { seed, circuit, bitstrings, reference: Vec::new() };
        rqc.call().map_err(|e| format!("rqc_peps warm-up: {e}"))?;
        Ok(rqc)
    }

    /// One op through the front end. Every op draws from a fresh RNG stream
    /// of the benchmark seed, so all ops compute the same amplitudes.
    fn call(&self) -> Result<Vec<C64>, String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        amplitudes(&self.circuit, &self.bitstrings, BackendChoice::Fixed(backend()), &mut rng)
            .map(|batch| batch.amplitudes)
            .map_err(|e| e.to_string())
    }

    /// The same op through the per-layer calls `amplitudes` makes for a
    /// multi-bitstring batch on the PEPS backend: simplify, evolve gate by
    /// gate, contract one amplitude per bitstring.
    fn replay(&self, tracer: &mut Tracer) -> Result<Vec<C64>, String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (simplified, _) = tracer.span("circuit.simplify", || simplify(&self.circuit));
        let (nrows, ncols) = simplified.lattice().ok_or("circuit lost its lattice")?;
        let site = |q: usize| (q / ncols, q % ncols);
        let update = UpdateMethod::qr_svd(BOND);
        let mut peps = Peps::computational_zeros(nrows, ncols);
        for gate in simplified.gates() {
            let peps = &mut peps;
            match gate {
                Gate::One { qubit, gate } => tracer
                    .span("peps.update", || apply_one_site(peps, &gate.matrix(), site(*qubit)))
                    .map_err(|e| e.to_string())?,
                Gate::Two { a, b, gate } => {
                    tracer
                        .span("peps.update", || {
                            apply_two_site_any(peps, &gate.matrix(), site(*a), site(*b), update)
                        })
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        self.bitstrings
            .iter()
            .map(|bits| {
                tracer
                    .span("peps.amplitude", || {
                        koala_peps::amplitude(&peps, bits, ContractionMethod::ibmps(BOND), &mut rng)
                    })
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}

fn same_bits(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

impl Workload for Rqc {
    fn prepare_checks(&mut self) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let oracle = amplitudes(
            &self.circuit,
            &self.bitstrings,
            BackendChoice::Fixed(Backend::Statevector),
            &mut rng,
        )
        .map_err(|e| e.to_string())?
        .amplitudes;
        let reference = self.call()?;
        let floor = 0.5f64.powf(self.circuit.num_qubits() as f64 / 2.0);
        let scale = oracle.iter().map(|z| z.abs()).fold(floor, f64::max);
        let err = reference.iter().zip(&oracle).map(|(a, o)| (*a - *o).abs()).fold(0.0, f64::max);
        if err.is_nan() || err > ORACLE_TOL * scale {
            return Err(format!("rqc_peps: amplitudes differ from the oracle by {err:e}"));
        }
        self.reference = reference;
        Ok(())
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let start = Instant::now();
        let out = if tracer.enabled() { self.replay(tracer) } else { self.call() };
        let seconds = start.elapsed().as_secs_f64();
        Step::one(seconds, out.is_ok_and(|amps| same_bits(&amps, &self.reference)))
    }
}
