//! `dist_tebd`: the `ctf-local-gram-qr` TEBD evolution of the paper's
//! Figures 7 and 11 on the virtual cluster.
//!
//! A seeded random 4x4 PEPS (physical dimension 2, bond 6) is evolved with
//! the imaginary-time XX+ZZ gate on every nearest-neighbour bond by
//! `dist_tebd_layer` on a 4-rank cluster. One op is one layer; a job is 8
//! layers from the seeded state, so the tensors stay well scaled. The traced
//! replay calls `dist_two_site_update` bond by bond in the layer's order.

use crate::trace::Tracer;
use crate::workload::{Step, Workload};
use koala_cluster::{Cluster, CommStats};
use koala_linalg::{c64, expm_hermitian, Matrix};
use koala_peps::operators::{kron, pauli_x, pauli_z};
use koala_peps::{
    apply_two_site, dist_tebd_layer, dist_two_site_update, DistEvolutionVariant, Peps, Site,
    UpdateMethod,
};
use koala_tensor::tensordot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SIDE: usize = 4;
const PHYS: usize = 2;
const BOND: usize = 6;
const RANKS: usize = 4;
const TAU: f64 = 0.05;
const LAYERS_PER_JOB: usize = 8;
const VARIANT: DistEvolutionVariant = DistEvolutionVariant::LocalGramQr;
/// Tolerance of the distributed-vs-local check, relative to the largest
/// entry (as in the `dist_update_matches_local_update` unit test).
const LOCAL_TOL: f64 = 1e-6;

fn tebd_gate() -> Result<Matrix, String> {
    let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    expm_hermitian(&h, c64(-TAU, 0.0)).map_err(|e| e.to_string())
}

/// The bonds of one layer in `dist_tebd_layer`'s order.
fn layer_bonds(peps: &Peps) -> Vec<(Site, Site)> {
    let mut bonds = peps.horizontal_pairs();
    bonds.extend(peps.vertical_pairs());
    bonds
}

/// 64-bit FNV-1a over the bit patterns of every tensor entry: a cheap
/// fingerprint for the bit-identity check of an evolved state.
fn state_fingerprint(peps: &Peps) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for z in peps.tensors().iter().flat_map(|t| t.data()) {
        for bits in [z.re.to_bits(), z.im.to_bits()] {
            for byte in bits.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

pub struct Dist {
    cluster: Cluster,
    gate: Matrix,
    initial: Peps,
    peps: Peps,
    /// Layers applied to `peps` in the current job.
    layer: usize,
    /// State fingerprints after each layer of the reference job.
    reference: Vec<u64>,
    /// Communication of the traced phase.
    traced_comm: CommStats,
}

impl Dist {
    /// Build the inputs and run one whole job as warm-up.
    pub fn setup(seed: u64) -> Result<Dist, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = Peps::random(SIDE, SIDE, PHYS, BOND, &mut rng);
        let mut dist = Dist {
            cluster: Cluster::new(RANKS),
            gate: tebd_gate()?,
            peps: initial.clone(),
            initial,
            layer: 0,
            reference: Vec::new(),
            traced_comm: CommStats::new(RANKS),
        };
        for _ in 0..LAYERS_PER_JOB {
            dist.layer(&mut Tracer::off())?;
        }
        dist.restart();
        Ok(dist)
    }

    /// Apply one layer; returns the state fingerprint after it.
    fn layer(&mut self, tracer: &mut Tracer) -> Result<u64, String> {
        let (cluster, peps, gate) = (&self.cluster, &mut self.peps, &self.gate);
        if tracer.enabled() {
            for (a, b) in layer_bonds(peps) {
                tracer
                    .span("peps.dist_update", || {
                        dist_two_site_update(cluster, peps, gate, a, b, BOND, VARIANT)
                    })
                    .map_err(|e| e.to_string())?;
            }
        } else {
            dist_tebd_layer(cluster, peps, gate, BOND, VARIANT).map_err(|e| e.to_string())?;
        }
        self.layer += 1;
        Ok(state_fingerprint(&self.peps))
    }

    /// Start a fresh job. The cluster's counters are folded into the traced
    /// totals (or dropped, untraced) so they never grow without bound.
    fn start_job(&mut self, keep_comm: bool) {
        let comm = self.cluster.reset_stats();
        if keep_comm {
            self.traced_comm.merge(&comm);
        }
        self.peps = self.initial.clone();
        self.layer = 0;
    }
}

/// Contract the two sites of a bond over their shared index: the part of
/// the state an update changes, free of that bond's gauge.
fn bond_block(peps: &Peps, a: Site, b: Site) -> Result<koala_tensor::Tensor, String> {
    let (axis_a, axis_b) = if a.0 == b.0 { (4, 2) } else { (3, 1) };
    tensordot(peps.tensor(a), peps.tensor(b), &[axis_a], &[axis_b]).map_err(|e| e.to_string())
}

impl Workload for Dist {
    /// Evolve one reference job. At every bond, the distributed update and
    /// the local QR-SVD update start from the same state and must give the
    /// same two-site block; the fingerprints after each layer are kept for
    /// the per-op bit-identity check.
    fn prepare_checks(&mut self) -> Result<(), String> {
        self.restart();
        let mut reference = Vec::with_capacity(LAYERS_PER_JOB);
        let mut peps = self.initial.clone();
        for _ in 0..LAYERS_PER_JOB {
            for (a, b) in layer_bonds(&peps) {
                let mut local = peps.clone();
                apply_two_site(&mut local, &self.gate, a, b, UpdateMethod::qr_svd(BOND))
                    .map_err(|e| e.to_string())?;
                dist_two_site_update(&self.cluster, &mut peps, &self.gate, a, b, BOND, VARIANT)
                    .map_err(|e| e.to_string())?;
                let want = bond_block(&local, a, b)?;
                let got = bond_block(&peps, a, b)?;
                if !got.approx_eq(&want, LOCAL_TOL * want.norm_max().max(1.0)) {
                    return Err(format!("dist_tebd: bond {a:?}-{b:?} differs from local QR-SVD"));
                }
            }
            reference.push(state_fingerprint(&peps));
        }
        self.reference = reference;
        self.restart();
        Ok(())
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        if self.layer == LAYERS_PER_JOB {
            self.start_job(tracer.enabled());
        }
        let start = Instant::now();
        let out = self.layer(tracer);
        let seconds = start.elapsed().as_secs_f64();
        let ok = match out {
            Ok(fp) => self.reference.get(self.layer - 1) == Some(&fp),
            Err(_) => {
                self.restart();
                false
            }
        };
        Step::one(seconds, ok)
    }

    fn restart(&mut self) {
        self.start_job(false);
    }

    fn begin_traced(&mut self) {
        self.restart();
        self.traced_comm = CommStats::new(RANKS);
    }

    fn layer_metrics(&mut self, _tracer: &Tracer, ops: usize) -> Vec<(&'static str, f64)> {
        let comm = self.cluster.reset_stats();
        self.traced_comm.merge(&comm);
        let c = &self.traced_comm;
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        vec![
            ("cluster.bytes", per_op(c.bytes_communicated)),
            ("cluster.messages", per_op(c.messages)),
            ("cluster.collectives", per_op(c.collectives)),
            ("cluster.redistributions", per_op(c.redistributions)),
            ("cluster.imbalance", c.load_imbalance()),
        ]
    }
}
