//! Overlapped SUMMA must be observationally identical to serialized SUMMA.
//!
//! On a multi-thread executor pool, `matmul_dist`'s stationary-C schedule
//! overlaps round `t + 1`'s panel broadcasts with round `t`'s local GEMMs on
//! the task graph. This suite pins that the overlap is *pure scheduling*.
//! The reference is a 1-thread run: the executor's serial walk of the same
//! task graph, which runs every task in topological order on the calling
//! thread. For the same operands (and the same armed [`FaultPlan`], if any),
//! the gathered product is bit-identical to the reference, the
//! [`FaultLog`] is equal event for event, and the entire [`CommStats`]
//! ledger — bytes, messages, collectives, checksum bytes, retries, per-rank
//! MACs, and the per-round [`RoundCost`] list the overlap cost model
//! prices — is equal as a value, round for round.

use koala_cluster::{Cluster, CommStats, DistMatrix, FaultKind, FaultLog, FaultPlan, ProcGrid};
use koala_linalg::gemm::Op;
use koala_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The executor pool is process-wide; serialize the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run one distributed product at a given thread count, with `faults`
/// armed around the product when given, and return the gathered result,
/// the cluster's complete stats ledger and the fault log.
#[allow(clippy::too_many_arguments)]
fn run_case(
    threads: usize,
    grid: ProcGrid,
    opa: Op,
    opb: Op,
    a: &Matrix,
    b: &Matrix,
    blocks: (usize, usize, usize),
    faults: Option<&FaultPlan>,
) -> (Matrix, CommStats, FaultLog) {
    koala_exec::set_threads(threads);
    let (mb, kb, nb) = blocks;
    let cluster = Cluster::new(grid.nranks());
    let da = DistMatrix::scatter_block_cyclic(&cluster, a, grid, mb, kb);
    let db = DistMatrix::scatter_block_cyclic(&cluster, b, grid, kb + 1, nb);
    cluster.reset_stats();
    if let Some(plan) = faults {
        cluster.arm_faults(plan.clone());
    }
    let c = da.matmul_dist_op(opa, opb, &db).expect("transient faults are recovered");
    let log = cluster.disarm_faults();
    let gathered = c.gather_unaccounted();
    (gathered, cluster.stats(), log)
}

fn assert_bit_identical(serial: &Matrix, overlapped: &Matrix, what: &str) {
    assert_eq!(serial.shape(), overlapped.shape(), "{what}: shapes differ");
    assert_eq!(serial.is_real(), overlapped.is_real(), "{what}: realness hints differ");
    for (i, (x, y)) in serial.data().iter().zip(overlapped.data().iter()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {i} differs bitwise: {x:?} vs {y:?}"
        );
    }
}

/// Serialized (1 thread) vs overlapped (4 threads) SUMMA: bit-identical
/// gathered product and an equal `CommStats` ledger, across grid shapes and
/// op pairs, on a depth extent long enough for many rounds of overlap —
/// fault-free, and again under an armed corrupt + drop + rank-failure plan,
/// where the fault log must match too.
#[test]
fn overlapped_summa_matches_serialized_ledger_and_bits() {
    let _guard = SERIAL.lock().unwrap();
    let grids = [(2usize, 2usize), (2, 3), (1, 4)];
    let ops = [(Op::None, Op::None), (Op::Transpose, Op::None), (Op::None, Op::Adjoint)];
    let mut seed = 9_000u64;
    let mut rank_failures = 0;
    for &(p, q) in &grids {
        for &(opa, opb) in &ops {
            let grid = ProcGrid::new(p, q);
            let mut rng = StdRng::seed_from_u64(seed);
            seed += 1;
            // Effective product is (21 x 130) * (130 x 17): the depth extent
            // refines into many panels (block 3 vs 4), i.e. many rounds.
            let (m, k, n) = (21usize, 130, 17);
            let a = if opa == Op::None {
                Matrix::random(m, k, &mut rng)
            } else {
                Matrix::random(k, m, &mut rng)
            };
            let b = if opb == Op::None {
                Matrix::random(k, n, &mut rng)
            } else {
                Matrix::random(n, k, &mut rng)
            };
            let plan = FaultPlan::seeded(seed)
                .corrupt_prob(0.1)
                .drop_prob(0.05)
                .fail_rank(grid.nranks() - 1, 2);
            let mut fault_free = None;
            for faults in [None, Some(&plan)] {
                let what = format!(
                    "{p}x{q} grid, ops {opa:?}/{opb:?}, faults armed: {}",
                    faults.is_some()
                );

                let (c1, s1, log1) = run_case(1, grid, opa, opb, &a, &b, (2, 3, 2), faults);
                let (c4, s4, log4) = run_case(4, grid, opa, opb, &a, &b, (2, 3, 2), faults);
                assert_bit_identical(&c1, &c4, &what);
                assert!(!s1.rounds.is_empty(), "{what}: no rounds recorded");
                assert_eq!(s1.rounds, s4.rounds, "{what}: per-round ledger differs");
                assert_eq!(s1, s4, "{what}: CommStats ledger differs");
                assert_eq!(log1, log4, "{what}: fault log differs");
                match &fault_free {
                    None => {
                        assert!(log1.is_empty(), "{what}: fault-free run logged faults");
                        fault_free = Some(c1);
                    }
                    Some(reference) => {
                        assert!(s1.retries > 0, "{what}: no recovery was billed");
                        rank_failures +=
                            log1.iter().filter(|e| e.kind == FaultKind::RankFailure).count();
                        assert_bit_identical(reference, &c1, &what);
                    }
                }
            }
        }
    }
    // Only stationary-C products have compute fault sites; the op pairs
    // above pick other variants too, but not exclusively.
    assert!(rank_failures > 0, "the planned rank failure never struck");
    koala_exec::set_threads(1);
}

/// The real-workload variant: realness hints survive the overlapped
/// schedule, zero complex MACs are billed, and the ledgers agree.
#[test]
fn overlapped_real_summa_matches_serialized() {
    let _guard = SERIAL.lock().unwrap();
    let grid = ProcGrid::new(2, 2);
    let mut rng = StdRng::seed_from_u64(77);
    let (m, k, n) = (19usize, 90, 23);
    let a = Matrix::random_real(m, k, &mut rng);
    let b = Matrix::random_real(k, n, &mut rng);

    let (c1, s1, _) = run_case(1, grid, Op::None, Op::None, &a, &b, (4, 5, 4), None);
    let (c4, s4, _) = run_case(4, grid, Op::None, Op::None, &a, &b, (4, 5, 4), None);
    assert!(c1.is_real() && c4.is_real());
    assert_bit_identical(&c1, &c4, "real SUMMA");
    assert_eq!(s1, s4, "real SUMMA: CommStats ledger differs");
    assert_eq!(s4.total_flops(), 0, "real workload billed complex MACs");
    assert_eq!(s4.total_real_macs(), (m * n * k) as u64);
    koala_exec::set_threads(1);
}
