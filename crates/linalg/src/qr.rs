//! Thin QR factorization of complex matrices.
//!
//! Uses modified Gram-Schmidt with one reorthogonalization pass ("twice is
//! enough"), which gives orthogonality at the level of machine precision for
//! the well-scaled matrices produced by tensor-network algorithms, and keeps
//! the implementation simple and easy to distribute (the Gram-matrix variant
//! in [`crate::gram`] / `koala-cluster` follows the paper's Algorithm 5).
//! Rank-deficient inputs, common in the randomized SVD's sketch blocks, are
//! completed with canonical vectors; see [`qr`] for the fill-in rule.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::scalar::{c64, C64};
use std::iter::Sum;
use std::ops::{AddAssign, Mul, SubAssign};

/// Result of a thin QR factorization `A = Q R` with `Q` of shape `(m, k)` and
/// `R` upper triangular of shape `(k, n)`, where `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Matrix with orthonormal columns.
    pub q: Matrix,
    /// Upper-triangular factor.
    pub r: Matrix,
}

/// Thin QR via modified Gram-Schmidt with reorthogonalization.
///
/// Every column is projected off the basis built so far twice ("twice is
/// enough"). A column whose residual norm is at most
/// `1e-14 * max(1, max |a_ij|)` is numerically zero: its diagonal of `R` is
/// set to zero and the basis is extended by a canonical vector instead, so
/// `Q` always has exactly `min(m, n)` orthonormal columns and `A = Q R`
/// still holds. The fill-in rule:
///
/// - Seeds `e_0, e_1, ...` are tried in row order. An attempt is the same
///   two-pass projection, and the first residual of norm above `0.5` is
///   normalized into `Q`.
/// - A leverage screen skips the seeds that provably fail. With
///   `lev[s] = Σ_i |q_i[s]|²` over the finished basis, an attempt on `e_s`
///   leaves a residual of norm about `sqrt(1 - lev[s])`. A seed is skipped
///   only when `1 - lev[s]` lies below `0.25` by a margin that covers
///   rounding and the basis's loss of orthonormality `‖QᴴQ - I‖_F`. That
///   defect is measured when the first numerically zero column appears and
///   updated as columns are added; when it is too large to prove anything,
///   every seed is tried.
/// - If no seed clears `0.5` (possible only once more than three quarters of
///   the `m` directions are taken), the seed of lowest leverage is used and
///   its two-pass residual normalized.
///
/// The screen skips only attempts that would have failed, so the chosen
/// seed, and with it `Q`, `R` and their realness hints, are bit-identical
/// to trying every seed in order. A fill-in typically costs one attempt.
///
/// Inputs carrying the structural [`Matrix::is_real`] hint run through a
/// real-only inner loop (`f64` projections, no imaginary lane ever touched)
/// and both factors come back carrying the hint, so downstream products stay
/// on the real GEMM kernel. Complex inputs return `Q` hinted iff it is
/// exactly real, and `R` unhinted unless it is empty.
pub fn qr(a: &Matrix) -> QrFactors {
    if a.is_real() {
        return qr_real(a);
    }
    let mut f = mgs::<C64>(a);
    f.q.mark_real_if_exact();
    if f.r.is_empty() {
        f.r.assume_real();
    }
    f
}

/// Real-only modified Gram-Schmidt: the loop of [`qr`], including its
/// fill-in rule (row-order seeds, leverage screen with the measured-defect
/// margin, lowest-leverage fallback), executed on the real parts alone (the
/// hint guarantees the imaginary parts are exactly zero). Roughly a quarter
/// of the arithmetic and half the memory traffic of running the complex
/// loop over real data; the outputs are exactly real by construction and
/// carry the hint.
///
/// Both branches are one generic loop, so a tolerance or fill-in change
/// lands in both. The property test
/// `real_path_factorizations_match_complex_path_across_shape_classes` pins
/// their agreement at 1e-12.
fn qr_real(a: &Matrix) -> QrFactors {
    mgs::<f64>(a)
}

/// Arithmetic of the MGS loop: `f64` on hinted-real inputs, [`C64`]
/// otherwise.
trait MgsScalar: Copy + Sum + Mul<Output = Self> + AddAssign + SubAssign {
    const ZERO: Self;
    const ONE: Self;
    /// An input entry in this lane (its real part for `f64`).
    fn load(z: C64) -> Self;
    fn from_real(x: f64) -> Self;
    fn conj(self) -> Self;
    fn abs2(self) -> f64;
    fn scale(self, s: f64) -> Self;
    /// Row-major `rows x cols` factor; the `f64` lane sets the realness hint.
    fn matrix(rows: usize, cols: usize, data: Vec<Self>) -> Matrix;
}

impl MgsScalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn load(z: C64) -> Self {
        z.re
    }
    fn from_real(x: f64) -> Self {
        x
    }
    fn conj(self) -> Self {
        self
    }
    fn abs2(self) -> f64 {
        self * self
    }
    fn scale(self, s: f64) -> Self {
        self * s
    }
    fn matrix(rows: usize, cols: usize, data: Vec<Self>) -> Matrix {
        Matrix::from_real(rows, cols, &data)
            .unwrap_or_else(|_| unreachable!("qr: factor buffer is sized rows*cols"))
    }
}

impl MgsScalar for C64 {
    const ZERO: Self = C64::ZERO;
    const ONE: Self = C64::ONE;
    fn load(z: C64) -> Self {
        z
    }
    fn from_real(x: f64) -> Self {
        c64(x, 0.0)
    }
    fn conj(self) -> Self {
        C64::conj(self)
    }
    fn abs2(self) -> f64 {
        self.norm_sqr()
    }
    fn scale(self, s: f64) -> Self {
        self * s
    }
    fn matrix(rows: usize, cols: usize, data: Vec<Self>) -> Matrix {
        Matrix::from_vec(rows, cols, data)
            .unwrap_or_else(|_| unreachable!("qr: factor buffer is sized rows*cols"))
    }
}

/// `Σ_s conj(q[s]) v[s]`, folded in row order.
fn dot<T: MgsScalar>(q: &[T], v: &[T]) -> T {
    q.iter().zip(v).map(|(qe, ce)| qe.conj() * *ce).sum()
}

fn norm<T: MgsScalar>(v: &[T]) -> f64 {
    v.iter().map(|z| z.abs2()).sum::<f64>().sqrt()
}

/// Two passes of modified Gram-Schmidt: project `v` off every basis column
/// in order, twice, handing each coefficient to `coeff(i, proj)`.
fn project_out<T: MgsScalar>(basis: &[Vec<T>], v: &mut [T], mut coeff: impl FnMut(usize, T)) {
    for _ in 0..2 {
        for (i, qi) in basis.iter().enumerate() {
            let proj = dot(qi, v);
            coeff(i, proj);
            for (ce, qe) in v.iter_mut().zip(qi) {
                *ce -= *qe * proj;
            }
        }
    }
}

/// The MGS loop behind [`qr`] and [`qr_real`]; the finished basis is kept
/// in contiguous columns and `Q` is assembled once at the end.
fn mgs<T: MgsScalar>(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    let k = m.min(n);
    let mut basis: Vec<Vec<T>> = Vec::with_capacity(k);
    let mut r = vec![T::ZERO; k * n];

    // Working copy of the columns we are orthogonalizing.
    let mut cols: Vec<Vec<T>> =
        (0..n).map(|j| (0..m).map(|i| T::load(a[(i, j)])).collect()).collect();
    let scale = a.norm_max().max(1.0);
    let tol = scale * 1e-14;
    // Built at the first numerically zero column, then kept up to date.
    let mut screen: Option<Screen> = None;

    for j in 0..k {
        // Both passes accumulate into R; the second pass adds the small
        // correction left over by the first.
        project_out(&basis, &mut cols[j], |i, proj| r[i * n + j] += proj);
        let norm = norm(&cols[j]);
        if norm > tol {
            r[j * n + j] = T::from_real(norm);
            let inv = 1.0 / norm;
            basis.push(cols[j].iter().map(|&z| z.scale(inv)).collect());
            if let Some(screen) = &mut screen {
                screen.add(&basis);
            }
        } else {
            // Numerically zero column: extend the basis with a canonical
            // vector orthogonalized against what we have so far.
            let screen = screen.get_or_insert_with(|| Screen::new(&basis, m));
            basis.push(fill_in(&basis, screen));
            screen.add(&basis);
        }
    }

    // Remaining columns (n > m case): project onto the finished basis.
    for j in k..n {
        for (i, qi) in basis.iter().enumerate() {
            r[i * n + j] = dot(qi, &cols[j]);
        }
    }

    let mut q = vec![T::ZERO; m * k];
    for (j, col) in basis.iter().enumerate() {
        for (i, &x) in col.iter().enumerate() {
            q[i * k + j] = x;
        }
    }
    QrFactors { q: T::matrix(m, k, q), r: T::matrix(k, n, r) }
}

/// Two-pass residual of the canonical seed `e_seed` in `v`; returns its norm.
fn seed_residual<T: MgsScalar>(basis: &[Vec<T>], v: &mut [T], seed: usize) -> f64 {
    v.fill(T::ZERO);
    v[seed] = T::ONE;
    project_out(basis, v, |_, _| {});
    norm(v)
}

/// Unit vector orthogonal to `basis`, chosen by the fill-in rule of [`qr`].
fn fill_in<T: MgsScalar>(basis: &[Vec<T>], screen: &Screen) -> Vec<T> {
    let m = screen.lev.len();
    let limit = screen.skip_limit(basis.len());
    let mut v = vec![T::ZERO; m];
    for seed in 0..m {
        if 1.0 - screen.lev[seed] <= limit {
            continue;
        }
        let nv = seed_residual(basis, &mut v, seed);
        if nv > 0.5 {
            let inv = 1.0 / nv;
            v.iter_mut().for_each(|z| *z = z.scale(inv));
            return v;
        }
    }
    // No seed cleared 0.5: the lowest-leverage seed leaves the largest
    // residual, at least about sqrt(1 - j/m) since the leverages sum to j.
    let seed = (0..m).min_by(|&s, &t| screen.lev[s].total_cmp(&screen.lev[t])).unwrap_or(0);
    let inv = 1.0 / seed_residual(basis, &mut v, seed);
    v.iter_mut().for_each(|z| *z = z.scale(inv));
    v
}

/// Leverage screen of the fill-in search.
///
/// For a basis `U` with exactly orthonormal columns, two-pass MGS leaves
/// seed `e_s` a residual `(I - UUᴴ) e_s` of squared norm `1 - ‖Uᴴe_s‖²`. The
/// computed basis `Q` is within `δ ≥ ‖QᴴQ - I‖₂` of its polar factor `U`
/// (columnwise and in norm), so `‖Uᴴe_s‖ ≥ sqrt(lev[s]) - δ`, and each
/// projector `I - q_i q_iᴴ` lies within `η = 2δ + δ²` of `I - u_i u_iᴴ`.
/// Over the `2j` projection steps the exact residual therefore has norm at
/// most `sqrt(1 - lev[s] + 2δ) + γ` with `γ = (1 + η)^{2j} - 1`.
struct Screen {
    /// `lev[s] = Σ_i |q_i[s]|²` over the finished basis.
    lev: Vec<f64>,
    /// `‖QᴴQ - I‖_F²` of the finished basis, as computed.
    defect_sq: f64,
}

impl Screen {
    fn new<T: MgsScalar>(basis: &[Vec<T>], m: usize) -> Self {
        let mut screen = Screen { lev: vec![0.0; m], defect_sq: 0.0 };
        for j in 1..=basis.len() {
            screen.add(&basis[..j]);
        }
        screen
    }

    /// Account for the newest basis column, `basis.last()`.
    fn add<T: MgsScalar>(&mut self, basis: &[Vec<T>]) {
        let Some((q, older)) = basis.split_last() else { return };
        for (lev, z) in self.lev.iter_mut().zip(q) {
            *lev += z.abs2();
        }
        let off: f64 = older.iter().map(|qi| dot(qi, q).abs2()).sum();
        let diag = q.iter().map(|z| z.abs2()).sum::<f64>() - 1.0;
        self.defect_sq += 2.0 * off + diag * diag;
    }

    /// Largest `1 - lev[s]` that proves the attempt on `e_s` against the `j`
    /// basis columns fails (`nv ≤ 0.5`), or `-inf` when the measured defect
    /// is too large to prove anything.
    ///
    /// `ρ = 16 (j + 1)(m + 2) ε` bounds, with room to spare, the relative
    /// rounding of the `2j` projection steps (each below `2 (m + 2) ε`), of
    /// the residual norm and of the leverage sums; `4 j (m + 2) ε` bounds
    /// the rounding of the computed Gram entries in Frobenius norm. A seed
    /// is skipped when `(sqrt(1 - lev[s] + 2δ + ρ) + γ + ρ)(1 + ρ) ≤ 0.5`.
    fn skip_limit(&self, j: usize) -> f64 {
        let (jf, mf) = (j as f64, self.lev.len() as f64);
        let rho = 16.0 * (jf + 1.0) * (mf + 2.0) * f64::EPSILON;
        let delta = self.defect_sq.sqrt() + 4.0 * jf * (mf + 2.0) * f64::EPSILON;
        let gamma = (1.0 + delta * (2.0 + delta)).powf(2.0 * jf) - 1.0;
        let t = 0.5 / (1.0 + rho) - gamma - rho;
        if t > 0.0 {
            t * t - 2.0 * delta - rho
        } else {
            f64::NEG_INFINITY
        }
    }
}

/// Orthonormalize the columns of `a`, returning only the `Q` factor.
pub fn orthonormalize(a: &Matrix) -> Matrix {
    qr(a).q
}

/// QR of a square matrix with an invertibility check on `R`.
pub fn qr_square_invertible(a: &Matrix) -> Result<QrFactors> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::NotSquare { nrows: m, ncols: n });
    }
    let f = qr(a);
    for i in 0..n {
        if f.r[(i, i)].abs() < 1e-13 * a.norm_max().max(1.0) {
            return Err(LinalgError::Singular);
        }
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Reference MGS for the differential test: the fill-in tries every seed
    // in row order, and an exhausted search leaves the last seed's
    // unnormalized residual in Q.
    fn oracle_qr(a: &Matrix) -> QrFactors {
        if a.is_real() {
            return oracle_qr_real(a);
        }
        let (m, n) = a.shape();
        let k = m.min(n);
        let mut q = Matrix::zeros(m, k);
        let mut r = Matrix::zeros(k, n);

        // Working copy of the columns we are orthogonalizing.
        let mut cols: Vec<Vec<C64>> = (0..n).map(|j| a.col(j)).collect();
        let scale = a.norm_max().max(1.0);
        let tol = scale * 1e-14;

        for j in 0..k {
            // Two passes of projection against the established basis.
            for _ in 0..2 {
                for i in 0..j {
                    let qi = q.col(i);
                    let proj: C64 =
                        qi.iter().zip(cols[j].iter()).map(|(qe, ce)| qe.conj() * *ce).sum();
                    // Both passes accumulate into R; the second pass adds the
                    // small correction left over by the first.
                    r[(i, j)] += proj;
                    for (ce, qe) in cols[j].iter_mut().zip(qi.iter()) {
                        *ce -= *qe * proj;
                    }
                }
            }
            let norm = cols[j].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if norm > tol {
                r[(j, j)] = c64(norm, 0.0);
                let inv = 1.0 / norm;
                let unit: Vec<C64> = cols[j].iter().map(|&z| z * inv).collect();
                q.set_col(j, &unit);
            } else {
                // Numerically zero column: extend the basis with a canonical
                // vector orthogonalized against what we have so far.
                r[(j, j)] = C64::ZERO;
                let mut v = vec![C64::ZERO; m];
                'seed: for seed in 0..m {
                    v.iter_mut().for_each(|z| *z = C64::ZERO);
                    v[seed] = C64::ONE;
                    for _ in 0..2 {
                        for i in 0..j {
                            let qi = q.col(i);
                            let proj: C64 =
                                qi.iter().zip(v.iter()).map(|(qe, ce)| qe.conj() * *ce).sum();
                            for (ce, qe) in v.iter_mut().zip(qi.iter()) {
                                *ce -= *qe * proj;
                            }
                        }
                    }
                    let nv = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
                    if nv > 0.5 {
                        let inv = 1.0 / nv;
                        v.iter_mut().for_each(|z| *z = *z * inv);
                        break 'seed;
                    }
                }
                q.set_col(j, &v);
            }
        }

        // Remaining columns (n > m case): project onto the finished basis.
        for j in k..n {
            for i in 0..k {
                let qi = q.col(i);
                let proj: C64 = qi.iter().zip(cols[j].iter()).map(|(qe, ce)| qe.conj() * *ce).sum();
                r[(i, j)] = proj;
            }
        }

        QrFactors { q, r }
    }

    fn oracle_qr_real(a: &Matrix) -> QrFactors {
        let (m, n) = a.shape();
        let k = m.min(n);
        let mut q_cols: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut r = vec![0.0f64; k * n];

        let mut cols: Vec<Vec<f64>> =
            (0..n).map(|j| (0..m).map(|i| a[(i, j)].re).collect()).collect();
        let scale = a.norm_max().max(1.0);
        let tol = scale * 1e-14;

        for j in 0..k {
            // Two passes of projection against the established basis.
            for _ in 0..2 {
                for i in 0..j {
                    let qi = &q_cols[i];
                    let proj: f64 = qi.iter().zip(cols[j].iter()).map(|(qe, ce)| qe * ce).sum();
                    r[i * n + j] += proj;
                    for (ce, qe) in cols[j].iter_mut().zip(qi.iter()) {
                        *ce -= *qe * proj;
                    }
                }
            }
            let norm = cols[j].iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > tol {
                r[j * n + j] = norm;
                let inv = 1.0 / norm;
                q_cols.push(cols[j].iter().map(|&x| x * inv).collect());
            } else {
                // Numerically zero column: extend the basis with a canonical
                // vector orthogonalized against what we have so far.
                let mut v = vec![0.0f64; m];
                'seed: for seed in 0..m {
                    v.iter_mut().for_each(|x| *x = 0.0);
                    v[seed] = 1.0;
                    for _ in 0..2 {
                        for qi in q_cols.iter() {
                            let proj: f64 = qi.iter().zip(v.iter()).map(|(qe, ce)| qe * ce).sum();
                            for (ce, qe) in v.iter_mut().zip(qi.iter()) {
                                *ce -= *qe * proj;
                            }
                        }
                    }
                    let nv = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if nv > 0.5 {
                        let inv = 1.0 / nv;
                        v.iter_mut().for_each(|x| *x *= inv);
                        break 'seed;
                    }
                }
                q_cols.push(v);
            }
        }

        // Remaining columns (n > m case): project onto the finished basis.
        for j in k..n {
            for (i, qi) in q_cols.iter().enumerate() {
                r[i * n + j] = qi.iter().zip(cols[j].iter()).map(|(qe, ce)| qe * ce).sum();
            }
        }

        let mut q_data = vec![0.0f64; m * k];
        for (j, col) in q_cols.iter().enumerate() {
            for (i, &x) in col.iter().enumerate() {
                q_data[i * k + j] = x;
            }
        }
        let q = Matrix::from_real(m, k, &q_data)
            .unwrap_or_else(|_| unreachable!("qr_real: Q buffer is sized m*k by construction"));
        let r = Matrix::from_real(k, n, &r)
            .unwrap_or_else(|_| unreachable!("qr_real: R buffer is sized k*n by construction"));
        QrFactors { q, r }
    }

    fn check_qr(a: &Matrix, tol: f64) {
        let QrFactors { q, r } = qr(a);
        let (m, n) = a.shape();
        let k = m.min(n);
        assert_eq!(q.shape(), (m, k));
        assert_eq!(r.shape(), (k, n));
        assert!(q.has_orthonormal_cols(tol), "Q columns not orthonormal");
        assert!(matmul(&q, &r).approx_eq(a, tol * a.norm_max().max(1.0)), "QR != A");
        // R upper triangular
        for i in 0..k {
            for j in 0..i.min(n) {
                assert!(r[(i, j)].abs() < tol);
            }
        }
    }

    #[test]
    fn tall_matrix() {
        let mut rng = StdRng::seed_from_u64(20);
        check_qr(&Matrix::random(20, 5, &mut rng), 1e-11);
    }

    #[test]
    fn square_matrix() {
        let mut rng = StdRng::seed_from_u64(21);
        check_qr(&Matrix::random(8, 8, &mut rng), 1e-11);
    }

    #[test]
    fn wide_matrix() {
        let mut rng = StdRng::seed_from_u64(22);
        check_qr(&Matrix::random(4, 9, &mut rng), 1e-11);
    }

    #[test]
    fn rank_deficient_matrix() {
        let mut rng = StdRng::seed_from_u64(23);
        let b = Matrix::random(10, 2, &mut rng);
        let c = Matrix::random(2, 6, &mut rng);
        let a = matmul(&b, &c); // rank <= 2 but 10x6
        let QrFactors { q, r } = qr(&a);
        assert!(q.has_orthonormal_cols(1e-10));
        assert!(matmul(&q, &r).approx_eq(&a, 1e-10));
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(5, 3);
        let QrFactors { q, r } = qr(&a);
        assert!(q.has_orthonormal_cols(1e-12));
        assert!(r.norm_max() < 1e-14);
    }

    #[test]
    fn identity_input() {
        let a = Matrix::identity(4);
        let QrFactors { q, r } = qr(&a);
        assert!(q.approx_eq(&Matrix::identity(4), 1e-14));
        assert!(r.approx_eq(&Matrix::identity(4), 1e-14));
    }

    #[test]
    fn square_invertible_check() {
        let mut rng = StdRng::seed_from_u64(24);
        let a = Matrix::random(6, 6, &mut rng);
        assert!(qr_square_invertible(&a).is_ok());
        assert!(matches!(qr_square_invertible(&Matrix::zeros(3, 3)), Err(LinalgError::Singular)));
        assert!(matches!(
            qr_square_invertible(&Matrix::zeros(3, 4)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn orthonormalize_is_projection_of_qr() {
        let mut rng = StdRng::seed_from_u64(25);
        let a = Matrix::random(12, 4, &mut rng);
        let q = orthonormalize(&a);
        assert!(q.has_orthonormal_cols(1e-11));
        // Column spaces agree: Q Q^H A == A.
        let proj = matmul(&q, &crate::gemm::matmul_adj_a(&q, &a));
        assert!(proj.approx_eq(&a, 1e-10));
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.is_real() == b.is_real()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    /// Compare `qr` with the oracle bit for bit (values and hints). Where
    /// the oracle ran out of seeds (it left a column of norm at most 0.5 in
    /// `Q`), check that `qr` still returns an orthonormal factorization.
    /// Returns whether the oracle ran out.
    fn check_against_oracle(a: &Matrix, label: &str) -> bool {
        let new = qr(a);
        let old = oracle_qr(a);
        let exhausted = (0..old.q.ncols())
            .any(|j| old.q.col(j).iter().map(|z| z.norm_sqr()).sum::<f64>() < 0.5);
        if exhausted {
            assert!(new.q.has_orthonormal_cols(1e-9), "{label}: Q not orthonormal");
            assert!(matmul(&new.q, &new.r).approx_eq(a, 1e-9 * a.norm_max().max(1.0)), "{label}");
        } else {
            assert!(same_bits(&new.q, &old.q), "{label}: Q differs from the oracle");
            assert!(same_bits(&new.r, &old.r), "{label}: R differs from the oracle");
        }
        exhausted
    }

    /// The same data without the realness hint, so it takes the complex
    /// branch.
    fn laundered(a: &Matrix) -> Matrix {
        let (m, n) = a.shape();
        Matrix::from_vec(m, n, a.data().to_vec()).unwrap()
    }

    fn random_matrix(m: usize, n: usize, real: bool, rng: &mut StdRng) -> Matrix {
        if real {
            Matrix::random_real(m, n, rng)
        } else {
            Matrix::random(m, n, rng)
        }
    }

    fn random_entry(rng: &mut StdRng, real: bool) -> C64 {
        if real {
            c64(rng.gen_range(-1.0..1.0), 0.0)
        } else {
            c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        }
    }

    #[test]
    fn matches_the_every_seed_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut cases = 0;
        let mut exhausted = 0;
        let mut check = |a: &Matrix, label: String| {
            cases += 1;
            exhausted += usize::from(check_against_oracle(a, &label));
        };
        let shapes =
            [(1, 1), (3, 5), (5, 5), (7, 4), (9, 9), (12, 20), (24, 8), (40, 26), (64, 26)];

        // Random low-rank products B C, tall, square and wide.
        for &(m, n) in shapes.iter().chain(&shapes).chain(&shapes) {
            for rank in 0..=m.min(n) {
                for real in [true, false] {
                    let b = random_matrix(m, rank, real, &mut rng);
                    let a = matmul(&b, &random_matrix(rank, n, real, &mut rng));
                    assert_eq!(a.is_real(), real);
                    check(&a, format!("low-rank {m}x{n} rank {rank} real {real}"));
                }
            }
        }

        // 0/±1 inputs whose columns are zero or signed canonical vectors
        // (±i too on the complex branch): exact leverages of 0 and 1 and
        // repeated directions.
        for &(m, n) in &shapes {
            for trial in 0..20 {
                for real in [true, false] {
                    let mut data = vec![C64::ZERO; m * n];
                    for j in 0..n {
                        if rng.gen_range(0..4) == 0 {
                            continue;
                        }
                        let units = if real { 2 } else { 4 };
                        let unit = [C64::ONE, -C64::ONE, C64::I, -C64::I][rng.gen_range(0..units)];
                        data[rng.gen_range(0..m) * n + j] = unit;
                    }
                    let mut a = Matrix::from_vec(m, n, data).unwrap();
                    if real {
                        a.assume_real();
                    }
                    check(&a, format!("canonical {m}x{n} trial {trial} real {real}"));
                }
            }
        }

        // Columns that repeat an earlier combination plus a perturbation
        // whose residual lands near the rank tolerance: some just above it
        // (normalized from a tiny residual), some just below (filled in).
        for &(m, n) in &[(9, 9), (24, 12), (40, 26), (12, 20)] {
            for factor in [0.5, 0.9, 1.1, 1.5, 3.0] {
                for real in [true, false] {
                    let k = m.min(n);
                    let free = (k / 2).max(1);
                    let mut a = Matrix::zeros(m, n);
                    for j in 0..n {
                        let col: Vec<C64> = if j < free {
                            (0..m).map(|_| random_entry(&mut rng, real)).collect()
                        } else {
                            let mix: Vec<C64> =
                                (0..free).map(|_| random_entry(&mut rng, real)).collect();
                            let w: Vec<C64> =
                                (0..m).map(|_| random_entry(&mut rng, real)).collect();
                            let wn = w.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
                            let eps = factor * 1e-14 / wn;
                            (0..m)
                                .map(|i| {
                                    (0..free).map(|l| a[(i, l)] * mix[l]).sum::<C64>() + w[i] * eps
                                })
                                .collect()
                        };
                        a.set_col(j, &col);
                    }
                    assert_eq!(a.is_real(), real);
                    check(&a, format!("near-tol {m}x{n} factor {factor} real {real}"));
                }
            }
        }

        assert!(cases > 1000, "{cases} cases");
        // The comparison must be mostly bit-for-bit, not mostly the fallback.
        assert!(exhausted * 20 < cases, "{exhausted} of {cases} cases exhausted the oracle");
    }

    #[test]
    fn screen_limit_tracks_the_measured_defect() {
        let e = |s: usize, x: f64| -> Vec<f64> {
            let mut v = vec![0.0; 8];
            v[s] = x;
            v
        };
        // An exactly orthonormal basis proves failure just below 1 - lev = 0.25.
        let exact = [e(0, 1.0), e(3, 1.0)];
        let limit = Screen::new(&exact, 8).skip_limit(exact.len());
        assert!(limit < 0.25 && limit > 0.25 - 1e-10, "{limit}");
        // A measured defect narrows the margin by at least twice its size...
        let skewed = [e(0, 1.01), e(3, 1.0)];
        let screen = Screen::new(&skewed, 8);
        assert!((screen.defect_sq.sqrt() - 0.0201).abs() < 1e-12);
        assert!(screen.skip_limit(2) < 0.25 - 2.0 * 0.0201);
        // ...and a large one rules nothing out.
        let broken = [e(0, 1.3), e(3, 1.0)];
        assert_eq!(Screen::new(&broken, 8).skip_limit(2), f64::NEG_INFINITY);
    }

    #[test]
    fn exhausted_seed_search_falls_back_to_the_lowest_leverage_seed() {
        // Columns e_j - e_{j+1} span the complement of the uniform vector
        // w, so the zero last column must be filled with ±w. Every seed's
        // residual w w^T e_s has norm 1/sqrt(5) < 0.5: the search runs out.
        let m = 5;
        let w = [1.0 / (m as f64).sqrt(); 5];
        let mut data = vec![0.0; m * m];
        for j in 0..m - 1 {
            data[j * m + j] = 1.0;
            data[(j + 1) * m + j] = -1.0;
        }
        let a = Matrix::from_real(m, m, &data).unwrap();
        for a in [a.clone(), laundered(&a)] {
            let f = qr(&a);
            assert!(f.q.has_orthonormal_cols(1e-12));
            assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-12));
            // The filled-in last column is ±w.
            let last = f.q.col(m - 1);
            let overlap: f64 = last.iter().zip(&w).map(|(z, x)| z.re * x).sum();
            assert!((overlap.abs() - 1.0).abs() < 1e-12, "{overlap}");
            // The oracle's exhausted loop leaves a non-unit column instead.
            let old = oracle_qr(&a);
            assert!(!old.q.has_orthonormal_cols(1e-3));
        }
    }
}
