//! Analytic Karhunen–Loève expansion of the exponential covariance kernel.
//!
//! For the 1-D kernel `C(s,t) = exp(-|s-t|/ℓ)` on `[-a, a]` the eigenpairs
//! are known in closed form up to the roots of transcendental equations
//! (Ghanem & Spanos): with `c = 1/ℓ`,
//!
//! * cosine modes: `ω` solves `c = ω·tan(ω a)`, eigenfunction
//!   `φ(t) = cos(ω t) / √(a + sin(2ωa)/(2ω))`,
//! * sine modes: `ω` solves `ω = -c·tan(ω a)`, eigenfunction
//!   `φ(t) = sin(ω t) / √(a - sin(2ωa)/(2ω))`,
//!
//! both with eigenvalue `λ = 2c / (ω² + c²)`. We work on `[0, 1]` via the
//! shift `t = x - 1/2`, `a = 1/2`. The 2-D separable exponential kernel
//! `exp(-(|Δx| + |Δy|)/ℓ)` has tensor-product eigenpairs
//! `λ_{ij} = λ_i λ_j`, `φ_{ij}(x, y) = φ_i(x) φ_j(y)`; [`KlField2d`]
//! truncates to the `m` largest, matching the paper's `m = 113` setup.

use uq_linalg::dense::DenseMatrix;
use uq_linalg::roots::bisect_refine;
use uq_linalg::vector;

/// Parity of a 1-D KL mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeKind {
    Cosine,
    Sine,
}

/// One eigenpair of the 1-D exponential kernel.
#[derive(Clone, Copy, Debug)]
pub struct Kl1dMode {
    /// Frequency `ω` of the eigenfunction.
    pub omega: f64,
    /// Eigenvalue `λ` (unit-variance kernel).
    pub lambda: f64,
    /// Cosine (even) or sine (odd) about the interval midpoint.
    pub kind: ModeKind,
    /// Normalization constant of the eigenfunction.
    norm: f64,
}

/// 1-D KL expansion of `exp(-|s-t|/ℓ)` on `[0, 1]` (unit variance).
#[derive(Clone, Debug)]
pub struct Kl1d {
    corr_len: f64,
    modes: Vec<Kl1dMode>,
}

const HALF: f64 = 0.5; // interval half-width a for [0,1]

impl Kl1d {
    /// Compute the `n_modes` leading eigenpairs for correlation length
    /// `corr_len`.
    ///
    /// # Panics
    /// Panics if `corr_len <= 0` or `n_modes == 0`.
    pub fn new(corr_len: f64, n_modes: usize) -> Self {
        assert!(corr_len > 0.0, "Kl1d: correlation length must be positive");
        assert!(n_modes > 0, "Kl1d: need at least one mode");
        let c = 1.0 / corr_len;
        let a = HALF;
        let pi = std::f64::consts::PI;
        let mut modes = Vec::with_capacity(n_modes);
        for n in 0..n_modes {
            let mode = if n % 2 == 0 {
                // cosine mode k = n/2: root of c - w tan(w a) in (kπ/a, (k+1/2)π/a)
                let k = (n / 2) as f64;
                let lo = k * pi / a + 1e-9;
                let hi = (k + 0.5) * pi / a - 1e-9;
                let f = |w: f64| c - w * (w * a).tan();
                let omega = bisect_refine(f, lo, hi);
                let norm = (a + (2.0 * omega * a).sin() / (2.0 * omega)).sqrt();
                Kl1dMode {
                    omega,
                    lambda: 2.0 * c / (omega * omega + c * c),
                    kind: ModeKind::Cosine,
                    norm,
                }
            } else {
                // sine mode k = (n-1)/2: root of w + c tan(w a) in ((k+1/2)π/a, (k+1)π/a)
                let k = ((n - 1) / 2) as f64;
                let lo = (k + 0.5) * pi / a + 1e-9;
                let hi = (k + 1.0) * pi / a - 1e-9;
                let f = |w: f64| w + c * (w * a).tan();
                let omega = bisect_refine(f, lo, hi);
                let norm = (a - (2.0 * omega * a).sin() / (2.0 * omega)).sqrt();
                Kl1dMode {
                    omega,
                    lambda: 2.0 * c / (omega * omega + c * c),
                    kind: ModeKind::Sine,
                    norm,
                }
            };
            modes.push(mode);
        }
        Self { corr_len, modes }
    }

    pub fn corr_len(&self) -> f64 {
        self.corr_len
    }

    pub fn n_modes(&self) -> usize {
        self.modes.len()
    }

    /// Eigenvalue of mode `k` (decreasing in `k`).
    pub fn lambda(&self, k: usize) -> f64 {
        self.modes[k].lambda
    }

    /// Evaluate eigenfunction `φ_k` at `x ∈ [0, 1]`.
    pub fn eval(&self, k: usize, x: f64) -> f64 {
        let m = &self.modes[k];
        let t = x - 0.5;
        match m.kind {
            ModeKind::Cosine => (m.omega * t).cos() / m.norm,
            ModeKind::Sine => (m.omega * t).sin() / m.norm,
        }
    }

    /// Mercer partial sum `Σ_k λ_k φ_k(s) φ_k(t)` — converges to the kernel.
    pub fn mercer_sum(&self, s: f64, t: f64) -> f64 {
        (0..self.n_modes())
            .map(|k| self.lambda(k) * self.eval(k, s) * self.eval(k, t))
            .sum()
    }
}

/// One retained 2-D tensor mode.
#[derive(Clone, Copy, Debug)]
pub struct Mode2d {
    /// 2-D eigenvalue `σ² λ_i λ_j`.
    pub lambda: f64,
    /// 1-D mode index in `x`.
    pub i: usize,
    /// 1-D mode index in `y`.
    pub j: usize,
}

/// Truncated 2-D KL expansion of a stationary Gaussian field
/// `log κ(x, θ) = Σ_k √λ_k φ_k(x) θ_k`, `θ_k ~ N(0, 1)` iid.
#[derive(Clone, Debug)]
pub struct KlField2d {
    kl1d: Kl1d,
    variance: f64,
    modes: Vec<Mode2d>,
}

impl KlField2d {
    /// Build the `m`-term expansion for correlation length `corr_len` and
    /// (marginal) variance `variance`.
    ///
    /// The paper's Poisson problem uses `corr_len = 0.15`, `variance = 1`,
    /// `m = 113`.
    pub fn new(corr_len: f64, variance: f64, m: usize) -> Self {
        assert!(variance > 0.0, "KlField2d: variance must be positive");
        assert!(m > 0, "KlField2d: need at least one mode");
        // enough 1-D modes that the top-m products are exact: the m-th
        // largest product never needs 1-D index beyond m (λ decreasing).
        let n1d = (m as f64).sqrt().ceil() as usize * 2 + 4;
        let kl1d = Kl1d::new(corr_len, n1d.min(m + 1));
        let n = kl1d.n_modes();
        let mut all: Vec<Mode2d> = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                all.push(Mode2d {
                    lambda: variance * kl1d.lambda(i) * kl1d.lambda(j),
                    i,
                    j,
                });
            }
        }
        all.sort_by(|a, b| b.lambda.partial_cmp(&a.lambda).unwrap());
        all.truncate(m);
        Self {
            kl1d,
            variance,
            modes: all,
        }
    }

    /// Number of retained modes `m` (the stochastic dimension).
    pub fn dim(&self) -> usize {
        self.modes.len()
    }

    pub fn variance(&self) -> f64 {
        self.variance
    }

    pub fn modes(&self) -> &[Mode2d] {
        &self.modes
    }

    /// Evaluate the `k`-th (λ-scaled) basis function `√λ_k φ_k(x, y)`.
    pub fn basis(&self, k: usize, x: f64, y: f64) -> f64 {
        let m = &self.modes[k];
        m.lambda.sqrt() * self.kl1d.eval(m.i, x) * self.kl1d.eval(m.j, y)
    }

    /// Evaluate `log κ(x, y; θ) = Σ_k √λ_k φ_k(x, y) θ_k`.
    ///
    /// # Panics
    /// Panics if `theta.len() != self.dim()`.
    pub fn log_kappa(&self, theta: &[f64], x: f64, y: f64) -> f64 {
        assert_eq!(
            theta.len(),
            self.dim(),
            "log_kappa: wrong parameter dimension"
        );
        (0..self.dim())
            .map(|k| self.basis(k, x, y) * theta[k])
            .sum()
    }

    /// Evaluate `κ = exp(log κ)`.
    pub fn kappa(&self, theta: &[f64], x: f64, y: f64) -> f64 {
        self.log_kappa(theta, x, y).exp()
    }

    /// Tabulate the field's 1-D factors on the tensor grid `xs × ys`
    /// for [`KlTensorGrid::log_kappa_into`].
    pub fn tensor_grid(&self, xs: &[f64], ys: &[f64]) -> KlTensorGrid {
        // the retained modes are a down-closed set of index pairs (λ
        // strictly decreases in each 1-D index), so the x-modes that occur
        // are 0..I and the y-modes 0..J
        let n_x = 1 + self.modes.iter().map(|m| m.i).max().expect("m > 0");
        let n_y = 1 + self.modes.iter().map(|m| m.j).max().expect("m > 0");
        let table = |n_modes: usize, at: &[f64]| {
            DenseMatrix::from_fn(n_modes, at.len(), |i, a| self.kl1d.eval(i, at[a]))
        };
        KlTensorGrid {
            modes: self
                .modes
                .iter()
                .map(|m| (m.i, m.j, m.lambda.sqrt()))
                .collect(),
            phi_x: table(n_x, xs),
            phi_y: table(n_y, ys),
        }
    }

    /// Truncated pointwise variance `Σ_k λ_k φ_k(x,y)²` — approaches
    /// `variance` as `m → ∞` (used to quantify truncation error).
    pub fn truncated_variance(&self, x: f64, y: f64) -> f64 {
        (0..self.dim()).map(|k| self.basis(k, x, y).powi(2)).sum()
    }
}

/// A [`KlField2d`] on a tensor grid `xs × ys`, evaluated by sum
/// factorisation (Orszag 1980): `log κ(x_a, y_b) = Σ_k √λ_k θ_k
/// φ_{i_k}(x_a) φ_{j_k}(y_b)` is, grouped by x-mode,
///
/// * `H[i][b] = Σ_{k : i_k = i} (√λ_k θ_k) φ_{j_k}(y_b)`, then
/// * `out[b][a] = Σ_i H[i][b] φ_i(x_a)`,
///
/// `m·ny + I·nx·ny` multiply-adds for `I` distinct x-modes, instead of
/// the `m·nx·ny` of the row sum [`KlField2d::log_kappa`] (`m = 113` has
/// `I = 19`). It holds the 1-D tables `φ_i(x_a)` and `φ_j(y_b)` and each
/// mode's `(i_k, j_k, √λ_k)`, built once by [`KlField2d::tensor_grid`].
#[derive(Clone, Debug)]
pub struct KlTensorGrid {
    /// Per retained mode `k`: `(i_k, j_k, √λ_k)`.
    modes: Vec<(usize, usize, f64)>,
    /// `φ_i(x_a)`: row `i` holds x-mode `i` at every `x` (`I × nx`).
    phi_x: DenseMatrix,
    /// `φ_j(y_b)`: row `j` holds y-mode `j` at every `y` (`J × ny`).
    phi_y: DenseMatrix,
}

impl KlTensorGrid {
    /// Number of retained modes `m`.
    pub fn dim(&self) -> usize {
        self.modes.len()
    }

    /// Number of grid points `nx · ny`.
    pub fn n_points(&self) -> usize {
        self.phi_x.cols() * self.phi_y.cols()
    }

    /// Length of the scratch [`log_kappa_into`](Self::log_kappa_into)
    /// works in: `H` (`I × ny`) and one of its columns.
    pub fn scratch_len(&self) -> usize {
        self.phi_x.rows() * (self.phi_y.cols() + 1)
    }

    /// `out[b·nx + a] = log κ(x_a, y_b; θ)` (x fastest), allocation-free.
    ///
    /// The summation order, fixed: `c_k = √λ_k · θ_k`; each `H[i][b]`
    /// adds `c_k · φ_{j_k}(y_b)` over its modes in ascending `k`, from
    /// `−0.0`, one [`vector::axpy`] over `y` per mode; each `out[b][a]`
    /// adds `H[i][b] · φ_i(x_a)` in ascending `i`, from `−0.0`, by
    /// [`DenseMatrix::matvec_t_into`] (one sweep over the row per four
    /// x-modes, the same order as one at a time). No product is fused.
    /// This is not the row sum's order, so the two agree to rounding:
    /// within `8 ε Σ_k |√λ_k θ_k φ_k(x_a, y_b)|`.
    ///
    /// # Panics
    /// Panics if `theta` has not one entry per mode, `scratch` is shorter
    /// than [`scratch_len`](Self::scratch_len) or `out` has not one entry
    /// per grid point.
    pub fn log_kappa_into(&self, theta: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        assert_eq!(theta.len(), self.dim(), "log_kappa_into: wrong dimension");
        assert_eq!(
            out.len(),
            self.n_points(),
            "log_kappa_into: wrong output length"
        );
        let (nx, ny) = (self.phi_x.cols(), self.phi_y.cols());
        let (h, rest) = scratch[..self.scratch_len()].split_at_mut(self.phi_x.rows() * ny);
        h.fill(-0.0);
        for (&(i, j, sqrt_lambda), &t) in self.modes.iter().zip(theta) {
            vector::axpy(
                sqrt_lambda * t,
                self.phi_y.row(j),
                &mut h[i * ny..(i + 1) * ny],
            );
        }
        for (b, row) in out.chunks_exact_mut(nx).enumerate() {
            for (c, h_i) in rest.iter_mut().zip(h.chunks_exact(ny)) {
                *c = h_i[b];
            }
            self.phi_x.matvec_t_into(rest, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uq_linalg::quadrature::gauss_legendre_on;

    const CORR_LEN: f64 = 0.15;

    #[test]
    fn eigenvalues_decrease() {
        let kl = Kl1d::new(CORR_LEN, 20);
        for k in 1..20 {
            assert!(
                kl.lambda(k) < kl.lambda(k - 1),
                "λ_{k} = {} >= λ_{} = {}",
                kl.lambda(k),
                k - 1,
                kl.lambda(k - 1)
            );
        }
    }

    #[test]
    fn eigenvalues_satisfy_transcendental_equations() {
        let kl = Kl1d::new(CORR_LEN, 10);
        let c = 1.0 / CORR_LEN;
        for m in &kl.modes {
            let res = match m.kind {
                ModeKind::Cosine => c - m.omega * (m.omega * 0.5).tan(),
                ModeKind::Sine => m.omega + c * (m.omega * 0.5).tan(),
            };
            assert!(res.abs() < 1e-6, "residual {res} for ω = {}", m.omega);
        }
    }

    #[test]
    fn eigenfunctions_orthonormal() {
        let kl = Kl1d::new(CORR_LEN, 8);
        let (xs, ws) = gauss_legendre_on(0.0, 1.0, 64);
        for i in 0..8 {
            for j in i..8 {
                let ip: f64 = xs
                    .iter()
                    .zip(&ws)
                    .map(|(x, w)| w * kl.eval(i, *x) * kl.eval(j, *x))
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (ip - expect).abs() < 1e-8,
                    "⟨φ_{i}, φ_{j}⟩ = {ip}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn mercer_sum_approximates_kernel() {
        // with many modes the Mercer sum reproduces exp(-|s-t|/l) away from
        // the diagonal kink
        let kl = Kl1d::new(CORR_LEN, 200);
        for (s, t) in [(0.2f64, 0.6), (0.5, 0.5), (0.1, 0.9), (0.45, 0.55)] {
            let exact = (-(s - t).abs() / CORR_LEN).exp();
            let approx = kl.mercer_sum(s, t);
            assert!(
                (exact - approx).abs() < 0.02,
                "C({s},{t}) = {exact}, Mercer = {approx}"
            );
        }
    }

    #[test]
    fn eigenfunction_is_kernel_eigenfunction() {
        // ∫ C(s,t) φ(t) dt = λ φ(s)
        let kl = Kl1d::new(CORR_LEN, 4);
        let (xs, ws) = gauss_legendre_on(0.0, 1.0, 200);
        for k in 0..4 {
            let s = 0.37;
            let integral: f64 = xs
                .iter()
                .zip(&ws)
                .map(|(t, w)| w * (-(s - t).abs() / CORR_LEN).exp() * kl.eval(k, *t))
                .sum();
            let expect = kl.lambda(k) * kl.eval(k, s);
            assert!(
                (integral - expect).abs() < 1e-4,
                "mode {k}: ∫Cφ = {integral}, λφ = {expect}"
            );
        }
    }

    #[test]
    fn field2d_dimension_and_sorting() {
        let f = KlField2d::new(CORR_LEN, 1.0, 113);
        assert_eq!(f.dim(), 113);
        for k in 1..f.dim() {
            assert!(f.modes()[k].lambda <= f.modes()[k - 1].lambda);
        }
    }

    #[test]
    fn field2d_leading_mode_is_product_of_leading_1d() {
        let f = KlField2d::new(CORR_LEN, 1.0, 10);
        let kl = Kl1d::new(CORR_LEN, 2);
        let expect = kl.lambda(0) * kl.lambda(0);
        assert!((f.modes()[0].lambda - expect).abs() < 1e-10);
        assert_eq!((f.modes()[0].i, f.modes()[0].j), (0, 0));
    }

    #[test]
    fn log_kappa_is_linear_in_theta() {
        let f = KlField2d::new(CORR_LEN, 1.0, 12);
        let theta1: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).sin()).collect();
        let theta2: Vec<f64> = (0..12).map(|i| (i as f64 * 0.11).cos()).collect();
        let sum: Vec<f64> = theta1.iter().zip(&theta2).map(|(a, b)| a + b).collect();
        let (x, y) = (0.3, 0.8);
        let lhs = f.log_kappa(&sum, x, y);
        let rhs = f.log_kappa(&theta1, x, y) + f.log_kappa(&theta2, x, y);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    /// The three parameters of the Poisson golden fixture: a smooth
    /// one, a larger smooth one and a rough one whose `κ` spans several
    /// decades.
    fn golden_theta(m: usize, k: usize) -> Vec<f64> {
        (0..m)
            .map(|i| match k {
                0 => 0.5 * ((i + 1) as f64).sin(),
                1 => 1.5 * (0.7 * i as f64 + 0.3).cos(),
                _ => -2.0 * ((i * i) as f64 * 0.37 + 1.0).sin(),
            })
            .collect()
    }

    #[test]
    fn tabulate_matches_pointwise_eval() {
        let f = KlField2d::new(CORR_LEN, 1.0, 20);
        let (xs, ys) = ([0.1, 0.5, 0.9], [0.2, 0.5, 0.3]);
        let grid = f.tensor_grid(&xs, &ys);
        let theta: Vec<f64> = (0..20).map(|i| 0.1 * i as f64 - 1.0).collect();
        let mut scratch = vec![0.0; grid.scratch_len()];
        let mut out = vec![0.0; 9];
        grid.log_kappa_into(&theta, &mut scratch, &mut out);
        for (p, got) in out.iter().enumerate() {
            let (x, y) = (xs[p % 3], ys[p / 3]);
            assert!(
                (got - f.log_kappa(&theta, x, y)).abs() < 1e-12,
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn tensor_log_kappa_is_the_row_sum_to_rounding() {
        // every element centre of the n × n meshes, n = 4 … 64, and the
        // 33 × 33 QOI grid: |tensor − row sum| ≤ 8 ε Σ_k |√λ_k θ_k φ_k|
        let centres =
            |n: usize| -> Vec<f64> { (0..n).map(|a| (a as f64 + 0.5) / n as f64).collect() };
        let qoi: Vec<f64> = (0..33).map(|a| a as f64 / 32.0).collect();
        let grids: Vec<Vec<f64>> = (4..=64).map(centres).chain([qoi]).collect();
        let mut worst = 0.0f64;
        for m in [8, 24, 113] {
            let f = KlField2d::new(CORR_LEN, 1.0, m);
            for axis in &grids {
                let grid = f.tensor_grid(axis, axis);
                let mut scratch = vec![f64::NAN; grid.scratch_len()];
                let mut out = vec![f64::NAN; grid.n_points()];
                for k in 0..3 {
                    let theta = golden_theta(m, k);
                    grid.log_kappa_into(&theta, &mut scratch, &mut out);
                    for (p, got) in out.iter().enumerate() {
                        let (x, y) = (axis[p % axis.len()], axis[p / axis.len()]);
                        let scale: f64 = (0..m).map(|k| (f.basis(k, x, y) * theta[k]).abs()).sum();
                        let err = (got - f.log_kappa(&theta, x, y)).abs();
                        assert!(
                            err <= 8.0 * f64::EPSILON * scale,
                            "m = {m}, {} points, θ {k}, ({x}, {y}): |Δ| = {err:e}, scale {scale:e}",
                            axis.len()
                        );
                        worst = worst.max(err / (f64::EPSILON * scale));
                    }
                }
            }
        }
        println!("largest |Δ| / (ε Σ_k |√λ_k θ_k φ_k|): {worst:.2}");
    }

    #[test]
    fn tensor_grid_counts_and_reuses_its_scratch() {
        // m = 113 spans 19 x-modes; a second θ through the same scratch
        // leaves no residue of the first
        let f = KlField2d::new(CORR_LEN, 1.0, 113);
        let xs = [0.1, 0.4, 0.9];
        let ys = [0.2, 0.7];
        let grid = f.tensor_grid(&xs, &ys);
        assert_eq!((grid.dim(), grid.n_points()), (113, 6));
        assert_eq!(grid.scratch_len(), 19 * 3);
        let mut scratch = vec![0.0; grid.scratch_len()];
        let (mut first, mut again) = (vec![0.0; 6], vec![0.0; 6]);
        grid.log_kappa_into(&golden_theta(113, 1), &mut scratch, &mut first);
        grid.log_kappa_into(&golden_theta(113, 2), &mut scratch, &mut again);
        let mut fresh = vec![0.0; grid.scratch_len()];
        grid.log_kappa_into(&golden_theta(113, 2), &mut fresh, &mut first);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&first));
        let at_zero = vec![0.0; 113];
        grid.log_kappa_into(&at_zero, &mut scratch, &mut first);
        assert!(first.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn truncated_variance_below_and_approaching_total() {
        let f_small = KlField2d::new(CORR_LEN, 1.0, 20);
        let f_big = KlField2d::new(CORR_LEN, 1.0, 400);
        let (x, y) = (0.5, 0.5);
        let v_small = f_small.truncated_variance(x, y);
        let v_big = f_big.truncated_variance(x, y);
        assert!(v_small < v_big);
        assert!(v_big <= 1.0 + 1e-6);
        assert!(
            v_big > 0.9,
            "400 modes should capture >90% variance, got {v_big}"
        );
    }

    #[test]
    fn variance_scales_field() {
        let f1 = KlField2d::new(CORR_LEN, 1.0, 15);
        let f4 = KlField2d::new(CORR_LEN, 4.0, 15);
        let theta: Vec<f64> = (0..15).map(|i| ((i * 13) % 7) as f64 / 7.0).collect();
        let a = f1.log_kappa(&theta, 0.4, 0.6);
        let b = f4.log_kappa(&theta, 0.4, 0.6);
        assert!((b - 2.0 * a).abs() < 1e-12, "variance 4 doubles the field");
    }
}
