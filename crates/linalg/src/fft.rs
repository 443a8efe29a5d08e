//! Minimal complex arithmetic and an iterative radix-2 FFT, used by the
//! circulant-embedding Gaussian random field sampler (Dietrich–Newsam).

/// Complex number with `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `inverse = true` computes the unnormalized inverse transform; divide by
/// `n` yourself or use [`ifft`].
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft: length must be a power of two");
    if n <= 1 {
        return;
    }
    // bit-reversal permutation
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT returning a new vector.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, false);
    data
}

/// Normalized inverse FFT returning a new vector.
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    fft_in_place(&mut data, true);
    let scale = 1.0 / data.len() as f64;
    for v in &mut data {
        *v = *v * scale;
    }
    data
}

/// 2-D FFT on row-major data of shape `rows × cols` (both powers of two).
pub fn fft2(data: &mut [Complex], rows: usize, cols: usize, inverse: bool) {
    assert_eq!(data.len(), rows * cols, "fft2: shape mismatch");
    // transform rows
    for r in 0..rows {
        fft_in_place(&mut data[r * cols..(r + 1) * cols], inverse);
    }
    // transform columns via scratch
    let mut col = vec![Complex::ZERO; rows];
    for c in 0..cols {
        for r in 0..rows {
            col[r] = data[r * cols + c];
        }
        fft_in_place(&mut col, inverse);
        for r in 0..rows {
            data[r * cols + c] = col[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol,
            "{a:?} != {b:?}"
        );
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::new(1.0, 0.0);
        let y = fft(&x);
        for v in y {
            assert_close(v, Complex::new(1.0, 0.0), 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let x = vec![Complex::new(1.0, 0.0); 8];
        let y = fft(&x);
        assert_close(y[0], Complex::new(8.0, 0.0), 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn fft_matches_dft_definition() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let y = fft(&x);
        let n = x.len();
        for k in 0..n {
            let mut s = Complex::ZERO;
            for (j, xj) in x.iter().enumerate() {
                s = s + *xj * Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
            }
            assert_close(y[k], s, 1e-9);
        }
    }

    #[test]
    fn parseval_identity() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).cos(), 0.0))
            .collect();
        let y = fft(&x);
        let ex: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let ey: f64 = y.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / x.len() as f64;
        assert!((ex - ey).abs() < 1e-9);
    }

    #[test]
    fn fft2_roundtrip() {
        let rows = 4;
        let cols = 8;
        let orig: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new(i as f64, (i as f64).sqrt()))
            .collect();
        let mut data = orig.clone();
        fft2(&mut data, rows, cols, false);
        fft2(&mut data, rows, cols, true);
        let scale = 1.0 / (rows * cols) as f64;
        for (a, b) in data.iter().zip(&orig) {
            assert_close(*a * scale, *b, 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 6];
        fft_in_place(&mut x, false);
    }
}
