//! Structured quadrilateral grids on the unit square.

/// A uniform `n × n` element grid on `[0, 1]²` with `(n+1)²` nodes.
///
/// Node `(i, j)` sits at `(i·h, j·h)` and has linear index `j·(n+1) + i`
/// (x fastest). Element `(ex, ey)` covers `[ex·h, (ex+1)·h] × [ey·h,
/// (ey+1)·h]` with linear index `ey·n + ex`.
#[derive(Clone, Debug)]
pub struct StructuredGrid {
    n: usize,
    h: f64,
}

impl StructuredGrid {
    /// Grid with `n` elements per direction (mesh width `1/n`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "StructuredGrid: need at least one element");
        Self {
            n,
            h: 1.0 / n as f64,
        }
    }

    /// Elements per direction.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Mesh width `h = 1/n`.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Total node count (the number of degrees of freedom).
    pub fn n_nodes(&self) -> usize {
        (self.n + 1) * (self.n + 1)
    }

    /// Total element count.
    pub fn n_elements(&self) -> usize {
        self.n * self.n
    }

    /// Linear node index of node `(i, j)`.
    #[inline]
    pub fn node_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= self.n && j <= self.n);
        j * (self.n + 1) + i
    }

    /// Coordinates of node with linear index `idx`.
    #[inline]
    pub fn node_coords(&self, idx: usize) -> (f64, f64) {
        let np = self.n + 1;
        let i = idx % np;
        let j = idx / np;
        (i as f64 * self.h, j as f64 * self.h)
    }

    /// The four node indices of element `(ex, ey)` in counter-clockwise
    /// order starting at the lower-left corner.
    #[inline]
    pub fn element_nodes(&self, ex: usize, ey: usize) -> [usize; 4] {
        debug_assert!(ex < self.n && ey < self.n);
        [
            self.node_index(ex, ey),
            self.node_index(ex + 1, ey),
            self.node_index(ex + 1, ey + 1),
            self.node_index(ex, ey + 1),
        ]
    }

    /// Center coordinates of element `(ex, ey)`.
    #[inline]
    pub fn element_center(&self, ex: usize, ey: usize) -> (f64, f64) {
        ((ex as f64 + 0.5) * self.h, (ey as f64 + 0.5) * self.h)
    }

    /// Centers of all elements, in element-index order.
    pub fn element_centers(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.n_elements());
        for ey in 0..self.n {
            for ex in 0..self.n {
                out.push(self.element_center(ex, ey));
            }
        }
        out
    }

    /// Whether node `idx` lies on the left boundary `x = 0`.
    pub fn on_left(&self, idx: usize) -> bool {
        idx.is_multiple_of(self.n + 1)
    }

    /// Whether node `idx` lies on the right boundary `x = 1`.
    pub fn on_right(&self, idx: usize) -> bool {
        idx % (self.n + 1) == self.n
    }

    /// Dirichlet value at node `idx` for the paper's boundary conditions
    /// (`u = 0` on the left edge, `u = 1` on the right edge), or `None`
    /// for free nodes.
    pub fn dirichlet_value(&self, idx: usize) -> Option<f64> {
        if self.on_left(idx) {
            Some(0.0)
        } else if self.on_right(idx) {
            Some(1.0)
        } else {
            None
        }
    }

    /// Evaluate a nodal field by bilinear interpolation at `(x, y) ∈
    /// [0, 1]²`.
    ///
    /// # Panics
    /// Panics if the field has the wrong length, and (debug) if the point
    /// lies outside the unit square.
    pub fn interpolate(&self, nodal: &[f64], x: f64, y: f64) -> f64 {
        assert_eq!(nodal.len(), self.n_nodes(), "interpolate: wrong field size");
        self.stencil(x, y).eval(nodal)
    }

    /// The element nodes and local coordinates of `(x, y) ∈ [0, 1]²`:
    /// everything [`interpolate`](Self::interpolate) computes before it
    /// reads the field, for a point evaluated against many fields.
    ///
    /// # Panics
    /// Panics (debug) if the point lies outside the unit square.
    pub fn stencil(&self, x: f64, y: f64) -> Stencil {
        debug_assert!((-1e-12..=1.0 + 1e-12).contains(&x) && (-1e-12..=1.0 + 1e-12).contains(&y));
        let ex = ((x / self.h) as usize).min(self.n - 1);
        let ey = ((y / self.h) as usize).min(self.n - 1);
        Stencil {
            nodes: self.element_nodes(ex, ey),
            xi: (x - ex as f64 * self.h) / self.h,
            eta: (y - ey as f64 * self.h) / self.h,
        }
    }
}

/// Bilinear interpolation at one point of a [`StructuredGrid`], built by
/// [`StructuredGrid::stencil`].
#[derive(Clone, Copy, Debug)]
pub struct Stencil {
    /// The four nodes of the point's element, counter-clockwise from the
    /// lower-left corner.
    nodes: [usize; 4],
    /// Local coordinates of the point in that element, in `[0, 1]`.
    xi: f64,
    eta: f64,
}

impl Stencil {
    /// The nodal field's bilinear interpolant at the point.
    ///
    /// # Panics
    /// Panics if the field is shorter than the grid's node count.
    pub fn eval(&self, nodal: &[f64]) -> f64 {
        let ([a, b, c, d], xi, eta) = (self.nodes, self.xi, self.eta);
        nodal[a] * (1.0 - xi) * (1.0 - eta)
            + nodal[b] * xi * (1.0 - eta)
            + nodal[c] * xi * eta
            + nodal[d] * (1.0 - xi) * eta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_paper_levels() {
        // Table 3: DOFs 289, 4225, 66049 for h = 1/16, 1/64, 1/256
        assert_eq!(StructuredGrid::new(16).n_nodes(), 289);
        assert_eq!(StructuredGrid::new(64).n_nodes(), 4225);
        assert_eq!(StructuredGrid::new(256).n_nodes(), 66049);
    }

    #[test]
    fn node_index_roundtrip() {
        let g = StructuredGrid::new(8);
        for j in 0..=8 {
            for i in 0..=8 {
                let idx = g.node_index(i, j);
                let (x, y) = g.node_coords(idx);
                assert!((x - i as f64 / 8.0).abs() < 1e-15);
                assert!((y - j as f64 / 8.0).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn element_nodes_counter_clockwise() {
        let g = StructuredGrid::new(2);
        // element (0,0): nodes 0, 1, 4, 3 on the 3x3 node grid
        assert_eq!(g.element_nodes(0, 0), [0, 1, 4, 3]);
        assert_eq!(g.element_nodes(1, 1), [4, 5, 8, 7]);
    }

    #[test]
    fn boundary_classification() {
        let g = StructuredGrid::new(4);
        assert!(g.on_left(g.node_index(0, 2)));
        assert!(g.on_right(g.node_index(4, 0)));
        assert!(!g.on_left(g.node_index(1, 2)));
        assert_eq!(g.dirichlet_value(g.node_index(0, 3)), Some(0.0));
        assert_eq!(g.dirichlet_value(g.node_index(4, 4)), Some(1.0));
        assert_eq!(g.dirichlet_value(g.node_index(2, 0)), None);
    }

    #[test]
    fn interpolation_reproduces_bilinear() {
        let g = StructuredGrid::new(5);
        // field f(x,y) = 2x + 3y + xy is bilinear per element only if it is
        // globally bilinear — it is, so interpolation must be exact.
        let f: Vec<f64> = (0..g.n_nodes())
            .map(|idx| {
                let (x, y) = g.node_coords(idx);
                2.0 * x + 3.0 * y + x * y
            })
            .collect();
        for &(x, y) in &[(0.11, 0.97), (0.5, 0.5), (0.999, 0.001), (0.0, 1.0)] {
            let got = g.interpolate(&f, x, y);
            let expect = 2.0 * x + 3.0 * y + x * y;
            assert!(
                (got - expect).abs() < 1e-12,
                "at ({x},{y}): {got} vs {expect}"
            );
        }
    }

    #[test]
    fn stencil_evaluates_the_interpolation_formula_to_the_bit() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // the formula as evaluated per call, divisions and all
        fn per_call(g: &StructuredGrid, nodal: &[f64], x: f64, y: f64) -> f64 {
            let h = g.h();
            let ex = ((x / h) as usize).min(g.n() - 1);
            let ey = ((y / h) as usize).min(g.n() - 1);
            let xi = (x - ex as f64 * h) / h;
            let eta = (y - ey as f64 * h) / h;
            let [a, b, c, d] = g.element_nodes(ex, ey);
            nodal[a] * (1.0 - xi) * (1.0 - eta)
                + nodal[b] * xi * (1.0 - eta)
                + nodal[c] * xi * eta
                + nodal[d] * (1.0 - xi) * eta
        }
        let mut rng = StdRng::seed_from_u64(36);
        for n in [4, 7, 16] {
            let g = StructuredGrid::new(n);
            let f: Vec<f64> = (0..g.n_nodes())
                .map(|_| rng.random::<f64>() - 0.3)
                .collect();
            let mut points = vec![(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)];
            points.extend((0..40).map(|_| (rng.random::<f64>(), rng.random::<f64>())));
            points.extend((0..=n).map(|i| (i as f64 / n as f64, 1.0)));
            for (x, y) in points {
                let got = g.stencil(x, y).eval(&f).to_bits();
                assert_eq!(
                    got,
                    per_call(&g, &f, x, y).to_bits(),
                    "n = {n} at ({x}, {y})"
                );
                assert_eq!(got, g.interpolate(&f, x, y).to_bits());
            }
        }
    }

    #[test]
    fn element_centers_ordering() {
        let g = StructuredGrid::new(2);
        let c = g.element_centers();
        assert_eq!(c.len(), 4);
        assert_eq!(c[0], (0.25, 0.25));
        assert_eq!(c[1], (0.75, 0.25));
        assert_eq!(c[3], (0.75, 0.75));
    }
}
