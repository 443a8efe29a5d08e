//! Well-balanced shallow-water solver with wetting/drying and an
//! a-posteriori subcell finite-volume limiter.
//!
//! Two schemes are provided, mirroring the paper's model hierarchy:
//!
//! * [`Scheme::FirstOrder`] — robust Godunov/Rusanov update with
//!   hydrostatic reconstruction (Audusse et al. 2004); exactly preserves
//!   lakes at rest, handles dry cells, unconditionally the fallback.
//! * [`Scheme::SecondOrder`] — piecewise-linear (minmod) reconstruction
//!   of surface elevation and velocities with a Heun (SSP-RK2)
//!   predictor–corrector step, playing the role of the paper's order-2
//!   ADER-DG scheme. With `limiter: true`, every candidate step is
//!   screened a-posteriori (negative depth / non-finite values / severe
//!   surface overshoots); the step is then *recomputed* with first-order
//!   fluxes on all faces of troubled cells — the MOOD-style "DG where
//!   smooth, FV at the coast" cascade of the paper, implemented on face
//!   fluxes so mass conservation is exact.
//!
//! The solver owns every array a step touches (DESIGN.md §1.2): a step
//! allocates nothing, and the recompute is *incremental* — the candidate's
//! face fluxes and stage-1 state are kept, and only the dependency cone of
//! the troubled cells (N4 distance ≤ 3) is redone. Every face and cell
//! update is a pure function of inputs that are unchanged outside the
//! cone, so the result equals a whole-step recompute bit for bit.

use std::ops::Range;

use crate::flux::{hydrostatic_reconstruction, rusanov, Cons, G, H_DRY};
use crate::grid::Grid2d;

/// Numerical scheme selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// First-order well-balanced finite volumes.
    FirstOrder,
    /// Second-order reconstruction; `limiter` enables the a-posteriori
    /// subcell FV fallback (required whenever drying can occur).
    SecondOrder { limiter: bool },
}

/// Boundary condition applied on all four domain edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// Solid wall: mirror depth, reflect normal momentum.
    Reflective,
    /// Zero-gradient outflow (open ocean).
    Outflow,
}

impl Boundary {
    /// Ghost state beyond the domain boundary, mirroring `q` according to
    /// the boundary condition. `axis` is the face normal direction.
    #[inline]
    fn ghost(self, q: Cons, axis: usize) -> Cons {
        match self {
            Boundary::Outflow => q,
            Boundary::Reflective => {
                if axis == 0 {
                    Cons::new(q.h, -q.hu, q.hv)
                } else {
                    Cons::new(q.h, q.hu, -q.hv)
                }
            }
        }
    }
}

/// Conserved fields, struct-of-arrays over the grid cells.
#[derive(Clone, Debug)]
pub struct SweState {
    pub h: Vec<f64>,
    pub hu: Vec<f64>,
    pub hv: Vec<f64>,
}

impl SweState {
    /// Lake at rest for the given bathymetry: `h = max(0, η₀ - b)`.
    pub fn lake_at_rest(bathy: &[f64], eta0: f64) -> Self {
        let h: Vec<f64> = bathy.iter().map(|b| (eta0 - b).max(0.0)).collect();
        let n = h.len();
        Self {
            h,
            hu: vec![0.0; n],
            hv: vec![0.0; n],
        }
    }

    #[inline]
    pub fn cons(&self, idx: usize) -> Cons {
        Cons::new(self.h[idx], self.hu[idx], self.hv[idx])
    }

    /// The fields of the cells `cells`, `[h, hu, hv]`.
    fn rows(&self, cells: Range<usize>) -> [&[f64]; 3] {
        [
            &self.h[cells.clone()],
            &self.hu[cells.clone()],
            &self.hv[cells],
        ]
    }

    /// [`Self::rows`], writable.
    fn rows_mut(&mut self, cells: Range<usize>) -> [&mut [f64]; 3] {
        let Self { h, hu, hv } = self;
        [
            &mut h[cells.clone()],
            &mut hu[cells.clone()],
            &mut hv[cells],
        ]
    }

    /// Total water volume divided by the (uniform) cell area.
    pub fn total_depth(&self) -> f64 {
        self.h.iter().sum()
    }
}

/// Flux and hydrostatic-source data of one face.
#[derive(Clone, Copy, Debug, Default)]
struct FaceFlux {
    f: Cons,
    /// Reconstructed depth on the lower-index side (source term).
    hl_star: f64,
    /// Reconstructed depth on the higher-index side (source term).
    hr_star: f64,
    /// Cell-centered depths used to close the source telescoping.
    hl_cell: f64,
    hr_cell: f64,
}

/// (η, u, v) of a cell or on one of its faces.
type Prim = [f64; 3];

/// A block of cells or faces: `(rows, span)`, the positions `span` of each
/// of the rows `rows`.
type Block = (Range<usize>, Range<usize>);

/// Cells shallower than this (or next to one) are not reconstructed.
const H_LINEAR: f64 = 10.0 * H_DRY;

/// `dist` value of cells outside the dependency cone.
const FAR: u8 = u8::MAX;

/// How a face gets its two states.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Face {
    /// Second order: the reconstructed face values of both cells.
    Reconstructed,
    /// First order: the cell averages.
    CellAverage,
    /// Domain boundary below/above the cell (first order against its ghost).
    GhostBelow,
    GhostAbove,
}

/// Everything a step needs besides the state, sized once. Stage 0 works
/// on the current state, stage 1 on the predictor's.
struct Workspace {
    /// State after the predictor stage.
    stage1: SweState,
    /// The candidate for the next state (swapped in when the step ends).
    cand: SweState,
    /// (η, u, v) per stage and cell.
    prim: [Vec<Prim>; 2],
    /// `[west, east, south, north]` face values of (η, u, v) per stage and
    /// cell; the lower cell of an `axis` face contributes side
    /// `2·axis + 1`, the upper one side `2·axis`.
    recon: [Vec<[Prim; 4]>; 2],
    /// Per stage and axis: x-face `(i, j)`, between cells `(i-1, j)` and
    /// `(i, j)`, at `j·(nx+1) + i`; y-face `(i, j)`, between cells `(i, j-1)`
    /// and `(i, j)`, at `j·nx + i`.
    faces: [[Vec<FaceFlux>; 2]; 2],
    /// Wet surface elevations of the current state for the detector's
    /// local bounds, `[min, max]`, inside a one-cell frame of ±∞ so every
    /// cell has nine neighbors.
    band: [Vec<f64>; 2],
    /// N4 distance to the nearest troubled cell, `FAR` outside the cone.
    dist: Vec<u8>,
    /// The troubled cells followed by the rest of their cone, nearest
    /// first: `cone[..reach[d]]` are the cells within distance `d`.
    cone: Vec<usize>,
    reach: [usize; 4],
}

impl Workspace {
    fn new(grid: &Grid2d) -> Self {
        let (nx, ny) = (grid.nx(), grid.ny());
        let n = nx * ny;
        let state = || SweState {
            h: vec![0.0; n],
            hu: vec![0.0; n],
            hv: vec![0.0; n],
        };
        let faces = || [(nx + 1) * ny, nx * (ny + 1)].map(|len| vec![FaceFlux::default(); len]);
        Self {
            stage1: state(),
            cand: state(),
            prim: [(); 2].map(|()| vec![[0.0; 3]; n]),
            recon: [(); 2].map(|()| vec![[[0.0; 3]; 4]; n]),
            faces: [faces(), faces()],
            band: [f64::INFINITY, f64::NEG_INFINITY].map(|x| vec![x; (nx + 2) * (ny + 2)]),
            dist: vec![FAR; n],
            cone: Vec::with_capacity(n),
            reach: [0; 4],
        }
    }
}

/// (η, u, v) of a block of cells: the one loop that divides by `h`.
fn primitives(nx: usize, state: &SweState, bathy: &[f64], (rows, span): &Block, prim: &mut [Prim]) {
    for j in rows.clone() {
        let cells = j * nx + span.start..j * nx + span.end;
        let ([h, hu, hv], bathy) = (state.rows(cells.clone()), &bathy[cells.clone()]);
        for (k, prim) in prim[cells].iter_mut().enumerate() {
            let (u, v) = Cons::new(h[k], hu[k], hv[k]).velocity();
            *prim = [h[k] + bathy[k], u, v];
        }
    }
}

/// Minmod slope limiter, as two selects.
#[inline(always)]
fn minmod(a: f64, b: f64) -> f64 {
    let smaller = if a.abs() < b.abs() { a } else { b };
    if a * b <= 0.0 {
        0.0
    } else {
        smaller
    }
}

/// Piecewise-linear face values of (η, u, v) of one cell from the depths
/// `h` and primitives `p` of the cell and its `[west, east, south, north]`
/// neighbors, in that order. A cell that is nearly dry (or has a nearly
/// dry neighbor) keeps its cell-centered values (local first-order
/// fallback for robustness).
#[inline(always)]
fn cell_faces(h: [f64; 5], p: [Prim; 5]) -> [Prim; 4] {
    let wet = h.map(|h| h > H_LINEAR);
    let [c, w, e, s, n] = p;
    let mut faces = [c; 4];
    if wet[0] & wet[1] & wet[2] & wet[3] & wet[4] {
        for k in 0..3 {
            let sx = minmod(e[k] - c[k], c[k] - w[k]);
            let sy = minmod(n[k] - c[k], c[k] - s[k]);
            faces[0][k] = c[k] - 0.5 * sx; // west
            faces[1][k] = c[k] + 0.5 * sx; // east
            faces[2][k] = c[k] - 0.5 * sy; // south
            faces[3][k] = c[k] + 0.5 * sy; // north
        }
    }
    faces
}

/// Piecewise-linear face values of (η, u, v) for a block of cells, whose
/// depths are `h` (see [`cell_faces`]). A neighbor beyond the boundary is
/// the cell itself: zero slope, and its own wetness. Each row's interior
/// runs over neighbor rows sliced up front; its edge cells, and
/// single-cell blocks at the edge, go one by one through the same formula.
fn reconstruct(
    (nx, ny): (usize, usize),
    h: &[f64],
    prim: &[Prim],
    (rows, span): &Block,
    recon: &mut [[Prim; 4]],
) {
    assert!(span.end <= nx);
    // the span's cells with both x-neighbors in the grid, between its edges
    let start = span.start.max(1).min(span.end);
    let inner = start..span.end.min(nx - 1).max(start);
    let slices = |from: usize, len: usize| (&h[from..][..len], &prim[from..][..len]);
    for j in rows.clone() {
        let at = j * nx;
        let south = at - if j > 0 { nx } else { 0 };
        let north = at + if j + 1 < ny { nx } else { 0 };
        let ((hs, ps), (hc, pc), (hn, pn)) = (slices(south, nx), slices(at, nx), slices(north, nx));
        for i in (span.start..inner.start).chain(inner.end..span.end) {
            let (w, e) = (i.saturating_sub(1), (i + 1).min(nx - 1));
            let h5 = [hc[i], hc[w], hc[e], hs[i], hn[i]];
            recon[at + i] = cell_faces(h5, [pc[i], pc[w], pc[e], ps[i], pn[i]]);
        }
        // the row from the first cell's west neighbor to the last's east one
        let (i, len) = (inner.start, inner.len());
        if len == 0 {
            continue;
        }
        let ((hs, ps), (hn, pn)) = (slices(south + i, len), slices(north + i, len));
        let (hx, px) = slices(at + i - 1, len + 2);
        for (k, out) in recon[at + i..][..len].iter_mut().enumerate() {
            let h5 = [hx[k + 1], hx[k], hx[k + 2], hs[k], hn[k]];
            *out = cell_faces(h5, [px[k + 1], px[k], px[k + 2], ps[k], pn[k]]);
        }
    }
}

/// Turn a primitive face triple into a conserved state against the
/// cell's own bathymetry.
#[inline(always)]
fn face_cons(prim: Prim, b: f64) -> Cons {
    let h = (prim[0] - b).max(0.0);
    Cons::new(h, h * prim[1], h * prim[2])
}

/// Flux and source data of the `AXIS` face between `ql` over `bl` and
/// `qr` over `br`.
#[inline(always)]
fn face_flux<const AXIS: usize>(ql: Cons, bl: f64, qr: Cons, br: f64) -> FaceFlux {
    let (ls, rs, _) = hydrostatic_reconstruction(ql, bl, qr, br);
    FaceFlux {
        f: rusanov(ls, rs, AXIS),
        hl_star: ls.h,
        hr_star: rs.h,
        hl_cell: ql.h,
        hr_cell: qr.h,
    }
}

/// Zero the momentum of a cell that fell dry.
#[inline(always)]
fn dry_clamp(h: f64, hu: f64, hv: f64) -> Cons {
    if h < H_DRY {
        Cons::new(h.max(0.0), 0.0, 0.0)
    } else {
        Cons::new(h, hu, hv)
    }
}

/// Forward-Euler update over `dt` of the cell `q` from its `[west, east,
/// south, north]` faces.
#[inline(always)]
fn euler_cell(q: Cons, [fw, fe, fs, fn_]: [&FaceFlux; 4], (dx, dy, dt): (f64, f64, f64)) -> Cons {
    let dh = -(fe.f.h - fw.f.h) / dx - (fn_.f.h - fs.f.h) / dy;
    // hydrostatic source: east face uses this cell's left-side
    // reconstruction, west face the right side; the face-value
    // term telescopes with the cell-centered depth.
    let src_x = 0.5 * G / dx
        * ((fe.hl_star * fe.hl_star - fe.hl_cell * fe.hl_cell)
            + (fe.hl_cell * fe.hl_cell - q.h * q.h)
            - (fw.hr_star * fw.hr_star - fw.hr_cell * fw.hr_cell)
            - (fw.hr_cell * fw.hr_cell - q.h * q.h));
    let src_y = 0.5 * G / dy
        * ((fn_.hl_star * fn_.hl_star - fn_.hl_cell * fn_.hl_cell)
            + (fn_.hl_cell * fn_.hl_cell - q.h * q.h)
            - (fs.hr_star * fs.hr_star - fs.hr_cell * fs.hr_cell)
            - (fs.hr_cell * fs.hr_cell - q.h * q.h));
    let dhu = -(fe.f.hu - fw.f.hu) / dx - (fn_.f.hu - fs.f.hu) / dy + src_x;
    let dhv = -(fe.f.hv - fw.f.hv) / dx - (fn_.f.hv - fs.f.hv) / dy + src_y;
    dry_clamp(q.h + dt * dh, q.hu + dt * dhu, q.hv + dt * dhv)
}

/// One forward-Euler stage of a block of cells from `state` using
/// precomputed `[x, y]` flux arrays, row by row over slices taken up front;
/// the corrector's result is averaged with the step's initial state `heun`.
fn euler(
    grid: &Grid2d,
    state: &SweState,
    [fx, fy]: &[Vec<FaceFlux>; 2],
    dt: f64,
    (rows, span): &Block,
    out: &mut SweState,
    heun: Option<&SweState>,
) {
    let (nx, len, steps) = (grid.nx(), span.len(), (grid.dx(), grid.dy(), dt));
    for j in rows.clone() {
        let (at, x_at) = (j * nx + span.start, j * (nx + 1) + span.start);
        let (fx, fs) = (&fx[x_at..][..len + 1], &fy[at..][..len]);
        let fn_ = &fy[at + nx..][..len];
        let ([h, hu, hv], out) = (state.rows(at..at + len), out.rows_mut(at..at + len));
        let start = heun.map(|start| start.rows(at..at + len));
        for k in 0..len {
            let q = Cons::new(h[k], hu[k], hv[k]);
            let mut q = euler_cell(q, [&fx[k], &fx[k + 1], &fs[k], &fn_[k]], steps);
            if let Some([h, hu, hv]) = start {
                let (h, hu, hv) = (h[k] + q.h, hu[k] + q.hu, hv[k] + q.hv);
                q = dry_clamp(0.5 * h, 0.5 * hu, 0.5 * hv);
            }
            (out[0][k], out[1][k], out[2][k]) = (q.h, q.hu, q.hv);
        }
    }
}

/// The time-stepping solver.
pub struct SweSolver {
    grid: Grid2d,
    bathy: Vec<f64>,
    scheme: Scheme,
    boundary: Boundary,
    cfl: f64,
    state: SweState,
    ws: Workspace,
    /// Largest signal speed of `state`; valid with `prim[0]` while `fresh`.
    smax: f64,
    fresh: bool,
    time: f64,
    steps: usize,
    limited_cells: u64,
    dof_updates: u64,
}

impl SweSolver {
    /// Create a solver with the given bathymetry (one value per cell) and
    /// initial state.
    ///
    /// # Panics
    /// Panics on size mismatches.
    pub fn new(
        grid: Grid2d,
        bathy: Vec<f64>,
        state: SweState,
        scheme: Scheme,
        boundary: Boundary,
    ) -> Self {
        assert_eq!(bathy.len(), grid.n_cells(), "SweSolver: bathymetry size");
        assert_eq!(state.h.len(), grid.n_cells(), "SweSolver: state size");
        Self {
            ws: Workspace::new(&grid),
            grid,
            bathy,
            scheme,
            boundary,
            cfl: 0.45,
            state,
            smax: 0.0,
            fresh: false,
            time: 0.0,
            steps: 0,
            limited_cells: 0,
            dof_updates: 0,
        }
    }

    /// Restart from `state` at time zero with all counters cleared,
    /// keeping the workspace.
    ///
    /// # Panics
    /// Panics on a size mismatch.
    pub fn reset(&mut self, state: &SweState) {
        self.state.h.copy_from_slice(&state.h);
        self.state.hu.copy_from_slice(&state.hu);
        self.state.hv.copy_from_slice(&state.hv);
        self.fresh = false;
        self.time = 0.0;
        self.steps = 0;
        self.limited_cells = 0;
        self.dof_updates = 0;
    }

    pub fn grid(&self) -> &Grid2d {
        &self.grid
    }

    pub fn state(&self) -> &SweState {
        &self.state
    }

    pub fn bathymetry(&self) -> &[f64] {
        &self.bathy
    }

    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    pub fn time(&self) -> f64 {
        self.time
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Cumulative number of cells recomputed by the a-posteriori limiter.
    pub fn limited_cells(&self) -> u64 {
        self.limited_cells
    }

    /// Cumulative degree-of-freedom updates (cell updates summed over
    /// stages and steps, the limiter's recomputed cone included) — the
    /// paper's Table 2 cost metric.
    pub fn dof_updates(&self) -> u64 {
        self.dof_updates
    }

    /// Surface elevation `η = h + b` where wet, `b` where dry.
    pub fn surface(&self, idx: usize) -> f64 {
        if self.state.h[idx] > H_DRY {
            self.state.h[idx] + self.bathy[idx]
        } else {
            self.bathy[idx]
        }
    }

    /// Displace the sea surface (resting-lake tsunami initialization):
    /// adds `uplift(x, y)` to the water column of wet cells, mimicking an
    /// instantaneous sea-floor deformation transferred to the surface.
    pub fn displace_surface(&mut self, uplift: impl Fn(f64, f64) -> f64) {
        for j in 0..self.grid.ny() {
            for i in 0..self.grid.nx() {
                let idx = self.grid.idx(i, j);
                if self.state.h[idx] > H_DRY {
                    let (x, y) = self.grid.center(i, j);
                    self.state.h[idx] = (self.state.h[idx] + uplift(x, y)).max(0.0);
                }
            }
        }
        self.fresh = false;
    }

    /// Bring `prim[0]` and `smax` up to date with the state: the velocities
    /// serve the time-step bound and stage 1 alike.
    fn refresh(&mut self) {
        if self.fresh {
            return;
        }
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let prim = &mut self.ws.prim[0];
        primitives(nx, &self.state, &self.bathy, &(0..ny, 0..nx), prim);
        // independent running maxima, folded at the end: `max` is exact,
        // so the order of the cells cannot change the result
        let speed = |smax: f64, &[_, u, v]: &Prim, h: f64| {
            let c = Cons::new(h, 0.0, 0.0).wave_speed();
            smax.max(u.abs() + c).max(v.abs() + c)
        };
        let mut lanes = [1e-8; 4];
        let (cells, depths) = (prim.chunks_exact(4), self.state.h.chunks_exact(4));
        let rest = cells.remainder().iter().zip(depths.remainder());
        for (p, h) in cells.zip(depths) {
            for k in 0..4 {
                lanes[k] = speed(lanes[k], &p[k], h[k]);
            }
        }
        lanes[0] = rest.fold(lanes[0], |smax, (p, &h)| speed(smax, p, h));
        self.smax = lanes.into_iter().fold(f64::MIN, f64::max);
        self.fresh = true;
    }

    /// Stable time step from the CFL condition.
    pub fn stable_dt(&mut self) -> f64 {
        self.refresh();
        self.cfl * self.grid.dx().min(self.grid.dy()) / self.smax
    }

    /// Compute a block of stage-`s` faces along `axis`: x-face `i` of row
    /// `j`, or y-face `j` of column `i`, is position `i` of row `j`, the
    /// face *below* cell `(i, j)` along the axis.
    fn faces(&mut self, s: usize, axis: usize, kind: Face, block: &Block) {
        if axis == 0 {
            self.axis_faces::<0>(s, kind, block);
        } else {
            self.axis_faces::<1>(s, kind, block);
        }
    }

    fn axis_faces<const AXIS: usize>(&mut self, s: usize, kind: Face, (rows, span): &Block) {
        let (nx, boundary, bathy) = (self.grid.nx(), self.boundary, &self.bathy);
        let ws = &mut self.ws;
        let state = if s == 0 { &self.state } else { &ws.stage1 };
        let recon = &ws.recon[s];
        let (step, stride) = if AXIS == 0 { (1, nx + 1) } else { (nx, nx) };
        let out = &mut ws.faces[s][AXIS];
        for j in rows.clone() {
            let above = j * nx + span.start..j * nx + span.end;
            let out = &mut out[j * stride + span.start..][..span.len()];
            if kind == Face::Reconstructed {
                // the hot loop: sliced up front so it runs without checks
                let below = above.start - step..above.end - step;
                let lower = recon[below.clone()].iter().zip(&bathy[below]);
                let upper = recon[above.clone()].iter().zip(&bathy[above]);
                for (out, ((l, &bl), (r, &br))) in out.iter_mut().zip(lower.zip(upper)) {
                    let ql = face_cons(l[2 * AXIS + 1], bl);
                    *out = face_flux::<AXIS>(ql, bl, face_cons(r[2 * AXIS], br), br);
                }
                continue;
            }
            for (out, above) in out.iter_mut().zip(above) {
                // a ghost face has its one cell on both sides
                let (l, r) = match kind {
                    Face::GhostBelow => (above, above),
                    Face::GhostAbove => (above - step, above - step),
                    _ => (above - step, above),
                };
                let (mut ql, mut qr) = (state.cons(l), state.cons(r));
                match kind {
                    Face::GhostBelow => ql = boundary.ghost(qr, AXIS),
                    Face::GhostAbove => qr = boundary.ghost(ql, AXIS),
                    _ => {}
                }
                *out = face_flux::<AXIS>(ql, bathy[l], qr, bathy[r]);
            }
        }
    }

    /// Compute one face of stage `s` the way the mask demands: x-face `i`
    /// of row `j`, or y-face `j` of column `i`. First order at the domain
    /// boundary, next to a troubled cell and for the first-order scheme.
    fn face_at(&mut self, s: usize, axis: usize, i: usize, j: usize) {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let above = j * nx + i;
        let (pos, count, step) = if axis == 0 { (i, nx, 1) } else { (j, ny, nx) };
        let kind = if pos == 0 {
            Face::GhostBelow
        } else if pos == count {
            Face::GhostAbove
        } else if self.scheme == Scheme::FirstOrder
            || self.ws.dist[above - step] == 0
            || self.ws.dist[above] == 0
        {
            Face::CellAverage
        } else {
            Face::Reconstructed
        };
        self.faces(s, axis, kind, &(j..j + 1, i..i + 1));
    }

    /// Stage `s` of the Heun step over a block of cells: the predictor's
    /// Euler step into `stage1`, or the corrector's from there, averaged
    /// with the state, into `cand`.
    fn advance(&mut self, s: usize, dt: f64, block: &Block) {
        let (grid, state, ws) = (&self.grid, &self.state, &mut self.ws);
        if s == 0 {
            euler(grid, state, &ws.faces[0], dt, block, &mut ws.stage1, None);
            primitives(grid.nx(), &ws.stage1, &self.bathy, block, &mut ws.prim[1]);
        } else {
            let (stage1, cand) = (&ws.stage1, &mut ws.cand);
            euler(grid, stage1, &ws.faces[1], dt, block, cand, Some(state));
        }
    }

    /// One full stage: reconstruction, face fluxes and Euler pass of every
    /// cell, all faces of the scheme's own order.
    fn sweep(&mut self, s: usize, dt: f64) {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let interior = if self.scheme == Scheme::FirstOrder {
            Face::CellAverage
        } else {
            self.reconstruct(s, &(0..ny, 0..nx));
            Face::Reconstructed
        };
        self.faces(s, 0, Face::GhostBelow, &(0..ny, 0..1));
        self.faces(s, 0, interior, &(0..ny, 1..nx));
        self.faces(s, 0, Face::GhostAbove, &(0..ny, nx..nx + 1));
        self.faces(s, 1, Face::GhostBelow, &(0..1, 0..nx));
        self.faces(s, 1, interior, &(1..ny, 0..nx));
        self.faces(s, 1, Face::GhostAbove, &(ny..ny + 1, 0..nx));
        self.advance(s, dt, &(0..ny, 0..nx));
        self.dof_updates += (nx * ny) as u64;
    }

    /// Reconstruct a block of cells at stage `s` (see [`reconstruct`]).
    fn reconstruct(&mut self, s: usize, block: &Block) {
        let ws = &mut self.ws;
        let h = if s == 0 { &self.state.h } else { &ws.stage1.h };
        let dims = (self.grid.nx(), self.grid.ny());
        reconstruct(dims, h, &ws.prim[s], block, &mut ws.recon[s]);
    }

    /// Screen the candidate against the current solution's local bounds
    /// (MOOD detection criteria): list the troubled cells in `cone`, mark
    /// them in `dist` and count them as limited; returns how many there are.
    fn detect(&mut self) -> usize {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let frame = nx + 2;
        let ws = &mut self.ws;
        let [band_lo, band_hi] = &mut ws.band;
        for j in 0..ny {
            let (cells, framed) = (j * nx..(j + 1) * nx, (j + 1) * frame + 1);
            let (h, prim) = (&self.state.h[cells.clone()], &ws.prim[0][cells]);
            let (lo, hi) = (&mut band_lo[framed..][..nx], &mut band_hi[framed..][..nx]);
            for k in 0..nx {
                let wet = h[k] > H_DRY;
                let eta = prim[k][0];
                lo[k] = if wet { eta } else { f64::INFINITY };
                hi[k] = if wet { eta } else { f64::NEG_INFINITY };
            }
        }
        ws.cone.clear();
        for j in 0..ny {
            // bounds of a framed column over the rows below, of and above
            // row `j`; a cell's 3×3 bounds are those of three such columns
            let rows = j * frame..(j + 3) * frame;
            let (lo, hi) = (&band_lo[rows.clone()], &band_hi[rows]);
            let column = |k: usize| {
                let [b, r, a] = [k, k + frame, k + 2 * frame];
                (lo[b].min(lo[r]).min(lo[a]), hi[b].max(hi[r]).max(hi[a]))
            };
            let cells = j * nx..(j + 1) * nx;
            let ([h, hu, hv], bathy) = (ws.cand.rows(cells.clone()), &self.bathy[cells]);
            let (mut before, mut here) = (column(0), column(1));
            for i in 0..nx {
                let after = column(i + 2);
                let lo = before.0.min(here.0).min(after.0);
                let hi = before.1.max(here.1).max(after.1);
                (before, here) = (here, after);
                let (h, hu, hv) = (h[i], hu[i], hv[i]);
                let sane = h.is_finite() & hu.is_finite() & hv.is_finite() & (h >= 0.0);
                // discrete-maximum-principle check on the surface elevation
                // with a relaxed tolerance (strict DMP over-triggers on
                // smooth waves); a cell that emerged from a fully dry
                // neighborhood has no bounds
                let slack = 0.5 * (hi - lo) + 1e-3;
                let eta = h + bathy[i];
                let bounded = !lo.is_finite() | ((eta >= lo - slack) & (eta <= hi + slack));
                if !(sane & ((h <= H_DRY) | bounded)) {
                    ws.dist[j * nx + i] = 0;
                    ws.cone.push(j * nx + i);
                }
            }
        }
        self.limited_cells += ws.cone.len() as u64;
        ws.cone.len()
    }

    /// Extend `cone` from the troubled cells to their N4 distance 3.
    fn grow_cone(&mut self) {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let ws = &mut self.ws;
        let mut ring = 0;
        for d in 0..3 {
            ws.reach[d] = ws.cone.len();
            for k in ring..ws.reach[d] {
                let idx = ws.cone[k];
                let (i, j) = (idx % nx, idx / nx);
                let neighbors = [
                    (i > 0).then(|| idx - 1),
                    (i + 1 < nx).then(|| idx + 1),
                    (j > 0).then(|| idx - nx),
                    (j + 1 < ny).then(|| idx + nx),
                ];
                for near in neighbors.into_iter().flatten() {
                    if ws.dist[near] == FAR {
                        ws.dist[near] = d as u8 + 1;
                        ws.cone.push(near);
                    }
                }
            }
            ring = ws.reach[d];
        }
        ws.reach[3] = ws.cone.len();
    }

    /// The MOOD fallback: redo the step with first-order fluxes on the
    /// faces of the troubled cells (`dist == 0`), touching only what
    /// depends on them. With `cone[..reach[d]]` taken as the cells within
    /// distance `d`: stage-1 faces change at distance 0, hence the stage-1
    /// state within 1, its reconstruction within 2, the stage-2 faces of
    /// those cells, and the new state within 3. Leaves `dist` cleared.
    fn recompute(&mut self, dt: f64) {
        let nx = self.grid.nx();
        let [r0, r1, r2, r3] = self.ws.reach;
        let cell = |solver: &Self, k: usize| (solver.ws.cone[k] % nx, solver.ws.cone[k] / nx);
        for (s, reflux, advance) in [(0, r0, r1), (1, r2, r3)] {
            // what the predictor changed, stage 2 reconstructs again (all
            // of it before any face: a face reads both its cells)
            for k in 0..if s == 1 { reflux } else { 0 } {
                let (i, j) = cell(self, k);
                self.reconstruct(s, &(j..j + 1, i..i + 1));
            }
            for k in 0..reflux {
                let (i, j) = cell(self, k);
                self.face_at(s, 0, i, j);
                self.face_at(s, 0, i + 1, j);
                self.face_at(s, 1, i, j);
                self.face_at(s, 1, i, j + 1);
            }
            for k in 0..advance {
                let (i, j) = cell(self, k);
                self.advance(s, dt, &(j..j + 1, i..i + 1));
            }
        }
        self.dof_updates += (r1 + r3) as u64;
        for &idx in &self.ws.cone {
            self.ws.dist[idx] = FAR;
        }
    }

    /// Advance one time step; returns the step size used.
    pub fn step(&mut self) -> f64 {
        let dt = self.stable_dt();
        self.step_dt(dt);
        dt
    }

    /// Advance one step of prescribed size `dt`.
    pub fn step_dt(&mut self, dt: f64) {
        self.candidate(dt);
        if self.scheme == (Scheme::SecondOrder { limiter: true }) && self.detect() > 0 {
            self.grow_cone();
            self.recompute(dt);
        }
        self.accept(dt);
    }

    /// Full candidate step from the state into `cand`, every face of the
    /// scheme's order: Heun/SSP-RK2 for second order, its predictor alone
    /// (forward Euler) for first order.
    fn candidate(&mut self, dt: f64) {
        self.refresh();
        self.sweep(0, dt);
        if self.scheme == Scheme::FirstOrder {
            std::mem::swap(&mut self.ws.stage1, &mut self.ws.cand);
        } else {
            self.sweep(1, dt);
        }
    }

    /// Make the candidate the state.
    fn accept(&mut self, dt: f64) {
        std::mem::swap(&mut self.state, &mut self.ws.cand);
        self.fresh = false;
        self.time += dt;
        self.steps += 1;
    }

    /// Run until `t_end`, invoking `observer(solver)` after every step.
    pub fn run(&mut self, t_end: f64, mut observer: impl FnMut(&SweSolver)) {
        while self.time < t_end - 1e-12 {
            let dt = self.stable_dt().min(t_end - self.time);
            self.step_dt(dt);
            observer(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_grid(n: usize) -> Grid2d {
        Grid2d::new(n, n, (0.0, 1000.0), (0.0, 1000.0))
    }

    /// Bumpy (partially emerged) bathymetry for well-balancing tests.
    fn bumpy_bathy(grid: &Grid2d) -> Vec<f64> {
        let mut b = Vec::with_capacity(grid.n_cells());
        for j in 0..grid.ny() {
            for i in 0..grid.nx() {
                let (x, y) = grid.center(i, j);
                let r2 = ((x - 500.0) / 150.0).powi(2) + ((y - 500.0) / 150.0).powi(2);
                // island peaking at +2 m above the η = 0 surface
                b.push(-10.0 + 12.0 * (-r2).exp());
            }
        }
        b
    }

    #[test]
    fn lake_at_rest_is_preserved_first_order() {
        let grid = flat_grid(16);
        let bathy = bumpy_bathy(&grid);
        let state = SweState::lake_at_rest(&bathy, 0.0);
        let mut solver =
            SweSolver::new(grid, bathy, state, Scheme::FirstOrder, Boundary::Reflective);
        for _ in 0..20 {
            solver.step();
        }
        for idx in 0..solver.grid().n_cells() {
            assert!(
                solver.state().hu[idx].abs() < 1e-10 && solver.state().hv[idx].abs() < 1e-10,
                "lake at rest generated momentum at cell {idx}: ({}, {})",
                solver.state().hu[idx],
                solver.state().hv[idx]
            );
        }
    }

    #[test]
    fn lake_at_rest_is_preserved_second_order() {
        let grid = flat_grid(16);
        let bathy = bumpy_bathy(&grid);
        let state = SweState::lake_at_rest(&bathy, 0.0);
        let mut solver = SweSolver::new(
            grid,
            bathy,
            state,
            Scheme::SecondOrder { limiter: true },
            Boundary::Reflective,
        );
        for _ in 0..20 {
            solver.step();
        }
        for idx in 0..solver.grid().n_cells() {
            assert!(
                solver.state().hu[idx].abs() < 1e-9 && solver.state().hv[idx].abs() < 1e-9,
                "2nd-order lake at rest broken at {idx}"
            );
        }
    }

    #[test]
    fn mass_is_conserved_with_walls_second_order() {
        let grid = flat_grid(20);
        let bathy = vec![-10.0; grid.n_cells()];
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        for j in 0..20 {
            for i in 0..20 {
                let idx = grid.idx(i, j);
                let (x, y) = grid.center(i, j);
                let r2 = ((x - 500.0) / 100.0).powi(2) + ((y - 500.0) / 100.0).powi(2);
                state.h[idx] += 1.0 * (-r2).exp();
            }
        }
        let mut solver = SweSolver::new(
            grid,
            bathy,
            state,
            Scheme::SecondOrder { limiter: true },
            Boundary::Reflective,
        );
        let mass0 = solver.state().total_depth();
        for _ in 0..60 {
            solver.step();
        }
        let mass1 = solver.state().total_depth();
        assert!(
            ((mass1 - mass0) / mass0).abs() < 1e-10,
            "mass drift: {mass0} → {mass1}"
        );
    }

    #[test]
    fn mass_is_conserved_first_order() {
        let grid = flat_grid(12);
        let bathy = vec![-5.0; grid.n_cells()];
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        state.h[grid.idx(6, 6)] += 2.0;
        let mut solver =
            SweSolver::new(grid, bathy, state, Scheme::FirstOrder, Boundary::Reflective);
        let mass0 = solver.state().total_depth();
        for _ in 0..40 {
            solver.step();
        }
        assert!(((solver.state().total_depth() - mass0) / mass0).abs() < 1e-12);
    }

    #[test]
    fn hump_spreads_symmetrically() {
        let grid = flat_grid(21);
        let bathy = vec![-10.0; grid.n_cells()];
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        for j in 0..21 {
            for i in 0..21 {
                let idx = grid.idx(i, j);
                let (x, y) = grid.center(i, j);
                let r2 = ((x - 500.0) / 80.0).powi(2) + ((y - 500.0) / 80.0).powi(2);
                state.h[idx] += 0.5 * (-r2).exp();
            }
        }
        let mut solver = SweSolver::new(
            grid,
            bathy,
            state,
            Scheme::SecondOrder { limiter: true },
            Boundary::Outflow,
        );
        for _ in 0..30 {
            solver.step();
        }
        // x/y symmetry: h(i,j) == h(j,i) for symmetric IC on square grid
        for j in 0..21 {
            for i in 0..21 {
                let a = solver.state().h[solver.grid().idx(i, j)];
                let b = solver.state().h[solver.grid().idx(j, i)];
                assert!((a - b).abs() < 1e-9, "asymmetry at ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn dam_break_wave_moves_outward() {
        let grid = flat_grid(40);
        let bathy = vec![-100.0; grid.n_cells()];
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        // raise surface in the left half
        for j in 0..40 {
            for i in 0..20 {
                state.h[grid.idx(i, j)] += 1.0;
            }
        }
        let mut solver = SweSolver::new(grid, bathy, state, Scheme::FirstOrder, Boundary::Outflow);
        let dt_total: f64 = (0..10).map(|_| solver.step()).sum();
        let c = (G * 100.0f64).sqrt();
        let expected_travel = c * dt_total;
        assert!(expected_travel > 0.0);
        // cells just right of the initial dam (x = 500) should have risen
        let (i_probe, j_probe) = solver.grid().locate(510.0 + expected_travel / 2.0, 500.0);
        let idx = solver.grid().idx(i_probe, j_probe);
        assert!(
            solver.surface(idx) > 0.01,
            "wave has not reached probe: {}",
            solver.surface(idx)
        );
    }

    #[test]
    fn second_order_is_less_dissipative() {
        // identical Gaussian hump, same duration: the 2nd-order scheme
        // should retain a higher wave peak than the 1st-order scheme
        let make = |scheme: Scheme| -> SweSolver {
            let grid = flat_grid(40);
            let bathy = vec![-100.0; grid.n_cells()];
            let mut state = SweState::lake_at_rest(&bathy, 0.0);
            for j in 0..40 {
                for i in 0..40 {
                    let idx = grid.idx(i, j);
                    let (x, y) = grid.center(i, j);
                    let r2 = ((x - 500.0) / 60.0).powi(2) + ((y - 500.0) / 60.0).powi(2);
                    state.h[idx] += 1.0 * (-r2).exp();
                }
            }
            SweSolver::new(grid, bathy, state, scheme, Boundary::Outflow)
        };
        let mut fo = make(Scheme::FirstOrder);
        let mut so = make(Scheme::SecondOrder { limiter: false });
        fo.run(10.0, |_| {});
        so.run(10.0, |_| {});
        let peak =
            |s: &SweSolver| (0..s.grid().n_cells()).fold(0.0f64, |m, idx| m.max(s.surface(idx)));
        assert!(
            peak(&so) > peak(&fo),
            "2nd order peak {} should exceed 1st order {}",
            peak(&so),
            peak(&fo)
        );
    }

    #[test]
    fn displacement_generates_wave() {
        let grid = flat_grid(30);
        let bathy = vec![-1000.0; grid.n_cells()];
        let state = SweState::lake_at_rest(&bathy, 0.0);
        let mut solver = SweSolver::new(
            grid,
            bathy,
            state,
            Scheme::SecondOrder { limiter: false },
            Boundary::Outflow,
        );
        solver.displace_surface(|x, y| {
            let r2 = ((x - 500.0) / 100.0).powi(2) + ((y - 500.0) / 100.0).powi(2);
            2.0 * (-r2).exp()
        });
        let idx_src = {
            let (i, j) = solver.grid().locate(500.0, 500.0);
            solver.grid().idx(i, j)
        };
        assert!(solver.surface(idx_src) > 1.5, "displacement applied");
        let idx_probe = {
            let (i, j) = solver.grid().locate(800.0, 500.0);
            solver.grid().idx(i, j)
        };
        let mut max_probe: f64 = 0.0;
        for _ in 0..100 {
            solver.step();
            max_probe = max_probe.max(solver.surface(idx_probe));
            if solver.time() > 5.0 {
                break;
            }
        }
        assert!(
            max_probe > 0.01,
            "wave should reach the probe, max {max_probe}"
        );
    }

    #[test]
    fn limiter_activates_on_sharp_coastal_runup() {
        // steep coast + incoming wave: the second-order scheme must fall
        // back to FV in some cells
        let grid = Grid2d::new(40, 10, (0.0, 4000.0), (0.0, 1000.0));
        let mut bathy = Vec::with_capacity(grid.n_cells());
        for _j in 0..10 {
            for i in 0..40 {
                let (x, _) = grid.center(i, 0);
                bathy.push(if x < 3000.0 {
                    -50.0
                } else {
                    -50.0 + 55.0 * (x - 3000.0) / 1000.0
                });
            }
        }
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        for j in 0..10 {
            for i in 0..8 {
                state.h[grid.idx(i, j)] += 3.0;
            }
        }
        let mut solver = SweSolver::new(
            grid,
            bathy,
            state,
            Scheme::SecondOrder { limiter: true },
            Boundary::Outflow,
        );
        for _ in 0..200 {
            solver.step();
        }
        assert!(
            solver.limited_cells() > 0,
            "coastal run-up should trigger the a-posteriori limiter"
        );
        for &h in &solver.state().h {
            assert!(h.is_finite() && h >= 0.0);
        }
    }

    /// SplitMix64, for fixtures that need arbitrary but repeatable numbers.
    struct Noise(u64);

    impl Noise {
        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.unit() * n as f64) as usize
        }
    }

    /// A small rough basin with islands and shores that reach the domain
    /// edge, at rest but for a hump and a raised column of water, each
    /// possibly in a corner: the limiter fires within a few steps, on
    /// interior, edge and corner cells alike.
    fn rough_basin(seed: u64) -> SweSolver {
        let mut noise = Noise(seed);
        let (nx, ny) = (5 + noise.below(9), 5 + noise.below(9));
        let grid = Grid2d::new(nx, ny, (0.0, 100.0 * nx as f64), (0.0, 100.0 * ny as f64));
        let mut spot = |amplitude: f64| {
            let (x, y) = (
                noise.unit() * 100.0 * nx as f64,
                noise.unit() * 100.0 * ny as f64,
            );
            let (amplitude, radius) = (
                amplitude * (0.5 + noise.unit()),
                80.0 + 200.0 * noise.unit(),
            );
            move |px: f64, py: f64| {
                amplitude * (-((px - x) / radius).powi(2) - ((py - y) / radius).powi(2)).exp()
            }
        };
        let (island, shoal, hump) = (spot(7.0), spot(5.0), spot(2.5));
        let mut bathy = Vec::with_capacity(grid.n_cells());
        for j in 0..ny {
            for i in 0..nx {
                let (x, y) = grid.center(i, j);
                bathy.push(-4.0 + island(x, y) + shoal(x, y) + 0.8 * (noise.unit() - 0.5));
            }
        }
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        let column = [0, nx - 1][noise.below(2)];
        for j in 0..ny {
            state.h[grid.idx(column, j)] += 1.5;
        }
        let boundary = [Boundary::Reflective, Boundary::Outflow][(seed % 2) as usize];
        let scheme = Scheme::SecondOrder { limiter: true };
        let mut solver = SweSolver::new(grid, bathy, state, scheme, boundary);
        solver.displace_surface(hump);
        solver
    }

    #[test]
    fn cone_recompute_equals_recomputing_everything() {
        // the incremental fallback takes its region as data (`cone`,
        // `reach`): with every cell in it, it is the whole-step recompute
        let (mut limited, mut on_edge, mut in_corner, mut saved) = (0, 0, 0, 0);
        for seed in 0..24 {
            let (mut cone, mut whole) = (rough_basin(seed), rough_basin(seed));
            let (nx, ny) = (cone.grid().nx(), cone.grid().ny());
            for step in 0..60 {
                let dt = cone.step();
                assert_eq!(whole.stable_dt().to_bits(), dt.to_bits());
                whole.candidate(dt);
                if whole.detect() > 0 {
                    for &idx in &whole.ws.cone {
                        let (at_x, at_y) = (idx % nx, idx / nx);
                        let borders = usize::from(at_x == 0 || at_x == nx - 1)
                            + usize::from(at_y == 0 || at_y == ny - 1);
                        on_edge += usize::from(borders == 1);
                        in_corner += usize::from(borders == 2);
                    }
                    let untroubled = (0..nx * ny).filter(|&idx| whole.ws.dist[idx] != 0);
                    whole.ws.cone.extend(untroubled);
                    whole.ws.reach = [nx * ny; 4];
                    whole.recompute(dt);
                }
                whole.accept(dt);
                let bits = |s: &SweState| -> Vec<u64> {
                    let fields = s.h.iter().chain(&s.hu).chain(&s.hv);
                    fields.map(|x| x.to_bits()).collect()
                };
                assert_eq!(
                    bits(cone.state()),
                    bits(whole.state()),
                    "seed {seed}, step {step}"
                );
                assert_eq!(cone.limited_cells(), whole.limited_cells());
                assert!(cone.state().h.iter().all(|h| h.is_finite() && *h >= 0.0));
            }
            limited += cone.limited_cells();
            saved += whole.dof_updates() - cone.dof_updates();
        }
        // the fixtures do exercise what they are for
        assert!(limited > 500, "{limited} limited cells");
        assert!(
            on_edge > 50 && in_corner > 5,
            "{on_edge} edge, {in_corner} corner"
        );
        assert!(saved > 0, "the cone must be smaller than the grid");
    }

    /// A basin of `nx × ny` cells, one in three of them land above the
    /// resting surface, the water uneven and moving: tiny grids have an
    /// empty or one-cell interior in each row.
    fn tiny_basin(nx: usize, ny: usize, seed: u64) -> SweSolver {
        let mut noise = Noise(seed);
        let grid = Grid2d::new(nx, ny, (0.0, 100.0 * nx as f64), (0.0, 100.0 * ny as f64));
        let bathy: Vec<f64> = (0..nx * ny)
            .map(|_| match noise.below(3) {
                0 => 0.5,
                _ => -3.0 + noise.unit(),
            })
            .collect();
        let mut state = SweState::lake_at_rest(&bathy, 0.0);
        for idx in 0..nx * ny {
            if state.h[idx] > 0.0 {
                state.h[idx] += noise.unit();
                state.hu[idx] = (noise.unit() - 0.5) * state.h[idx];
                state.hv[idx] = (noise.unit() - 0.5) * state.h[idx];
            }
        }
        let boundary = [Boundary::Reflective, Boundary::Outflow][(seed % 2) as usize];
        let scheme = Scheme::SecondOrder { limiter: true };
        SweSolver::new(grid, bathy, state, scheme, boundary)
    }

    #[test]
    fn row_loops_equal_the_formulas_cell_by_cell() {
        // every per-cell pass of a candidate step, and the CFL bound, against
        // its formula applied one cell at a time with plain indexing and
        // against single-cell blocks (the recompute's calls), bit for bit
        let bits = |x: &[f64]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let state_bits = |s: &SweState| [bits(&s.h), bits(&s.hu), bits(&s.hv)];
        let tiny = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)];
        let tiny = tiny.into_iter().flat_map(|(nx, ny)| {
            (0..6).map(move |seed| tiny_basin(nx, ny, seed + 100 * (nx + 10 * ny) as u64))
        });
        let (mut sloped, mut level, mut dry) = (0, 0, 0);
        for (fixture, mut solver) in (0..8).map(rough_basin).chain(tiny).enumerate() {
            let (grid, n) = (solver.grid.clone(), solver.grid.n_cells());
            let (nx, ny, dx, dy) = (grid.nx(), grid.ny(), grid.dx(), grid.dy());
            for step in 0..40 {
                let at = format!("fixture {fixture} ({nx}×{ny}), step {step}");
                let dt = solver.stable_dt();
                let smax = solver.ws.prim[0].iter().zip(&solver.state.h).fold(
                    1e-8_f64,
                    |smax, (&[_, u, v], &h)| {
                        let c = Cons::new(h, 0.0, 0.0).wave_speed();
                        smax.max(u.abs() + c).max(v.abs() + c)
                    },
                );
                assert_eq!(
                    dt.to_bits(),
                    (solver.cfl * dx.min(dy) / smax).to_bits(),
                    "{at}"
                );
                solver.candidate(dt);
                let (state, ws) = (&solver.state, &solver.ws);
                for (s, from, to) in [(0, state, &ws.stage1), (1, &ws.stage1, &ws.cand)] {
                    let mut recon = vec![[[f64::NAN; 3]; 4]; n];
                    let mut out = SweState::lake_at_rest(&vec![f64::NAN; n], 0.0);
                    for (j, i) in (0..ny).flat_map(|j| (0..nx).map(move |i| (j, i))) {
                        let idx = j * nx + i;
                        let q = from.cons(idx);
                        let (u, v) = q.velocity();
                        let prim = [q.h + solver.bathy[idx], u, v].map(f64::to_bits);
                        assert_eq!(ws.prim[s][idx].map(f64::to_bits), prim, "{at}");
                        // clamped neighbors: beyond the boundary, the cell itself
                        let cells = [
                            idx,
                            j * nx + i.saturating_sub(1),
                            j * nx + (i + 1).min(nx - 1),
                            j.saturating_sub(1) * nx + i,
                            (j + 1).min(ny - 1) * nx + i,
                        ];
                        let faces =
                            cell_faces(cells.map(|c| from.h[c]), cells.map(|c| ws.prim[s][c]));
                        let flat = faces.iter().flatten().map(|x| x.to_bits());
                        let whole = ws.recon[s][idx].iter().flatten().map(|x| x.to_bits());
                        assert!(flat.eq(whole), "{at}: reconstruction of cell {idx}");
                        sloped += usize::from(faces != [ws.prim[s][idx]; 4]);
                        level += usize::from(faces == [ws.prim[s][idx]; 4]);
                        dry += usize::from(from.h[idx] <= H_DRY);
                        let block = (j..j + 1, i..i + 1);
                        reconstruct((nx, ny), &from.h, &ws.prim[s], &block, &mut recon);
                        let [fx, fy] = &ws.faces[s];
                        let near = [&fx[idx + j], &fx[idx + j + 1], &fy[idx], &fy[idx + nx]];
                        let mut q = euler_cell(q, near, (dx, dy, dt));
                        if s == 1 {
                            let q0 = state.cons(idx);
                            let (h, hu, hv) = (q0.h + q.h, q0.hu + q.hu, q0.hv + q.hv);
                            q = dry_clamp(0.5 * h, 0.5 * hu, 0.5 * hv);
                        }
                        let [h, hu, hv] = [q.h, q.hu, q.hv].map(f64::to_bits);
                        let whole = to.cons(idx);
                        assert_eq!(
                            [h, hu, hv],
                            [whole.h, whole.hu, whole.hv].map(f64::to_bits),
                            "{at}"
                        );
                        let heun = (s == 1).then_some(state);
                        euler(&grid, from, &ws.faces[s], dt, &block, &mut out, heun);
                    }
                    let recon_bits = |r: &[[Prim; 4]]| bits(r.as_flattened().as_flattened());
                    assert_eq!(
                        recon_bits(&recon),
                        recon_bits(&ws.recon[s]),
                        "{at}: stage {s}"
                    );
                    assert_eq!(state_bits(&out), state_bits(to), "{at}: stage {s}");
                }
                solver.step_dt(dt);
            }
        }
        // the fixtures do exercise what they are for
        assert!(
            sloped > 1000 && level > 1000 && dry > 1000,
            "{sloped} {level} {dry}"
        );
    }

    #[test]
    fn dof_updates_accumulate() {
        let grid = flat_grid(8);
        let bathy = vec![-10.0; grid.n_cells()];
        let state = SweState::lake_at_rest(&bathy, 0.0);
        let mut solver =
            SweSolver::new(grid, bathy, state, Scheme::FirstOrder, Boundary::Reflective);
        solver.step();
        solver.step();
        assert_eq!(solver.dof_updates(), 2 * 64);
        assert_eq!(solver.steps(), 2);
    }

    #[test]
    fn run_reaches_end_time_exactly() {
        let grid = flat_grid(8);
        let bathy = vec![-10.0; grid.n_cells()];
        let state = SweState::lake_at_rest(&bathy, 0.0);
        let mut solver =
            SweSolver::new(grid, bathy, state, Scheme::FirstOrder, Boundary::Reflective);
        let mut count = 0;
        solver.run(25.0, |_| count += 1);
        assert!((solver.time() - 25.0).abs() < 1e-9);
        assert_eq!(count, solver.steps());
    }
}
