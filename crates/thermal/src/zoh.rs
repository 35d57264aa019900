//! Exact zero-order-hold (ZOH) time stepping of the thermal ODE.
//!
//! Over one step of `dt` seconds the network's inputs — the per-node
//! power `P` and the ambient temperature — are held constant, so
//!
//! ```text
//! C·dT/dt = −K·T + P + g_amb·T_amb,        K = L + diag(g_amb)
//! ```
//!
//! (`L` the coupling Laplacian) has the exact solution
//!
//! ```text
//! T[k+1] = Φ·T[k] + Γ·[P; T_amb],   Φ = e^{A·dt},   Γ = ∫₀^dt e^{A·s} ds · B
//! ```
//!
//! with `A = −C⁻¹K` and `B = C⁻¹·[I | g_amb]`: the discrete state-space
//! form of Bhat et al. (arXiv 2003.11081). Boundary nodes have zero rows
//! in `A` and `B`, so their rows of Φ are the identity and their rows of
//! Γ are zero: they stay pinned.
//!
//! Φ and `W = ∫₀^h e^{A·s} ds` come from one Taylor series in the
//! powers of `X = A·h`, where `h = dt / 2^s` is the largest such step
//! with `‖X‖∞ ≤ ½`: `W = h·Ψ` and `Φ = I + X·Ψ` with
//! `Ψ = Σ X^k/(k+1)!`. Then `s` doublings, `W ← W + Φ·W` and `Φ ← Φ·Φ`,
//! carry both from `h` to `dt`, and `Γ = W·B`.

use crate::network::NetParams;

/// The Taylor series stops where the bound on the next term falls below
/// this (Φ's entries are at most 1, so the truncation is below rounding).
const TAYLOR_TOLERANCE: f64 = 1e-17;

/// Rows of the operator the step's mat-vec updates together.
const LANES: usize = 4;

/// The exact discretization of one network for one step length.
#[derive(Debug, Clone)]
pub(crate) struct Zoh {
    /// `dt.to_bits()` of the step length the operator was built for.
    dt_bits: u64,
    /// The `n × (2n + 1)` operator `[Φ | Γ | γ]` (Γ weighs the node
    /// powers, γ the ambient) in blocks of `LANES` rows, each block
    /// stored column after column; rows past `n` are zero.
    blocks: Vec<[f64; LANES]>,
    /// The step's input vector `[T; P; T_amb]`.
    input: Vec<f64>,
}

impl Zoh {
    /// Discretizes the network described by `p` for steps of `dt`
    /// seconds (positive and finite).
    pub(crate) fn new(p: &NetParams<'_>, dt: f64) -> Zoh {
        let n = p.capacitance.len();
        let mut a = p.conductance_matrix();
        for ((row, &c), &fixed) in a.chunks_exact_mut(n).zip(p.capacitance).zip(p.boundary) {
            for x in row {
                *x = if fixed { 0.0 } else { -*x / c };
            }
        }

        let mut norm = dt * inf_norm(&a, n);
        let mut h = dt;
        let mut squarings = 0;
        while norm > 0.5 {
            norm *= 0.5;
            h *= 0.5;
            squarings += 1;
        }
        let x: Vec<f64> = a.iter().map(|v| v * h).collect();

        // W = h·Ψ and Φ = I + X·Ψ, with Ψ = Σ_{k≤q} X^k/(k+1)! truncated
        // where the next term's bound falls below TAYLOR_TOLERANCE.
        let mut q = 0;
        let mut bound = norm / 2.0;
        while bound > TAYLOR_TOLERANCE {
            q += 1;
            bound *= norm / (q + 2) as f64;
        }
        let mut coefficients = Vec::with_capacity(q + 1);
        let mut factorial = 1.0;
        for k in 0..=q {
            factorial *= (k + 1) as f64;
            coefficients.push(1.0 / factorial);
        }
        // Paterson–Stockmeyer: Ψ is a polynomial in Y = X^b whose
        // coefficients are combinations of I, X, …, X^(b−1); Horner in Y.
        let b = ((q + 1) as f64).sqrt().ceil() as usize;
        let mut powers = vec![identity(n), x.clone()];
        let mut product = vec![0.0; n * n];
        while powers.len() <= b {
            mul_into(powers.last().expect("two powers"), &x, &mut product, n);
            powers.push(product.clone());
        }
        let top = coefficients.len().div_ceil(b) - 1;
        let mut psi = vec![0.0; n * n];
        for (j, chunk) in coefficients.chunks(b).enumerate().rev() {
            if j < top {
                mul_into(&psi, &powers[b], &mut product, n);
                std::mem::swap(&mut psi, &mut product);
            }
            for (c, power) in chunk.iter().zip(&powers) {
                for (s, &pw) in psi.iter_mut().zip(power) {
                    *s += c * pw;
                }
            }
        }
        let mut w: Vec<f64> = psi.iter().map(|v| v * h).collect();
        let mut phi = identity(n);
        mul_into(&x, &psi, &mut product, n);
        for (f, &pr) in phi.iter_mut().zip(&product) {
            *f += pr;
        }
        for _ in 0..squarings {
            mul_into(&phi, &w, &mut product, n);
            for (wv, &pr) in w.iter_mut().zip(&product) {
                *wv += pr;
            }
            mul_into(&phi, &phi, &mut product, n);
            std::mem::swap(&mut phi, &mut product);
        }

        // Row i of the operator is [Φ_i | Γ_i | γ_i]; lane i % LANES of
        // block i / LANES holds it, one input column after another.
        let width = 2 * n + 1;
        let mut blocks = vec![[0.0; LANES]; n.div_ceil(LANES) * width];
        for i in 0..n {
            let (block, lane) = (i / LANES, i % LANES);
            let column = |c: usize| block * width + c;
            if p.boundary[i] {
                blocks[column(i)][lane] = 1.0;
                continue;
            }
            let mut ambient = 0.0;
            for j in 0..n {
                blocks[column(j)][lane] = phi[i * n + j];
                if !p.boundary[j] {
                    let per_watt = w[i * n + j] / p.capacitance[j];
                    blocks[column(n + j)][lane] = per_watt;
                    ambient += per_watt * p.ambient_conductance[j];
                }
            }
            blocks[column(2 * n)][lane] = ambient;
        }
        Zoh {
            dt_bits: dt.to_bits(),
            blocks,
            input: vec![0.0; width],
        }
    }

    /// Whether this operator was built for steps of exactly `dt`.
    pub(crate) fn is_for(&self, dt: f64) -> bool {
        self.dt_bits == dt.to_bits()
    }

    /// Advances `temps` by one step under the held `power` (one entry
    /// per node) and `ambient` temperature.
    pub(crate) fn step(&mut self, temps: &mut [f64], power: &[f64], ambient: f64) {
        let n = temps.len();
        self.input[..n].copy_from_slice(temps);
        self.input[n..2 * n].copy_from_slice(power);
        self.input[2 * n] = ambient;
        let width = self.input.len();
        for (block, out) in self.blocks.chunks_exact(width).zip(temps.chunks_mut(LANES)) {
            let mut rows = [0.0; LANES];
            for (column, &u) in block.iter().zip(&self.input) {
                for (row, c) in rows.iter_mut().zip(column) {
                    *row += c * u;
                }
            }
            out.copy_from_slice(&rows[..out.len()]);
        }
    }
}

/// The `n × n` identity, row-major.
fn identity(n: usize) -> Vec<f64> {
    let mut m = vec![0.0; n * n];
    m.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
    m
}

/// Largest absolute row sum of a row-major `n × n` matrix.
fn inf_norm(m: &[f64], n: usize) -> f64 {
    m.chunks_exact(n)
        .map(|row| row.iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// `out = a·b` for row-major `n × n` matrices.
fn mul_into(a: &[f64], b: &[f64], out: &mut [f64], n: usize) {
    out.fill(0.0);
    for (out_row, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(n)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if aik != 0.0 {
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
    }
}
