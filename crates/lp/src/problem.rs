//! LP problem representation and builder.
//!
//! Problems are stated in the general bounded form
//!
//! ```text
//! maximize    cᵀ x
//! subject to  L_r ≤ A x ≤ U_r      (row bounds, entries may be ±∞)
//!             l   ≤   x ≤ u        (variable bounds, entries may be ±∞)
//! ```
//!
//! which subsumes `≤`, `≥`, `=`, and ranged constraints without any
//! transformation on the caller's side.

use crate::sparse::ColMatrix;
use crate::LpError;

/// Whether the objective is maximized or minimized.
///
/// Internally everything is solved as maximization; [`Problem::set_sense`]
/// with [`Sense::Minimize`] simply negates the objective on the way in and
/// the reported objective on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    /// Maximize the objective (default — the truncation LPs maximize).
    #[default]
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Lower/upper bound pair for a variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarBounds {
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
}

impl VarBounds {
    /// A variable confined to `[lower, upper]`.
    pub fn new(lower: f64, upper: f64) -> Self {
        VarBounds { lower, upper }
    }
    /// A non-negative variable `[0, +inf)`.
    pub fn non_negative() -> Self {
        VarBounds { lower: 0.0, upper: f64::INFINITY }
    }
    /// A free variable `(-inf, +inf)`.
    pub fn free() -> Self {
        VarBounds { lower: f64::NEG_INFINITY, upper: f64::INFINITY }
    }
    /// A variable fixed at `v`.
    pub fn fixed(v: f64) -> Self {
        VarBounds { lower: v, upper: v }
    }
}

/// Lower/upper bound pair for a row activity `a_i · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowBounds {
    /// Lower bound on the activity (may be `-inf`).
    pub lower: f64,
    /// Upper bound on the activity (may be `+inf`).
    pub upper: f64,
}

impl RowBounds {
    /// `a_i · x ≤ rhs`.
    pub fn at_most(rhs: f64) -> Self {
        RowBounds { lower: f64::NEG_INFINITY, upper: rhs }
    }
    /// `a_i · x ≥ rhs`.
    pub fn at_least(rhs: f64) -> Self {
        RowBounds { lower: rhs, upper: f64::INFINITY }
    }
    /// `a_i · x = rhs`.
    pub fn equal(rhs: f64) -> Self {
        RowBounds { lower: rhs, upper: rhs }
    }
    /// `lo ≤ a_i · x ≤ hi`.
    pub fn range(lo: f64, hi: f64) -> Self {
        RowBounds { lower: lo, upper: hi }
    }
}

/// A linear program under construction (and the immutable input to solvers).
#[derive(Debug, Clone, Default)]
pub struct Problem {
    sense: Sense,
    /// Objective coefficients, one per variable (in the stated sense).
    pub(crate) objective: Vec<f64>,
    /// Variable bounds.
    pub(crate) var_bounds: Vec<VarBounds>,
    /// Row bounds.
    pub(crate) row_bounds: Vec<RowBounds>,
    /// Constraint coefficients in triplet form until frozen.
    triplets: Vec<(usize, usize, f64)>,
}

impl Problem {
    /// Creates an empty maximization problem.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Sets the objective sense. Call before reading solutions.
    pub fn set_sense(&mut self, sense: Sense) {
        self.sense = sense;
    }

    /// The objective sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable with the given objective coefficient and bounds,
    /// returning its index.
    pub fn add_var(&mut self, obj: f64, bounds: VarBounds) -> usize {
        self.objective.push(obj);
        self.var_bounds.push(bounds);
        self.objective.len() - 1
    }

    /// Adds a constraint row `bounds.lower ≤ Σ coef·x ≤ bounds.upper`,
    /// returning its index. Duplicate variable entries are summed.
    pub fn add_row(&mut self, bounds: RowBounds, terms: &[(usize, f64)]) -> usize {
        let row = self.row_bounds.len();
        self.row_bounds.push(bounds);
        for &(var, coef) in terms {
            self.triplets.push((row, var, coef));
        }
        row
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.row_bounds.len()
    }

    /// Objective coefficient of variable `j`, in the *maximize* sense.
    pub(crate) fn max_objective(&self, j: usize) -> f64 {
        match self.sense {
            Sense::Maximize => self.objective[j],
            Sense::Minimize => -self.objective[j],
        }
    }

    /// Converts an internal maximize-sense objective value to the stated sense.
    #[allow(dead_code)] // retained for solver implementations and tests
    pub(crate) fn externalize_objective(&self, obj: f64) -> f64 {
        match self.sense {
            Sense::Maximize => obj,
            Sense::Minimize => -obj,
        }
    }

    /// Objective coefficient of variable `j` (stated sense).
    pub fn objective_coefficient(&self, j: usize) -> f64 {
        self.objective[j]
    }

    /// Overwrites the objective coefficient of variable `j` (stated sense).
    pub fn set_objective_coefficient(&mut self, j: usize, c: f64) {
        self.objective[j] = c;
    }

    /// Overwrites the bounds of variable `j`.
    pub fn set_var_bounds(&mut self, j: usize, b: VarBounds) {
        self.var_bounds[j] = b;
    }

    /// Overwrites the bounds of row `i`.
    pub fn set_row_bounds(&mut self, i: usize, b: RowBounds) {
        self.row_bounds[i] = b;
    }

    /// Bounds of variable `j`.
    pub fn var_bounds(&self, j: usize) -> VarBounds {
        self.var_bounds[j]
    }

    /// Bounds of row `i`.
    pub fn row_bounds(&self, i: usize) -> RowBounds {
        self.row_bounds[i]
    }

    /// Validates indices, bounds, and finiteness; returns the frozen
    /// column-major constraint matrix.
    pub fn freeze(&self) -> Result<ColMatrix, LpError> {
        let n = self.num_vars();
        let m = self.num_rows();
        for (j, b) in self.var_bounds.iter().enumerate() {
            if b.lower.is_nan() || b.upper.is_nan() {
                return Err(LpError::NotFinite { what: "variable bound", index: j });
            }
            if b.lower > b.upper {
                return Err(LpError::InvertedBounds {
                    what: "variable",
                    index: j,
                    lower: b.lower,
                    upper: b.upper,
                });
            }
        }
        for (i, b) in self.row_bounds.iter().enumerate() {
            if b.lower.is_nan() || b.upper.is_nan() {
                return Err(LpError::NotFinite { what: "row bound", index: i });
            }
            if b.lower > b.upper {
                return Err(LpError::InvertedBounds {
                    what: "row",
                    index: i,
                    lower: b.lower,
                    upper: b.upper,
                });
            }
        }
        for (idx, &(r, c, v)) in self.triplets.iter().enumerate() {
            if r >= m {
                return Err(LpError::BadIndex { what: "row", index: r, len: m });
            }
            if c >= n {
                return Err(LpError::BadIndex { what: "variable", index: c, len: n });
            }
            if !v.is_finite() {
                return Err(LpError::NotFinite { what: "coefficient", index: idx });
            }
        }
        for (j, &c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::NotFinite { what: "objective", index: j });
            }
        }
        Ok(ColMatrix::from_triplets(m, n, &self.triplets))
    }

    /// Evaluates the objective (in the stated sense) at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of `x` within `tol` (absolute, with a
    /// relative term for large activities). Returns the largest violation.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mat = ColMatrix::from_triplets(self.num_rows(), self.num_vars(), &self.triplets);
        let mut act = vec![0.0; self.num_rows()];
        for j in 0..self.num_vars() {
            for (i, v) in mat.col(j) {
                act[i] += v * x[j];
            }
        }
        let mut worst: f64 = 0.0;
        for (j, b) in self.var_bounds.iter().enumerate() {
            worst = worst.max(b.lower - x[j]).max(x[j] - b.upper);
        }
        for (i, b) in self.row_bounds.iter().enumerate() {
            worst = worst.max(b.lower - act[i]).max(act[i] - b.upper);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_freeze() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::new(0.0, 2.0));
        let y = p.add_var(2.0, VarBounds::non_negative());
        p.add_row(RowBounds::at_most(3.0), &[(x, 1.0), (y, 1.0)]);
        let mat = p.freeze().unwrap();
        assert_eq!(mat.rows(), 1);
        assert_eq!(mat.cols(), 2);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_rows(), 1);
    }

    #[test]
    fn inverted_bounds_rejected() {
        let mut p = Problem::new();
        p.add_var(1.0, VarBounds::new(2.0, 1.0));
        assert!(matches!(p.freeze(), Err(LpError::InvertedBounds { .. })));
    }

    #[test]
    fn bad_index_rejected() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::non_negative());
        p.add_row(RowBounds::at_most(1.0), &[(x + 5, 1.0)]);
        assert!(matches!(p.freeze(), Err(LpError::BadIndex { .. })));
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::non_negative());
        p.add_row(RowBounds::at_most(1.0), &[(x, 1.0), (x, 2.0)]);
        let mat = p.freeze().unwrap();
        let col: Vec<_> = mat.col(0).collect();
        assert_eq!(col, vec![(0, 3.0)]);
    }

    #[test]
    fn minimize_sense_flips_internal_objective() {
        let mut p = Problem::new();
        let x = p.add_var(5.0, VarBounds::non_negative());
        p.set_sense(Sense::Minimize);
        assert_eq!(p.max_objective(x), -5.0);
        assert_eq!(p.externalize_objective(-3.0), 3.0);
    }

    #[test]
    fn max_violation_reports_worst() {
        let mut p = Problem::new();
        let x = p.add_var(1.0, VarBounds::new(0.0, 1.0));
        p.add_row(RowBounds::at_most(0.5), &[(x, 1.0)]);
        assert!((p.max_violation(&[1.0]) - 0.5).abs() < 1e-12);
        assert!(p.max_violation(&[0.25]) <= 0.0);
    }
}
