//! Sparse LU factorization of simplex basis matrices.
//!
//! A left-looking factorization with threshold partial pivoting. Basis
//! columns are processed singleton-first (logical variables contribute unit
//! columns which pivot without fill), then in ascending nonzero count. The
//! sparse triangular solve per column discovers fill-in with a min-heap over
//! pivot positions: an L-column eliminated at position `p` only creates fill
//! at positions `> p` (rows pivoted after step `p`) or on unpivoted rows, so
//! heap order is elimination order.
//!
//! The factors satisfy `P_r · B · P_c = L · U` where `P_r` is the row
//! permutation chosen by pivoting and `P_c` the column processing order.
//! `L` is unit lower triangular (diagonal implicit, entries stored against
//! original row indices), `U` is upper triangular (strict upper entries
//! stored against permuted positions, diagonal separate).

use crate::LpError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One basis column in sparse form (borrowed entries).
pub struct BasisColumn<'a> {
    /// Row indices (original space).
    pub rows: &'a [u32],
    /// Matching coefficient values.
    pub values: &'a [f64],
}

/// Sparse LU factors of a basis matrix.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    // L: unit lower triangular, column-wise; row indices in ORIGINAL space.
    l_ptr: Vec<usize>,
    l_row: Vec<u32>,
    l_val: Vec<f64>,
    // U: strict upper entries, column-wise; row indices in PERMUTED space.
    u_ptr: Vec<usize>,
    u_row: Vec<u32>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// original row -> permuted position (usize::MAX while unpivoted)
    rperm: Vec<usize>,
    /// permuted position -> original row
    rperm_inv: Vec<usize>,
    /// permuted position -> basis slot whose column pivoted there
    cperm_inv: Vec<usize>,
}

/// Relative threshold for partial pivoting: a pivot must have magnitude at
/// least this fraction of the largest eligible entry in its column.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Absolute floor below which a pivot is considered numerically zero.
const PIVOT_FLOOR: f64 = 1e-11;

impl LuFactors {
    /// Factorizes the basis whose `m` columns are produced by `col(slot)`.
    pub fn factorize<'a, F>(m: usize, col: F) -> Result<LuFactors, LpError>
    where
        F: Fn(usize) -> BasisColumn<'a>,
    {
        match Self::factorize_repairing(m, col) {
            (lu, swaps) if swaps.is_empty() => Ok(lu),
            _ => Err(LpError::SingularBasis),
        }
    }

    /// Like [`Self::factorize`], but a numerically singular basis is
    /// repaired instead of rejected: each column whose pivot falls below the
    /// floor is left out, and the rows left unpivoted are covered by their
    /// logical columns `−e_row`. Returns the factors of that repaired basis
    /// and the `(slot, row)` replacements, deficient slots in processing
    /// order paired with unpivoted rows in ascending order. A basis that
    /// [`Self::factorize`] accepts comes back unchanged with no replacements.
    pub fn factorize_repairing<'a, F>(m: usize, col: F) -> (LuFactors, Vec<(usize, usize)>)
    where
        F: Fn(usize) -> BasisColumn<'a>,
    {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&s| col(s).rows.len());

        let mut lu = LuFactors {
            m,
            l_ptr: vec![0],
            l_row: Vec::new(),
            l_val: Vec::new(),
            u_ptr: vec![0],
            u_row: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::with_capacity(m),
            rperm: vec![usize::MAX; m],
            rperm_inv: vec![usize::MAX; m],
            cperm_inv: Vec::with_capacity(m),
        };

        let mut work = vec![0.0f64; m];
        let mut stamp = vec![0u32; m];
        let mut touched: Vec<u32> = Vec::with_capacity(64);
        let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        let mut u_entries: Vec<(u32, f64)> = Vec::new();
        let mut deficient: Vec<usize> = Vec::new();

        for (c_idx, &slot) in order.iter().enumerate() {
            let c = col(slot);
            let gen = (c_idx + 1) as u32;
            // Pivot position: the columns pivoted so far.
            let k = lu.u_diag.len();
            touched.clear();
            heap.clear();
            // Scatter the column into `work`.
            for (&r, &v) in c.rows.iter().zip(c.values) {
                let r = r as usize;
                if stamp[r] != gen {
                    stamp[r] = gen;
                    work[r] = v;
                    touched.push(r as u32);
                    if lu.rperm[r] != usize::MAX {
                        heap.push(Reverse(lu.rperm[r]));
                    }
                } else {
                    work[r] += v;
                }
            }
            // Sparse lower-triangular solve `L y = column` in pivot order.
            while let Some(Reverse(p)) = heap.pop() {
                let row = lu.rperm_inv[p];
                let y = work[row];
                if y == 0.0 {
                    continue;
                }
                for idx in lu.l_ptr[p]..lu.l_ptr[p + 1] {
                    let r = lu.l_row[idx] as usize;
                    if stamp[r] != gen {
                        stamp[r] = gen;
                        work[r] = 0.0;
                        touched.push(r as u32);
                        if lu.rperm[r] != usize::MAX {
                            heap.push(Reverse(lu.rperm[r]));
                        }
                    }
                    work[r] -= lu.l_val[idx] * y;
                }
            }
            // Pivot selection among unpivoted rows.
            let mut max_abs = 0.0f64;
            for &r in &touched {
                let r = r as usize;
                if lu.rperm[r] == usize::MAX {
                    max_abs = max_abs.max(work[r].abs());
                }
            }
            let mut best_r = usize::MAX;
            let mut best_abs = 0.0f64;
            for &r in &touched {
                let r = r as usize;
                if lu.rperm[r] == usize::MAX {
                    let a = work[r].abs();
                    if a >= PIVOT_THRESHOLD * max_abs && a > best_abs {
                        best_abs = a;
                        best_r = r;
                    }
                }
            }
            if best_r == usize::MAX || best_abs <= PIVOT_FLOOR {
                deficient.push(slot);
                continue;
            }
            let pivot = work[best_r];
            // Emit U entries (pivoted rows) sorted by position, then the L
            // column (remaining unpivoted rows, scaled by the pivot).
            u_entries.clear();
            for &r in &touched {
                let r = r as usize;
                let v = work[r];
                if v == 0.0 || r == best_r {
                    continue;
                }
                let p = lu.rperm[r];
                if p != usize::MAX {
                    u_entries.push((p as u32, v));
                } else {
                    lu.l_row.push(r as u32);
                    lu.l_val.push(v / pivot);
                }
            }
            u_entries.sort_unstable_by_key(|&(p, _)| p);
            for &(p, v) in &u_entries {
                lu.u_row.push(p);
                lu.u_val.push(v);
            }
            lu.u_ptr.push(lu.u_row.len());
            lu.l_ptr.push(lu.l_row.len());
            lu.u_diag.push(pivot);
            lu.rperm[best_r] = k;
            lu.rperm_inv[k] = best_r;
            lu.cperm_inv.push(slot);
        }
        // A logical column −e_row on an unpivoted row pivots on that row
        // with no L or U entries, so the repaired factors just append those
        // pivots.
        let unpivoted: Vec<usize> = (0..m).filter(|&r| lu.rperm[r] == usize::MAX).collect();
        let swaps: Vec<(usize, usize)> = deficient.into_iter().zip(unpivoted).collect();
        for &(slot, row) in &swaps {
            let k = lu.u_diag.len();
            lu.u_ptr.push(lu.u_row.len());
            lu.l_ptr.push(lu.l_row.len());
            lu.u_diag.push(-1.0);
            lu.rperm[row] = k;
            lu.rperm_inv[k] = row;
            lu.cperm_inv.push(slot);
        }
        (lu, swaps)
    }

    /// Solves `B x = b` in place. Input `b` is indexed by original row; the
    /// output is indexed by *basis slot* (the slot order passed to
    /// [`LuFactors::factorize`]).
    pub fn ftran(&self, b: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(b.len(), self.m);
        scratch.clear();
        scratch.resize(self.m, 0.0);
        let z = &mut scratch[..];
        for k in 0..self.m {
            z[k] = b[self.rperm_inv[k]];
        }
        // Forward solve L y = z. L column k stores original-row indices whose
        // permuted positions are all > k, so ascending k is valid order.
        for k in 0..self.m {
            let yk = z[k];
            if yk != 0.0 {
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    let p = self.rperm[self.l_row[idx] as usize];
                    z[p] -= self.l_val[idx] * yk;
                }
            }
        }
        // Back solve U w = y. U column k has strict-upper entries (positions
        // < k), so descending k with scatter-subtract is valid.
        for k in (0..self.m).rev() {
            let wk = z[k] / self.u_diag[k];
            z[k] = wk;
            if wk != 0.0 {
                for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                    z[self.u_row[idx] as usize] -= self.u_val[idx] * wk;
                }
            }
        }
        for k in 0..self.m {
            b[self.cperm_inv[k]] = z[k];
        }
    }

    /// Solves `Bᵀ y = c` in place. Input `c` is indexed by basis slot; the
    /// output is indexed by original row.
    pub fn btran(&self, c: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.m);
        scratch.clear();
        scratch.resize(self.m, 0.0);
        let z = &mut scratch[..];
        for k in 0..self.m {
            z[k] = c[self.cperm_inv[k]];
        }
        // Solve Uᵀ v = z: row k of Uᵀ is column k of U (entries at positions
        // < k plus the diagonal), so ascending k gathers finished values.
        for k in 0..self.m {
            let mut s = z[k];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                s -= self.u_val[idx] * z[self.u_row[idx] as usize];
            }
            z[k] = s / self.u_diag[k];
        }
        // Solve Lᵀ w = v: row k of Lᵀ is column k of L (entries at positions
        // > k), so descending k gathers finished values.
        for k in (0..self.m).rev() {
            let mut s = z[k];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                s -= self.l_val[idx] * z[self.rperm[self.l_row[idx] as usize]];
            }
            z[k] = s;
        }
        for k in 0..self.m {
            c[self.rperm_inv[k]] = z[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds LU factors from a dense matrix given in row-major order.
    fn factorize_dense(m: usize, a: &[f64]) -> Result<LuFactors, LpError> {
        let mut cols: Vec<(Vec<u32>, Vec<f64>)> = Vec::new();
        for j in 0..m {
            let mut rows = Vec::new();
            let mut vals = Vec::new();
            for i in 0..m {
                let v = a[i * m + j];
                if v != 0.0 {
                    rows.push(i as u32);
                    vals.push(v);
                }
            }
            cols.push((rows, vals));
        }
        LuFactors::factorize(m, |s| BasisColumn { rows: &cols[s].0, values: &cols[s].1 })
    }

    fn mat_vec(m: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
        (0..m).map(|i| (0..m).map(|j| a[i * m + j] * x[j]).sum()).collect()
    }

    #[test]
    fn identity_round_trip() {
        let a = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let lu = factorize_dense(3, &a).unwrap();
        let mut b = vec![3.0, -1.0, 2.0];
        let mut scratch = Vec::new();
        lu.ftran(&mut b, &mut scratch);
        assert_eq!(b, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn ftran_solves_dense_system() {
        let a = [2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let lu = factorize_dense(3, &a).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let mut b = mat_vec(3, &a, &x_true);
        let mut scratch = Vec::new();
        lu.ftran(&mut b, &mut scratch);
        for (got, want) in b.iter().zip(x_true) {
            assert!((got - want).abs() < 1e-10, "{b:?}");
        }
    }

    #[test]
    fn btran_solves_transpose_system() {
        let a = [2.0, 1.0, 0.0, 0.5, 3.0, 1.0, 0.0, 1.0, 2.0];
        let lu = factorize_dense(3, &a).unwrap();
        let y_true = [0.5, 1.5, -1.0];
        // c = Aᵀ y  (c[slot j] = column j of A dot y).
        let mut c: Vec<f64> =
            (0..3).map(|j| (0..3).map(|i| a[i * 3 + j] * y_true[i]).sum()).collect();
        let mut scratch = Vec::new();
        lu.btran(&mut c, &mut scratch);
        for (got, want) in c.iter().zip(y_true) {
            assert!((got - want).abs() < 1e-10, "{c:?}");
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(matches!(factorize_dense(2, &a), Err(LpError::SingularBasis)));
    }

    #[test]
    fn repairing_factorization_covers_deficient_columns_with_unit_pivots() {
        // Columns 0 and 1 are parallel; column 2 is independent.
        let a = [1.0, 2.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.0, 3.0];
        assert!(matches!(factorize_dense(3, &a), Err(LpError::SingularBasis)));
        let mut cols: Vec<(Vec<u32>, Vec<f64>)> = Vec::new();
        for j in 0..3 {
            let rows: Vec<u32> =
                (0..3).filter(|&i| a[i * 3 + j] != 0.0).map(|i| i as u32).collect();
            let vals: Vec<f64> = rows.iter().map(|&i| a[i as usize * 3 + j]).collect();
            cols.push((rows, vals));
        }
        let (lu, swaps) = LuFactors::factorize_repairing(3, |s| BasisColumn {
            rows: &cols[s].0,
            values: &cols[s].1,
        });
        assert_eq!(swaps.len(), 1);
        let (slot, row) = swaps[0];
        // The repaired basis: the deficient slot holds -e_row.
        let mut b = a;
        for i in 0..3 {
            b[i * 3 + slot] = if i == row { -1.0 } else { 0.0 };
        }
        let x_true = [2.0, -1.0, 0.5];
        let mut rhs = mat_vec(3, &b, &x_true);
        let mut scratch = Vec::new();
        lu.ftran(&mut rhs, &mut scratch);
        for (got, want) in rhs.iter().zip(x_true) {
            assert!((got - want).abs() < 1e-12, "{rhs:?}");
        }
        // A nonsingular basis comes back with no replacements.
        let id = [1.0, 0.0, 0.0, 1.0];
        let id_cols: Vec<(Vec<u32>, Vec<f64>)> = vec![(vec![0], vec![1.0]), (vec![1], vec![1.0])];
        let (_, none) = LuFactors::factorize_repairing(2, |s| BasisColumn {
            rows: &id_cols[s].0,
            values: &id_cols[s].1,
        });
        assert!(none.is_empty(), "{id:?}");
    }

    #[test]
    fn permutation_matrix() {
        // Columns are unit vectors in scrambled order.
        let a = [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let lu = factorize_dense(3, &a).unwrap();
        let x_true = [4.0, 5.0, 6.0];
        let mut b = mat_vec(3, &a, &x_true);
        let mut scratch = Vec::new();
        lu.ftran(&mut b, &mut scratch);
        for (got, want) in b.iter().zip(x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn random_dense_systems() {
        // Deterministic pseudo-random matrices; verify ftran and btran.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for m in [1usize, 2, 5, 12, 30] {
            let mut a = vec![0.0f64; m * m];
            for (i, v) in a.iter_mut().enumerate() {
                *v = next();
                // Boost the diagonal to keep matrices comfortably invertible.
                if i % (m + 1) == 0 {
                    *v += 2.0;
                }
            }
            let lu = factorize_dense(m, &a).unwrap();
            let x_true: Vec<f64> = (0..m).map(|_| next()).collect();
            let mut b = mat_vec(m, &a, &x_true);
            let mut scratch = Vec::new();
            lu.ftran(&mut b, &mut scratch);
            for (got, want) in b.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8);
            }
            let mut c: Vec<f64> =
                (0..m).map(|j| (0..m).map(|i| a[i * m + j] * x_true[i]).sum()).collect();
            lu.btran(&mut c, &mut scratch);
            for (got, want) in c.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8);
            }
        }
    }
}
