//! Problem representation: dense objective plus inequality/equality rows.

use crate::error::{ProblemError, SolveError};
use crate::revised;
use crate::simplex::{self, Backend, SolverOptions, Workspace};
use crate::solution::{Basis, Solution};
use crate::sparse;

/// Whether a [`Constraint`] is `≤` or `=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `coeffs · x ≤ rhs`
    LessEq,
    /// `coeffs · x = rhs`
    Eq,
}

/// A single dense constraint row.
///
/// Alongside the dense coefficient vector the row carries its *support*
/// — the sorted list of nonzero column indices — maintained on every
/// construction and mutation, so the sparse backend can stream rows
/// without re-scanning for zeros per solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub(crate) coeffs: Vec<f64>,
    pub(crate) rhs: f64,
    pub(crate) kind: ConstraintKind,
    /// Sorted column indices of the nonzero coefficients.
    pub(crate) support: Vec<u32>,
}

impl Constraint {
    fn new(coeffs: Vec<f64>, rhs: f64, kind: ConstraintKind) -> Self {
        let support = compute_support(&coeffs);
        Constraint {
            coeffs,
            rhs,
            kind,
            support,
        }
    }

    /// The row coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Whether the row is an inequality or an equality.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Sorted column indices of the nonzero coefficients (the row's
    /// sparsity pattern, kept current across incremental mutation).
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// Number of nonzero coefficients.
    pub fn nnz(&self) -> usize {
        self.support.len()
    }

    /// Evaluates `coeffs · x - rhs` (positive means violated for `≤` rows).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let lhs: f64 = self.coeffs.iter().zip(x).map(|(a, v)| a * v).sum();
        match self.kind {
            ConstraintKind::LessEq => lhs - self.rhs,
            ConstraintKind::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// Sorted nonzero column indices of a dense coefficient row.
fn compute_support(coeffs: &[f64]) -> Vec<u32> {
    coeffs
        .iter()
        .enumerate()
        // dmc-lint: allow(float-exact) exact-zero sparsity filter: a stored 0.0 means structurally absent, not approximately small
        .filter(|(_, &v)| v != 0.0)
        .map(|(j, _)| j as u32)
        .collect()
}

/// A dense linear program over non-negative variables.
///
/// See the [crate-level documentation](crate) for the problem form and a
/// worked example.
///
/// # Incremental assembly and block structure
///
/// Callers that maintain one long-lived LP across small shape changes —
/// the fleet layer's joint admission LP grows a per-flow block on every
/// admitted flow — can mutate a `Problem` in place instead of rebuilding
/// it: [`Problem::append_block`] adds variables (zero-extending every
/// existing row), the `add_*_sparse` constructors add rows from nonzero
/// entries, and [`Problem::set_row_range`] / [`Problem::set_rhs`] /
/// [`Problem::set_objective_range`] patch coefficients while keeping each
/// row's sparsity [`Constraint::support`] current. The recorded block
/// boundaries ([`Problem::block_starts`]) tell the sparse backend which
/// columns belong together: rows whose support stays inside one block are
/// *local* rows, rows spanning blocks are *coupling* rows, and the
/// factorization/pricing exploit that split.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Objective coefficients, always stored in *maximization* sense.
    pub(crate) objective: Vec<f64>,
    /// `true` if the user asked for minimization (objective already negated);
    /// reported objective values are negated back.
    pub(crate) minimize: bool,
    pub(crate) constraints: Vec<Constraint>,
    /// Declared block boundaries: start column of each block, strictly
    /// increasing, first entry 0. Empty = no declared structure (one
    /// block).
    pub(crate) block_starts: Vec<usize>,
}

impl Problem {
    /// Creates a maximization problem `max cᵀx` with `c = objective`.
    ///
    /// The number of variables is fixed to `objective.len()`.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Problem {
            objective,
            minimize: false,
            constraints: Vec::new(),
            block_starts: Vec::new(),
        }
    }

    /// Creates a minimization problem `min cᵀx` with `c = objective`.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Problem {
            objective: objective.into_iter().map(|c| -c).collect(),
            minimize: true,
            constraints: Vec::new(),
            block_starts: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows (inequalities plus equalities).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraint rows in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective in the caller's sense (un-negated for minimization).
    pub fn objective(&self) -> Vec<f64> {
        if self.minimize {
            self.objective.iter().map(|c| -c).collect()
        } else {
            self.objective.clone()
        }
    }

    /// Whether this problem was created with [`Problem::minimize`].
    pub fn is_minimize(&self) -> bool {
        self.minimize
    }

    fn check_row(&self, coeffs: &[f64], rhs: f64) -> Result<(), ProblemError> {
        if self.objective.is_empty() {
            return Err(ProblemError::Empty);
        }
        if coeffs.len() != self.objective.len() {
            return Err(ProblemError::DimensionMismatch {
                expected: self.objective.len(),
                found: coeffs.len(),
            });
        }
        if !rhs.is_finite() || coeffs.iter().any(|c| !c.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        Ok(())
    }

    /// Adds an inequality `coeffs · x ≤ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::DimensionMismatch`] if `coeffs` has the wrong
    /// length and [`ProblemError::NonFiniteCoefficient`] on NaN/∞ input.
    pub fn add_le(&mut self, coeffs: Vec<f64>, rhs: f64) -> Result<&mut Self, ProblemError> {
        self.check_row(&coeffs, rhs)?;
        self.constraints
            .push(Constraint::new(coeffs, rhs, ConstraintKind::LessEq));
        Ok(self)
    }

    /// Adds an inequality `coeffs · x ≥ rhs` (stored as `-coeffs · x ≤ -rhs`).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le`].
    pub fn add_ge(&mut self, coeffs: Vec<f64>, rhs: f64) -> Result<&mut Self, ProblemError> {
        self.check_row(&coeffs, rhs)?;
        self.constraints.push(Constraint::new(
            coeffs.into_iter().map(|c| -c).collect(),
            -rhs,
            ConstraintKind::LessEq,
        ));
        Ok(self)
    }

    /// Adds an equality `coeffs · x = rhs`.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le`].
    pub fn add_eq(&mut self, coeffs: Vec<f64>, rhs: f64) -> Result<&mut Self, ProblemError> {
        self.check_row(&coeffs, rhs)?;
        self.constraints
            .push(Constraint::new(coeffs, rhs, ConstraintKind::Eq));
        Ok(self)
    }

    /// Validates a sparse entry list: sorted strictly increasing column
    /// indices, all in range, all values finite, finite rhs.
    fn check_sparse(&self, entries: &[(usize, f64)], rhs: f64) -> Result<(), ProblemError> {
        if self.objective.is_empty() {
            return Err(ProblemError::Empty);
        }
        let n = self.objective.len();
        let mut last: Option<usize> = None;
        for &(j, v) in entries {
            if j >= n {
                return Err(ProblemError::OutOfRange {
                    what: "sparse entry column",
                    index: j,
                    limit: n,
                });
            }
            if last.is_some_and(|l| j <= l) {
                return Err(ProblemError::UnsortedSparseColumn { column: j });
            }
            if !v.is_finite() {
                return Err(ProblemError::NonFiniteCoefficient);
            }
            last = Some(j);
        }
        if !rhs.is_finite() {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        Ok(())
    }

    /// Expands sorted sparse entries into a dense row (zero-filled).
    fn densify(&self, entries: &[(usize, f64)], negate: bool) -> Vec<f64> {
        let mut coeffs = vec![0.0; self.objective.len()];
        for &(j, v) in entries {
            coeffs[j] = if negate { -v } else { v };
        }
        coeffs
    }

    /// Adds `entries · x ≤ rhs` from sorted sparse `(column, value)`
    /// entries (equivalent to [`Problem::add_le`] on the zero-filled dense
    /// row, without materializing the zeros at the call site).
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] on unsorted/duplicate/out-of-range
    /// columns, [`ProblemError::NonFiniteCoefficient`] on NaN/∞.
    pub fn add_le_sparse(
        &mut self,
        entries: &[(usize, f64)],
        rhs: f64,
    ) -> Result<&mut Self, ProblemError> {
        self.check_sparse(entries, rhs)?;
        let coeffs = self.densify(entries, false);
        self.constraints
            .push(Constraint::new(coeffs, rhs, ConstraintKind::LessEq));
        Ok(self)
    }

    /// Adds `entries · x ≥ rhs` from sorted sparse entries (stored
    /// negated, exactly like [`Problem::add_ge`]).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le_sparse`].
    pub fn add_ge_sparse(
        &mut self,
        entries: &[(usize, f64)],
        rhs: f64,
    ) -> Result<&mut Self, ProblemError> {
        self.check_sparse(entries, rhs)?;
        let coeffs = self.densify(entries, true);
        self.constraints
            .push(Constraint::new(coeffs, -rhs, ConstraintKind::LessEq));
        Ok(self)
    }

    /// Adds `entries · x = rhs` from sorted sparse entries.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::add_le_sparse`].
    pub fn add_eq_sparse(
        &mut self,
        entries: &[(usize, f64)],
        rhs: f64,
    ) -> Result<&mut Self, ProblemError> {
        self.check_sparse(entries, rhs)?;
        let coeffs = self.densify(entries, false);
        self.constraints
            .push(Constraint::new(coeffs, rhs, ConstraintKind::Eq));
        Ok(self)
    }

    /// Appends `objective.len()` new variables as a **new block**:
    /// existing rows are zero-extended, the objective grows by the given
    /// coefficients (maximization sense of the problem as created), and a
    /// block boundary is recorded at the old variable count. Returns the
    /// new columns' index range.
    ///
    /// Incremental callers **tombstone rather than remove** departed
    /// blocks (set the block's `Σx = 1` row to `Σx = 0` via
    /// [`Problem::set_rhs`]) so every surviving column and row keeps its
    /// index; a later arrival of the same shape reclaims the dead
    /// columns in place with [`Problem::set_row_range`] /
    /// [`Problem::set_objective_range`] instead of appending. Only
    /// rollback of the **most recent** block may physically shrink the
    /// problem ([`Problem::truncate_vars`] / [`Problem::truncate_rows`]).
    ///
    /// # Errors
    ///
    /// [`ProblemError::NonFiniteCoefficient`] on NaN/∞ objective entries
    /// (the problem is left unchanged); [`ProblemError::Empty`] on an
    /// empty block.
    pub fn append_block(
        &mut self,
        objective: &[f64],
    ) -> Result<std::ops::Range<usize>, ProblemError> {
        if objective.is_empty() {
            return Err(ProblemError::Empty);
        }
        if objective.iter().any(|c| !c.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        let start = self.objective.len();
        if self.minimize {
            self.objective.extend(objective.iter().map(|c| -c));
        } else {
            self.objective.extend_from_slice(objective);
        }
        for c in &mut self.constraints {
            c.coeffs.resize(self.objective.len(), 0.0);
        }
        if self.block_starts.is_empty() && start > 0 {
            // Declaring structure on a previously unstructured problem:
            // everything before this block is block 0.
            self.block_starts.push(0);
        }
        if self.block_starts.is_empty() {
            self.block_starts.push(0);
        } else if *self
            .block_starts
            .last()
            .expect("else-branch: block_starts is non-empty")
            != start
        {
            self.block_starts.push(start);
        }
        Ok(start..self.objective.len())
    }

    /// Declared block boundaries (start column per block, first 0);
    /// empty when no structure was declared.
    pub fn block_starts(&self) -> &[usize] {
        &self.block_starts
    }

    /// Declares the block boundaries wholesale: strictly increasing start
    /// columns, first entry 0, all within the variable count. An empty
    /// vector clears the declared structure.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] when the boundary list is malformed.
    pub fn set_block_starts(&mut self, starts: Vec<usize>) -> Result<&mut Self, ProblemError> {
        let n = self.objective.len();
        for (i, &s) in starts.iter().enumerate() {
            let ok = s < n.max(1) && if i == 0 { s == 0 } else { s > starts[i - 1] };
            if !ok {
                return Err(ProblemError::OutOfRange {
                    what: "block start",
                    index: s,
                    limit: n,
                });
            }
        }
        self.block_starts = starts;
        Ok(self)
    }

    /// Overwrites the stored coefficients of row `row` over the column
    /// range `start..start + vals.len()`, updating the row's support.
    ///
    /// The values are written **as stored**: a row added with
    /// [`Problem::add_ge`] is stored negated, and callers patching such a
    /// row must supply the negated values themselves.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] / [`ProblemError::NonFiniteCoefficient`]
    /// on bad indices or values (the row is left unchanged).
    pub fn set_row_range(
        &mut self,
        row: usize,
        start: usize,
        vals: &[f64],
    ) -> Result<&mut Self, ProblemError> {
        let m = self.constraints.len();
        if row >= m {
            return Err(ProblemError::OutOfRange {
                what: "row",
                index: row,
                limit: m,
            });
        }
        let n = self.objective.len();
        let end = start + vals.len();
        if end > n {
            return Err(ProblemError::OutOfRange {
                what: "column range end",
                index: end,
                limit: n,
            });
        }
        if vals.iter().any(|v| !v.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        let c = &mut self.constraints[row];
        c.coeffs[start..end].copy_from_slice(vals);
        // Splice the support: keep entries outside the range, rebuild the
        // inside from the new values.
        let lo = c.support.partition_point(|&j| (j as usize) < start);
        let hi = c.support.partition_point(|&j| (j as usize) < end);
        let fresh = vals
            .iter()
            .enumerate()
            // dmc-lint: allow(float-exact) exact-zero sparsity filter: a stored 0.0 means structurally absent, not approximately small
            .filter(|(_, &v)| v != 0.0)
            .map(|(o, _)| (start + o) as u32);
        c.support.splice(lo..hi, fresh);
        Ok(self)
    }

    /// Overwrites row `row`'s right-hand side **as stored** (a
    /// [`Problem::add_ge`] row stores `-rhs`).
    ///
    /// # Tombstone invariant
    ///
    /// This is the **deactivation** op of the block-incremental idiom:
    /// setting a block's convexity row `Σx = 1` to `Σx = 0` forces every
    /// variable of the block to zero (they are non-negative and must sum
    /// to the rhs — with carry variables the balance rows telescope the
    /// same way), so the block drops out of the optimum **without any
    /// shape change** — no rows or columns move, and the tombstoned
    /// columns can later be reclaimed in place by a same-shape arrival
    /// (see [`Problem::append_block`]).
    ///
    /// Callers that key warm-start basis caches on problem shape must
    /// fold exactly the rhs's **zero-ness** (`rhs == 0.0`), never its
    /// magnitude, into the key: retuning a capacity row's rhs keeps the
    /// cached basis reusable, while tombstoning/reviving a block flips
    /// the tag and correctly maps to a different cached basis. This is
    /// what `dmc-fleet`'s joint assemblies do.
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] / [`ProblemError::NonFiniteCoefficient`].
    pub fn set_rhs(&mut self, row: usize, rhs: f64) -> Result<&mut Self, ProblemError> {
        let m = self.constraints.len();
        if row >= m {
            return Err(ProblemError::OutOfRange {
                what: "row",
                index: row,
                limit: m,
            });
        }
        if !rhs.is_finite() {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        self.constraints[row].rhs = rhs;
        Ok(self)
    }

    /// Overwrites objective coefficients over `start..start + vals.len()`
    /// in the **caller's sense** (minimization problems negate
    /// internally, matching [`Problem::minimize`]).
    ///
    /// # Errors
    ///
    /// [`ProblemError::OutOfRange`] / [`ProblemError::NonFiniteCoefficient`].
    pub fn set_objective_range(
        &mut self,
        start: usize,
        vals: &[f64],
    ) -> Result<&mut Self, ProblemError> {
        let n = self.objective.len();
        let end = start + vals.len();
        if end > n {
            return Err(ProblemError::OutOfRange {
                what: "objective range end",
                index: end,
                limit: n,
            });
        }
        if vals.iter().any(|v| !v.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient);
        }
        if self.minimize {
            for (slot, &v) in self.objective[start..end].iter_mut().zip(vals) {
                *slot = -v;
            }
        } else {
            self.objective[start..end].copy_from_slice(vals);
        }
        Ok(self)
    }

    /// Drops every variable with index ≥ `n` (undoing
    /// [`Problem::append_block`]s): truncates the objective, every row's
    /// coefficients and support, and the block boundaries. No-op when `n`
    /// is not smaller than the current variable count.
    pub fn truncate_vars(&mut self, n: usize) {
        if n >= self.objective.len() {
            return;
        }
        self.objective.truncate(n);
        for c in &mut self.constraints {
            c.coeffs.truncate(n);
            let keep = c.support.partition_point(|&j| (j as usize) < n);
            c.support.truncate(keep);
        }
        let keep = self.block_starts.partition_point(|&s| s < n.max(1));
        self.block_starts.truncate(keep);
    }

    /// Drops every constraint row with index ≥ `m` (undoing appended
    /// rows). No-op when `m` is not smaller than the current row count.
    ///
    /// With [`Problem::set_rhs`] this is the **horizon-advance** pair of
    /// the time-expanded idiom: ring-indexed shared rows are *recycled*
    /// (`set_rhs` retunes or zeroes them in place, so surviving rows
    /// never move), while per-block rows past a rollback point are
    /// physically truncated. Truncating rows that an active block still
    /// references leaves the problem well-formed but semantically
    /// unconstrained — callers own that invariant.
    pub fn truncate_rows(&mut self, m: usize) {
        self.constraints.truncate(m);
    }

    /// Solves the problem with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] if no point satisfies the constraints.
    /// * [`SolveError::Unbounded`] if the objective can grow without bound.
    /// * [`SolveError::IterationLimit`] on hostile numerics (see
    ///   [`SolverOptions::max_iterations`]).
    pub fn solve(&self, options: &SolverOptions) -> Result<Solution, SolveError> {
        self.solve_with(options, &mut Workspace::new())
    }

    /// Solves the problem reusing the caller's [`Workspace`] buffers.
    ///
    /// Identical result to [`Problem::solve`]; repeated solves through one
    /// workspace skip the per-call tableau allocation, which is what makes
    /// parameter sweeps and adaptive re-solves cheap (see the
    /// `planner_reuse` benchmark).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`]. The workspace stays valid
    /// and reusable after an error.
    pub fn solve_with(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
    ) -> Result<Solution, SolveError> {
        self.dispatch(options, workspace, None)
    }

    /// Solves the problem warm-started from a prior optimal [`Basis`]
    /// (obtained via [`Solution::basis`] on a related problem — same
    /// variable and row counts, typically a parameter sweep or an
    /// adaptive re-solve where only objective/RHS coefficients moved).
    ///
    /// When the basis is still primal feasible the solver skips phase 1
    /// and re-enters phase 2 directly
    /// ([`Solution::used_warm_start`] reports `true`). A basis that
    /// factors but is primal infeasible under the new RHS is *repaired*
    /// by [`Backend::Sparse`]: one extra artificial column makes it
    /// feasible and phase 1 runs from there (also reported as a warm
    /// start); [`Backend::Revised`] instead falls back to the cold
    /// two-phase path. A basis of the wrong shape, or a singular one,
    /// falls back cold on every backend, so `solve_warm` never returns a
    /// worse outcome than [`Problem::solve`].
    ///
    /// [`Backend::Revised`] and [`Backend::Sparse`] honor the hint; the
    /// dense oracle ignores it and solves cold.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`].
    pub fn solve_warm(
        &self,
        options: &SolverOptions,
        basis: &Basis,
    ) -> Result<Solution, SolveError> {
        self.solve_warm_with(options, &mut Workspace::new(), basis)
    }

    /// [`Problem::solve_warm`] reusing the caller's [`Workspace`] buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`].
    pub fn solve_warm_with(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
        basis: &Basis,
    ) -> Result<Solution, SolveError> {
        self.dispatch(options, workspace, Some(basis))
    }

    /// Validates and routes to the configured [`Backend`].
    fn dispatch(
        &self,
        options: &SolverOptions,
        workspace: &mut Workspace,
        warm: Option<&Basis>,
    ) -> Result<Solution, SolveError> {
        if self.objective.is_empty() {
            return Err(ProblemError::Empty.into());
        }
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err(ProblemError::NonFiniteCoefficient.into());
        }
        let obs = &options.obs;
        // The span closes after the pivot-count advance below, so its
        // tick extent equals this solve's pivots.
        let span = obs.span(match options.backend {
            Backend::DenseTableau => "lp.solve.dense",
            Backend::Revised => "lp.solve.revised",
            Backend::Sparse => "lp.solve.sparse",
        });
        let result = match options.backend {
            Backend::DenseTableau => simplex::solve(self, options, workspace),
            Backend::Revised => revised::solve(self, options, workspace, warm),
            Backend::Sparse => sparse::solve(self, options, workspace, warm),
        };
        if obs.is_enabled() {
            obs.counter("lp.solves").inc();
            if warm.is_some() {
                obs.counter("lp.warm_attempts").inc();
            }
            match &result {
                Ok(s) => {
                    let pivots = s.iterations() as u64;
                    obs.counter("lp.pivots").add(pivots);
                    obs.advance(pivots);
                    if s.used_warm_start() {
                        obs.counter("lp.warm_used").inc();
                    }
                }
                Err(_) => obs.counter("lp.errors").inc(),
            }
            let stats = match options.backend {
                Backend::DenseTableau => None,
                Backend::Revised => Some(&workspace.revised.stats),
                Backend::Sparse => Some(&workspace.sparse.stats),
            };
            if let Some(stats) = stats {
                obs.counter("lp.refactorizations")
                    .add(stats.refactorizations);
                if stats.phase1_early_exit {
                    obs.counter("lp.phase1_early_exits").inc();
                }
                if stats.warm_repaired {
                    obs.counter("lp.warm_repairs").inc();
                }
                let eta_len = obs.histogram("lp.eta_len");
                for &len in &stats.eta_lengths {
                    eta_len.record(len);
                }
            }
        }
        drop(span);
        result
    }

    /// Checks a candidate point against every constraint and the
    /// non-negativity bounds.
    ///
    /// Returns the largest violation (`≤ tol` means feasible within `tol`).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.constraints {
            worst = worst.max(c.violation(x));
        }
        for &v in x {
            worst = worst.max(-v);
        }
        worst
    }

    /// Evaluates the objective at `x` in the caller's sense.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        let v: f64 = self.objective.iter().zip(x).map(|(c, v)| c * v).sum();
        if self.minimize {
            -v
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        let err = p.add_le(vec![1.0], 1.0).unwrap_err();
        assert_eq!(
            err,
            ProblemError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn non_finite_is_rejected() {
        let mut p = Problem::maximize(vec![1.0]);
        assert_eq!(
            p.add_le(vec![f64::NAN], 1.0).unwrap_err(),
            ProblemError::NonFiniteCoefficient
        );
        assert_eq!(
            p.add_le(vec![1.0], f64::INFINITY).unwrap_err(),
            ProblemError::NonFiniteCoefficient
        );
    }

    #[test]
    fn ge_is_stored_negated() {
        let mut p = Problem::maximize(vec![1.0]);
        p.add_ge(vec![2.0], 4.0).unwrap();
        let c = &p.constraints()[0];
        assert_eq!(c.coeffs(), &[-2.0]);
        assert_eq!(c.rhs(), -4.0);
        assert_eq!(c.kind(), ConstraintKind::LessEq);
    }

    #[test]
    fn minimize_reports_original_sense() {
        let p = Problem::minimize(vec![3.0, -1.0]);
        assert_eq!(p.objective(), vec![3.0, -1.0]);
        assert!((p.objective_value(&[2.0, 1.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_rows_match_their_dense_equivalents() {
        let mut dense = Problem::maximize(vec![1.0; 4]);
        dense.add_le(vec![0.0, 2.0, 0.0, 3.0], 5.0).unwrap();
        dense.add_ge(vec![1.0, 0.0, 0.0, 0.0], 2.0).unwrap();
        dense.add_eq(vec![0.0, 0.0, 4.0, 0.0], 1.0).unwrap();
        let mut sparse = Problem::maximize(vec![1.0; 4]);
        sparse.add_le_sparse(&[(1, 2.0), (3, 3.0)], 5.0).unwrap();
        sparse.add_ge_sparse(&[(0, 1.0)], 2.0).unwrap();
        sparse.add_eq_sparse(&[(2, 4.0)], 1.0).unwrap();
        assert_eq!(dense, sparse);
        assert_eq!(sparse.constraints()[0].support(), &[1, 3]);
        assert_eq!(sparse.constraints()[0].nnz(), 2);
    }

    #[test]
    fn sparse_entry_validation() {
        let mut p = Problem::maximize(vec![1.0; 3]);
        // Duplicate / backwards columns get the dedicated error.
        assert_eq!(
            p.add_le_sparse(&[(1, 1.0), (1, 2.0)], 1.0).unwrap_err(),
            ProblemError::UnsortedSparseColumn { column: 1 }
        );
        assert_eq!(
            p.add_le_sparse(&[(2, 1.0), (0, 2.0)], 1.0).unwrap_err(),
            ProblemError::UnsortedSparseColumn { column: 0 }
        );
        assert!(matches!(
            p.add_le_sparse(&[(3, 1.0)], 1.0).unwrap_err(),
            ProblemError::OutOfRange { index: 3, .. }
        ));
        assert_eq!(
            p.add_le_sparse(&[(0, f64::NAN)], 1.0).unwrap_err(),
            ProblemError::NonFiniteCoefficient
        );
        assert_eq!(p.num_constraints(), 0, "failed adds leave no rows");
    }

    #[test]
    fn horizon_advance_tombstones_recycles_and_rolls_back() {
        // The time-expanded idiom from the mutator docs, end to end on a
        // 2-slot × 1-path horizon: capacity rows first (ring-indexed, row
        // s = slot s), then per-flow [serve, blackhole] blocks with a
        // Σx = 1 convexity row each.
        let opts = SolverOptions::default();
        let mut p = Problem::maximize(vec![]);
        let a = p.append_block(&[1.0, 0.0]).unwrap();
        p.add_le_sparse(&[(a.start, 1.0)], 0.8).unwrap(); // slot 0 capacity (ring 0); A serves in it
        p.add_le_sparse(&[], 0.8).unwrap(); // slot 1 capacity (ring 1)
        p.add_eq_sparse(&[(a.start, 1.0), (a.start + 1, 1.0)], 1.0)
            .unwrap();
        let b = p.append_block(&[0.6, 0.0]).unwrap();
        p.set_row_range(1, b.start, &[1.0]).unwrap(); // B serves in slot 1
        p.add_eq_sparse(&[(b.start, 1.0), (b.start + 1, 1.0)], 1.0)
            .unwrap();
        let full = p.solve(&opts).unwrap();
        assert!((full.objective() - (0.8 + 0.6 * 0.8)).abs() < 1e-9);

        // Advance: slot 0 expired. Tombstone A (Σx = 1 → 0) and recycle
        // its ring row in place as the incoming slot 2 — here a
        // zero-capacity maintenance slot. No rows or columns move.
        p.set_rhs(2, 0.0).unwrap(); // A's convexity row
        p.set_rhs(0, 0.0).unwrap(); // ring 0 is now slot 2
        p.set_row_range(0, a.start, &[0.0]).unwrap(); // A leaves the ring row
        let advanced = p.solve(&opts).unwrap();
        // The tombstone pins the whole dead block at zero ...
        let x = advanced.x();
        assert!(x[a.start].abs() < 1e-12 && x[a.start + 1].abs() < 1e-12);
        // ... and the optimum equals a fresh build of the truncated
        // horizon (flow B alone on slots 1–2).
        let mut fresh = Problem::maximize(vec![]);
        let fb = fresh.append_block(&[0.6, 0.0]).unwrap();
        fresh.add_le_sparse(&[], 0.0).unwrap();
        fresh.add_le_sparse(&[(fb.start, 1.0)], 0.8).unwrap();
        fresh
            .add_eq_sparse(&[(fb.start, 1.0), (fb.start + 1, 1.0)], 1.0)
            .unwrap();
        let rebuilt = fresh.solve(&opts).unwrap();
        assert!((advanced.objective() - rebuilt.objective()).abs() < 1e-9);

        // Rolling back the newest block really shrinks the problem back
        // to its pre-arrival state (truncate_rows then truncate_vars).
        let before = p.clone();
        let c = p.append_block(&[0.9, 0.0]).unwrap();
        p.set_row_range(1, c.start, &[1.0]).unwrap();
        p.add_eq_sparse(&[(c.start, 1.0), (c.start + 1, 1.0)], 1.0)
            .unwrap();
        p.truncate_rows(4);
        p.set_row_range(1, c.start, &[0.0]).unwrap();
        p.truncate_vars(c.start);
        assert_eq!(p, before);
    }

    #[test]
    fn violation_measures_both_kinds() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_le(vec![1.0, 1.0], 1.0).unwrap();
        p.add_eq(vec![1.0, -1.0], 0.0).unwrap();
        // x = (1, 0): row0 lhs = 1 (ok), row1 |1 - 0| = 1 violated.
        assert!((p.max_violation(&[1.0, 0.0]) - 1.0).abs() < 1e-12);
        // x = (0.5, 0.5): both satisfied.
        assert!(p.max_violation(&[0.5, 0.5]) < 1e-12);
        // negative coordinate violates x >= 0
        assert!((p.max_violation(&[-0.25, 0.25]) - 0.5).abs() < 1e-12);
    }
}
