//! The shape-keyed warm-start solver every planner solves through.
//!
//! A re-solve that only moves objective/RHS coefficients can usually
//! re-enter phase 2 from the previous optimal basis. [`WarmSolver`] keeps
//! the last optimal basis per problem *shape* ([`JointShapeKey`]), feeds
//! it to [`Problem::solve_warm_with`] on the next same-shaped solve, and
//! owns the policy around it: a warm-path numerical anomaly drops that
//! shape's basis and retries cold, the cache restarts once it holds
//! [`WarmSolver::MAX_SHAPES`] shapes, and hits, misses and anomalies are
//! counted both locally and on a caller-named set of `dmc_obs` counters.
//!
//! Warm and cold solves of the same problem report bit-identical
//! vertices (the revised and sparse backends canonicalize their answer),
//! so the cache is purely a performance device.

use crate::Workspace;
use crate::{Basis, ConstraintKind, Problem, Solution, SolveError, SolveStatus, SolverOptions};
use std::collections::BTreeMap;
use std::fmt;

/// Warm-start cache counters of a [`WarmSolver`] — and so of every
/// planner that solves through one: how re-solves split between basis
/// reuse and cold solves.
///
/// An *attempt* is a solve for which a cached basis of the right shape
/// existed; it becomes a *hit* when the solver actually re-entered
/// phase 2 from that basis, and a *miss* when the basis had gone stale
/// (infeasible under the new coefficients, singular) and the solver fell
/// back to a cold two-phase solve. Solves with no cached basis at all
/// (first solve of a shape, cache disabled) count in neither bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WarmStats {
    /// Warm-start attempts that re-entered phase 2 from the cached basis.
    pub hits: u64,
    /// Warm-start attempts that fell back to a cold solve.
    pub misses: u64,
}

impl WarmStats {
    /// Total solves that consulted a cached basis (`hits + misses`).
    pub fn attempts(&self) -> u64 {
        self.hits + self.misses
    }
}

impl fmt::Display for WarmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} warm hit(s) / {} attempt(s)",
            self.hits,
            self.attempts()
        )
    }
}

/// Cache key for warm-start bases: the shape of an assembled LP.
///
/// Two problems of equal shape can exchange bases — basis feasibility
/// depends only on the coefficients, which the solver re-checks on every
/// warm start. The row-kind pattern is folded into an FNV-1a hash so
/// problems of any size stay cacheable; a hash collision can at worst
/// hand the solver a basis it validates and rejects, falling back to a
/// cold solve.
///
/// The hash also tags each row with whether its RHS is exactly zero. An
/// incrementally maintained joint LP tombstones a departed block by
/// zeroing its `Σx` row; the tombstoned block and its revived
/// re-occupation share the LP's *shape*, but their optimal bases are
/// mutually infeasible (`Σx = 0` vs `Σx = 1`). Keying on the zero-RHS
/// pattern gives each churn phase its own cache entry, so steady-state
/// churn alternates between two entries that both keep hitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JointShapeKey {
    n_vars: usize,
    n_rows: usize,
    kind_hash: u64,
}

impl JointShapeKey {
    /// The key of `problem`'s current shape.
    pub fn of(problem: &Problem) -> Self {
        let mut kind_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for c in problem.constraints() {
            let kind: u64 = match c.kind() {
                ConstraintKind::LessEq => 1,
                ConstraintKind::Eq => 2,
            };
            // dmc-lint: allow(float-exact) shape-key tag: structurally-zero RHS (tombstoned rows, quality floors) is written bitwise as 0.0, never computed
            let tag = kind * 2 + u64::from(c.rhs() == 0.0);
            kind_hash ^= tag;
            kind_hash = kind_hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        JointShapeKey {
            n_vars: problem.num_vars(),
            n_rows: problem.num_constraints(),
            kind_hash,
        }
    }
}

/// The `dmc_obs` counter names a [`WarmSolver`] reports under — the
/// same three events, named with each caller's prefix (`planner.` for
/// the single-flow planner, `fleet.` for the joint fleet LPs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmCounters {
    /// Warm attempts that re-entered phase 2 from the cached basis.
    pub hits: &'static str,
    /// Warm attempts that fell back to a cold solve (or failed).
    pub misses: &'static str,
    /// Warm-path anomalies that dropped the basis and retried cold.
    pub anomalies: &'static str,
}

/// A solver front end with a shape-keyed warm-start basis cache.
///
/// ```
/// use dmc_lp::{Problem, SolverOptions, WarmCounters, WarmSolver};
///
/// # fn main() -> Result<(), dmc_lp::SolveError> {
/// let mut solver = WarmSolver::new(WarmCounters {
///     hits: "demo.warm_hits",
///     misses: "demo.warm_misses",
///     anomalies: "demo.warm_anomalies",
/// });
/// let opts = SolverOptions::default();
/// for rhs in [3.0, 3.5, 4.0] {
///     let mut p = Problem::maximize(vec![1.0, 2.0]);
///     p.add_le(vec![1.0, 1.0], rhs)?;
///     let s = solver.solve(&p, &opts, true, &opts.obs)?;
///     assert!((s.objective() - 2.0 * rhs).abs() < 1e-9);
/// }
/// assert_eq!(solver.cached_bases(), 1);
/// assert_eq!(solver.stats().hits, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WarmSolver {
    counters: WarmCounters,
    workspace: Workspace,
    bases: BTreeMap<JointShapeKey, Basis>,
    attempts: u64,
    hits: u64,
    anomalies: u64,
}

impl WarmSolver {
    /// Bound on cached shapes; a caller cycling through more shapes than
    /// this restarts its cache (sweeps and churn touch a few).
    pub const MAX_SHAPES: usize = 64;

    /// An empty cache reporting under `counters`.
    pub fn new(counters: WarmCounters) -> Self {
        WarmSolver {
            counters,
            workspace: Workspace::new(),
            bases: BTreeMap::new(),
            attempts: 0,
            hits: 0,
            anomalies: 0,
        }
    }

    /// Solves `problem`, warm-starting from the cached basis of its shape
    /// when `warm_start` is set, and caches the new optimal basis.
    ///
    /// A singular basis or a pivot-cap abort on the warm path is a
    /// numerical anomaly, not a verdict about the problem: the shape's
    /// basis is dropped and the problem is re-solved cold. Any other warm
    /// error (infeasibility, say) is returned as is and keeps the basis.
    /// Hit, miss and anomaly events go to `obs` under this solver's
    /// counter names.
    ///
    /// # Errors
    ///
    /// As [`Problem::solve_with`].
    pub fn solve(
        &mut self,
        problem: &Problem,
        opts: &SolverOptions,
        warm_start: bool,
        obs: &dmc_obs::Obs,
    ) -> Result<Solution, SolveError> {
        let key = warm_start.then(|| JointShapeKey::of(problem));
        let solution = match key.and_then(|k| self.bases.get(&k)) {
            Some(basis) => {
                self.attempts += 1;
                match problem.solve_warm_with(opts, &mut self.workspace, basis) {
                    Ok(s) => {
                        if s.used_warm_start() {
                            self.hits += 1;
                            obs.counter(self.counters.hits).inc();
                        } else {
                            obs.counter(self.counters.misses).inc();
                        }
                        s
                    }
                    Err(e) if SolveStatus::of_error(&e).is_anomaly() => {
                        self.anomalies += 1;
                        obs.counter(self.counters.anomalies).inc();
                        obs.counter(self.counters.misses).inc();
                        if let Some(k) = key {
                            self.bases.remove(&k);
                        }
                        problem.solve_with(opts, &mut self.workspace)?
                    }
                    Err(e) => {
                        obs.counter(self.counters.misses).inc();
                        return Err(e);
                    }
                }
            }
            None => problem.solve_with(opts, &mut self.workspace)?,
        };
        if let (Some(k), Some(basis)) = (key, solution.basis()) {
            if self.bases.len() >= Self::MAX_SHAPES && !self.bases.contains_key(&k) {
                self.bases.clear();
            }
            self.bases.insert(k, basis.clone());
        }
        Ok(solution)
    }

    /// Hit/miss counters of the solves that consulted a cached basis.
    pub fn stats(&self) -> WarmStats {
        WarmStats {
            hits: self.hits,
            misses: self.attempts - self.hits,
        }
    }

    /// Warm-path anomalies that forced a cold re-solve.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Number of shapes with a cached basis.
    pub fn cached_bases(&self) -> usize {
        self.bases.len()
    }

    /// Drops every cached basis (subsequent solves start cold).
    pub fn clear(&mut self) {
        self.bases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    const COUNTERS: WarmCounters = WarmCounters {
        hits: "test.warm_hits",
        misses: "test.warm_misses",
        anomalies: "test.warm_anomalies",
    };

    /// Two blocks of `width` columns coupled by one capacity row (column
    /// `j` of a block uses `1 + j`, so the row binds below `2·width`);
    /// each block sums to `mass` (0 tombstones it).
    fn block_lp(width: usize, cap: f64, mass: [f64; 2]) -> Problem {
        let mut p = Problem::maximize(Vec::new());
        for b in 0..2 {
            let obj: Vec<f64> = (0..width).map(|j| 1.0 + (b * width + j) as f64).collect();
            p.append_block(&obj).unwrap();
        }
        let cap_row: Vec<(usize, f64)> = (0..2 * width)
            .map(|j| (j, 1.0 + (j % width) as f64))
            .collect();
        p.add_le_sparse(&cap_row, cap).unwrap();
        for (b, &m) in mass.iter().enumerate() {
            let ones: Vec<(usize, f64)> = (b * width..(b + 1) * width).map(|j| (j, 1.0)).collect();
            p.add_eq_sparse(&ones, m).unwrap();
        }
        p
    }

    fn opts() -> SolverOptions {
        SolverOptions {
            backend: Backend::Sparse,
            ..SolverOptions::default()
        }
    }

    #[test]
    fn zero_rhs_tag_keeps_a_tombstoned_shape_apart_from_its_live_twin() {
        let live = block_lp(3, 4.0, [1.0, 1.0]);
        let tomb = block_lp(3, 4.0, [1.0, 0.0]);
        assert_eq!(live.num_vars(), tomb.num_vars());
        assert_eq!(live.num_constraints(), tomb.num_constraints());
        assert_ne!(JointShapeKey::of(&live), JointShapeKey::of(&tomb));
        let mut solver = WarmSolver::new(COUNTERS);
        solver
            .solve(&live, &opts(), true, &dmc_obs::Obs::disabled())
            .unwrap();
        solver
            .solve(&tomb, &opts(), true, &dmc_obs::Obs::disabled())
            .unwrap();
        assert_eq!(solver.cached_bases(), 2);
        // Neither solve consulted the other's basis.
        assert_eq!(solver.stats().attempts(), 0);
    }

    #[test]
    fn the_cache_clears_at_the_bound() {
        let mut solver = WarmSolver::new(COUNTERS);
        let off = dmc_obs::Obs::disabled();
        for width in 1..=WarmSolver::MAX_SHAPES {
            solver
                .solve(&block_lp(width, 1e3, [1.0, 1.0]), &opts(), true, &off)
                .unwrap();
        }
        assert_eq!(solver.cached_bases(), WarmSolver::MAX_SHAPES);
        // A cached shape does not evict anything…
        solver
            .solve(&block_lp(1, 1e3, [1.0, 1.0]), &opts(), true, &off)
            .unwrap();
        assert_eq!(solver.cached_bases(), WarmSolver::MAX_SHAPES);
        // …a new one past the bound restarts the cache.
        let next = WarmSolver::MAX_SHAPES + 1;
        solver
            .solve(&block_lp(next, 1e3, [1.0, 1.0]), &opts(), true, &off)
            .unwrap();
        assert_eq!(solver.cached_bases(), 1);
        // Without warm starts nothing is cached at all.
        let mut cold = WarmSolver::new(COUNTERS);
        cold.solve(&block_lp(2, 1e3, [1.0, 1.0]), &opts(), false, &off)
            .unwrap();
        assert_eq!(cold.cached_bases(), 0);
    }

    #[test]
    fn a_pivot_cap_anomaly_evicts_only_that_shape_and_retries_cold() {
        let obs = dmc_obs::Obs::enabled();
        let opts = || SolverOptions {
            obs: obs.clone(),
            ..opts()
        };
        let mut solver = WarmSolver::new(COUNTERS);
        let roomy = block_lp(4, 100.0, [1.0, 1.0]);
        let other = block_lp(2, 100.0, [1.0, 1.0]);
        solver.solve(&roomy, &opts(), true, &obs).unwrap();
        solver.solve(&other, &opts(), true, &obs).unwrap();
        assert_eq!(solver.cached_bases(), 2);
        // Same shape, but the capacity now binds: the cached vertex is
        // stale, so one pivot cannot finish the warm path.
        let tight = block_lp(4, 3.0, [1.0, 1.0]);
        let capped = SolverOptions {
            max_iterations: 1,
            ..opts()
        };
        let solves_before = obs.snapshot().counter("lp.solves").unwrap_or(0);
        let err = solver.solve(&tight, &capped, true, &obs).unwrap_err();
        assert!(matches!(err, SolveError::IterationLimit { .. }), "{err:?}");
        assert_eq!(solver.anomalies(), 1);
        assert_eq!(solver.cached_bases(), 1, "only the offending shape goes");
        let snap = obs.snapshot();
        // The warm attempt and its cold retry.
        assert_eq!(snap.counter("lp.solves").unwrap_or(0), solves_before + 2);
        assert_eq!(snap.counter("test.warm_anomalies"), Some(1));
        assert_eq!(snap.counter("test.warm_misses"), Some(1));
        // The surviving shape still warm-starts.
        let hits = solver.stats().hits;
        solver.solve(&other, &opts(), true, &obs).unwrap();
        assert_eq!(solver.stats().hits, hits + 1);
    }

    #[test]
    fn warm_and_cold_solves_agree_bit_for_bit() {
        let mut warm = WarmSolver::new(COUNTERS);
        let mut cold = WarmSolver::new(COUNTERS);
        let off = dmc_obs::Obs::disabled();
        for (cap, mass) in [
            (4.0, [1.0, 1.0]),
            (4.5, [1.0, 1.0]),
            (5.0, [1.0, 0.0]),
            (4.25, [1.0, 1.0]),
            (5.5, [1.0, 0.0]),
        ] {
            let p = block_lp(3, cap, mass);
            let a = warm.solve(&p, &opts(), true, &off).unwrap();
            let b = cold.solve(&p, &opts(), false, &off).unwrap();
            assert_eq!(a.x(), b.x(), "cap {cap}");
            assert_eq!(a.objective().to_bits(), b.objective().to_bits());
        }
        assert!(warm.stats().hits > 0, "{}", warm.stats());
        assert_eq!(cold.stats(), WarmStats::default());
    }
}
