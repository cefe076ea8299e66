//! Warm-basis repair: a sparse warm solve that starts from a stale basis
//! must return exactly what a cold solve returns.
//!
//! Random block-angular LPs in the fleet's joint shape (per block a
//! `Σx = 1` row and, for odd blocks, a quality-floor row; a few coupling
//! capacity rows over everything) walk a random sequence of membership
//! and capacity events: tombstone a block (`Σx = 1 → 0`, objective
//! zeroed, floor relaxed), revive it, or shrink a capacity row. Every
//! step is solved cold and warm-started from the last optimal basis the
//! walk produced. Tombstones, revives and shrinks leave that basis
//! primal infeasible more often than not, so the warm path goes through
//! the phase-1 repair. The warm solve must equal the cold one bit for
//! bit (`x`, objective, duals) and must give the same `Infeasible`
//! verdicts.

use dmc_lp::{Backend, Basis, Problem, SolveError, SolverOptions};
use proptest::prelude::*;

fn sparse_opts(obs: &dmc_obs::Obs) -> SolverOptions {
    SolverOptions {
        backend: Backend::Sparse,
        obs: obs.clone(),
        ..SolverOptions::default()
    }
}

/// Deterministic pseudo-random f64 in [0, 1) (SplitMix64).
fn mix(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A fleet-shaped LP plus the row indices a churn event touches.
struct BlockLp {
    problem: Problem,
    width: usize,
    couplings: usize,
    /// Per block: its `Σx` row and, for odd blocks, its floor row.
    eq_row: Vec<usize>,
    floor_row: Vec<Option<usize>>,
    /// The live objective and stored floor RHS, restored on revive.
    objective: Vec<f64>,
    floor_rhs: Vec<f64>,
}

fn build(blocks: usize, width: usize, couplings: usize, seed0: u64) -> BlockLp {
    let mut seed = seed0;
    let n = blocks * width;
    let objective: Vec<f64> = (0..n).map(|_| 0.2 + mix(&mut seed)).collect();
    let mut p = Problem::maximize(objective.clone());
    for _ in 0..couplings {
        let row: Vec<f64> = (0..n).map(|_| 0.05 + mix(&mut seed)).collect();
        let rhs = (0.3 + 0.8 * mix(&mut seed)) * blocks as f64 * 0.55;
        p.add_le(row, rhs).unwrap();
    }
    let mut eq_row = Vec::new();
    let mut floor_row = Vec::new();
    let mut floor_rhs = Vec::new();
    for f in 0..blocks {
        if f % 2 == 1 {
            let mut row = vec![0.0; n];
            let mut best: f64 = 0.0;
            for j in f * width..(f + 1) * width {
                row[j] = objective[j];
                best = best.max(objective[j]);
            }
            p.add_ge(row, best * 0.5 * mix(&mut seed)).unwrap();
            let r = p.num_constraints() - 1;
            floor_row.push(Some(r));
            floor_rhs.push(p.constraints()[r].rhs());
        } else {
            floor_row.push(None);
            floor_rhs.push(0.0);
        }
        let mut row = vec![0.0; n];
        for v in &mut row[f * width..(f + 1) * width] {
            *v = 1.0;
        }
        p.add_eq(row, 1.0).unwrap();
        eq_row.push(p.num_constraints() - 1);
    }
    p.set_block_starts((0..blocks).map(|f| f * width).collect())
        .unwrap();
    BlockLp {
        problem: p,
        width,
        couplings,
        eq_row,
        floor_row,
        objective,
        floor_rhs,
    }
}

impl BlockLp {
    fn tombstone(&mut self, f: usize) {
        let w = self.width;
        self.problem.set_rhs(self.eq_row[f], 0.0).unwrap();
        self.problem
            .set_objective_range(f * w, &vec![0.0; w])
            .unwrap();
        if let Some(r) = self.floor_row[f] {
            self.problem.set_rhs(r, 0.0).unwrap();
        }
    }

    fn revive(&mut self, f: usize) {
        let w = self.width;
        self.problem.set_rhs(self.eq_row[f], 1.0).unwrap();
        self.problem
            .set_objective_range(f * w, &self.objective[f * w..(f + 1) * w])
            .unwrap();
        if let Some(r) = self.floor_row[f] {
            self.problem.set_rhs(r, self.floor_rhs[f]).unwrap();
        }
    }

    fn shrink(&mut self, k: usize, factor: f64) {
        let rhs = self.problem.constraints()[k].rhs();
        self.problem.set_rhs(k, rhs * factor).unwrap();
    }

    /// Applies event `code` (drawn uniformly) to the LP.
    fn apply(&mut self, code: u64, factor: f64) {
        let blocks = self.eq_row.len();
        let f = (code / 3) as usize % blocks;
        match code % 3 {
            0 => self.tombstone(f),
            1 => self.revive(f),
            _ => self.shrink((code / 3) as usize % self.couplings, factor),
        }
    }
}

/// Walks `events` over a random block LP, comparing a warm solve from
/// the last optimal basis with a cold solve at every step.
fn walk(
    blocks: usize,
    width: usize,
    seed: u64,
    events: &[(u64, f64)],
    obs: &dmc_obs::Obs,
) -> Result<(), TestCaseError> {
    let mut lp = build(blocks, width, 2, seed);
    let opts = sparse_opts(obs);
    let mut basis: Option<Basis> = None;
    for (step, &(code, factor)) in events.iter().enumerate() {
        if step > 0 {
            lp.apply(code, factor);
        }
        let p = &lp.problem;
        let cold = p.solve(&opts);
        let warm = basis.as_ref().map(|b| p.solve_warm(&opts, b));
        if let Some(warm) = warm {
            match (&warm, &cold) {
                (Ok(w), Ok(c)) => {
                    prop_assert_eq!(w.x(), c.x(), "step {}: warm x != cold x", step);
                    prop_assert_eq!(w.objective().to_bits(), c.objective().to_bits());
                    prop_assert_eq!(w.duals(), c.duals(), "step {}: duals", step);
                }
                (Err(SolveError::Infeasible { .. }), Err(SolveError::Infeasible { .. })) => {}
                (w, c) => {
                    return Err(TestCaseError(format!(
                        "step {step}: warm {w:?} vs cold {c:?}"
                    )))
                }
            }
        }
        if let Ok(c) = &cold {
            basis = c.basis().cloned();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tombstone / revive / capacity-shrink walks: repaired warm solves
    /// equal cold solves bit for bit and agree on infeasibility.
    #[test]
    fn repaired_warm_solves_equal_cold_solves(
        blocks in 2usize..9,
        width in 2usize..7,
        seed in any::<u64>(),
        events in proptest::collection::vec((0u64..1_000, 0.5f64..0.95), 3..10),
    ) {
        walk(blocks, width, seed, &events, &dmc_obs::Obs::disabled())?;
    }
}

/// The fixed walks above must actually reach the repair: a generator
/// that only ever produced still-feasible bases would test nothing.
#[test]
fn churn_walks_reach_the_repair() {
    let obs = dmc_obs::Obs::enabled();
    let mut seed = 17u64;
    for case in 0..24u64 {
        let events: Vec<(u64, f64)> = (0..8)
            .map(|_| ((mix(&mut seed) * 1e3) as u64, 0.5 + 0.45 * mix(&mut seed)))
            .collect();
        walk(2 + (case as usize % 6), 3, case, &events, &obs).unwrap();
    }
    let snap = obs.snapshot();
    assert!(
        snap.counter("lp.warm_repairs").unwrap_or(0) > 0,
        "no repair ran"
    );
    assert!(snap.counter("lp.warm_used").unwrap_or(0) > 0);
}

/// A fixed walk: blocks, width, LP seed and events.
type Walk<'a> = (usize, usize, u64, &'a [(u64, f64)]);

/// Walks that end on a degenerate vertex (a tombstoned block's `Σx = 0`
/// row, a floor relaxed to zero) where the warm and cold pivot paths
/// stop on different bases of the same `x`. Without the basis
/// canonicalization their duals differ; found by searching random walks.
#[test]
fn degenerate_walks_report_the_cold_duals() {
    let obs = dmc_obs::Obs::disabled();
    let walks: [Walk<'_>; 3] = [
        (
            4,
            4,
            292,
            &[(944, 0.769512937740815), (807, 0.7029204502692883)],
        ),
        (
            4,
            4,
            4878,
            &[(629, 0.7541600990745372), (501, 0.5367079505592914)],
        ),
        (
            3,
            4,
            235,
            &[
                (556, 0.8862434280716959),
                (20, 0.5543858461952275),
                (237, 0.5006976268674022),
            ],
        ),
    ];
    for (blocks, width, seed, events) in walks {
        walk(blocks, width, seed, events, &obs).unwrap();
    }
}
