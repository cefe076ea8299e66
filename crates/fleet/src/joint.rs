//! The joint-LP core under both fleet planners.
//!
//! [`FleetPlanner`](crate::FleetPlanner)'s joint LP is the one-slot case
//! of [`SchedulePlanner`](crate::SchedulePlanner)'s time-expanded LP: on
//! a one-slot grid every window is `SlotWindow::instant(0)`, and the
//! time-expanded assembly emits exactly the `Problem` mutation sequence
//! of the instant formulation (`λ·1.0 ≡ λ`, `1.0/1.0 ≡ 1.0` in IEEE).
//! So both planners are thin policy layers over one [`JointCore`]:
//!
//! * one incremental assembly, [`SchedAssembly`]: blocks are placed,
//!   tombstoned in place (the LP keeps its shape, so the warm basis keeps
//!   applying), rolled back exactly when a tentative candidate fails, and
//!   rescaled from the per-flow models with fresh arithmetic on every
//!   solve;
//! * one warm-start solver, [`dmc_lp::WarmSolver`], reporting under the
//!   `fleet.warm_*` counters, with the feasibility certificate replayed
//!   after every joint solve in debug builds (and whenever
//!   [`FleetConfig::certify`] is set);
//! * one membership engine: shared paths and their link changes, the
//!   per-flow models, member state, solving with any number of tentative
//!   candidates, in-place plan refresh, the priority order re-admission
//!   follows, and tombstone compaction.
//!
//! The policies stay with the planners: batch admission, the greedy/EDF
//! fallback and the shed queue in `FleetPlanner`; the reservation slide,
//! `advance_to` and maintenance windows in `SchedulePlanner`.
//!
//! With [`FleetConfig::incremental`] off, the instant planner still
//! rebuilds its LP from scratch with [`assemble_joint`] on every solve —
//! the independent oracle the incremental path is differentially tested
//! against — and the time-expanded planner rebuilds a fresh assembly.

use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::planner::{FleetConfig, FleetObjective};
use crate::schedule::{ScheduleRequest, SlotWindow, TimeGrid};
use dmc_core::{Objective, Plan, Planner, Scenario, ScenarioModel, ScenarioPath};
use dmc_lp::{Problem, Solution, SolveError, SolverOptions, WarmCounters, WarmSolver};
use dmc_sim::LinkChange;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// The `dmc_obs` counters the joint solves' warm-start cache reports
/// under.
const WARM_COUNTERS: WarmCounters = WarmCounters {
    hits: "fleet.warm_hits",
    misses: "fleet.warm_misses",
    anomalies: "fleet.warm_anomalies",
};

/// Compact the incremental assembly once it holds at least this many
/// blocks *and* tombstoned blocks outnumber the active ones.
pub(crate) const COMPACT_MIN_SLOTS: usize = 8;

/// One shared path's mutable state (the base description plus the link
/// dynamics applied so far).
#[derive(Debug, Clone)]
pub(crate) struct SharedPath {
    pub(crate) base: ScenarioPath,
    pub(crate) bandwidth: f64,
    pub(crate) loss: f64,
    pub(crate) failed: bool,
}

impl SharedPath {
    fn from_scenario(p: ScenarioPath) -> Self {
        SharedPath {
            bandwidth: p.bandwidth(),
            loss: p.loss(),
            failed: false,
            base: p,
        }
    }

    fn effective(&self) -> Result<ScenarioPath, FleetError> {
        let loss = if self.failed { 1.0 } else { self.loss };
        ScenarioPath::new(
            self.bandwidth,
            Arc::clone(self.base.delay()),
            loss,
            self.base.cost(),
        )
        .map_err(FleetError::Spec)
    }
}

/// The flow-local index of global path `k` under an optional path subset
/// (`None` = the identity mapping: the flow's model covers every shared
/// path), or `None` when the flow does not use the path at all.
pub(crate) fn local_path_index(subset: Option<&[usize]>, k: usize) -> Option<usize> {
    match subset {
        None => Some(k),
        Some(s) => s.binary_search(&k).ok(),
    }
}

/// Sorts highest priority first, admission (id) order within ties — the
/// order in which resettle, revive and settle re-admit flows, so
/// equal-priority fleets shed in admission order.
pub(crate) fn sort_by_priority<T>(items: &mut [T], key: impl Fn(&T) -> (f64, FlowId)) {
    items.sort_by(|a, b| {
        let (pa, ia) = key(a);
        let (pb, ib) = key(b);
        pb.partial_cmp(&pa)
            .expect("priorities are finite")
            .then(ia.cmp(&ib))
    });
}

/// One admitted flow: its request, its model against the current shared
/// paths, its slice of the current joint allocation and its block in the
/// incremental assembly.
#[derive(Debug)]
pub(crate) struct Member {
    pub(crate) id: FlowId,
    pub(crate) request: ScheduleRequest,
    pub(crate) model: ScenarioModel,
    /// Aggregate plan over the window, decomposed from the slot-summed
    /// assignment.
    pub(crate) plan: Plan,
    /// The block's raw solution — window-slot-major assignment segments,
    /// then carry levels — kept for multi-slot windows only: a
    /// single-slot block's assignment is the plan's own `x`.
    raw: Vec<f64>,
    /// Largest buffer level the allocation uses (0 without buffering).
    pub(crate) peak_carry: f64,
    /// Index into the assembly's block table (unused on the rebuild
    /// path).
    pub(crate) slot: usize,
}

impl Member {
    fn new(
        id: FlowId,
        request: ScheduleRequest,
        model: ScenarioModel,
        slot: usize,
        raw: Vec<f64>,
    ) -> Self {
        let (plan, raw, peak_carry) = decompose(&model, request.window().len(), raw);
        Member {
            id,
            request,
            model,
            plan,
            raw,
            peak_carry,
            slot,
        }
    }

    /// Re-packages the member's block of a fresh joint solution in place.
    fn refresh(&mut self, raw: &[f64]) {
        let (plan, raw, peak_carry) =
            decompose(&self.model, self.request.window().len(), raw.to_vec());
        self.plan = plan;
        self.raw = raw;
        self.peak_carry = peak_carry;
    }

    /// The assignment segment of the window's `i`-th slot.
    pub(crate) fn slot_x(&self, i: usize) -> &[f64] {
        if self.raw.is_empty() {
            self.plan.strategy().x()
        } else {
            let n = self.model.num_combos();
            &self.raw[i * n..(i + 1) * n]
        }
    }
}

/// Splits a block's raw solution into the plan of its slot-summed
/// assignment (fed to `plan_for` exactly like the instant planner's),
/// the raw vector worth keeping, and the peak carry level. A single-slot
/// block *is* its assignment, so it moves into the plan uncopied.
fn decompose(model: &ScenarioModel, len: usize, raw: Vec<f64>) -> (Plan, Vec<f64>, f64) {
    if len == 1 {
        return (model.plan_for(Objective::MaxQuality, raw), Vec::new(), 0.0);
    }
    let n = model.num_combos();
    let mut total = raw[..n].to_vec();
    for seg in raw[n..len * n].chunks_exact(n) {
        for (t, v) in total.iter_mut().zip(seg) {
            *t += v;
        }
    }
    let peak_carry = raw[len * n..].iter().copied().fold(0.0, f64::max);
    (
        model.plan_for(Objective::MaxQuality, total),
        raw,
        peak_carry,
    )
}

/// One flow's block in the assembly: `L·n` assignment columns
/// (window-slot-major) plus `carry` buffer columns, its optional
/// cost/floor rows, its `L` balance rows and `carry` cap rows.
/// Tombstoning zeroes the balance/floor/cap RHS — forcing the whole
/// block to zero without changing the LP's shape — and a later flow
/// with the same width, window length, buffering and window *ring
/// phase* takes the block over in place.
#[derive(Debug, Clone)]
pub(crate) struct SchedSlot {
    cols: Range<usize>,
    window: SlotWindow,
    n_combos: usize,
    carry: usize,
    cost_row: Option<usize>,
    floor_row: Option<usize>,
    /// First of the `window.len()` balance rows (contiguous).
    balance_start: usize,
    /// First of the `carry` buffer-cap rows (contiguous, after balance).
    cap_start: usize,
    active: bool,
}

impl SchedSlot {
    /// Column offset of window-slot `i`'s assignment segment.
    fn combo_start(&self, i: usize) -> usize {
        self.cols.start + i * self.n_combos
    }
}

/// How a tentative placement got its block (so a rejected candidate can
/// be rolled back exactly).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Placement {
    /// A brand-new block was appended; these were the sizes before.
    Appended { prev_vars: usize, prev_rows: usize },
    /// An existing tombstoned block was re-activated in place.
    Reused,
}

/// The incrementally maintained time-expanded joint LP.
///
/// Row layout: the `S·K` ring-indexed per-slot capacity rows first
/// (`row(s, k) = (s mod S)·K + k`, so a slot's rows never move as the
/// horizon advances), then per-block rows in block order — optional
/// cost row, optional floor row, the `L` balance equalities, the `carry`
/// buffer caps. At `S = 1`, `L = 1`, no buffering, this is exactly the
/// row order [`assemble_joint`] emits, so a freshly populated assembly
/// and a from-scratch rebuild produce the *same* [`Problem`].
///
/// Membership changes move the aggregate volume rate `Λ`, which scales
/// the objective, the capacity rows and their RHS.
/// [`SchedAssembly::rescale`] recomputes those segments **from the
/// per-flow models with fresh arithmetic** (never by multiplying running
/// values), so the coefficients are a pure function of the current
/// membership — history cannot leak into the numerics, which is what
/// keeps trace replay and warm-vs-cold comparisons bit-identical.
#[derive(Debug)]
pub(crate) struct SchedAssembly {
    pub(crate) problem: Problem,
    pub(crate) slots: Vec<SchedSlot>,
    /// Scratch for scaled coefficient segments.
    seg: Vec<f64>,
}

impl SchedAssembly {
    pub(crate) fn new() -> Self {
        SchedAssembly {
            problem: Problem::maximize(Vec::new()),
            slots: Vec::new(),
            seg: Vec::new(),
        }
    }

    /// A compatible tombstoned block: same assignment width, window
    /// length, buffering, row pattern *and ring phase* (the capacity
    /// rows a block touches are baked into its coefficients, so only a
    /// window hitting the same rings can take the block over).
    fn reusable_slot(&self, grid: &TimeGrid, req: &ScheduleRequest, n: usize) -> Option<usize> {
        let window = req.window();
        let carry = carry_vars(req);
        let has_cost = req.flow().cost_budget().is_finite();
        let has_floor = req.flow().min_quality() > 0.0;
        self.slots.iter().position(|s| {
            !s.active
                && s.n_combos == n
                && s.window.len() == window.len()
                && s.carry == carry
                && grid.ring(s.window.start()) == grid.ring(window.start())
                && s.cost_row.is_some() == has_cost
                && s.floor_row.is_some() == has_floor
        })
    }

    /// Places a flow's block — reusing a compatible tombstone in place,
    /// else appending (adding the `S·K` shared capacity rows first if
    /// this is the very first block). Objective and shared-row segments
    /// are left to [`SchedAssembly::rescale`], which every solve runs.
    pub(crate) fn place(
        &mut self,
        grid: &TimeGrid,
        n_paths: usize,
        req: &ScheduleRequest,
        model: &ScenarioModel,
    ) -> (usize, Placement) {
        let n = model.num_combos();
        let window = req.window();
        let len = window.len();
        let carry = carry_vars(req);
        let g = 1.0 / len as f64;
        if let Some(idx) = self.reusable_slot(grid, req, n) {
            let slot = self.slots[idx].clone();
            if let Some(row) = slot.cost_row {
                self.seg.clear();
                for _ in 0..len {
                    self.seg.extend_from_slice(model.cost_coeffs());
                }
                self.seg.resize(len * n + carry, 0.0);
                let seg = std::mem::take(&mut self.seg);
                self.problem
                    .set_row_range(row, slot.cols.start, &seg)
                    .expect("cost segment fits");
                self.problem
                    .set_rhs(row, req.flow().cost_budget() / req.flow().data_rate())
                    .expect("row index recorded at assembly stays in range");
                self.seg = seg;
            }
            if let Some(row) = slot.floor_row {
                // `add_ge` stores the row negated; patch it the same way.
                self.seg.clear();
                for _ in 0..len {
                    self.seg.extend(model.quality_coeffs().iter().map(|p| -p));
                }
                self.seg.resize(len * n + carry, 0.0);
                let seg = std::mem::take(&mut self.seg);
                self.problem
                    .set_row_range(row, slot.cols.start, &seg)
                    .expect("floor segment fits");
                self.problem
                    .set_rhs(row, -req.flow().min_quality())
                    .expect("row index recorded at assembly stays in range");
                self.seg = seg;
            }
            for i in 0..len {
                self.problem
                    .set_rhs(slot.balance_start + i, g)
                    .expect("balance row exists");
            }
            for i in 0..carry {
                self.problem
                    .set_rhs(slot.cap_start + i, req.buffer() * g)
                    .expect("cap row exists");
            }
            self.slots[idx].active = true;
            self.slots[idx].window = window;
            return (idx, Placement::Reused);
        }

        // Append a fresh block.
        let prev_vars = self.problem.num_vars();
        let prev_rows = self.problem.num_constraints();
        let width = len * n + carry;
        self.seg.clear();
        self.seg.resize(width, 0.0);
        let seg = std::mem::take(&mut self.seg);
        let cols = self.problem.append_block(&seg).expect("nonempty block");
        self.seg = seg;
        if prev_rows == 0 {
            // First block: create the S·K ring-indexed capacity rows
            // (coefficients and RHS are rescale's job).
            for _ in 0..grid.horizon() * n_paths {
                self.problem
                    .add_le_sparse(&[], 1.0)
                    .expect("empty shared row");
            }
        }
        let cost_row = req.flow().cost_budget().is_finite().then(|| {
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for i in 0..len {
                entries.extend(
                    model
                        .cost_triplets()
                        .map(|(j, v)| (cols.start + i * n + j, v)),
                );
            }
            self.problem
                .add_le_sparse(&entries, req.flow().cost_budget() / req.flow().data_rate())
                .expect("valid cost row");
            self.problem.num_constraints() - 1
        });
        let floor_row = (req.flow().min_quality() > 0.0).then(|| {
            let mut entries: Vec<(usize, f64)> = Vec::new();
            for i in 0..len {
                entries.extend(
                    model
                        .quality_triplets()
                        .map(|(j, v)| (cols.start + i * n + j, v)),
                );
            }
            self.problem
                .add_ge_sparse(&entries, req.flow().min_quality())
                .expect("valid floor row");
            self.problem.num_constraints() - 1
        });
        let balance_start = self.problem.num_constraints();
        for i in 0..len {
            let mut entries: Vec<(usize, f64)> =
                (0..n).map(|j| (cols.start + i * n + j, 1.0)).collect();
            if carry > 0 {
                // Sparse rows want ascending columns: carry-in (slot
                // boundary i-1) sits below carry-out (boundary i).
                let carry_base = cols.start + len * n;
                if i >= 1 {
                    entries.push((carry_base + i - 1, -1.0));
                }
                if i < carry {
                    entries.push((carry_base + i, 1.0));
                }
            }
            self.problem
                .add_eq_sparse(&entries, g)
                .expect("valid balance row");
        }
        let cap_start = self.problem.num_constraints();
        for i in 0..carry {
            self.problem
                .add_le_sparse(&[(cols.start + len * n + i, 1.0)], req.buffer() * g)
                .expect("valid buffer cap row");
        }
        self.slots.push(SchedSlot {
            cols,
            window,
            n_combos: n,
            carry,
            cost_row,
            floor_row,
            balance_start,
            cap_start,
            active: true,
        });
        (
            self.slots.len() - 1,
            Placement::Appended {
                prev_vars,
                prev_rows,
            },
        )
    }

    /// Tombstones a block: objective and capacity-row segments zeroed,
    /// every balance RHS `1/L → 0` (with the floor and cap RHS relaxed
    /// to 0), which forces every variable of the block to zero — the
    /// balance rows telescope to `Σx = 0` — while preserving the LP's
    /// shape, so the cached basis of this shape keeps working.
    fn deactivate(&mut self, grid: &TimeGrid, n_paths: usize, idx: usize) {
        let slot = self.slots[idx].clone();
        self.seg.clear();
        self.seg.resize(slot.cols.len(), 0.0);
        let seg = std::mem::take(&mut self.seg);
        self.problem
            .set_objective_range(slot.cols.start, &seg)
            .expect("objective segment fits");
        for (i, s) in slot.window.slots().enumerate() {
            for k in 0..n_paths {
                self.problem
                    .set_row_range(
                        grid.ring(s) * n_paths + k,
                        slot.combo_start(i),
                        &seg[..slot.n_combos],
                    )
                    .expect("shared segment fits");
            }
        }
        self.seg = seg;
        for i in 0..slot.window.len() {
            self.problem
                .set_rhs(slot.balance_start + i, 0.0)
                .expect("balance row exists");
        }
        if let Some(row) = slot.floor_row {
            self.problem.set_rhs(row, 0.0).expect("floor row exists");
        }
        for i in 0..slot.carry {
            self.problem
                .set_rhs(slot.cap_start + i, 0.0)
                .expect("cap row exists");
        }
        self.slots[idx].active = false;
    }

    /// Rolls a tentative placement back. Appended placements **must** be
    /// rolled back in reverse order of placement — truncating a block
    /// from the middle would shift every later block's rows and columns
    /// under the block table — so an out-of-order rollback is a checked
    /// error (in release builds too), and callers rebuild the assembly
    /// from the members when it fires.
    pub(crate) fn rollback(
        &mut self,
        grid: &TimeGrid,
        n_paths: usize,
        idx: usize,
        placement: Placement,
    ) -> Result<(), FleetError> {
        match placement {
            Placement::Appended {
                prev_vars,
                prev_rows,
            } => {
                if idx + 1 != self.slots.len() {
                    return Err(FleetError::Invalid(format!(
                        "rollback out of order: appended slot {idx} is not the last of {} slots",
                        self.slots.len()
                    )));
                }
                self.problem.truncate_rows(prev_rows);
                self.problem.truncate_vars(prev_vars);
                self.slots.pop();
            }
            Placement::Reused => self.deactivate(grid, n_paths, idx),
        }
        Ok(())
    }

    /// Recomputes every Λ-dependent coefficient from the given membership
    /// (members plus tentative candidates) with fresh arithmetic:
    /// per-block objective segments `w·(λ_f·L_f/Λ)·p_f`, per-(slot, path)
    /// capacity segments `(λ_f·L_f/Λ)·usage_f`, and the capacity RHS
    /// `b_k(s)/Λ` — zero for maintenance slots. A flow restricted to a
    /// path subset ([`FlowRequest::with_paths`]) consumes nothing on the
    /// paths it does not use: its segment in those rows is structurally
    /// zero.
    fn rescale(
        &mut self,
        objective: FleetObjective,
        grid: &TimeGrid,
        paths: &[SharedPath],
        maintenance: &BTreeSet<(u64, usize)>,
        members: &[(usize, &ScheduleRequest, &ScenarioModel)],
    ) {
        let lambda_vol: f64 = members
            .iter()
            .map(|(_, r, _)| r.flow().data_rate() * r.window().len() as f64)
            .sum();
        let mut seg = std::mem::take(&mut self.seg);
        for &(slot_idx, r, m) in members {
            let (start, width) = {
                let slot = &self.slots[slot_idx];
                (slot.cols.start, slot.cols.len())
            };
            let n = m.num_combos();
            let len = r.window().len();
            let w = match objective {
                FleetObjective::WeightedFair => r.flow().priority(),
                FleetObjective::MaxAdmitted | FleetObjective::MaxTotalQuality => 1.0,
            };
            let share = r.flow().data_rate() * len as f64 / lambda_vol;
            seg.clear();
            for _ in 0..len {
                seg.extend(m.quality_coeffs().iter().map(|p| w * share * p));
            }
            seg.resize(width, 0.0);
            self.problem
                .set_objective_range(start, &seg)
                .expect("objective segment fits");
            for k in 0..paths.len() {
                for (i, s) in r.window().slots().enumerate() {
                    seg.clear();
                    match local_path_index(r.flow().paths(), k) {
                        Some(lk) => seg.extend(m.usage_coeffs(lk).iter().map(|u| share * u)),
                        None => seg.resize(n, 0.0),
                    }
                    self.problem
                        .set_row_range(grid.ring(s) * paths.len() + k, start + i * n, &seg)
                        .expect("shared segment fits");
                }
            }
        }
        for s in grid.origin()..grid.end() {
            for (k, path) in paths.iter().enumerate() {
                let rhs = if maintenance.contains(&(s, k)) {
                    0.0
                } else {
                    path.bandwidth / lambda_vol
                };
                self.problem
                    .set_rhs(grid.ring(s) * paths.len() + k, rhs)
                    .expect("shared row exists");
            }
        }
        self.seg = seg;
    }

    /// Number of tombstoned blocks.
    fn inactive_slots(&self) -> usize {
        self.slots.iter().filter(|s| !s.active).count()
    }
}

/// Number of carry (store-and-forward buffer) variables a request needs:
/// one per interior slot boundary when buffering is enabled, none for
/// single-slot windows or a zero buffer.
fn carry_vars(req: &ScheduleRequest) -> usize {
    if req.buffer() > 0.0 && req.window().len() > 1 {
        req.window().len() - 1
    } else {
        0
    }
}

/// Assembles the instant joint LP from scratch (see the `planner`
/// module docs for the formulation): the rebuild path of
/// [`FleetConfig::incremental`] = `false` and the differential tests'
/// oracle.
///
/// Row order matters twice over: with one floor-free flow the sequence —
/// shared capacity rows first (one per path, like the single-flow
/// planner), then the flow's cost/floor rows and its `Σx = 1` — is
/// exactly the row order of `Planner::plan(_, MaxQuality)` (single-flow
/// parity), and with many flows the per-flow rows are grouped *per flow*
/// in admission order, which is precisely the layout the incremental
/// [`SchedAssembly`] maintains on a one-slot grid — a freshly populated
/// fleet produces the same [`Problem`] on both paths.
fn assemble_joint(
    objective: FleetObjective,
    paths: &[SharedPath],
    entries: &[(&FlowRequest, &ScenarioModel)],
) -> Problem {
    let lambda_tot: f64 = entries.iter().map(|(r, _)| r.data_rate()).sum();
    let total_vars: usize = entries.iter().map(|(_, m)| m.num_combos()).sum();
    let mut c = Vec::with_capacity(total_vars);
    for (r, m) in entries {
        let w = match objective {
            FleetObjective::WeightedFair => r.priority(),
            FleetObjective::MaxAdmitted | FleetObjective::MaxTotalQuality => 1.0,
        };
        let share = r.data_rate() / lambda_tot;
        c.extend(m.quality_coeffs().iter().map(|p| w * share * p));
    }
    let mut lp = Problem::maximize(c);
    // Shared capacity rows: Σ_f (λ_f/Λ)·usage_f,k · x^f ≤ b_k/Λ. A flow
    // restricted to a path subset has a structurally zero segment in the
    // rows of the paths it does not use.
    for (k, path) in paths.iter().enumerate() {
        let mut row = Vec::with_capacity(total_vars);
        for (r, m) in entries {
            let share = r.data_rate() / lambda_tot;
            match local_path_index(r.paths(), k) {
                Some(lk) => row.extend(m.usage_coeffs(lk).iter().map(|u| share * u)),
                None => row.extend(std::iter::repeat_n(0.0, m.num_combos())),
            }
        }
        lp.add_le(row, path.bandwidth / lambda_tot)
            .expect("dimensions match");
    }
    // Per-flow blocks: cost budget, quality floor, Σx = 1 — grouped per
    // flow, like the incremental assembly appends them.
    let mut offset = 0;
    let mut block_starts = Vec::with_capacity(entries.len());
    for (r, m) in entries {
        let n = m.num_combos();
        block_starts.push(offset);
        if r.cost_budget().is_finite() {
            let mut row = vec![0.0; total_vars];
            row[offset..offset + n].copy_from_slice(m.cost_coeffs());
            lp.add_le(row, r.cost_budget() / r.data_rate())
                .expect("dimensions match");
        }
        if r.min_quality() > 0.0 {
            let mut row = vec![0.0; total_vars];
            row[offset..offset + n].copy_from_slice(m.quality_coeffs());
            lp.add_ge(row, r.min_quality()).expect("dimensions match");
        }
        let mut row = vec![0.0; total_vars];
        for v in &mut row[offset..offset + n] {
            *v = 1.0;
        }
        lp.add_eq(row, 1.0).expect("dimensions match");
        offset += n;
    }
    lp.set_block_starts(block_starts)
        .expect("block starts are sorted and in range");
    lp
}

/// A candidate for one joint solve: its request and model, borrowed so a
/// refused candidate can be retried elsewhere without copies.
pub(crate) type Candidate<'a> = (&'a ScheduleRequest, &'a ScenarioModel);

/// A joint solution with each flow's `(block, columns)` — members first,
/// then candidates.
type Solved = (Vec<f64>, Vec<(usize, Range<usize>)>);

/// The shared joint-LP engine: shared paths, members, the incremental
/// assembly and the warm-start solver (see the module docs).
#[derive(Debug)]
pub(crate) struct JointCore {
    pub(crate) config: FleetConfig,
    pub(crate) grid: TimeGrid,
    pub(crate) paths: Vec<SharedPath>,
    /// Admitted flows, in admission order.
    pub(crate) members: Vec<Member>,
    /// The next offer-ordered flow id.
    next_id: u64,
    /// Zero-capacity (slot, path) pairs — scheduled maintenance.
    pub(crate) maintenance: BTreeSet<(u64, usize)>,
    /// Builds per-flow coefficient models (never solves).
    flow_planner: Planner,
    /// The joint solves' warm-start cache and its counters.
    pub(crate) warm: WarmSolver,
    /// The incrementally maintained joint LP; `None` until the first
    /// solve and after structural resets (link changes, compaction,
    /// collective infeasibility), rebuilt from the members on demand.
    pub(crate) assembly: Option<SchedAssembly>,
    /// Objective value of the last successful joint solve (0 when
    /// empty).
    pub(crate) last_objective: f64,
    /// Every window is `SlotWindow::instant(0)` on a one-slot grid (the
    /// instant planner): the rebuild path uses [`assemble_joint`].
    instant: bool,
}

impl JointCore {
    /// A core over `paths` and `grid`.
    ///
    /// # Errors
    ///
    /// Rejects an empty path set and paths whose delay distribution has a
    /// non-finite mean.
    pub(crate) fn new(
        paths: Vec<ScenarioPath>,
        grid: TimeGrid,
        config: FleetConfig,
        instant: bool,
    ) -> Result<Self, FleetError> {
        if paths.is_empty() {
            return Err(FleetError::Invalid(
                "a fleet needs at least one shared path".into(),
            ));
        }
        for (k, p) in paths.iter().enumerate() {
            if !p.delay().mean().is_finite() {
                return Err(FleetError::Invalid(format!(
                    "shared path {k} has a non-finite mean delay"
                )));
            }
        }
        let mut config = config;
        if config.obs.is_enabled() && !config.planner.solver.obs.is_enabled() {
            config.planner.solver.obs = config.obs.clone();
        }
        let flow_planner = Planner::with_config(config.planner.clone());
        Ok(JointCore {
            config,
            grid,
            paths: paths.into_iter().map(SharedPath::from_scenario).collect(),
            members: Vec::new(),
            next_id: 0,
            maintenance: BTreeSet::new(),
            flow_planner,
            warm: WarmSolver::new(WARM_COUNTERS),
            assembly: None,
            last_objective: 0.0,
            instant,
        })
    }

    /// Consumes the next flow id (ids are offer-ordered, admitted or
    /// not).
    pub(crate) fn next_id(&mut self) -> FlowId {
        self.next_id += 1;
        FlowId::new(self.next_id - 1)
    }

    /// The effective shared paths (failed paths plan as loss 1).
    pub(crate) fn shared_paths(&self) -> Result<Vec<ScenarioPath>, FleetError> {
        self.paths.iter().map(SharedPath::effective).collect()
    }

    /// Builds a flow's scenario model against the current shared paths
    /// (restricted to its declared subset when
    /// [`FlowRequest::with_paths`] was used).
    pub(crate) fn flow_model(
        &mut self,
        request: &FlowRequest,
    ) -> Result<ScenarioModel, FleetError> {
        let effective = self.shared_paths()?;
        let flow_paths = match request.paths() {
            Some(subset) => {
                if let Some(&bad) = subset.iter().find(|&&k| k >= effective.len()) {
                    return Err(FleetError::Invalid(format!(
                        "flow path index {bad} out of range ({} shared paths)",
                        effective.len()
                    )));
                }
                subset.iter().map(|&k| effective[k].clone()).collect()
            }
            None => effective,
        };
        let mut builder = Scenario::builder()
            .paths(flow_paths)
            .data_rate(request.data_rate())
            .lifetime(request.lifetime())
            .transmissions(request.transmissions());
        if request.cost_budget().is_finite() {
            builder = builder.cost_budget(request.cost_budget());
        }
        let scenario = builder.build().map_err(FleetError::Spec)?;
        Ok(self.flow_planner.model(&scenario))
    }

    /// Applies one link change to a shared path and rebuilds every
    /// member's model against the changed paths. The members' blocks
    /// changed wholesale, so the assembly is rebuilt on the next solve —
    /// usually with the same shape, so the cached basis still applies.
    ///
    /// A failed path plans as loss 1; [`LinkChange::SetLoss`] plans
    /// against the loss model's stationary rate.
    ///
    /// # Errors
    ///
    /// Bad path index, invalid change parameters, or a model that no
    /// longer validates.
    pub(crate) fn apply_link_change(
        &mut self,
        path: usize,
        change: &LinkChange,
    ) -> Result<(), FleetError> {
        let Some(shared) = self.paths.get_mut(path) else {
            return Err(FleetError::Invalid(format!(
                "path index {path} out of range ({} shared paths)",
                self.paths.len()
            )));
        };
        match change {
            LinkChange::Fail => shared.failed = true,
            LinkChange::Recover => shared.failed = false,
            LinkChange::SetBandwidth(bps) => {
                if !(*bps > 0.0) || !bps.is_finite() {
                    return Err(FleetError::Invalid(format!(
                        "bandwidth must be finite and > 0, got {bps}"
                    )));
                }
                shared.bandwidth = *bps;
            }
            LinkChange::SetLoss(model) => {
                model.validate().map_err(FleetError::Invalid)?;
                shared.loss = model.stationary_loss();
            }
        }
        let mut members = std::mem::take(&mut self.members);
        let rebuilt = members.iter_mut().try_for_each(|m| {
            m.model = self.flow_model(m.request.flow())?;
            Ok(())
        });
        // The members' cost/floor rows hold the old coefficients, so their
        // blocks are rebuilt. Tombstones hold nothing live (`place`
        // rewrites a reused block's model rows), so an empty fleet keeps
        // its assembly.
        if !members.is_empty() {
            self.assembly = None;
        }
        self.members = members;
        rebuilt
    }

    /// Solves the joint LP over the members plus `extras`. On success
    /// every member's plan is refreshed in place and each extra's
    /// `(block, raw block x)` is returned, in order, for
    /// [`JointCore::admit`]. With no members and no extras there is
    /// nothing to solve.
    ///
    /// On *any* error — infeasibility included — the tentative
    /// placements are rolled back, so a refused candidate leaves no
    /// trace and the members keep their last-known-good plans.
    pub(crate) fn solve(
        &mut self,
        extras: &[Candidate<'_>],
    ) -> Result<Vec<(usize, Vec<f64>)>, SolveError> {
        if self.members.is_empty() && extras.is_empty() {
            self.last_objective = 0.0;
            return Ok(Vec::new());
        }
        let (x, blocks) = if self.instant && !self.config.incremental {
            self.solve_rebuild(extras)?
        } else {
            self.solve_incremental(extras)?
        };
        let n = self.members.len();
        for (m, (_, cols)) in self.members.iter_mut().zip(&blocks) {
            m.refresh(&x[cols.clone()]);
        }
        Ok(blocks[n..]
            .iter()
            .map(|(slot, cols)| (*slot, x[cols.clone()].to_vec()))
            .collect())
    }

    /// The incremental path: place extras into the maintained assembly,
    /// rescale the Λ-dependent segments, solve in place. Returns the
    /// solution and each member's then each extra's `(block, columns)`.
    fn solve_incremental(&mut self, extras: &[Candidate<'_>]) -> Result<Solved, SolveError> {
        if !self.config.incremental {
            self.assembly = None;
        }
        let n_paths = self.paths.len();
        let mut assembly = match self.assembly.take() {
            Some(a) => a,
            None => {
                let mut fresh = SchedAssembly::new();
                for m in &mut self.members {
                    m.slot = fresh.place(&self.grid, n_paths, &m.request, &m.model).0;
                }
                fresh
            }
        };
        let placements: Vec<(usize, Placement)> = extras
            .iter()
            .map(|(r, m)| assembly.place(&self.grid, n_paths, r, m))
            .collect();
        let slots: Vec<usize> = self
            .members
            .iter()
            .map(|m| m.slot)
            .chain(placements.iter().map(|&(slot, _)| slot))
            .collect();
        {
            let entries: Vec<(usize, &ScheduleRequest, &ScenarioModel)> = self
                .members
                .iter()
                .map(|m| (&m.request, &m.model))
                .chain(extras.iter().copied())
                .zip(&slots)
                .map(|((r, m), &slot)| (slot, r, m))
                .collect();
            assembly.rescale(
                self.config.objective,
                &self.grid,
                &self.paths,
                &self.maintenance,
                &entries,
            );
        }
        match self.solve_problem(&assembly.problem) {
            Ok(solution) => {
                let x = solution.into_x();
                self.last_objective = assembly.problem.objective_value(&x);
                let blocks = slots
                    .into_iter()
                    .map(|slot| (slot, assembly.slots[slot].cols.clone()))
                    .collect();
                self.assembly = Some(assembly);
                Ok((x, blocks))
            }
            Err(e) => {
                // Roll the tentative placements back (reverse order, so
                // appended blocks truncate cleanly). An inconsistent
                // rollback sequence rebuilds the assembly from the
                // members on the next solve instead of patching shifted
                // indices in place.
                let clean = placements.iter().rev().all(|&(slot, placement)| {
                    assembly
                        .rollback(&self.grid, n_paths, slot, placement)
                        .is_ok()
                });
                if clean {
                    self.assembly = Some(assembly);
                }
                Err(e)
            }
        }
    }

    /// The instant planner's rebuild path ([`FleetConfig::incremental`] =
    /// `false`): a fresh [`assemble_joint`] problem per solve. Blocks are
    /// numbered in entry order.
    fn solve_rebuild(&mut self, extras: &[Candidate<'_>]) -> Result<Solved, SolveError> {
        let problem = {
            let entries: Vec<(&FlowRequest, &ScenarioModel)> = self
                .members
                .iter()
                .map(|m| (m.request.flow(), &m.model))
                .chain(extras.iter().map(|&(r, m)| (r.flow(), m)))
                .collect();
            assemble_joint(self.config.objective, &self.paths, &entries)
        };
        let x = self.solve_problem(&problem)?.into_x();
        self.last_objective = problem.objective_value(&x);
        let mut offset = 0;
        let blocks = self
            .members
            .iter()
            .map(|m| &m.model)
            .chain(extras.iter().map(|&(_, m)| m))
            .enumerate()
            .map(|(i, m)| {
                offset += m.num_combos();
                (i, offset - m.num_combos()..offset)
            })
            .collect();
        debug_assert_eq!(offset, x.len());
        Ok((x, blocks))
    }

    /// Solves an assembled joint problem through the warm-start solver
    /// (joint backend swapped into the shared solver options).
    fn solve_problem(&mut self, problem: &Problem) -> Result<Solution, SolveError> {
        let opts = SolverOptions {
            backend: self.config.joint_backend,
            ..self.config.planner.solver.clone()
        };
        let solution = self.warm.solve(
            problem,
            &opts,
            self.config.planner.warm_start,
            &self.config.obs,
        )?;
        // Replay the feasibility certificate in debug builds (and in
        // release when [`FleetConfig::certify`] is set): every per-flow
        // plan descends from this x, so a bogus vertex here would
        // silently corrupt the whole fleet.
        if cfg!(debug_assertions) || self.config.certify {
            solution
                .certify(problem)
                .expect("joint LP solution failed its feasibility certificate");
        }
        Ok(solution)
    }

    /// Commits a candidate a successful [`JointCore::solve`] placed.
    pub(crate) fn admit(
        &mut self,
        id: FlowId,
        request: ScheduleRequest,
        model: ScenarioModel,
        (slot, raw): (usize, Vec<f64>),
    ) -> &Member {
        self.members
            .push(Member::new(id, request, model, slot, raw));
        self.members.last().expect("member just pushed")
    }

    /// Tombstones a block of the assembly (a no-op while there is none).
    pub(crate) fn tombstone(&mut self, slot: usize) {
        if let Some(a) = self.assembly.as_mut() {
            a.deactivate(&self.grid, self.paths.len(), slot);
        }
    }

    /// Takes member `idx` out and tombstones its block (no re-solve).
    pub(crate) fn remove(&mut self, idx: usize) -> Member {
        let member = self.members.remove(idx);
        self.tombstone(member.slot);
        member
    }

    /// Departs a member: counts `fleet.departs`, takes it out, tombstones
    /// its block and compacts if due. The caller re-solves. `None` for an
    /// unknown id.
    pub(crate) fn depart(&mut self, id: FlowId) -> Option<Member> {
        let idx = self.position(id)?;
        self.config.obs.counter("fleet.departs").inc();
        let member = self.remove(idx);
        self.maybe_compact();
        Some(member)
    }

    /// Drops the assembly (rebuilt from the members, in admission order,
    /// on the next solve) once tombstones outnumber the members, bounding
    /// the zombie-block overhead of a long-churning fleet.
    pub(crate) fn maybe_compact(&mut self) {
        if let Some(a) = &self.assembly {
            if a.slots.len() >= COMPACT_MIN_SLOTS && a.inactive_slots() > self.members.len() {
                self.assembly = None;
            }
        }
    }

    /// Re-solves the membership. On collective infeasibility every
    /// member is taken out — highest priority first, admission order
    /// within ties — for the caller to re-admit one by one; an empty
    /// result means everyone still fits.
    ///
    /// # Errors
    ///
    /// Solver failures other than infeasibility.
    pub(crate) fn settle(&mut self) -> Result<Vec<Member>, FleetError> {
        match self.solve(&[]) {
            Ok(_) => Ok(Vec::new()),
            Err(SolveError::Infeasible { .. }) => {
                let mut out = std::mem::take(&mut self.members);
                self.assembly = None;
                sort_by_priority(&mut out, |m| (m.request.flow().priority(), m.id));
                Ok(out)
            }
            Err(e) => Err(FleetError::Solve(e)),
        }
    }

    /// Index of an admitted flow.
    pub(crate) fn position(&self, id: FlowId) -> Option<usize> {
        self.members.iter().position(|m| m.id == id)
    }

    /// An admitted flow.
    pub(crate) fn get(&self, id: FlowId) -> Option<&Member> {
        self.members.iter().find(|m| m.id == id)
    }
}
