//! Warm-start capable revised simplex and the reusable [`SolverContext`].
//!
//! The dense two-phase solver in [`crate::simplex`] rebuilds and pivots a full
//! `m x (cols+1)` tableau on every call, which is wasteful for the OEF
//! scheduling loop: every round (and every strategy-proofness probe) solves a
//! program with the *same shape* — identical constraint operators and
//! dimensions — where only the speedup coefficients and capacities moved.  The
//! optimal basis barely changes between consecutive rounds.
//!
//! This module implements the revised simplex method on top of a **sparse LU
//! factorization with eta-file updates** ([`crate::factor`]):
//!
//! * the constraint matrix is stored **sparse by column** and never modified;
//! * `B⁻¹` is never formed — directions (`ftran`), duals (`btran`) and single
//!   `B⁻¹` rows come from sparse triangular solves against `L`, `U` and the
//!   eta stack, so per-iteration cost follows the *nonzeros* of the basis,
//!   not `m²`;
//! * a pivot appends one sparse eta vector (`O(nnz)`), and the factorization
//!   is rebuilt only when the eta file outgrows its bound or the basic
//!   solution drifts from `B x_B = b` past tolerance;
//! * entering columns are priced **partially**: Dantzig's rule over a
//!   candidate list that is re-priced each iteration and refilled by a
//!   rotating scan, so steady-state iterations do not touch every column.
//!
//! [`SolverContext`] owns every buffer the solver needs so repeated solves do
//! not reallocate, and it caches the optimal basis of the last solve.  When
//! asked to solve a problem whose [shape
//! signature](crate::Problem::shape_signature) matches the cached one, it
//! *warm-starts*: refactorize the cached basis against the new coefficients,
//! dual-simplex repair if primal feasibility was lost, and run phase 2 from a
//! (usually near-optimal) starting point.  When the shape changed through
//! tracked **churn edits** ([`crate::Problem::add_tenant_rows`] /
//! [`crate::Problem::remove_tenant_rows`]), the cached basis is *remapped*
//! onto the new standard form — one tenant joining or leaving becomes a basis
//! repair instead of a cold solve.  On an untracked shape change, a singular
//! or unusable cached basis, or any numerical trouble, it falls back to a
//! cold solve; if the revised cold path itself hits its iteration limit the
//! context falls all the way back to the dense reference solver, so
//! `SolverContext::solve` never reports worse answers than
//! [`crate::Problem::solve_with`].

use crate::attrib::{AttributionReport, TenantWork};
use crate::error::LpError;
use crate::factor::{BasisFactor, FactorCounters};
use crate::problem::{ConstraintOp, Problem, Sense, NO_OWNER};
use crate::simplex::{SimplexOptions, SolverStats};
use crate::solution::Solution;
use crate::Result;

/// Feasibility slack accepted when deciding whether a cached basis is still
/// primal feasible for the updated right-hand side.
const WARM_FEASIBILITY_TOL: f64 = 1e-7;

/// Pivots between drift residual checks (`‖B x_B − b‖∞` against the sparse
/// basis columns).  Checking is `O(nnz(B))`, so a modest cadence keeps the
/// cost invisible while bounding how far accumulated eta round-off can run.
const DRIFT_CHECK_INTERVAL: usize = 48;

/// Relative drift tolerance: a residual above `DRIFT_TOL * (1 + ‖b‖∞)`
/// forces a refactorization even if the eta file is still short.
const DRIFT_TOL: f64 = 1e-6;

/// Cap on the pricing candidate list refilled by each rotating scan.
const PRICING_CANDIDATES: usize = 64;

/// Pivot budget of one warm attempt (dual repair plus phase 2).  A warm start
/// exists to be cheaper than a cold solve, and a warm phase 2 that cycles
/// would otherwise spin to `max_iterations` (a million pivots, minutes)
/// before the cold path even starts; an attempt over budget is abandoned and
/// the solve runs cold.  Generous enough that no healthy warm solve gets near
/// it — they finish in a handful of pivots.
fn warm_pivot_budget(form: &StandardForm) -> usize {
    (20 * (form.rows + form.cols)).max(1_000)
}

/// Reusable solver state: buffers plus the cached basis of the last solve.
///
/// ```
/// use oef_lp::{ConstraintOp, Problem, Sense, SolverContext};
///
/// let mut p = Problem::new(Sense::Maximize);
/// let x = p.add_variable("x");
/// let y = p.add_variable("y");
/// p.set_objective_coefficient(x, 3.0);
/// p.set_objective_coefficient(y, 5.0);
/// p.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
/// p.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
/// p.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
///
/// let mut ctx = SolverContext::new();
/// let cold = ctx.solve(&p).unwrap();
/// assert!(!cold.stats().warm_start);
///
/// // Same shape, perturbed data: the second solve starts from the cached basis.
/// p.update_rhs(2, 20.0);
/// let warm = ctx.solve(&p).unwrap();
/// assert!(warm.stats().warm_start);
/// assert!((warm.objective_value() - 38.0).abs() < 1e-6);
/// ```
#[derive(Debug, Default)]
pub struct SolverContext {
    options: SimplexOptions,
    cache: Option<BasisCache>,
    warm_solves: u64,
    cold_solves: u64,
    dense_fallbacks: u64,
    basis_repairs: u64,
    churn_repairs: u64,
    last_was_warm: bool,
    scratch: Scratch,
    /// Test hook: replaces [`warm_pivot_budget`] so a unit test can push a
    /// small program over it.
    #[cfg(test)]
    warm_budget_override: Option<usize>,
}

/// What kind of standard-form column a cached basic column was — the key for
/// remapping a basis across churn edits, where raw column indices shift but
/// "the slack of row r" / "structural variable v" stay meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    /// Structural variable by problem index.
    Structural(usize),
    /// Slack/surplus column of a constraint row.
    Slack(usize),
    /// Artificial column of a constraint row.
    Artificial(usize),
}

#[derive(Debug, Clone)]
struct BasisCache {
    signature: u64,
    basis: Vec<usize>,
    /// Per cached row: what its basic column *was* (see [`ColKind`]).
    kinds: Vec<ColKind>,
    /// Churn lineage of the problem the basis came from.
    instance: u64,
    epoch: u64,
}

/// Counters describing how a context's solves were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Solves that started from the cached basis.
    pub warm_solves: u64,
    /// Solves that ran the two-phase revised simplex from scratch.
    pub cold_solves: u64,
    /// Cold solves that additionally fell back to the dense reference solver.
    pub dense_fallbacks: u64,
    /// Warm solves that needed dual-simplex pivots to restore primal
    /// feasibility before phase 2 (perturbed data moved the old vertex).
    pub basis_repairs: u64,
    /// Warm solves served across a tracked churn edit (tenant join/leave) by
    /// remapping the cached basis onto the new shape.
    pub churn_repairs: u64,
    /// Sparse LU (re)factorizations of the basis over the context's lifetime.
    pub refactorizations: u64,
    /// Pivots applied as eta-file appends (product-form updates).
    pub eta_pivots: u64,
    /// Refactorizations forced by the drift residual check rather than the
    /// eta-file length bound.
    pub drift_refactorizations: u64,
}

/// All reusable buffers, kept out of `SolverContext`'s public face.
#[derive(Debug, Default)]
struct Scratch {
    /// Sparse standard-form matrix, by column: `(row, coefficient)` pairs.
    columns: Vec<Vec<(usize, f64)>>,
    /// Non-negative right-hand side.
    b: Vec<f64>,
    /// Phase-2 cost vector (minimize orientation).
    cost: Vec<f64>,
    /// Sparse LU factors + eta file standing in for the basis inverse.
    factor: BasisFactor,
    /// Current basic solution `B^{-1} b` (by basis position).
    xb: Vec<f64>,
    /// Dual prices `c_B^T B^{-1}` (by constraint row).
    y: Vec<f64>,
    /// Direction column `B^{-1} a_j` (by basis position).
    u: Vec<f64>,
    /// One row of `B^{-1}` (by constraint row), for the dual ratio test.
    rho: Vec<f64>,
    /// Basis costs fed to btran (by basis position).
    cb: Vec<f64>,
    /// Dense scatter buffer for one sparse column (by constraint row).
    arhs: Vec<f64>,
    /// Unit-vector buffer for `btran_unit`.
    unit: Vec<f64>,
    /// Current basis: column index per row.
    basis: Vec<usize>,
    /// Membership flag per column.
    in_basis: Vec<bool>,
    /// What each standard-form column is (structural/slack/artificial).
    col_owner: Vec<ColKind>,
    /// Slack (or surplus) column per row, when the row has one.
    slack_of_row: Vec<Option<usize>>,
    /// Artificial column per row, when the row has one.
    artificial_of_row: Vec<Option<usize>>,
    /// Partial-pricing candidate list and rotating scan cursor.
    candidates: Vec<usize>,
    scan_cursor: usize,
    /// Pivots since the last drift residual check.
    pivots_since_drift_check: usize,
    /// Lifetime count of drift-forced refactorizations.
    drift_refactorizations: u64,
    /// Dual-repair pivots spent in the current solve.
    repair_pivots: usize,
    /// Factor counters at the start of the current solve (per-solve stats).
    factor_base: FactorCounters,
    /// Attribution owner slot per standard-form column (slack/artificial
    /// columns inherit their row's owner).  Empty when the problem declared
    /// no owner maps — all work then lands in `attrib.unattributed`.
    attrib_col_slot: Vec<u32>,
    /// Attribution owner slot per constraint row.
    attrib_row_slot: Vec<u32>,
    /// Number of owner slots the current problem's maps span.
    attrib_slots: usize,
    /// Per-solve work attribution, reset at the top of each solve.
    attrib: AttributionReport,
    /// Owner slot of the most recent pivot's entering column — the owner a
    /// subsequent eta-growth refactorization is billed to.
    attrib_last_slot: u32,
    /// Extracted structural values.
    values: Vec<f64>,
}

impl Scratch {
    /// Zeroes the attribution report and sizes it for the current owner maps.
    fn reset_attribution(&mut self) {
        self.attrib_last_slot = NO_OWNER;
        self.attrib.unattributed = TenantWork::default();
        self.attrib.slots.clear();
        self.attrib
            .slots
            .resize(self.attrib_slots, TenantWork::default());
    }

    /// The work cell a given owner slot charges into.  Out-of-range slots —
    /// including [`NO_OWNER`] — fall through to the unattributed bucket, so
    /// charging is total: no branch on whether attribution is enabled.
    #[inline]
    fn attrib_cell(&mut self, slot: u32) -> &mut TenantWork {
        match self.attrib.slots.get_mut(slot as usize) {
            Some(cell) => cell,
            None => &mut self.attrib.unattributed,
        }
    }
}

/// Standard-form layout shared by the cold and warm paths.
struct StandardForm {
    rows: usize,
    cols: usize,
    n_structural: usize,
    artificial_start: usize,
}

impl SolverContext {
    /// Context with default [`SimplexOptions`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Context with explicit solver options.
    pub fn with_options(options: SimplexOptions) -> Self {
        Self {
            options,
            ..Self::default()
        }
    }

    /// The options this context solves with.
    pub fn options(&self) -> &SimplexOptions {
        &self.options
    }

    /// Whether the most recent [`SolverContext::solve`] warm-started.
    pub fn last_was_warm(&self) -> bool {
        self.last_was_warm
    }

    /// Warm/cold/repair counters for this context.
    pub fn stats(&self) -> ContextStats {
        let fc = self.scratch.factor.counters();
        ContextStats {
            warm_solves: self.warm_solves,
            cold_solves: self.cold_solves,
            dense_fallbacks: self.dense_fallbacks,
            basis_repairs: self.basis_repairs,
            churn_repairs: self.churn_repairs,
            refactorizations: fc.refactorizations,
            eta_pivots: fc.eta_pivots,
            drift_refactorizations: self.scratch.drift_refactorizations,
        }
    }

    /// Per-owner work attribution of the most recent solve.  `slots` is
    /// empty when the solved problem declared no owner maps (see
    /// [`Problem::set_attribution_owners`]); every count then sits in
    /// [`AttributionReport::unattributed`].
    pub fn last_attribution(&self) -> &AttributionReport {
        &self.scratch.attrib
    }

    /// Drops the cached basis, forcing the next solve to run cold.
    pub fn invalidate(&mut self) {
        self.cache = None;
    }

    /// Re-labels the cached basis for a caller that is about to rewrite the
    /// cached problem's data so that what variable `v` and row `r` described
    /// is described by variable `var_to[v]` and row `row_to[r]` from now on
    /// (both maps are permutations of the cached shape; `row_to[r]` must be
    /// a row of the same operator and right-hand-side sign as `r`).
    ///
    /// A basis is a statement about *what* is basic, and a warm start maps it
    /// onto the next problem by position.  A caller whose layout is
    /// positional — a tenant-major program over a dense, compacting tenant
    /// list — shifts every later block when one entity leaves mid-list;
    /// without this call each shifted entity inherits its neighbour's basic
    /// columns and the warm start repairs them all.  Purely a hint: any
    /// labelling is a valid starting point for the repair machinery, and one
    /// that does not fit the cached shape just drops the cache (cold solve).
    pub fn relabel_cached_basis(&mut self, var_to: &[usize], row_to: &[usize]) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        // `cache` is only ever set right after the solve that laid out
        // `scratch`, so the scratch layout is the cached shape's.
        let s = &self.scratch;
        let rows = cache.basis.len();
        let mut hit = vec![false; rows];
        let permutes = row_to.len() == rows
            && rows == s.slack_of_row.len()
            && row_to
                .iter()
                .all(|&r| r < rows && !std::mem::replace(&mut hit[r], true));
        let relabelled: Option<Vec<(usize, ColKind)>> = permutes
            .then(|| {
                let relabel = |kind: &ColKind| match *kind {
                    ColKind::Structural(v) => {
                        let to = *var_to.get(v)?;
                        Some((to, ColKind::Structural(to)))
                    }
                    ColKind::Slack(r) => {
                        s.slack_of_row[row_to[r]].map(|c| (c, ColKind::Slack(row_to[r])))
                    }
                    ColKind::Artificial(r) => {
                        s.artificial_of_row[row_to[r]].map(|c| (c, ColKind::Artificial(row_to[r])))
                    }
                };
                cache.kinds.iter().map(relabel).collect()
            })
            .flatten();
        let Some(columns) = relabelled else {
            self.cache = None;
            return;
        };
        // Basis positions move with their rows: a same-shape warm start does
        // not care about the order, but `remap_churn_basis` reads position `p`
        // as "the column that came in for row `p`" when a row is removed.
        for (position, (col, kind)) in columns.into_iter().enumerate() {
            cache.basis[row_to[position]] = col;
            cache.kinds[row_to[position]] = kind;
        }
    }

    /// Solves with the given options, updating the context's options first if
    /// they differ.  The cached basis stays valid across option changes (it
    /// describes the previous optimum, not the tolerances used to reach it).
    ///
    /// This is how policies keep a *public* `solver_options` field
    /// authoritative while the context holds the reusable state: every solve
    /// re-syncs from the field.
    ///
    /// # Errors
    ///
    /// Same contract as [`SolverContext::solve`].
    pub fn solve_with(&mut self, problem: &Problem, options: &SimplexOptions) -> Result<Solution> {
        if self.options != *options {
            self.options = options.clone();
        }
        self.solve(problem)
    }

    /// Solves `problem`, warm-starting from the previous optimal basis when
    /// the problem shape is unchanged — or when it changed only through
    /// tracked churn edits, in which case the cached basis is remapped and
    /// repaired instead of discarded.
    ///
    /// # Errors
    ///
    /// Same contract as [`Problem::solve_with`]: validation errors,
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`].
    pub fn solve(&mut self, problem: &Problem) -> Result<Solution> {
        problem.validate()?;
        let signature = problem.shape_signature();
        let form = build_standard_form(problem, &mut self.scratch);
        self.scratch.factor_base = self.scratch.factor.counters();
        self.scratch.repair_pivots = 0;
        // One reset per solve() call: cold_solve rebuilds the standard form
        // after a failed warm attempt, and that attempt's work must stay in
        // the report for the totals to match the factor-counter deltas.
        self.scratch.reset_attribution();

        if let Some(cache) = self.cache.take() {
            if cache.signature == signature && cache.basis.len() == form.rows {
                if let Some(solution) = self.try_warm(problem, &form, &cache.basis)? {
                    self.finish_warm(problem, &form, signature, false);
                    return Ok(solution);
                }
            } else if cache.instance == problem.churn_instance() {
                // Shape changed, but through edits the problem journaled:
                // remap the cached basis onto the new standard form and let
                // the usual repair machinery absorb the delta.
                if let Some(basis) = remap_churn_basis(&self.scratch, &form, problem, &cache) {
                    if let Some(solution) = self.try_warm(problem, &form, &basis)? {
                        self.finish_warm(problem, &form, signature, true);
                        return Ok(solution);
                    }
                }
            }
        }

        self.last_was_warm = false;
        self.cold_solves += 1;
        match self.cold_solve(problem, &form) {
            Ok(solution) => {
                self.cache = Some(make_cache(&self.scratch, problem, signature));
                Ok(solution)
            }
            Err(LpError::IterationLimit { .. }) => {
                // Numerical trouble (e.g. cycling beyond the pivot budget, or
                // an unfactorizable basis mid-phase): defer to the dense
                // reference solver rather than failing.
                self.dense_fallbacks += 1;
                self.cache = None;
                problem.solve_with(&self.options)
            }
            Err(other) => {
                self.cache = None;
                Err(other)
            }
        }
    }

    /// Books a successful warm solve: counters, warm flag, fresh cache.
    fn finish_warm(
        &mut self,
        problem: &Problem,
        _form: &StandardForm,
        signature: u64,
        churn: bool,
    ) {
        self.warm_solves += 1;
        self.last_was_warm = true;
        if churn {
            self.churn_repairs += 1;
        }
        if self.scratch.repair_pivots > 0 {
            self.basis_repairs += 1;
        }
        self.cache = Some(make_cache(&self.scratch, problem, signature));
    }

    /// Attempts a warm-started phase-2 solve from `basis`.  Returns
    /// `Ok(None)` when the cached basis is unusable (singular, unrepairable,
    /// or the attempt ran out of its [`warm_pivot_budget`]) so the caller can
    /// fall back to a cold solve.
    fn try_warm(
        &mut self,
        problem: &Problem,
        form: &StandardForm,
        basis: &[usize],
    ) -> Result<Option<Solution>> {
        let budget = warm_pivot_budget(form);
        #[cfg(test)]
        let budget = self.warm_budget_override.unwrap_or(budget);
        let options = SimplexOptions {
            max_iterations: self.options.max_iterations.min(budget),
            ..self.options.clone()
        };
        let s = &mut self.scratch;
        s.basis.clear();
        s.basis.extend_from_slice(basis);
        if !refactorize_current(s, form) {
            return Ok(None);
        }
        compute_xb(s);

        let mut iterations = 0usize;
        if s.xb.iter().any(|&v| v < -WARM_FEASIBILITY_TOL) {
            // The basis is no longer primal feasible for the perturbed data —
            // the typical steady-state case when constraint coefficients (not
            // just the objective) moved, and the *expected* state after a
            // churn remap (a joining tenant's equal-throughput row starts
            // violated).  It is usually still (near-)dual feasible, so a
            // short dual-simplex repair restores primal feasibility in a
            // handful of pivots instead of a full two-phase cold solve.
            if !run_dual_repair(s, form, &options, &mut iterations) {
                // Not dual feasible either (or the repair stalled, or the
                // program looks infeasible from here): let the cold path
                // re-derive the answer from scratch rather than trusting a
                // perturbed basis for a hard verdict.
                return Ok(None);
            }
        }

        // Artificial columns left in the basis (redundant rows, or rows a
        // churn remap seeded with their artificial) must sit at zero after
        // the repair; a positive value means the basis pads a violated
        // constraint and cannot certify an optimum.
        let artificials_ok = s
            .basis
            .iter()
            .zip(s.xb.iter())
            .all(|(&col, &v)| col < form.artificial_start || v.abs() <= WARM_FEASIBILITY_TOL);
        if !artificials_ok {
            return Ok(None);
        }

        for v in &mut s.xb {
            if *v < 0.0 {
                *v = 0.0;
            }
        }

        match run_revised_phase(s, form, Phase::Two, &options, &mut iterations) {
            Ok(()) => Ok(Some(extract_solution(s, form, problem, iterations, true))),
            Err(LpError::IterationLimit { .. }) => Ok(None),
            Err(other) => Err(other),
        }
    }

    /// Two-phase revised simplex from the all-slack/artificial basis.
    fn cold_solve(&mut self, problem: &Problem, form: &StandardForm) -> Result<Solution> {
        // A preceding (failed) warm attempt may have overwritten the scratch
        // basis with the cached one; rebuild the standard form so the basis
        // is the pristine all-slack/artificial one again.
        build_standard_form(problem, &mut self.scratch);
        let s = &mut self.scratch;
        // The initial basis matrix is the identity (slack +1 or artificial +1
        // per row), which the sparse LU factors without fill.
        if !refactorize_current(s, form) {
            return Err(LpError::IterationLimit { iterations: 0 });
        }
        s.xb.clear();
        s.xb.extend_from_slice(&s.b);

        let mut iterations = 0usize;
        if form.artificial_start < form.cols {
            run_revised_phase(s, form, Phase::One, &self.options, &mut iterations)?;
            let infeasibility: f64 = s
                .basis
                .iter()
                .zip(s.xb.iter())
                .filter(|(&col, _)| col >= form.artificial_start)
                .map(|(_, &v)| v.max(0.0))
                .sum();
            if infeasibility > self.options.tolerance.max(1e-7) {
                return Err(LpError::Infeasible);
            }
            drive_out_artificials(s, form, &self.options);
        }
        run_revised_phase(s, form, Phase::Two, &self.options, &mut iterations)?;
        Ok(extract_solution(s, form, problem, iterations, false))
    }
}

/// Builds a [`BasisCache`] from the scratch state of a just-finished solve.
fn make_cache(s: &Scratch, problem: &Problem, signature: u64) -> BasisCache {
    BasisCache {
        signature,
        basis: s.basis.clone(),
        kinds: s.basis.iter().map(|&col| s.col_owner[col]).collect(),
        instance: problem.churn_instance(),
        epoch: problem.churn_epoch(),
    }
}

/// Maps a cached basis onto the standard form of a churn-edited problem:
/// surviving structural columns follow the variable map, slack/artificial
/// columns follow their row.  A basis is a *set* of columns, so a survivor
/// that sat at a removed row's position moves to a position a removed column
/// vacated; only positions still empty after that (brand-new rows, or more
/// columns removed than rows) fall back to the new row's own
/// slack/artificial.  Returns `None` when the journal cannot bridge the
/// epochs or no collision-free assignment exists (the caller cold-solves; a
/// singular remap is also caught later by factorization).
fn remap_churn_basis(
    s: &Scratch,
    form: &StandardForm,
    problem: &Problem,
    cache: &BasisCache,
) -> Option<Vec<usize>> {
    let (var_map, row_map) = problem.churn_maps_since(cache.epoch)?;
    if row_map.len() != cache.basis.len() {
        return None;
    }
    let mut used = vec![false; form.cols];
    let mut out = vec![usize::MAX; form.rows];
    let mut displaced = Vec::new();
    for (old_row, kind) in cache.kinds.iter().enumerate() {
        let col = match *kind {
            ColKind::Structural(v) => var_map.get(v).copied().flatten(),
            ColKind::Slack(r) => row_map
                .get(r)
                .copied()
                .flatten()
                .and_then(|nr| s.slack_of_row[nr]),
            ColKind::Artificial(r) => row_map
                .get(r)
                .copied()
                .flatten()
                .and_then(|nr| s.artificial_of_row[nr]),
        };
        let Some(col) = col.filter(|&c| !used[c]) else {
            continue;
        };
        used[col] = true;
        match row_map[old_row] {
            Some(new_row) => out[new_row] = col,
            None => displaced.push(col),
        }
    }
    for (row, slot) in out.iter_mut().enumerate() {
        if *slot != usize::MAX {
            continue;
        }
        *slot = match displaced.pop() {
            Some(col) => col,
            None => {
                let own = s.slack_of_row[row]
                    .filter(|&c| !used[c])
                    .or_else(|| s.artificial_of_row[row].filter(|&c| !used[c]))?;
                used[own] = true;
                own
            }
        };
    }
    Some(out)
}

enum Phase {
    One,
    Two,
}

/// Builds the sparse standard form into the context's scratch buffers and
/// sets the initial all-slack/artificial basis.  Mirrors the dense builder in
/// `simplex.rs`: `<=` rows get a slack, `>=` rows a surplus plus artificial,
/// `==` rows an artificial; negative right-hand sides are normalised first.
fn build_standard_form(problem: &Problem, s: &mut Scratch) -> StandardForm {
    let n = problem.num_variables();
    let m = problem.num_constraints();

    let mut n_slack = 0usize;
    let mut n_artificial = 0usize;
    for c in problem.constraints() {
        match effective_op(c.op, c.rhs < 0.0) {
            ConstraintOp::Le => n_slack += 1,
            ConstraintOp::Ge => {
                n_slack += 1;
                n_artificial += 1;
            }
            ConstraintOp::Eq => n_artificial += 1,
        }
    }
    let cols = n + n_slack + n_artificial;
    let artificial_start = n + n_slack;

    s.columns.resize_with(cols, Vec::new);
    s.columns.truncate(cols);
    for col in &mut s.columns {
        col.clear();
    }
    s.b.clear();
    s.b.resize(m, 0.0);
    s.basis.clear();
    s.basis.resize(m, usize::MAX);
    s.col_owner.clear();
    s.col_owner
        .extend((0..cols).map(|c| ColKind::Structural(c.min(n))));
    s.slack_of_row.clear();
    s.slack_of_row.resize(m, None);
    s.artificial_of_row.clear();
    s.artificial_of_row.resize(m, None);

    let mut slack_cursor = n;
    let mut artificial_cursor = artificial_start;
    for (row, c) in problem.constraints().iter().enumerate() {
        let flip = c.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        for (var, coeff) in c.expr.terms() {
            if coeff != 0.0 {
                push_coefficient(&mut s.columns[var.index()], row, sign * coeff);
            }
        }
        s.b[row] = sign * c.rhs;
        match effective_op(c.op, flip) {
            ConstraintOp::Le => {
                s.columns[slack_cursor].push((row, 1.0));
                s.col_owner[slack_cursor] = ColKind::Slack(row);
                s.slack_of_row[row] = Some(slack_cursor);
                s.basis[row] = slack_cursor;
                slack_cursor += 1;
            }
            ConstraintOp::Ge => {
                s.columns[slack_cursor].push((row, -1.0));
                s.col_owner[slack_cursor] = ColKind::Slack(row);
                s.slack_of_row[row] = Some(slack_cursor);
                slack_cursor += 1;
                s.columns[artificial_cursor].push((row, 1.0));
                s.col_owner[artificial_cursor] = ColKind::Artificial(row);
                s.artificial_of_row[row] = Some(artificial_cursor);
                s.basis[row] = artificial_cursor;
                artificial_cursor += 1;
            }
            ConstraintOp::Eq => {
                s.columns[artificial_cursor].push((row, 1.0));
                s.col_owner[artificial_cursor] = ColKind::Artificial(row);
                s.artificial_of_row[row] = Some(artificial_cursor);
                s.basis[row] = artificial_cursor;
                artificial_cursor += 1;
            }
        }
    }

    // Attribution owner maps: resolve every standard-form column to its
    // declared owner slot (slack/artificial columns inherit their row's
    // owner).  Absent or length-stale maps disable attribution cleanly.
    match problem.attribution_owners() {
        Some((var_owner, row_owner)) => {
            s.attrib_row_slot.clear();
            s.attrib_row_slot.extend_from_slice(row_owner);
            s.attrib_col_slot.clear();
            let col_owner = &s.col_owner;
            s.attrib_col_slot
                .extend(col_owner.iter().map(|kind| match *kind {
                    ColKind::Structural(v) => var_owner.get(v).copied().unwrap_or(NO_OWNER),
                    ColKind::Slack(r) | ColKind::Artificial(r) => row_owner[r],
                }));
            s.attrib_slots = var_owner
                .iter()
                .chain(row_owner)
                .filter(|&&o| o != NO_OWNER)
                .map(|&o| o as usize + 1)
                .max()
                .unwrap_or(0);
        }
        None => {
            s.attrib_col_slot.clear();
            s.attrib_row_slot.clear();
            s.attrib_slots = 0;
        }
    }

    // Phase-2 costs in minimize orientation; slack and artificial columns
    // carry zero cost.
    s.cost.clear();
    s.cost.resize(cols, 0.0);
    let flip = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    for (i, &c) in problem.objective().iter().enumerate() {
        s.cost[i] = flip * c;
    }

    StandardForm {
        rows: m,
        cols,
        n_structural: n,
        artificial_start,
    }
}

/// Accumulates duplicate terms on the same row (the dense builder uses `+=`).
fn push_coefficient(column: &mut Vec<(usize, f64)>, row: usize, coeff: f64) {
    if let Some(entry) = column.iter_mut().find(|(r, _)| *r == row) {
        entry.1 += coeff;
    } else {
        column.push((row, coeff));
    }
}

fn effective_op(op: ConstraintOp, flipped: bool) -> ConstraintOp {
    if !flipped {
        return op;
    }
    match op {
        ConstraintOp::Le => ConstraintOp::Ge,
        ConstraintOp::Ge => ConstraintOp::Le,
        ConstraintOp::Eq => ConstraintOp::Eq,
    }
}

/// Sparse LU factorization of the current basis (`s.basis`), plus the
/// `in_basis` membership rebuild.  Returns `false` when the basis is
/// singular (warm start must be abandoned; mid-phase this surfaces as an
/// iteration-limit error so the dense fallback takes over).
fn refactorize_current(s: &mut Scratch, form: &StandardForm) -> bool {
    for &col in &s.basis {
        if col >= form.cols {
            return false;
        }
    }
    // Bill the rebuild to the owner of the most recent pivot (NO_OWNER at
    // solve start, i.e. the shared bucket).  The charge lands *before* the
    // call because `BasisFactor::refactorize` bumps its counter even when it
    // then fails on a singular basis — attribution totals must match the
    // counter deltas exactly.
    let slot = s.attrib_last_slot;
    s.attrib_cell(slot).refactorizations += 1;
    if !s.factor.refactorize(&s.columns, &s.basis) {
        return false;
    }
    s.in_basis.clear();
    s.in_basis.resize(form.cols, false);
    for &col in &s.basis {
        s.in_basis[col] = true;
    }
    true
}

/// `xb = B^{-1} b` via ftran.
fn compute_xb(s: &mut Scratch) {
    let Scratch { factor, b, xb, .. } = s;
    factor.ftran(b, xb);
}

/// `u = B^{-1} a_col` via ftran of the sparse column.
fn ftran_column(s: &mut Scratch, col: usize) {
    let m = s.b.len();
    s.arhs.clear();
    s.arhs.resize(m, 0.0);
    for &(r, v) in &s.columns[col] {
        s.arhs[r] += v;
    }
    let nnz = s.columns[col].len() as u64;
    let slot = s.attrib_col_slot.get(col).copied().unwrap_or(NO_OWNER);
    s.attrib_cell(slot).ftran_nnz += nnz;
    let Scratch {
        factor, arhs, u, ..
    } = s;
    factor.ftran(arhs, u);
}

/// Refactorizes when the eta file outgrew its bound or (every
/// [`DRIFT_CHECK_INTERVAL`] pivots) the basic solution drifted from
/// `B x_B = b`.  Recomputes `x_B` fresh after any rebuild.  Returns `false`
/// on a singular refactorization — pure numerical trouble, handled by the
/// caller as an iteration-limit style bailout.
fn refresh_factor(s: &mut Scratch, form: &StandardForm) -> bool {
    let mut need = s.factor.should_refactorize();
    let mut drift = false;
    if !need && s.pivots_since_drift_check >= DRIFT_CHECK_INTERVAL {
        s.pivots_since_drift_check = 0;
        if drift_exceeded(s, form) {
            need = true;
            drift = true;
        }
    }
    if need {
        if !refactorize_current(s, form) {
            return false;
        }
        compute_xb(s);
        s.pivots_since_drift_check = 0;
        if drift {
            s.drift_refactorizations += 1;
        }
    }
    true
}

/// `‖B x_B − b‖∞ > DRIFT_TOL * (1 + ‖b‖∞)`, computed against the sparse
/// basis columns.
fn drift_exceeded(s: &mut Scratch, form: &StandardForm) -> bool {
    let m = form.rows;
    s.arhs.clear();
    s.arhs.resize(m, 0.0);
    for (i, &col) in s.basis.iter().enumerate() {
        let x = s.xb[i];
        if x != 0.0 {
            for &(r, v) in &s.columns[col] {
                s.arhs[r] += v * x;
            }
        }
    }
    let mut resid = 0.0f64;
    for r in 0..m {
        resid = resid.max((s.arhs[r] - s.b[r]).abs());
    }
    let scale = 1.0 + s.b.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    resid > DRIFT_TOL * scale
}

/// Phase-aware cost of a standard-form column.
#[inline]
fn phase_cost(phase: &Phase, cost: &[f64], artificial_start: usize, col: usize) -> f64 {
    match phase {
        Phase::One => {
            if col >= artificial_start {
                1.0
            } else {
                0.0
            }
        }
        Phase::Two => cost[col],
    }
}

/// Picks the entering column: Bland's first-negative full scan when cycling
/// is suspected, otherwise Dantzig over the partial-pricing candidate list
/// (re-priced against fresh duals each iteration, refilled by a rotating
/// full scan only when it runs dry).  Returns `None` when a complete scan
/// proves no negative reduced cost remains — the phase is optimal.
fn price_entering(
    s: &mut Scratch,
    form: &StandardForm,
    phase: &Phase,
    options: &SimplexOptions,
    use_bland: bool,
) -> Option<usize> {
    let limit = match phase {
        // Never let an artificial column re-enter during phase 2.
        Phase::Two => form.artificial_start,
        Phase::One => form.cols,
    };
    let tol = options.tolerance;
    let y = &s.y;
    let columns = &s.columns;
    let cost = &s.cost;
    let in_basis = &s.in_basis;
    let artificial_start = form.artificial_start;
    let reduced = |j: usize| -> f64 {
        let cj = phase_cost(phase, cost, artificial_start, j);
        let ya: f64 = columns[j].iter().map(|&(r, v)| y[r] * v).sum();
        cj - ya
    };

    if use_bland {
        return (0..limit).find(|&j| !in_basis[j] && reduced(j) < -tol);
    }

    // Re-price the candidate list against the fresh duals.
    let mut best: Option<(usize, f64)> = None;
    let mut candidates = std::mem::take(&mut s.candidates);
    candidates.retain(|&j| {
        if in_basis[j] || j >= limit {
            return false;
        }
        let r = reduced(j);
        if r < -tol {
            if best.is_none_or(|(_, b)| r < b) {
                best = Some((j, r));
            }
            true
        } else {
            false
        }
    });

    if best.is_none() {
        // The list ran dry: rotating full scan.  Optimality is only ever
        // declared here, after a complete wrap found nothing negative.
        candidates.clear();
        let mut cursor = if limit == 0 { 0 } else { s.scan_cursor % limit };
        for _ in 0..limit {
            let j = cursor;
            cursor += 1;
            if cursor == limit {
                cursor = 0;
            }
            if in_basis[j] {
                continue;
            }
            let r = reduced(j);
            if r < -tol {
                candidates.push(j);
                if best.is_none_or(|(_, b)| r < b) {
                    best = Some((j, r));
                }
                if candidates.len() >= PRICING_CANDIDATES {
                    break;
                }
            }
        }
        s.scan_cursor = cursor;
    }
    s.candidates = candidates;
    best.map(|(j, _)| j)
}

/// Runs one phase of the revised simplex to optimality.
fn run_revised_phase(
    s: &mut Scratch,
    form: &StandardForm,
    phase: Phase,
    options: &SimplexOptions,
    iterations: &mut usize,
) -> Result<()> {
    let m = form.rows;
    let mut phase_pivots = 0usize;
    s.candidates.clear();
    s.scan_cursor = 0;
    loop {
        if *iterations >= options.max_iterations {
            return Err(LpError::IterationLimit {
                iterations: *iterations,
            });
        }
        if !refresh_factor(s, form) {
            return Err(LpError::IterationLimit {
                iterations: *iterations,
            });
        }
        let use_bland = phase_pivots >= options.bland_threshold;

        // Duals: y = c_B^T B^{-1} for the phase's cost vector, via btran.
        s.cb.clear();
        for i in 0..m {
            let col = s.basis[i];
            s.cb.push(phase_cost(&phase, &s.cost, form.artificial_start, col));
        }
        {
            let Scratch { factor, cb, y, .. } = s;
            factor.btran(cb, y);
        }

        let Some(entering) = price_entering(s, form, &phase, options, use_bland) else {
            return Ok(()); // optimal for this phase
        };

        // Direction: u = B^{-1} a_j.
        ftran_column(s, entering);

        // Ratio test.
        let mut leaving: Option<(usize, f64)> = None;
        for i in 0..m {
            let ui = s.u[i];
            if ui > options.tolerance {
                let ratio = s.xb[i] / ui;
                let better = match leaving {
                    None => true,
                    Some((li, lratio)) => {
                        if use_bland {
                            ratio < lratio - options.tolerance
                                || ((ratio - lratio).abs() <= options.tolerance
                                    && s.basis[i] < s.basis[li])
                        } else {
                            ratio < lratio - options.tolerance
                                || ((ratio - lratio).abs() <= options.tolerance && ui > s.u[li])
                        }
                    }
                };
                if better {
                    leaving = Some((i, ratio));
                }
            }
        }
        let Some((leaving, _)) = leaving else {
            return match phase {
                // The phase-1 objective is bounded below by zero, so a missing
                // leaving row there signals numerical breakdown; surface it as
                // infeasibility exactly like the dense solver does.
                Phase::One => Err(LpError::Infeasible),
                Phase::Two => Err(LpError::Unbounded),
            };
        };

        pivot_update(s, leaving, entering);
        *iterations += 1;
        phase_pivots += 1;
    }
}

/// Dual-simplex repair for a warm-started basis that lost primal feasibility.
///
/// Preconditions: the factor, `xb`, `basis`, `in_basis` describe a factorized
/// basis whose reduced costs are (near-)non-negative — true for a basis that
/// was optimal before a small data perturbation.  Each iteration drives the
/// most negative basic value out of the basis, choosing the entering column
/// by the dual ratio test so reduced costs stay non-negative.  Returns `true`
/// when the basis became primal feasible; `false` when the start was not dual
/// feasible, the pivot budget ran out, or the program appears infeasible —
/// in every failure case the caller cold-solves, so this function never has
/// to render a verdict on its own.
fn run_dual_repair(
    s: &mut Scratch,
    form: &StandardForm,
    options: &SimplexOptions,
    iterations: &mut usize,
) -> bool {
    let m = form.rows;
    // A perturbed-but-recent basis should repair in a few pivots; cap the
    // budget so a pathological basis cannot cost much more than a cold solve.
    let budget = (4 * m + 32).min(options.max_iterations.saturating_sub(*iterations));

    for _ in 0..budget {
        if !refresh_factor(s, form) {
            return false;
        }
        // Leaving row: most negative basic value.
        let mut leaving: Option<(usize, f64)> = None;
        for (i, &v) in s.xb.iter().enumerate() {
            if v < -WARM_FEASIBILITY_TOL && leaving.is_none_or(|(_, best)| v < best) {
                leaving = Some((i, v));
            }
        }
        let Some((row, _)) = leaving else {
            return true; // primal feasible
        };

        // Duals for the phase-2 costs (needed for the dual ratio test).
        s.cb.clear();
        for i in 0..m {
            s.cb.push(s.cost[s.basis[i]]);
        }
        {
            let Scratch { factor, cb, y, .. } = s;
            factor.btran(cb, y);
        }
        // One row of B^{-1} for the pivot-row coefficients alpha_j.
        {
            let Scratch {
                factor, unit, rho, ..
            } = s;
            factor.btran_unit(row, unit, rho);
        }
        let row_slot = s.attrib_row_slot.get(row).copied().unwrap_or(NO_OWNER);
        s.attrib_cell(row_slot).btran_rows += 1;

        // Entering column: minimize d_j / (-alpha_j) over nonbasic real
        // columns with alpha_j < 0, where alpha_j = (B^{-1})_row · a_j.
        // Small negative reduced costs (the perturbation can nudge a
        // previously-optimal basis slightly dual-infeasible) are clamped to
        // zero in the ratio: correctness does not depend on maintaining dual
        // feasibility here, because the subsequent primal phase 2 restores
        // optimality from any primal-feasible basis — the repair only has to
        // terminate, which the pivot budget guarantees.
        //
        // Harris-style two-pass tie-break: after a data perturbation many
        // nonbasic columns sit at reduced cost ≈ 0, so the minimum ratio is
        // hit by a whole cohort of candidates.  Entering whichever shows up
        // first can pivot on a tiny |alpha|, taking an enormous step that
        // *spreads* infeasibility instead of retiring it (observed: a 1e-2
        // violation ballooning to 1e5 before re-converging).  Pass one finds
        // the minimum ratio; pass two admits every candidate within a small
        // slack of it and enters the one with the largest pivot magnitude.
        let mut min_ratio = f64::INFINITY;
        for j in 0..form.artificial_start {
            if s.in_basis[j] {
                continue;
            }
            let mut alpha = 0.0;
            let mut reduced = s.cost[j];
            for &(r, v) in &s.columns[j] {
                alpha += s.rho[r] * v;
                reduced -= s.y[r] * v;
            }
            if alpha < -options.tolerance {
                min_ratio = min_ratio.min(reduced.max(0.0) / -alpha);
            }
        }
        let mut entering: Option<(usize, f64)> = None;
        if min_ratio.is_finite() {
            let slack = min_ratio + options.tolerance * (1.0 + min_ratio);
            for j in 0..form.artificial_start {
                if s.in_basis[j] {
                    continue;
                }
                let mut alpha = 0.0;
                let mut reduced = s.cost[j];
                for &(r, v) in &s.columns[j] {
                    alpha += s.rho[r] * v;
                    reduced -= s.y[r] * v;
                }
                if alpha < -options.tolerance
                    && reduced.max(0.0) / -alpha <= slack
                    && entering.is_none_or(|(_, best)| -alpha > best)
                {
                    entering = Some((j, -alpha));
                }
            }
        }
        let Some((entering, _)) = entering else {
            // No eligible column: the row proves (restricted) infeasibility,
            // but let the cold path confirm it.
            return false;
        };

        // Direction u = B^{-1} a_entering, then the eta-file pivot.
        ftran_column(s, entering);
        if s.u[row].abs() <= options.tolerance {
            return false; // numerically degenerate pivot
        }
        pivot_update(s, row, entering);
        *iterations += 1;
        s.repair_pivots += 1;
    }
    false
}

/// Applies a pivot on `(row, entering)`: updates the basic solution along the
/// direction `s.u`, appends the corresponding eta vector to the factor, and
/// swaps basis membership.  `O(nnz(u))` — no dense inverse is touched.
fn pivot_update(s: &mut Scratch, row: usize, entering: usize) {
    let pivot_value = s.u[row];
    debug_assert!(pivot_value.abs() > 0.0, "pivot on a zero direction element");

    let theta = s.xb[row] / pivot_value;
    // The eta vector `push_eta` appends holds exactly the nonzeros this loop
    // visits plus the pivot position, so counting here attributes eta-file
    // growth without touching the factor.
    let mut eta_nnz = 1u64;
    for (i, xi) in s.xb.iter_mut().enumerate() {
        if i != row {
            let f = s.u[i];
            if f != 0.0 {
                *xi -= f * theta;
                eta_nnz += 1;
            }
        }
    }
    s.xb[row] = theta;
    s.factor.push_eta(row, &s.u);

    s.in_basis[s.basis[row]] = false;
    s.in_basis[entering] = true;
    s.basis[row] = entering;
    s.pivots_since_drift_check += 1;

    let slot = s.attrib_col_slot.get(entering).copied().unwrap_or(NO_OWNER);
    let cell = s.attrib_cell(slot);
    cell.pivots += 1;
    cell.eta_nnz += eta_nnz;
    s.attrib_last_slot = slot;
}

/// After phase 1, pivots artificial variables (at value zero) out of the
/// basis where possible; redundant rows keep their artificial at zero, which
/// is harmless because their direction component stays zero for every real
/// column.
fn drive_out_artificials(s: &mut Scratch, form: &StandardForm, options: &SimplexOptions) {
    let m = form.rows;
    for row in 0..m {
        if s.basis[row] < form.artificial_start {
            continue;
        }
        {
            let Scratch {
                factor, unit, rho, ..
            } = s;
            factor.btran_unit(row, unit, rho);
        }
        let row_slot = s.attrib_row_slot.get(row).copied().unwrap_or(NO_OWNER);
        s.attrib_cell(row_slot).btran_rows += 1;
        let mut replacement = None;
        for j in 0..form.artificial_start {
            if s.in_basis[j] {
                continue;
            }
            let w: f64 = s.columns[j].iter().map(|&(r, v)| s.rho[r] * v).sum();
            if w.abs() > options.tolerance {
                replacement = Some(j);
                break;
            }
        }
        if let Some(j) = replacement {
            ftran_column(s, j);
            if s.u[row].abs() > options.tolerance {
                pivot_update(s, row, j);
            }
        }
    }
}

/// Reads the structural solution out of the basic values and recomputes the
/// objective from the primal point (exactly like the dense solver).
fn extract_solution(
    s: &mut Scratch,
    form: &StandardForm,
    problem: &Problem,
    iterations: usize,
    warm_start: bool,
) -> Solution {
    s.values.clear();
    s.values.resize(form.n_structural, 0.0);
    for (i, &basic_col) in s.basis.iter().enumerate() {
        if basic_col < form.n_structural {
            s.values[basic_col] = s.xb[i];
        }
    }
    // Clamp round-off negatives to zero; legitimate tiny positives survive
    // (variables are non-negative by construction, so any negative here is
    // numerical noise from the basis updates).
    for v in &mut s.values {
        if *v < 0.0 {
            *v = 0.0;
        }
    }

    let mut objective_value: f64 = problem
        .objective()
        .iter()
        .zip(s.values.iter())
        .map(|(c, x)| c * x)
        .sum();
    if objective_value.abs() < 1e-12 {
        objective_value = 0.0;
    }
    let fc = s.factor.counters();
    let stats = SolverStats {
        iterations,
        rows: form.rows,
        columns: form.cols,
        warm_start,
        refactorizations: (fc.refactorizations - s.factor_base.refactorizations) as usize,
        eta_pivots: (fc.eta_pivots - s.factor_base.eta_pivots) as usize,
    };
    Solution::new(s.values.clone(), objective_value, stats)
}

/// Interior-mutable, thread-safe wrapper around a [`SolverContext`].
///
/// Allocation policies take `&self` (the [`AllocationPolicy`]-style traits
/// downstream are object-safe and shared across threads), yet warm-starting
/// needs mutable solver state.  `ContextCell` bridges the two: policies store
/// one cell and call [`ContextCell::solve`] from `&self`, while the cached
/// basis and buffers persist across rounds behind a mutex.
///
/// Cloning produces a *fresh* cell with the same options: solver caches are
/// per-instance working state, not part of a policy's identity.  For the same
/// reason cells compare equal to each other and serialize as `null`.
///
/// [`AllocationPolicy`]: https://docs.rs/oef-core
#[derive(Debug, Default)]
pub struct ContextCell {
    inner: std::sync::Mutex<SolverContext>,
}

impl ContextCell {
    /// Cell with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cell with explicit solver options.
    pub fn with_options(options: SimplexOptions) -> Self {
        Self {
            inner: std::sync::Mutex::new(SolverContext::with_options(options)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SolverContext> {
        // A panic mid-solve leaves only scratch buffers in an odd state; the
        // next solve rebuilds them, so poisoning is safe to ignore.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Solves through the shared context (see [`SolverContext::solve`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`SolverContext::solve`].
    pub fn solve(&self, problem: &Problem) -> Result<Solution> {
        self.lock().solve(problem)
    }

    /// Solves through the shared context with the caller's options, re-syncing
    /// the context's options first (see [`SolverContext::solve_with`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`SolverContext::solve`].
    pub fn solve_with(&self, problem: &Problem, options: &SimplexOptions) -> Result<Solution> {
        self.lock().solve_with(problem, options)
    }

    /// Warm/cold counters of the underlying context.
    pub fn stats(&self) -> ContextStats {
        self.lock().stats()
    }

    /// Whether the most recent solve warm-started.
    pub fn last_was_warm(&self) -> bool {
        self.lock().last_was_warm()
    }

    /// Clone of the most recent solve's per-owner work attribution (see
    /// [`SolverContext::last_attribution`]).
    pub fn last_attribution(&self) -> AttributionReport {
        self.lock().last_attribution().clone()
    }

    /// Drops the cached basis.
    pub fn invalidate(&self) {
        self.lock().invalidate();
    }

    /// Re-labels the cached basis (see
    /// [`SolverContext::relabel_cached_basis`]).
    pub fn relabel_cached_basis(&self, var_to: &[usize], row_to: &[usize]) {
        self.lock().relabel_cached_basis(var_to, row_to);
    }

    /// Direct mutable access when the cell is uniquely owned.
    pub fn get_mut(&mut self) -> &mut SolverContext {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Clone for ContextCell {
    fn clone(&self) -> Self {
        Self::with_options(self.lock().options().clone())
    }
}

impl PartialEq for ContextCell {
    /// Solver caches are working state, not identity: all cells are equal.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for ContextCell {}

impl serde::Serialize for ContextCell {
    fn serialize(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for ContextCell {
    fn deserialize(_value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Ok(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, Problem, Sense, Variable};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    fn textbook_problem() -> (Problem, Variable, Variable) {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 3.0);
        p.set_objective_coefficient(y, 5.0);
        p.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        (p, x, y)
    }

    #[test]
    fn cold_solve_matches_dense_on_textbook_problem() {
        let (p, x, y) = textbook_problem();
        let mut ctx = SolverContext::new();
        let s = ctx.solve(&p).unwrap();
        assert_close(s.objective_value(), 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
        assert!(!s.stats().warm_start);
        assert_eq!(ctx.stats().cold_solves, 1);
    }

    #[test]
    fn warm_solve_on_identical_problem_takes_zero_pivots() {
        let (p, _, _) = textbook_problem();
        let mut ctx = SolverContext::new();
        let cold = ctx.solve(&p).unwrap();
        let warm = ctx.solve(&p).unwrap();
        assert!(warm.stats().warm_start);
        assert_eq!(
            warm.stats().iterations,
            0,
            "optimal basis should be reused as-is"
        );
        assert_close(warm.objective_value(), cold.objective_value());
        assert!(ctx.last_was_warm());
        assert_eq!(ctx.stats().warm_solves, 1);
    }

    /// max Σ c_i x_i s.t. Σ x_i <= 10 and x_i <= cap_i, with entity `e`'s
    /// `(c, cap)` written into variable and bound row `seat[e]`.
    fn seated_problem(seat: [usize; 3]) -> Problem {
        let data = [(3.0, 2.0), (2.0, 3.0), (1.0, 8.0)];
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<Variable> = (0..3).map(|i| p.add_variable(format!("x{i}"))).collect();
        let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&all, ConstraintOp::Le, 10.0);
        for i in 0..3 {
            let e = seat.iter().position(|&s| s == i).unwrap();
            p.set_objective_coefficient(vars[i], data[e].0);
            p.add_constraint(&[(vars[i], 1.0)], ConstraintOp::Le, data[e].1);
        }
        p
    }

    #[test]
    fn relabelled_basis_follows_entities_that_changed_seats() {
        let rotated = seated_problem([1, 2, 0]);
        let solve_rotated = |relabel: bool| {
            let mut ctx = SolverContext::new();
            ctx.solve(&seated_problem([0, 1, 2])).unwrap();
            if relabel {
                ctx.relabel_cached_basis(&[1, 2, 0], &[0, 2, 3, 1]);
            }
            let warm = ctx.solve(&rotated).unwrap();
            assert!(warm.stats().warm_start);
            assert_close(warm.objective_value(), 3.0 * 2.0 + 2.0 * 3.0 + 5.0);
            warm.stats().iterations
        };
        assert_eq!(
            solve_rotated(true),
            0,
            "the optimal basis moved with the data"
        );
        assert!(
            solve_rotated(false) > 0,
            "read by position it has to be repaired"
        );

        // A labelling that does not fit the cached shape drops the cache.
        let mut ctx = SolverContext::new();
        ctx.solve(&rotated).unwrap();
        ctx.relabel_cached_basis(&[0, 1], &[0, 1, 2]);
        let cold = ctx.solve(&rotated).unwrap();
        assert!(!cold.stats().warm_start);
        assert_close(cold.objective_value(), 17.0);
    }

    #[test]
    fn warm_solve_tracks_objective_perturbation() {
        let (mut p, x, y) = textbook_problem();
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        p.update_objective_coefficient(x, 4.0);
        let warm = ctx.solve(&p).unwrap();
        assert!(warm.stats().warm_start);
        let dense = p.solve().unwrap();
        assert_close(warm.objective_value(), dense.objective_value());
        assert_close(warm.value(x), dense.value(x));
        assert_close(warm.value(y), dense.value(y));
    }

    #[test]
    fn warm_solve_tracks_rhs_update() {
        let (mut p, _, _) = textbook_problem();
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        p.update_rhs(2, 20.0);
        let warm = ctx.solve(&p).unwrap();
        let dense = p.solve().unwrap();
        assert_close(warm.objective_value(), dense.objective_value());
    }

    #[test]
    fn ge_and_eq_constraints_cold_solve() {
        // min 0.12x + 0.15y s.t. 60x + 60y >= 300, 12x + 6y >= 36, 10x + 30y >= 90.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 0.12);
        p.set_objective_coefficient(y, 0.15);
        p.add_constraint(&[(x, 60.0), (y, 60.0)], ConstraintOp::Ge, 300.0);
        p.add_constraint(&[(x, 12.0), (y, 6.0)], ConstraintOp::Ge, 36.0);
        p.add_constraint(&[(x, 10.0), (y, 30.0)], ConstraintOp::Ge, 90.0);
        let mut ctx = SolverContext::new();
        let s = ctx.solve(&p).unwrap();
        assert_close(s.objective_value(), 0.66);
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
        // Warm re-solve with a perturbed RHS still agrees with dense.
        p.update_rhs(0, 320.0);
        let warm = ctx.solve(&p).unwrap();
        let dense = p.solve().unwrap();
        assert_close(warm.objective_value(), dense.objective_value());
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut infeasible = Problem::new(Sense::Maximize);
        let x = infeasible.add_variable("x");
        infeasible.set_objective_coefficient(x, 1.0);
        infeasible.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 5.0);
        infeasible.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 3.0);
        assert_eq!(
            SolverContext::new().solve(&infeasible).unwrap_err(),
            LpError::Infeasible
        );

        let mut unbounded = Problem::new(Sense::Maximize);
        let x = unbounded.add_variable("x");
        let y = unbounded.add_variable("y");
        unbounded.set_objective_coefficient(x, 1.0);
        unbounded.add_constraint(&[(y, 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(
            SolverContext::new().solve(&unbounded).unwrap_err(),
            LpError::Unbounded
        );
    }

    #[test]
    fn shape_change_falls_back_to_cold() {
        let (p, _, _) = textbook_problem();
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();

        // Different shape: one extra constraint, from an unrelated problem
        // instance (no churn journal bridges the two).
        let (mut p2, x, y) = textbook_problem();
        p2.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 7.0);
        let s = ctx.solve(&p2).unwrap();
        assert!(!s.stats().warm_start, "shape change must cold-solve");
        assert_eq!(ctx.stats().cold_solves, 2);
        let dense = p2.solve().unwrap();
        assert_close(s.objective_value(), dense.objective_value());
    }

    #[test]
    fn rhs_sign_flip_changes_shape_and_still_matches_dense() {
        // Flipping the sign of a RHS changes the effective operator, so the
        // standard-form layout (and the signature) change.  The lineage
        // machinery may still serve this as a remapped warm repair (the row
        // count is unchanged), but whichever path runs must agree with dense.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 1.0);
        p.set_objective_coefficient(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 2.0);
        p.add_constraint(&[(y, 1.0)], ConstraintOp::Le, 5.0);
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();

        p.update_rhs(0, -2.0); // x - y <= -2 becomes a >= row after normalisation
        let s = ctx.solve(&p).unwrap();
        let dense = p.solve().unwrap();
        assert_close(s.objective_value(), dense.objective_value());
        assert_close(s.value(x), dense.value(x));
        assert_close(s.value(y), dense.value(y));
    }

    #[test]
    fn infeasible_after_update_is_reported_not_cached() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        p.set_objective_coefficient(x, 1.0);
        p.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        p.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 3.0);
        let mut ctx = SolverContext::new();
        assert!(ctx.solve(&p).is_ok());

        // Same shape, but now x >= 5 and x <= 3: infeasible.
        p.update_rhs(0, 5.0);
        assert_eq!(ctx.solve(&p).unwrap_err(), LpError::Infeasible);
        // The context recovers on the next solvable update.
        p.update_rhs(0, 2.0);
        let s = ctx.solve(&p).unwrap();
        assert_close(s.objective_value(), 3.0);
    }

    #[test]
    fn degenerate_problem_terminates_with_bland_fallback() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 1.0);
        p.set_objective_coefficient(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(y, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(x, 2.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        // Force Bland's rule from the first pivot: termination is then
        // guaranteed even on this degenerate vertex.
        let options = SimplexOptions {
            bland_threshold: 0,
            ..SimplexOptions::default()
        };
        let mut ctx = SolverContext::with_options(options);
        let s = ctx.solve(&p).unwrap();
        assert_close(s.objective_value(), 1.0);
        // Warm re-solve of the same degenerate program also terminates.
        let warm = ctx.solve(&p).unwrap();
        assert!(warm.stats().warm_start);
        assert_close(warm.objective_value(), 1.0);
    }

    #[test]
    fn warm_attempt_over_its_pivot_budget_falls_through_to_cold() {
        // The degenerate vertex above, re-priced so the cached basis needs
        // phase-2 pivots; with the warm budget forced to one pivot the
        // attempt must be abandoned — not spun to `max_iterations` — and
        // the cold path must deliver the optimum.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 1.0);
        p.set_objective_coefficient(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(y, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(&[(x, 2.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        assert_eq!(ctx.stats().cold_solves, 1);

        // Unbudgeted, the re-priced program is an ordinary warm solve.
        p.update_objective_coefficient(x, 3.0);
        p.update_rhs(0, 1.5);
        let mut unbudgeted = SolverContext::new();
        unbudgeted.cache.clone_from(&ctx.cache);
        let warm = unbudgeted.solve(&p).unwrap();
        assert!(warm.stats().warm_start);
        assert!(warm.stats().iterations > 1, "needs more than one pivot");

        ctx.warm_budget_override = Some(1);
        let s = ctx.solve(&p).unwrap();
        assert!(!s.stats().warm_start);
        assert_eq!(ctx.stats().cold_solves, 2);
        assert_eq!(ctx.stats().warm_solves, 0);
        assert_close(s.objective_value(), p.solve().unwrap().objective_value());
        assert_close(s.objective_value(), warm.objective_value());
    }

    #[test]
    fn tiny_pivot_budget_falls_back_to_dense_reference() {
        let (p, _, _) = textbook_problem();
        // One pivot is not enough for the revised path, so the context must
        // silently defer to the dense solver... which also fails with the
        // same budget — the error is reported faithfully.
        let options = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        let mut ctx = SolverContext::with_options(options);
        assert!(matches!(ctx.solve(&p), Err(LpError::IterationLimit { .. })));
        assert_eq!(ctx.stats().dense_fallbacks, 1);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 2.0);
        p.set_objective_coefficient(y, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 4.0);
        p.add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Eq, 8.0);
        p.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 3.0);
        let mut ctx = SolverContext::new();
        let s = ctx.solve(&p).unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 1.0);
        let warm = ctx.solve(&p).unwrap();
        assert_close(warm.objective_value(), 7.0);
    }

    #[test]
    fn equal_throughput_structure_matches_dense() {
        // The miniature non-cooperative OEF program from the dense solver's
        // test-suite: warm-started round sequence must match dense exactly.
        let build = |w22: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let x11 = p.add_variable("x11");
            let x12 = p.add_variable("x12");
            let x21 = p.add_variable("x21");
            let x22 = p.add_variable("x22");
            for (v, c) in [(x11, 1.0), (x12, 2.0), (x21, 1.0), (x22, w22)] {
                p.set_objective_coefficient(v, c);
            }
            p.add_constraint(&[(x11, 1.0), (x21, 1.0)], ConstraintOp::Le, 1.0);
            p.add_constraint(&[(x12, 1.0), (x22, 1.0)], ConstraintOp::Le, 1.0);
            p.add_constraint(
                &[(x11, 1.0), (x12, 2.0), (x21, -1.0), (x22, -w22)],
                ConstraintOp::Eq,
                0.0,
            );
            p
        };
        let mut ctx = SolverContext::new();
        for (round, w22) in [5.0, 5.1, 4.9, 5.05, 5.0].into_iter().enumerate() {
            let p = build(w22);
            let s = ctx.solve(&p).unwrap();
            let dense = p.solve().unwrap();
            assert!(
                (s.objective_value() - dense.objective_value()).abs() < 1e-6,
                "round {round}: revised {} vs dense {}",
                s.objective_value(),
                dense.objective_value()
            );
            if round > 0 {
                assert!(s.stats().warm_start, "round {round} should warm-start");
            }
        }
    }

    #[test]
    fn eta_file_growth_triggers_refactorization_mid_solve() {
        // A problem big enough to need many pivots, with the eta bound forced
        // low: the solve must transparently refactorize and still agree with
        // the dense oracle.
        let n = 24;
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| p.add_variable(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coefficient(v, 1.0 + (i as f64 * 0.37).sin().abs());
        }
        for i in 0..n {
            let terms = [
                (vars[i], 1.0),
                (vars[(i + 1) % n], 0.5),
                (vars[(i + 3) % n], 0.25),
            ];
            p.add_constraint(&terms, ConstraintOp::Le, 1.0 + (i % 3) as f64);
        }
        let mut ctx = SolverContext::new();
        ctx.scratch.factor.max_etas = 2;
        let s = ctx.solve(&p).unwrap();
        let dense = p.solve().unwrap();
        assert_close(s.objective_value(), dense.objective_value());
        assert!(
            s.stats().refactorizations >= 2,
            "forcing max_etas=2 over {} pivots must refactorize repeatedly, saw {}",
            s.stats().iterations,
            s.stats().refactorizations
        );
        assert!(s.stats().eta_pivots >= s.stats().iterations);
        assert!(ctx.stats().refactorizations >= 2);
    }

    #[test]
    fn singular_cached_basis_repairs_via_cold_path() {
        // Degenerate data update that makes the cached basis singular: two
        // structurally identical rows collapse the basis columns.  The warm
        // attempt must reject the factorization and the cold path recovers.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_variable("x");
        let y = p.add_variable("y");
        p.set_objective_coefficient(x, 1.0);
        p.set_objective_coefficient(y, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        p.add_constraint(&[(x, 2.0), (y, 1.0)], ConstraintOp::Le, 3.0);
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        // Make row 1 a copy of row 0: any basis using both rows' structural
        // columns is singular.
        p.update_constraint_coefficient(0, x, 1.0);
        p.update_constraint_coefficient(0, y, 1.0);
        p.update_constraint_coefficient(1, x, 1.0);
        p.update_constraint_coefficient(1, y, 1.0);
        p.update_rhs(1, 2.0);
        let s = ctx.solve(&p).unwrap();
        let dense = p.solve().unwrap();
        assert_close(s.objective_value(), dense.objective_value());
    }

    #[test]
    fn attribution_totals_match_counter_deltas_exactly() {
        let (mut p, _, _) = textbook_problem();
        let mut ctx = SolverContext::new();
        let mut acc = AttributionReport::default();
        let mut last = ctx.stats();
        for round in 0..4 {
            if round > 0 {
                p.update_rhs(2, 18.0 + 2.0 * round as f64);
            }
            // Two variable owners, no row owners (rows are shared capacity).
            p.set_attribution_owners(vec![0, 1], vec![NO_OWNER; 3]);
            ctx.solve(&p).unwrap();
            let report = ctx.last_attribution().clone();
            assert_eq!(report.slots.len(), 2, "two owner slots declared");
            let now = ctx.stats();
            assert_eq!(
                report.total().pivots,
                now.eta_pivots - last.eta_pivots,
                "round {round}: every eta append must be one attributed pivot"
            );
            assert_eq!(
                report.total().refactorizations,
                now.refactorizations - last.refactorizations,
                "round {round}: every refactorization must be attributed"
            );
            last = now;
            acc.merge(&report);
        }
        assert!(acc.total().pivots >= 1);
        assert!(
            acc.slots.iter().any(|w| !w.is_zero()),
            "structural pivots must land on variable owners, not only the shared bucket"
        );
    }

    #[test]
    fn attribution_disabled_without_owner_maps() {
        let (p, _, _) = textbook_problem();
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        let report = ctx.last_attribution();
        assert!(!report.attributed());
        let stats = ctx.stats();
        assert_eq!(report.unattributed.pivots, stats.eta_pivots);
        assert_eq!(report.unattributed.refactorizations, stats.refactorizations);
    }

    #[test]
    fn context_stats_expose_factor_counters() {
        let (mut p, x, _) = textbook_problem();
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        let stats = ctx.stats();
        assert!(stats.refactorizations >= 1, "cold solve factorizes once");
        assert!(stats.eta_pivots >= 1, "textbook problem needs pivots");
        // A perturbation that moves the optimal vertex forces repair pivots.
        p.update_objective_coefficient(x, 30.0);
        p.update_rhs(2, 6.0);
        let warm = ctx.solve(&p).unwrap();
        assert!(warm.stats().warm_start);
        let dense = p.solve().unwrap();
        assert_close(warm.objective_value(), dense.objective_value());
    }
}
