//! Cooperative OEF (§4.2.2, optimisation problem (10)).
//!
//! In cooperative environments misreporting is a non-issue, so OEF drops the
//! equal-throughput constraint and instead encodes envy-freeness directly as linear
//! constraints while maximising total efficiency.  Theorem 5.1 shows that at the
//! optimum, envy-freeness implies sharing-incentive for free.
//!
//! # Lazy envy rows
//!
//! Problem (10) carries one envy row `W_l · x_l ≥ W_l · x_i` per ordered tenant
//! pair — `k + n(n-1)` rows — of which only a few per tenant bind at the
//! optimum (~66 of 380 at the paper's 20 tenants × 3 GPU types).  The policy
//! therefore solves (10) by **row generation over a working set that persists
//! across rounds**: the cached LP holds the `k` capacity rows plus only the
//! envy rows generated so far, and every `allocate`
//!
//! 1. diffs the incoming speedup matrix against the coefficients the LP
//!    encodes and rewrites only the changed tenants' objective entries and
//!    working-set rows (row `(l, i)` depends on `W_l` alone);
//! 2. warm-solves the relaxation;
//! 3. runs a **separation pass**: evaluates all `n(n-1)` envy constraints on
//!    the returned `x` — `O(n²k)` multiply-adds, 1 140 at 20 × 3;
//! 4. appends every violated row in one journaled
//!    [`Problem::add_tenant_rows`] edit, so the solver context re-enters
//!    through its churn remap + dual repair (a fresh `≥` row seeds its own
//!    surplus column at a negative value) instead of a cold solve;
//!
//! and repeats 2–4 until nothing is violated.  A relaxation whose optimum
//! satisfies every constraint of (10) is optimal for (10), so the objective,
//! envy-freeness and (Theorem 5.1) sharing incentive are exactly those of the
//! full program.
//!
//! **The separation pass is also the primal certificate.**  It re-checks the
//! capacity rows, `x ≥ 0` and the *active* envy rows against the round's own
//! `(cluster, speedups)` — not against the LP's copy of them.  A violation
//! there cannot come from the relaxation; it is a solver fault (a basis the
//! simplex accepted inside its own tolerances, or a fallback path gone
//! wrong).  On a fault — or a relaxation the solver gives up on inside its
//! [`pivot_cap`] — the policy drops the cached basis *and* the working set,
//! solves the round once more from the capacity rows up, and only if that
//! fails too reports the error ([`OefError::InvalidAllocation`] for a
//! fault).  A served round therefore never over-commits a GPU type or
//! leaves envy above [`CERTIFICATE_TOL`].  (Cold-solving the accumulated
//! program instead was measured and rejected: 150–200 ms against 2–8 ms,
//! and that path is where the simplex is weakest — on `coop_paper` scripts
//! it cycled to the million-pivot limit, and ended in a dense fallback that
//! handed out 8.11 of 8 `rtx3080` both times it was asked.)
//!
//! **No purge.**  Rows never leave the working set while rounds are served
//! from it.  Two purges were measured and rejected: dropping idle rows
//! through [`Problem::remove_tenant_rows`] turns one round in ten into a cold
//! solve (the churn remap discards the column basic at a removed row's basis
//! *position*, which is rarely that row's own slack), and rebuilding at
//! twice the binding count buys nothing because the dropped rows re-enter
//! within ~1 000 rounds.  The set plateaus around half of `n(n-1)` under
//! re-profiling traffic; its worst case is the full program, i.e. what every
//! round used to solve.  It is reset only when the program is rebuilt:
//! because the tenant or GPU-type count changed, or — about once in 100 000
//! rounds — because a relaxation failed.

use crate::error::OefError;
use crate::policy::AllocationPolicy;
use crate::program_cache::ProgramCell;
use crate::{Allocation, ClusterSpec, Result, SpeedupMatrix};
use oef_lp::{
    AttributionReport, ConstraintOp, ContextCell, LinearExpr, Problem, Sense, SimplexOptions,
    Solution, SolverContext, Variable,
};
use serde::{Deserialize, Serialize};

/// An envy constraint outside the working set joins it when the relaxation's
/// optimum violates it by more than this (the simplex's own tolerance).
const SEPARATION_TOL: f64 = 1e-9;

/// Slack the primal certificate grants capacity rows, `x ≥ 0` and active envy
/// rows — `oef-lp`'s warm-start feasibility tolerance.  Beyond it the solve
/// is treated as faulty.
const CERTIFICATE_TOL: f64 = 1e-7;

/// Pivot cap of one relaxation.  Served warm, a relaxation needs a few pivots
/// per appended row (`oef-lp` caps the dual repair itself at `4·rows + 32`).
/// One the context cannot serve warm it cold-solves, and a cold solve of the
/// accumulated working set — hundreds of near-parallel rows — is both slow
/// (150–200 ms at 20 tenants) and where the simplex cycles to its default
/// million-pivot limit.  The cap makes that path fail fast instead, and a
/// failed relaxation restarts the round from the capacity rows.
fn pivot_cap(problem: &Problem) -> usize {
    4 * problem.num_constraints() + 1_000
}

/// The relaxation of problem (10) a policy instance keeps across rounds: the
/// capacity rows plus the working set of envy rows generated so far (see the
/// module docs).
///
/// Variables sit in tenant-major `k`-blocks; rows are the `k` capacity rows
/// followed by the working set in generation order.
#[derive(Debug)]
struct CoopProgram {
    problem: Problem,
    n: usize,
    k: usize,
    /// Handle of `x_l^j` at `l * k + j`.
    vars: Vec<Variable>,
    /// Row-major copy of the speedups the LP currently encodes — what the
    /// per-round diff compares against.
    encoded: Vec<f64>,
    /// `in_set[l * n + i]`: envy row `(l, i)` is in the working set.
    in_set: Vec<bool>,
    /// Per envious tenant `l`: `(row index, i)` of its working-set rows, the
    /// rows a re-profile of `l` rewrites and that bill their work to `l`.
    rows_of: Vec<Vec<(usize, usize)>>,
    /// The owner maps must be declared again before the next solve: every
    /// journaled row append clears them.
    owners_stale: bool,
    /// Solver-work attribution merged over every solve of the latest
    /// `allocate`, so a round that needed three relaxations reports all three.
    attribution: AttributionReport,
}

/// What the separation pass found on one relaxation's optimum.
#[derive(Debug, PartialEq)]
enum Separation {
    /// Every constraint of problem (10) holds: `x` is optimal for (10).
    Optimal,
    /// Envy pairs `(l, i)` outside the working set that `x` violates.
    Violated(Vec<(usize, usize)>),
    /// `x` breaks a constraint the LP already contains — a solver fault.
    Fault(String),
}

/// Evaluates every constraint of problem (10) on `x` (tenant-major, `n * k`)
/// against the round's own data.  A non-finite share fails the first check,
/// so the sums compared afterwards are finite.
fn separate(
    x: &[f64],
    cluster: &ClusterSpec,
    speedups: &SpeedupMatrix,
    in_set: &[bool],
) -> Separation {
    let n = speedups.num_users();
    let k = cluster.num_gpu_types();
    if let Some(v) = x.iter().find(|v| !v.is_finite() || **v < -CERTIFICATE_TOL) {
        return Separation::Fault(format!("solver returned a share of {v}"));
    }
    for j in 0..k {
        let used: f64 = (0..n).map(|l| x[l * k + j]).sum();
        if used > cluster.capacity(j) + CERTIFICATE_TOL {
            return Separation::Fault(format!(
                "solver hands out {used} of {} {}",
                cluster.capacity(j),
                cluster.gpu_type_name(j)
            ));
        }
    }
    let mut violated = Vec::new();
    for l in 0..n {
        let w = speedups.user(l);
        let own = w.dot(&x[l * k..(l + 1) * k]);
        for i in (0..n).filter(|&i| i != l) {
            let envy = w.dot(&x[i * k..(i + 1) * k]) - own;
            if envy <= SEPARATION_TOL {
                continue;
            }
            if !in_set[l * n + i] {
                violated.push((l, i));
            } else if envy > CERTIFICATE_TOL {
                return Separation::Fault(format!(
                    "tenant {l} envies tenant {i} by {envy} although the LP holds that row"
                ));
            }
        }
    }
    if violated.is_empty() {
        Separation::Optimal
    } else {
        Separation::Violated(violated)
    }
}

impl CoopProgram {
    /// The relaxation with an empty working set: objective (10a) and the
    /// capacity rows (10b).
    fn new(cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Self {
        let n = speedups.num_users();
        let k = cluster.num_gpu_types();
        let mut problem = Problem::new(Sense::Maximize);
        let vars = problem.add_variables("x", n * k);
        let encoded: Vec<f64> = speedups
            .iter()
            .flat_map(|w| w.as_slice().iter().copied())
            .collect();
        for (&var, &w) in vars.iter().zip(&encoded) {
            problem.set_objective_coefficient(var, w);
        }
        for j in 0..k {
            let terms: Vec<_> = (0..n).map(|l| (vars[l * k + j], 1.0)).collect();
            problem.add_constraint(&terms, ConstraintOp::Le, cluster.capacity(j));
        }
        Self {
            problem,
            n,
            k,
            vars,
            encoded,
            in_set: vec![false; n * n],
            rows_of: vec![Vec::new(); n],
            owners_stale: true,
            attribution: AttributionReport::default(),
        }
    }

    /// Brings the LP's data in line with this round's `(cluster, speedups)`:
    /// capacities, then — for the tenants whose profile moved — the objective
    /// block and the working-set rows built from that profile.
    fn sync(&mut self, cluster: &ClusterSpec, speedups: &SpeedupMatrix) {
        let k = self.k;
        for j in 0..k {
            self.problem.update_rhs(j, cluster.capacity(j));
        }
        for l in 0..self.n {
            let fresh = speedups.user(l).as_slice();
            let encoded = &mut self.encoded[l * k..(l + 1) * k];
            if encoded == fresh {
                continue;
            }
            encoded.copy_from_slice(fresh);
            let own = &self.vars[l * k..(l + 1) * k];
            for (&var, &w) in own.iter().zip(fresh) {
                self.problem.update_objective_coefficient(var, w);
            }
            for &(row, i) in &self.rows_of[l] {
                let other = &self.vars[i * k..(i + 1) * k];
                for j in 0..k {
                    self.problem
                        .update_constraint_coefficient(row, own[j], fresh[j]);
                    self.problem
                        .update_constraint_coefficient(row, other[j], -fresh[j]);
                }
            }
        }
    }

    /// Appends the envy rows (10c) `W_l · x_l − W_l · x_i ≥ 0` of `pairs` to
    /// the working set as one journaled edit.
    fn append(&mut self, pairs: &[(usize, usize)]) {
        let (n, k) = (self.n, self.k);
        let (vars, encoded) = (&self.vars, &self.encoded);
        let (_, rows) = self.problem.add_tenant_rows("", 0, |_| {
            pairs
                .iter()
                .map(|&(l, i)| {
                    let w = &encoded[l * k..(l + 1) * k];
                    let mut expr = LinearExpr::new();
                    for j in 0..k {
                        expr.add_term(vars[l * k + j], w[j]);
                    }
                    for j in 0..k {
                        expr.add_term(vars[i * k + j], -w[j]);
                    }
                    (expr, ConstraintOp::Ge, 0.0)
                })
                .collect()
        });
        for (&(l, i), row) in pairs.iter().zip(rows) {
            self.in_set[l * n + i] = true;
            self.rows_of[l].push((row, i));
        }
        self.owners_stale = true;
    }

    /// Declares the owner maps for solver work attribution when the shape
    /// changed since they were last set: variable block `l` and every
    /// working-set row guarding tenant `l`'s bundle belong to owner slot `l`;
    /// the shared capacity rows stay unowned.
    fn declare_owners(&mut self) {
        if !std::mem::take(&mut self.owners_stale) {
            return;
        }
        let k = self.k;
        let var_owner = (0..self.n * k).map(|v| (v / k) as u32).collect();
        let mut row_owner = vec![oef_lp::NO_OWNER; self.problem.num_constraints()];
        for (l, rows) in self.rows_of.iter().enumerate() {
            for &(row, _) in rows {
                row_owner[row] = l as u32;
            }
        }
        self.problem.set_attribution_owners(var_owner, row_owner);
    }
}

/// The policy's solver context as either entry point reaches it: through the
/// cell's mutex (`allocate`) or directly (`allocate_mut`).
enum Solver<'a> {
    Shared(&'a ContextCell),
    Exclusive(&'a mut SolverContext),
}

impl Solver<'_> {
    fn solve(&mut self, problem: &Problem, options: &SimplexOptions) -> oef_lp::Result<Solution> {
        match self {
            Solver::Shared(cell) => cell.solve_with(problem, options),
            Solver::Exclusive(context) => context.solve_with(problem, options),
        }
    }

    fn invalidate(&mut self) {
        match self {
            Solver::Shared(cell) => cell.invalidate(),
            Solver::Exclusive(context) => context.invalidate(),
        }
    }

    fn merge_attribution_into(&self, total: &mut AttributionReport) {
        match self {
            Solver::Shared(cell) => total.merge(&cell.last_attribution()),
            Solver::Exclusive(context) => total.merge(context.last_attribution()),
        }
    }
}

/// Solves problem (10) for this round by row generation over the cached
/// working set (see the module docs).
fn allocate_lazily(
    slot: &mut Option<CoopProgram>,
    mut solver: Solver<'_>,
    options: &SimplexOptions,
    cluster: &ClusterSpec,
    speedups: &SpeedupMatrix,
) -> Result<Allocation> {
    cluster.check_compatible(speedups)?;
    let n = speedups.num_users();
    let k = cluster.num_gpu_types();
    if n == 0 {
        return Err(OefError::NoUsers);
    }
    match slot {
        Some(prog) if prog.n == n && prog.k == k => {
            prog.sync(cluster, speedups);
            prog.attribution.slots.clear();
            prog.attribution.unattributed = oef_lp::TenantWork::default();
        }
        _ => *slot = Some(CoopProgram::new(cluster, speedups)),
    }

    let mut restarted = false;
    loop {
        let prog = slot.as_mut().expect("populated above");
        prog.declare_owners();
        // Built from the public field every time, so mutations of
        // `solver_options` (or a serde round trip) stay authoritative.
        let capped = SimplexOptions {
            max_iterations: options.max_iterations.min(pivot_cap(&prog.problem)),
            ..options.clone()
        };
        let solved = solver.solve(&prog.problem, &capped);
        solver.merge_attribution_into(&mut prog.attribution);
        let failure = match solved {
            Ok(solution) => match separate(solution.values(), cluster, speedups, &prog.in_set) {
                Separation::Optimal => {
                    let rows = solution.values().chunks(k).map(<[f64]>::to_vec).collect();
                    return Allocation::new(rows);
                }
                Separation::Violated(pairs) => {
                    prog.append(&pairs);
                    continue;
                }
                Separation::Fault(reason) => OefError::InvalidAllocation { reason },
            },
            Err(error) => OefError::Solver(error),
        };
        if restarted {
            return Err(failure);
        }
        // Solve the round once more from the capacity rows up, keeping only
        // the work already billed to it.
        restarted = true;
        solver.invalidate();
        let attribution = std::mem::take(&mut prog.attribution);
        slot.insert(CoopProgram::new(cluster, speedups)).attribution = attribution;
    }
}

/// The cooperative OEF fair-share evaluator.
///
/// ```
/// use oef_core::{AllocationPolicy, ClusterSpec, CooperativeOef, SpeedupMatrix};
///
/// // The worked example of §3.1.1, Eq. (6): two users with speedups (1,2) and (1,5).
/// let cluster = ClusterSpec::homogeneous_counts(&["slow", "fast"], &[1.0, 1.0]).unwrap();
/// let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
/// let allocation = CooperativeOef::default().allocate(&cluster, &speedups).unwrap();
/// // Total efficiency 5.25, reached by X = [1, 0.25; 0, 0.75].
/// assert!((allocation.total_efficiency(&speedups) - 5.25).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CooperativeOef {
    /// Options forwarded to the simplex solver.
    pub solver_options: SimplexOptions,
    /// Reusable warm-start solver state: every relaxation (of this round, or
    /// the first of the next) starts from the previous optimal basis — across
    /// a row append through the context's churn repair.
    context: ContextCell,
    /// The relaxation kept across rounds (see [`CoopProgram`]).
    program: ProgramCell<CoopProgram>,
}

impl Default for CooperativeOef {
    fn default() -> Self {
        Self::with_options(SimplexOptions::default())
    }
}

impl CooperativeOef {
    /// Creates a policy with custom solver options.
    pub fn with_options(solver_options: SimplexOptions) -> Self {
        let context = ContextCell::with_options(solver_options.clone());
        Self {
            solver_options,
            context,
            program: ProgramCell::default(),
        }
    }

    /// Read access to the policy's solver context (warm/cold counters).
    pub fn solver_context(&self) -> &ContextCell {
        &self.context
    }
}

impl AllocationPolicy for CooperativeOef {
    fn name(&self) -> &str {
        "oef-cooperative"
    }

    fn allocate(&self, cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Result<Allocation> {
        allocate_lazily(
            &mut self.program.lock(),
            Solver::Shared(&self.context),
            &self.solver_options,
            cluster,
            speedups,
        )
    }

    fn allocate_mut(
        &mut self,
        cluster: &ClusterSpec,
        speedups: &SpeedupMatrix,
    ) -> Result<Allocation> {
        // Exclusive access: skip both cells' mutexes entirely.
        allocate_lazily(
            self.program.get_mut(),
            Solver::Exclusive(self.context.get_mut()),
            &self.solver_options,
            cluster,
            speedups,
        )
    }

    fn solver_stats(&self) -> Option<oef_lp::ContextStats> {
        Some(self.context.stats())
    }

    /// Merged over every relaxation the most recent `allocate` solved.
    fn solver_attribution(&self) -> Option<AttributionReport> {
        let slot = self.program.lock();
        Some(
            slot.as_ref()
                .map_or_else(AttributionReport::default, |prog| prog.attribution.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_type_cluster() -> ClusterSpec {
        ClusterSpec::homogeneous_counts(&["slow", "fast"], &[1.0, 1.0]).unwrap()
    }

    fn is_envy_free(a: &Allocation, w: &SpeedupMatrix) -> bool {
        let n = a.num_users();
        (0..n).all(|l| {
            (0..n).all(|i| a.cross_efficiency(l, l, w) >= a.cross_efficiency(l, i, w) - 1e-6)
        })
    }

    /// `n` distinct profiles on the paper's three-type cluster.
    fn paper_tenants(n: u32) -> (ClusterSpec, SpeedupMatrix) {
        let rows = (0..n)
            .map(|t| {
                let mid = 1.05 + 0.04 * f64::from(t);
                vec![1.0, mid, mid * (1.1 + 0.03 * f64::from(t % 7))]
            })
            .collect();
        (
            ClusterSpec::paper_evaluation_cluster(),
            SpeedupMatrix::from_rows(rows).unwrap(),
        )
    }

    /// The full program (10), every one of the `n(n-1)` envy rows present:
    /// the oracle the row generation is checked against.
    fn full_program(cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Problem {
        let n = speedups.num_users();
        let mut prog = CoopProgram::new(cluster, speedups);
        let pairs: Vec<_> = (0..n)
            .flat_map(|l| (0..n).filter(move |&i| i != l).map(move |i| (l, i)))
            .collect();
        prog.append(&pairs);
        prog.problem
    }

    #[test]
    fn row_generation_reaches_the_full_programs_optimum_with_a_fraction_of_its_rows() {
        let (cluster, speedups) = paper_tenants(12);
        let policy = CooperativeOef::default();
        let a = policy.allocate(&cluster, &speedups).unwrap();
        let full = full_program(&cluster, &speedups).solve().unwrap();
        assert!((a.total_efficiency(&speedups) - full.objective_value()).abs() < 1e-6);
        assert!(is_envy_free(&a, &speedups));
        assert!(a.is_feasible(&cluster));
        let slot = policy.program.lock();
        let rows = slot.as_ref().unwrap().problem.num_constraints();
        assert!(
            rows > 3 && rows < 3 + 100,
            "working set should hold a fraction of the 132 envy rows, has {}",
            rows - 3
        );
    }

    #[test]
    fn working_set_persists_and_owner_maps_are_declared_only_when_it_grows() {
        let (cluster, speedups) = paper_tenants(20);
        let mut policy = CooperativeOef::default();
        policy.allocate_mut(&cluster, &speedups).unwrap();
        let rows_after_first = {
            let prog = policy.program.get_mut().as_ref().unwrap();
            assert!(!prog.owners_stale);
            prog.problem.num_constraints()
        };
        let solves_after_first = policy.solver_stats().unwrap();

        // The same data again: one warm solve, nothing generated, and the
        // owner maps the problem carries are the ones declared last round
        // (attribution still resolves all 20 slots).
        policy.allocate_mut(&cluster, &speedups).unwrap();
        let stats = policy.solver_stats().unwrap();
        assert_eq!(stats.warm_solves, solves_after_first.warm_solves + 1);
        assert_eq!(stats.cold_solves, solves_after_first.cold_solves);
        assert_eq!(policy.solver_attribution().unwrap().slots.len(), 20);
        let prog = policy.program.get_mut().as_ref().unwrap();
        assert_eq!(prog.problem.num_constraints(), rows_after_first);

        // A tenant joining rebuilds the program and resets the set.
        let grown = speedups
            .with_appended_rows(vec![crate::SpeedupVector::new(vec![1.0, 1.2, 1.5]).unwrap()])
            .unwrap();
        let a = policy.allocate_mut(&cluster, &grown).unwrap();
        assert_eq!(a.num_users(), 21);
        assert!(is_envy_free(&a, &grown));
    }

    #[test]
    fn attribution_covers_every_relaxation_of_a_round() {
        let (cluster, speedups) = paper_tenants(20);
        let mut policy = CooperativeOef::default();
        policy.allocate_mut(&cluster, &speedups).unwrap();
        let stats = policy.solver_stats().unwrap();
        assert!(
            stats.warm_solves >= 1,
            "the first round needs more than one relaxation"
        );
        let work = policy.solver_attribution().unwrap().total();
        assert_eq!(work.pivots, stats.eta_pivots);
        assert_eq!(work.refactorizations, stats.refactorizations);
    }

    #[test]
    fn re_profiling_rewrites_only_the_moved_tenants_rows() {
        let (cluster, speedups) = paper_tenants(12);
        let mut policy = CooperativeOef::default();
        policy.allocate_mut(&cluster, &speedups).unwrap();
        let moved = speedups
            .with_replaced_row(4, crate::SpeedupVector::new(vec![1.0, 1.31, 1.9]).unwrap())
            .unwrap();
        let a = policy.allocate_mut(&cluster, &moved).unwrap();
        let full = full_program(&cluster, &moved).solve().unwrap();
        assert!((a.total_efficiency(&moved) - full.objective_value()).abs() < 1e-6);
        // Every working-set row now encodes the moved matrix.
        let prog = policy.program.get_mut().as_ref().unwrap();
        for (l, rows) in prog.rows_of.iter().enumerate() {
            for &(row, i) in rows {
                let terms: Vec<_> = prog.problem.constraints()[row].expr.terms().collect();
                for j in 0..3 {
                    assert_eq!(terms[j], (prog.vars[l * 3 + j], moved.speedup(l, j)));
                    assert_eq!(terms[3 + j], (prog.vars[i * 3 + j], -moved.speedup(l, j)));
                }
            }
        }
    }

    #[test]
    fn a_solve_that_fails_its_certificate_restarts_from_an_empty_working_set() {
        let (cluster, speedups) = paper_tenants(12);
        let mut policy = CooperativeOef::default();
        let served = policy.allocate_mut(&cluster, &speedups).unwrap();
        let before = policy.solver_stats().unwrap();

        // Stand in for a faulty solve: blank the envied side of every
        // working-set row behind the policy's back, so the LP it re-solves
        // no longer contains the constraints it believes it holds.
        let prog = policy.program.get_mut().as_mut().unwrap();
        let stale_instance = prog.problem.churn_instance();
        for rows in &prog.rows_of {
            for &(row, i) in rows {
                for j in 0..3 {
                    prog.problem
                        .update_constraint_coefficient(row, prog.vars[i * 3 + j], 0.0);
                }
            }
        }

        let again = policy.allocate_mut(&cluster, &speedups).unwrap();
        assert!(is_envy_free(&again, &speedups));
        assert!(
            (again.total_efficiency(&speedups) - served.total_efficiency(&speedups)).abs() < 1e-6
        );
        let after = policy.solver_stats().unwrap();
        assert!(after.cold_solves > before.cold_solves);
        let prog = policy.program.get_mut().as_ref().unwrap();
        assert_ne!(prog.problem.churn_instance(), stale_instance);
        // The round's attribution spans the failed solve and the restart.
        let work = policy.solver_attribution().unwrap().total();
        assert_eq!(work.pivots, after.eta_pivots - before.eta_pivots);
    }

    #[test]
    fn mutated_solver_options_stay_authoritative_and_a_failed_round_leaves_no_debris() {
        let (cluster, speedups) = paper_tenants(12);
        let mut policy = CooperativeOef::default();
        let served = policy.allocate(&cluster, &speedups).unwrap();
        // A zero pivot budget set after construction fails the relaxation,
        // then the restart, and is reported — not swallowed.
        policy.solver_options.max_iterations = 0;
        assert!(matches!(
            policy.allocate(&cluster, &speedups),
            Err(OefError::Solver(oef_lp::LpError::IterationLimit { .. }))
        ));
        policy.solver_options.max_iterations = 1_000_000;
        let again = policy.allocate_mut(&cluster, &speedups).unwrap();
        assert!(is_envy_free(&again, &speedups));
        assert!(
            (again.total_efficiency(&speedups) - served.total_efficiency(&speedups)).abs() < 1e-6
        );
    }

    #[test]
    fn separation_pass_certifies_against_the_problem_data() {
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
        let none = [false; 4];
        let all = [true; 4];
        // Eq. (6)'s optimum passes with or without rows in the set.
        let optimum = [1.0, 0.25, 0.0, 0.75];
        assert_eq!(
            separate(&optimum, &cluster, &speedups, &none),
            Separation::Optimal
        );
        assert_eq!(
            separate(&optimum, &cluster, &speedups, &all),
            Separation::Optimal
        );
        // The capacity-only relaxation hands tenant 1 everything: tenant 0
        // envies it — a row to generate, or a fault if the LP already held it.
        let greedy = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(
            separate(&greedy, &cluster, &speedups, &none),
            Separation::Violated(vec![(0, 1)])
        );
        assert!(matches!(
            separate(&greedy, &cluster, &speedups, &all),
            Separation::Fault(_)
        ));
        // Over-commitment, a negative share and a NaN are faults whatever the set.
        for bad in [
            [1.0, 0.25, 0.0, 0.7500002],
            [1.0, 0.25, -1e-6, 0.75],
            [1.0, f64::NAN, 0.0, 0.75],
        ] {
            assert!(
                matches!(
                    separate(&bad, &cluster, &speedups, &none),
                    Separation::Fault(_)
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn paper_example_eq6_total_efficiency() {
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
        let a = CooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!((a.total_efficiency(&speedups) - 5.25).abs() < 1e-6);
        let eff = a.user_efficiencies(&speedups);
        assert!(
            (eff[0] - 1.5).abs() < 1e-6,
            "user 1 gets 1 + 2*0.25 = 1.5, got {}",
            eff[0]
        );
        assert!(
            (eff[1] - 3.75).abs() < 1e-6,
            "user 2 gets 5*0.75 = 3.75, got {}",
            eff[1]
        );
        assert!(is_envy_free(&a, &speedups));
    }

    #[test]
    fn fig1b_vgg_lstm_example() {
        // Fig. 1(b): user 1 runs VGG (1.39x on the fast GPU), user 2 runs LSTM (2.15x).
        // Cooperative OEF keeps user 1 at its max-min throughput (~1.19) and lifts user 2
        // to ~1.85.
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 1.39], vec![1.0, 2.15]]).unwrap();
        let a = CooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        let eff = a.user_efficiencies(&speedups);
        assert!(
            (eff[0] - 1.195).abs() < 1e-3,
            "expected ~1.195, got {}",
            eff[0]
        );
        assert!(
            (eff[1] - 1.849).abs() < 2e-3,
            "expected ~1.85, got {}",
            eff[1]
        );
        assert!(is_envy_free(&a, &speedups));
    }

    #[test]
    fn three_user_example_beats_gandiva_and_gavel() {
        // Expression (2): with speedups (1,2), (1,3), (1,4) the envy-free optimum is
        // X* = [1 0; 0 0.5; 0 0.5] with total efficiency 4.5, higher than both
        // Gandiva_fair (4.35) and Gavel (4.33) achieve on the same input.
        let cluster = two_type_cluster();
        let speedups =
            SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]]).unwrap();
        let a = CooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!(a.total_efficiency(&speedups) >= 4.5 - 1e-6);
        assert!(is_envy_free(&a, &speedups));
        // Sharing incentive follows from EF + optimality (Theorem 5.1).
        let share = cluster.equal_share(3);
        for l in 0..3 {
            let si = speedups.user(l).dot(&share);
            assert!(
                a.user_efficiency(l, &speedups) >= si - 1e-6,
                "user {l} violates sharing incentive"
            );
        }
    }

    #[test]
    fn envy_freeness_holds_on_larger_random_like_instance() {
        let cluster = ClusterSpec::paper_evaluation_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![
            vec![1.0, 1.1, 1.39],
            vec![1.0, 1.6, 2.15],
            vec![1.0, 1.3, 1.8],
            vec![1.0, 2.0, 3.1],
            vec![1.0, 1.05, 1.12],
        ])
        .unwrap();
        let a = CooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!(a.is_feasible(&cluster));
        assert!(is_envy_free(&a, &speedups));
        assert!(a.uses_adjacent_types_only());
    }

    #[test]
    fn single_user_gets_whole_cluster() {
        let cluster = ClusterSpec::paper_evaluation_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 1.5, 2.0]]).unwrap();
        let a = CooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!((a.user_efficiency(0, &speedups) - (8.0 + 12.0 + 16.0)).abs() < 1e-5);
    }

    #[test]
    fn coop_total_efficiency_at_least_noncoop() {
        // The cooperative program's feasible set contains every equal-throughput
        // solution... it does not in general, but its optimum must be at least the
        // non-cooperative optimum on instances where the non-cooperative solution is
        // envy-free (identical users), and is never worse on the paper's examples.
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
        let coop = CooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        let noncoop = crate::NonCooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!(coop.total_efficiency(&speedups) >= noncoop.total_efficiency(&speedups) - 1e-6);
    }
}
