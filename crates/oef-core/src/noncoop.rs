//! Non-cooperative OEF (§4.2.1, optimisation problem (9)).
//!
//! In non-cooperative environments tenants may misreport their speedup profiles to grab
//! more of the high-end GPUs, so strategy-proofness is the binding fairness property.
//! The paper's key observation is that forcing all tenants to attain *identical
//! normalised throughput* while maximising total efficiency yields a strategy-proof
//! mechanism (Theorem 5.4): a lie that helps anyone else must, through the equality
//! constraint, come back to hurt the liar.

use crate::error::OefError;
use crate::policy::AllocationPolicy;
use crate::program_cache::ProgramCell;
use crate::{Allocation, ClusterSpec, Result, SpeedupMatrix};
use oef_lp::{ConstraintOp, ContextCell, LinearExpr, Problem, Sense, SimplexOptions};
use serde::{Deserialize, Serialize};

/// Incrementally maintained LP of problem (9).
///
/// The program's *structure* depends only on `(n, k)` — variables sit in
/// tenant-major `k`-blocks, rows are `k` capacity rows followed by the `n-1`
/// equal-throughput rows in tenant order — and every data coefficient is
/// rewritten from the fresh `(cluster, speedups)` on each allocate.  Tenant
/// churn therefore normalises to "append joins, drop trailing blocks":
/// which tenant actually left is irrelevant to the structure, and keeping the
/// edits journaled ([`Problem::add_tenant_rows`] /
/// [`Problem::remove_tenant_rows`]) lets the solver context repair its basis
/// across the join/leave instead of cold-solving.  Which tenant left does
/// matter to the *basis*, which [`tenant_moves`] keeps pointing at the tenants
/// it was computed for.
#[derive(Debug)]
pub(crate) struct TenantMajorProgram {
    problem: Problem,
    n: usize,
    k: usize,
    /// Last round's speedups, tenant-major: what [`tenant_moves`] matches
    /// this round's rows against to see who moved.
    profiles: Vec<f64>,
}

impl TenantMajorProgram {
    fn var(&self, tenant: usize, gpu: usize) -> oef_lp::Variable {
        self.problem
            .variable(tenant * self.k + gpu)
            .expect("tenant-major layout invariant")
    }

    /// Row index of tenant `l >= 1`'s equal-throughput constraint.  The
    /// layout is append-only (removals only ever drop the trailing tenant),
    /// so the position is arithmetic, never tracked.
    fn eq_row(&self, tenant: usize) -> usize {
        self.k + tenant - 1
    }
}

/// Where last round's tenants sit this round: `to[old block] = new block`, a
/// permutation of the old blocks, or `None` when nobody moved.
///
/// The policy sees a dense tenant list that compacts when a tenant leaves
/// (everyone behind the leaver shifts down one block) and grows at the end.
/// The program's rows are rewritten by position either way, but the solver's
/// cached basis describes *tenants*: read by position after a mid-list leave,
/// every shifted tenant would start from its neighbour's basic columns and a
/// one-tenant change would cost a repair the size of half the population
/// (measured at 500 tenants: ~300 pivots, and as many as the neighbours
/// happen to differ).  Tenants carry no identity here, so survivors are
/// recognised by their unchanged profile; a block that matches nobody (a
/// departed tenant's) is handed to whoever fills the seat left over (the
/// newcomer's, which so inherits the leaver's place in the basis).  A wrong
/// guess — two tenants with one profile, a re-profile in the same round —
/// costs pivots, never correctness.
fn tenant_moves(old: &[f64], speedups: &SpeedupMatrix, k: usize) -> Option<Vec<usize>> {
    let n_old = old.len() / k;
    let old_row = |o: usize| &old[o * k..(o + 1) * k];
    let same = |l: usize, o: usize| speedups.user(l).as_slice() == old_row(o);
    let n = speedups.num_users();
    let mut to = vec![usize::MAX; n_old];
    let mut seated = vec![false; n_old];
    let mut moved = false;
    let mut o = 0;
    for l in 0..n {
        if o >= n_old {
            break;
        }
        // Not the next survivor, and the one after does not line up either:
        // tenants `o..c` left and `l` is `c`.  (If the one after lines up, `l`
        // was re-profiled in place — the common case, settled in one compare.)
        let in_place = same(l, o) || (l + 1 < n && o + 1 < n_old && same(l + 1, o + 1));
        if !in_place {
            if let Some(c) = (o + 1..n_old).find(|&c| same(l, c)) {
                o = c;
                moved = true;
            }
        }
        to[o] = l;
        seated[l] = true;
        o += 1;
    }
    if !moved {
        return None;
    }
    let mut free = (0..n_old).filter(|&l| !seated[l]);
    for t in to.iter_mut().filter(|t| **t == usize::MAX) {
        *t = free.next().expect("as many free seats as unseated blocks");
    }
    Some(to)
}

/// The variable and row permutations of a block permutation `to` (see
/// [`tenant_moves`]), for [`oef_lp::SolverContext::relabel_cached_basis`].
/// Tenant 0 has no equal-throughput row; when it changes, the row of the
/// tenant that became 0 goes to the block the old tenant 0 went to.
fn block_relabelling(to: &[usize], k: usize) -> (Vec<usize>, Vec<usize>) {
    let var_to = to
        .iter()
        .flat_map(|&t| (0..k).map(move |j| t * k + j))
        .collect();
    let mut row_to: Vec<usize> = (0..k + to.len() - 1).collect();
    for (o, &t) in to.iter().enumerate().skip(1) {
        row_to[k + o - 1] = k + if t == 0 { to[0] } else { t } - 1;
    }
    (var_to, row_to)
}

/// Brings the cached program in sync with this round's `(cluster, speedups)`:
/// structural churn first (journaled), then an in-place rewrite of every data
/// coefficient.  Rebuilds from scratch only when the GPU-type axis changed or
/// nothing is cached yet.  Returns the relabelling the solver's cached basis
/// needs before the next solve, if tenants moved between blocks.
fn sync_noncoop_program(
    slot: &mut Option<TenantMajorProgram>,
    cluster: &ClusterSpec,
    speedups: &SpeedupMatrix,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let n = speedups.num_users();
    let k = cluster.num_gpu_types();
    let structure_ok = matches!(slot, Some(p) if p.k == k && p.n >= 1);
    if !structure_ok {
        let (problem, _) = NonCooperativeOef::build_problem(cluster, speedups);
        *slot = Some(TenantMajorProgram {
            problem,
            n,
            k,
            profiles: Vec::new(),
        });
    }
    let prog = slot.as_mut().expect("just populated");
    let relabel = tenant_moves(&prog.profiles, speedups, k).map(|to| block_relabelling(&to, k));
    prog.profiles.clear();
    prog.profiles.extend(
        speedups
            .iter()
            .flat_map(|row| row.as_slice().iter().copied()),
    );

    // Tenant leave(s): drop trailing tenant blocks down to n (never below 1;
    // callers reject n == 0 before reaching here).
    while prog.n > n.max(1) {
        let u = prog.n - 1;
        let vars: Vec<_> = (0..k).map(|j| prog.var(u, j)).collect();
        let eq = prog.eq_row(u);
        prog.problem.remove_tenant_rows(&vars, &[eq]);
        prog.n -= 1;
    }

    // Tenant join(s): append a k-block of variables plus one equal-throughput
    // row per new tenant, and extend the capacity rows with the new columns.
    while prog.n < n {
        let u = prog.n;
        let user0: Vec<_> = (0..k).map(|j| prog.var(0, j)).collect();
        prog.problem.add_tenant_rows(&format!("x_{u}"), k, |vars| {
            let mut expr = LinearExpr::new();
            for (j, &v0) in user0.iter().enumerate() {
                expr.add_term(v0, speedups.speedup(0, j));
            }
            for (j, &v) in vars.iter().enumerate() {
                expr.add_term(v, -speedups.speedup(u, j));
            }
            vec![(expr, ConstraintOp::Eq, 0.0)]
        });
        prog.n += 1;
        for j in 0..k {
            prog.problem
                .update_constraint_coefficient(j, prog.var(u, j), 1.0);
        }
    }

    // Data refresh (shape-preserving): objective (9a), capacities (9b), and
    // both sides of every equal-throughput row (9c).
    for l in 0..n {
        for j in 0..k {
            prog.problem
                .update_objective_coefficient(prog.var(l, j), speedups.speedup(l, j));
        }
    }
    for j in 0..k {
        prog.problem.update_rhs(j, cluster.capacity(j));
    }
    for l in 1..n {
        let row = prog.eq_row(l);
        for j in 0..k {
            prog.problem
                .update_constraint_coefficient(row, prog.var(0, j), speedups.speedup(0, j));
            prog.problem.update_constraint_coefficient(
                row,
                prog.var(l, j),
                -speedups.speedup(l, j),
            );
        }
    }

    set_noncoop_owner_maps(prog);
    relabel
}

/// Declares the tenant-major owner maps for solver work attribution:
/// variable block `l` and tenant `l`'s equal-throughput row belong to owner
/// slot `l`; the shared capacity rows stay unowned.  Re-set after every sync
/// because any journaled churn edit clears the maps.
fn set_noncoop_owner_maps(prog: &mut TenantMajorProgram) {
    let (n, k) = (prog.n, prog.k);
    let mut var_owner = vec![0u32; n * k];
    for l in 0..n {
        for j in 0..k {
            var_owner[l * k + j] = l as u32;
        }
    }
    let mut row_owner = vec![oef_lp::NO_OWNER; k + n.saturating_sub(1)];
    for l in 1..n {
        row_owner[prog.eq_row(l)] = l as u32;
    }
    prog.problem.set_attribution_owners(var_owner, row_owner);
}

/// The non-cooperative OEF fair-share evaluator.
///
/// ```
/// use oef_core::{AllocationPolicy, ClusterSpec, NonCooperativeOef, SpeedupMatrix};
///
/// let cluster = ClusterSpec::homogeneous_counts(&["slow", "fast"], &[1.0, 1.0]).unwrap();
/// let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
/// let allocation = NonCooperativeOef::default().allocate(&cluster, &speedups).unwrap();
/// let eff = allocation.user_efficiencies(&speedups);
/// // Equal normalised throughput across users (constraint 9c).
/// assert!((eff[0] - eff[1]).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NonCooperativeOef {
    /// Options forwarded to the simplex solver.
    pub solver_options: SimplexOptions,
    /// Reusable warm-start solver state: round `N+1` (or a strategy-probe
    /// re-solve) starts from round `N`'s optimal basis whenever the LP shape
    /// is unchanged.
    context: ContextCell,
    /// Incrementally maintained LP: one long-lived [`Problem`] updated in
    /// place each round, so tenant churn is a journaled edit (basis repair)
    /// instead of a from-scratch rebuild (cold solve).
    program: ProgramCell<TenantMajorProgram>,
}

impl Default for NonCooperativeOef {
    fn default() -> Self {
        Self::with_options(SimplexOptions::default())
    }
}

impl NonCooperativeOef {
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

    /// Builds the LP of problem (9): maximise `Σ_l Σ_j w_l^j x_l^j` subject to per-type
    /// capacity constraints and pairwise equal throughput.
    fn build_problem(
        cluster: &ClusterSpec,
        speedups: &SpeedupMatrix,
    ) -> (Problem, Vec<Vec<oef_lp::Variable>>) {
        let n = speedups.num_users();
        let k = cluster.num_gpu_types();
        let mut problem = Problem::new(Sense::Maximize);

        let vars: Vec<Vec<oef_lp::Variable>> = (0..n)
            .map(|l| {
                (0..k)
                    .map(|j| problem.add_variable(format!("x_{l}_{j}")))
                    .collect()
            })
            .collect();

        // Objective (9a).
        for l in 0..n {
            for j in 0..k {
                problem.set_objective_coefficient(vars[l][j], speedups.speedup(l, j));
            }
        }

        // Capacity constraints (9b).
        for j in 0..k {
            let terms: Vec<_> = (0..n).map(|l| (vars[l][j], 1.0)).collect();
            problem.add_constraint(&terms, ConstraintOp::Le, cluster.capacity(j));
        }

        // Equal-throughput constraints (9c), expressed against user 0.
        for l in 1..n {
            let mut terms: Vec<_> = (0..k)
                .map(|j| (vars[0][j], speedups.speedup(0, j)))
                .collect();
            terms.extend((0..k).map(|j| (vars[l][j], -speedups.speedup(l, j))));
            problem.add_constraint(&terms, ConstraintOp::Eq, 0.0);
        }

        (problem, vars)
    }
}

impl AllocationPolicy for NonCooperativeOef {
    fn name(&self) -> &str {
        "oef-noncooperative"
    }

    fn allocate(&self, cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Result<Allocation> {
        cluster.check_compatible(speedups)?;
        let n = speedups.num_users();
        if n == 0 {
            return Err(OefError::NoUsers);
        }

        let mut slot = self.program.lock();
        if let Some((var_to, row_to)) = sync_noncoop_program(&mut slot, cluster, speedups) {
            self.context.relabel_cached_basis(&var_to, &row_to);
        }
        let prog = slot.as_ref().expect("synced");
        // `solve_with` re-syncs from the public field, so mutations of
        // `self.solver_options` (or a serde round trip) stay authoritative.
        let solution = self
            .context
            .solve_with(&prog.problem, &self.solver_options)?;
        extract_tenant_major(&solution, prog)
    }

    fn allocate_mut(
        &mut self,
        cluster: &ClusterSpec,
        speedups: &SpeedupMatrix,
    ) -> Result<Allocation> {
        cluster.check_compatible(speedups)?;
        if speedups.num_users() == 0 {
            return Err(OefError::NoUsers);
        }
        // Exclusive access: skip both cells' mutexes entirely.
        let slot = self.program.get_mut();
        let relabel = sync_noncoop_program(slot, cluster, speedups);
        let prog = slot.as_ref().expect("synced");
        let context = self.context.get_mut();
        if let Some((var_to, row_to)) = relabel {
            context.relabel_cached_basis(&var_to, &row_to);
        }
        let solution = context.solve_with(&prog.problem, &self.solver_options)?;
        extract_tenant_major(&solution, prog)
    }

    fn solver_stats(&self) -> Option<oef_lp::ContextStats> {
        Some(self.context.stats())
    }

    fn solver_attribution(&self) -> Option<oef_lp::AttributionReport> {
        Some(self.context.last_attribution())
    }
}

/// Reads the allocation out of a tenant-major-layout program's solution.
fn extract_tenant_major(
    solution: &oef_lp::Solution,
    prog: &TenantMajorProgram,
) -> Result<Allocation> {
    let rows: Vec<Vec<f64>> = (0..prog.n)
        .map(|l| {
            (0..prog.k)
                .map(|j| solution.value(prog.var(l, j)))
                .collect()
        })
        .collect();
    Allocation::new(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_type_cluster() -> ClusterSpec {
        ClusterSpec::homogeneous_counts(&["slow", "fast"], &[1.0, 1.0]).unwrap()
    }

    #[test]
    fn equal_throughput_holds_for_three_users() {
        // Speedup matrix of Expression (1) in the paper.
        let cluster = two_type_cluster();
        let speedups =
            SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]]).unwrap();
        let a = NonCooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        let eff = a.user_efficiencies(&speedups);
        assert!((eff[0] - eff[1]).abs() < 1e-6);
        assert!((eff[1] - eff[2]).abs() < 1e-6);
        assert!(a.is_feasible(&cluster));
        assert!(
            eff[0] > 1.0,
            "each user should beat a single slow GPU, got {eff:?}"
        );
    }

    #[test]
    fn single_user_gets_everything() {
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 3.0]]).unwrap();
        let a = NonCooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!((a.share(0, 0) - 1.0).abs() < 1e-6);
        assert!((a.share(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn identical_users_split_equally_in_efficiency() {
        let cluster = ClusterSpec::paper_evaluation_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![
            vec![1.0, 1.5, 2.0],
            vec![1.0, 1.5, 2.0],
            vec![1.0, 1.5, 2.0],
            vec![1.0, 1.5, 2.0],
        ])
        .unwrap();
        let a = NonCooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        let eff = a.user_efficiencies(&speedups);
        let expected = (8.0 + 1.5 * 8.0 + 2.0 * 8.0) / 4.0;
        for e in eff {
            assert!((e - expected).abs() < 1e-5, "expected {expected}, got {e}");
        }
    }

    #[test]
    fn allocation_only_uses_adjacent_gpu_types() {
        // Theorem 5.2: each user's allocation spans a contiguous range of GPU types.
        let cluster =
            ClusterSpec::homogeneous_counts(&["a", "b", "c", "d"], &[2.0, 2.0, 2.0, 2.0]).unwrap();
        let speedups = SpeedupMatrix::from_rows(vec![
            vec![1.0, 1.2, 1.3, 1.4],
            vec![1.0, 1.5, 2.0, 2.5],
            vec![1.0, 2.0, 3.5, 5.0],
        ])
        .unwrap();
        let a = NonCooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        assert!(
            a.uses_adjacent_types_only(),
            "allocation {a:?} uses non-adjacent GPU types"
        );
    }

    #[test]
    fn mutated_solver_options_stay_authoritative() {
        // The public field must keep driving solves even though the warm-start
        // context captured a copy at construction time.
        let mut policy = NonCooperativeOef::default();
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 5.0]]).unwrap();
        assert!(policy.allocate(&cluster, &speedups).is_ok());
        policy.solver_options.max_iterations = 0;
        assert!(
            matches!(
                policy.allocate(&cluster, &speedups),
                Err(OefError::Solver(oef_lp::LpError::IterationLimit { .. }))
            ),
            "a zero pivot budget set after construction must be honored"
        );
        policy.solver_options.max_iterations = 1_000_000;
        let via_mut = policy.allocate_mut(&cluster, &speedups).unwrap();
        assert!(via_mut.is_feasible(&cluster));
    }

    /// `n` distinct, deterministic three-type profiles.
    fn distinct_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|l| {
                let mid = 1.1 + 0.9 * ((l * 37 % 101) as f64 / 101.0);
                vec![1.0, mid, mid + 0.2 + 1.5 * ((l * 53 % 89) as f64 / 89.0)]
            })
            .collect()
    }

    fn flat(rows: &[Vec<f64>]) -> Vec<f64> {
        rows.concat()
    }

    #[test]
    fn tenant_moves_follows_survivors_of_a_mid_list_leave() {
        let old = distinct_rows(6);
        let newcomer = vec![1.0, 1.05, 3.3];
        let moves = |new: Vec<Vec<f64>>| {
            tenant_moves(&flat(&old), &SpeedupMatrix::from_rows(new).unwrap(), 3)
        };

        // Nobody moved: same rows, a re-profile in place, a join at the end.
        assert_eq!(moves(old.clone()), None);
        let mut reprofiled = old.clone();
        reprofiled[2] = newcomer.clone();
        assert_eq!(moves(reprofiled), None);
        let mut joined = old.clone();
        joined.push(newcomer.clone());
        assert_eq!(moves(joined), None);

        // Tenant 2 left, a newcomer joined at the end: 3..6 shift down and the
        // leaver's block goes to the newcomer's seat.
        let mut churned = old.clone();
        churned.remove(2);
        churned.push(newcomer.clone());
        assert_eq!(moves(churned.clone()), Some(vec![0, 1, 5, 2, 3, 4]));
        // The same leave without a join: the leaver's block becomes the
        // trailing one, which is the block the journaled removal then drops.
        churned.pop();
        assert_eq!(moves(churned), Some(vec![0, 1, 5, 2, 3, 4]));

        // Tenant 0 left: the rowless block changes hands.
        let mut head = old.clone();
        head.remove(0);
        head.push(newcomer);
        let to = moves(head).expect("everyone shifted");
        assert_eq!(to, vec![5, 0, 1, 2, 3, 4]);
        let (var_to, row_to) = block_relabelling(&to, 3);
        assert_eq!(&var_to[..6], &[15, 16, 17, 0, 1, 2]);
        // Capacity rows stay; old tenant 1's row goes where old tenant 0 went.
        assert_eq!(row_to, vec![0, 1, 2, 7, 3, 4, 5, 6]);
        for map in [var_to, row_to] {
            let mut seen = map.clone();
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..map.len()), "{map:?} permutes");
        }
    }

    #[test]
    fn mid_list_churn_is_a_short_repair() {
        let cluster =
            ClusterSpec::homogeneous_counts(&["a", "b", "c"], &[40.0, 30.0, 20.0]).unwrap();
        let n = 60;
        let mut rows = distinct_rows(n + 8);
        let mut newcomers = rows.split_off(n);
        let mut policy = NonCooperativeOef::default();
        policy
            .allocate_mut(&cluster, &SpeedupMatrix::from_rows(rows.clone()).unwrap())
            .unwrap();
        // A leave and a join in one round (the shape stays), then leaves alone
        // (a migration's source shard: the journaled row removal).
        let swaps = [17, 0, 58, 31, 3, 44, 1, 29].map(|leaver| (leaver, true));
        let leaves = [40, 0, 22, 5].map(|leaver| (leaver, false));
        for (round, (leaver, join)) in swaps.into_iter().chain(leaves).enumerate() {
            rows.remove(leaver);
            if join {
                rows.push(newcomers.pop().unwrap());
            }
            let speedups = SpeedupMatrix::from_rows(rows.clone()).unwrap();
            let before = policy.solver_context().stats();
            let warm = policy.allocate_mut(&cluster, &speedups).unwrap();
            let after = policy.solver_context().stats();
            assert_eq!(after.cold_solves, before.cold_solves, "round {round}");
            // Read by position the basis would be off for every tenant behind
            // the leaver (dozens of pivots here); relabelled, one tenant changed.
            let pivots = after.eta_pivots - before.eta_pivots;
            assert!(
                pivots <= 12,
                "round {round}: {pivots} pivots for one tenant"
            );

            let cold = NonCooperativeOef::default()
                .allocate(&cluster, &speedups)
                .unwrap();
            let (warm_eff, cold_eff) = (
                warm.user_efficiencies(&speedups),
                cold.user_efficiencies(&speedups),
            );
            assert!(warm.is_feasible(&cluster));
            for (w, c) in warm_eff.iter().zip(&cold_eff) {
                assert!((w - c).abs() < 1e-6, "round {round}: warm {w} vs cold {c}");
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            NonCooperativeOef::default().allocate(&cluster, &speedups),
            Err(OefError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn total_efficiency_beats_max_min_with_skewed_speedups() {
        // Max-min (equal split of every type) is a feasible point of problem (9) only
        // when all users have identical speedups; with skewed speedups OEF should do at
        // least as well as the equal-throughput max-min-like baseline.
        let cluster = two_type_cluster();
        let speedups = SpeedupMatrix::from_rows(vec![vec![1.0, 1.39], vec![1.0, 2.15]]).unwrap();
        let a = NonCooperativeOef::default()
            .allocate(&cluster, &speedups)
            .unwrap();
        let eff = a.user_efficiencies(&speedups);
        assert!((eff[0] - eff[1]).abs() < 1e-6);
        // The equalised throughput must be at least the worst user's max-min throughput
        // (0.5 + 1.39 * 0.5 = 1.195 for user 1): OEF can always replicate max-min when
        // speedups are equalisable, but the equality constraint may shift the split.
        assert!(eff[0] >= 1.0);
    }
}
