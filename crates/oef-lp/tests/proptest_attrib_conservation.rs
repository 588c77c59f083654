//! Property-based conservation of per-tenant solver-work attribution across
//! *churn-delta* sequences: random joins, leaves and coefficient scalings
//! (the same model as `proptest_churn`), solved through one shared
//! [`SolverContext`] with owner maps re-declared before every solve (shape
//! edits clear them by design).
//!
//! The pinned invariant, exact to the last integer: summing every owner
//! slot's [`TenantWork`] plus the unattributed bucket over all rounds
//! reproduces the solver's own [`ContextStats`] deltas — every eta append
//! is one attributed pivot and every refactorization is charged somewhere.
//! No work leaks out of the report, none is double-counted into it, no
//! matter how tenants churn between solves.
//!
//! A second property covers the cooperative program's shape: no tenant
//! churn, but envy rows appended mid-sequence in one journaled edit (row
//! generation), with the owner maps declared only when the shape changed.

use oef_lp::{
    AttributionReport, ConstraintOp, LinearExpr, Problem, Sense, SolverContext, Variable, NO_OWNER,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct TenantBlock {
    coeffs: Vec<f64>,
    budget: f64,
}

#[derive(Debug, Clone)]
struct Model {
    caps: Vec<f64>,
    tenants: Vec<TenantBlock>,
}

#[derive(Debug, Clone)]
enum ChurnStep {
    Join(TenantBlock),
    Leave(usize),
    Scale(usize, f64),
}

fn tenant(k: usize) -> impl Strategy<Value = TenantBlock> {
    (proptest::collection::vec(0.1..5.0f64, k), 0.5..4.0f64)
        .prop_map(|(coeffs, budget)| TenantBlock { coeffs, budget })
}

fn model(k: usize) -> impl Strategy<Value = Model> {
    (
        proptest::collection::vec(2.0..8.0f64, k),
        proptest::collection::vec(tenant(k), 2..=4),
    )
        .prop_map(|(caps, tenants)| Model { caps, tenants })
}

fn churn_steps(k: usize, steps: usize) -> impl Strategy<Value = Vec<ChurnStep>> {
    proptest::collection::vec(
        (0usize..4, tenant(k), 0usize..8, 0.5..1.8f64).prop_map(|(kind, block, index, factor)| {
            match kind {
                0 | 1 => ChurnStep::Join(block),
                2 => ChurnStep::Leave(index),
                _ => ChurnStep::Scale(index, factor),
            }
        }),
        steps,
    )
}

fn block_vars(p: &Problem, slot: usize, k: usize) -> Vec<Variable> {
    (slot * k..(slot + 1) * k)
        .map(|i| p.variable(i).expect("block variable in range"))
        .collect()
}

fn join(p: &mut Problem, block: &TenantBlock) -> usize {
    let budget = block.budget;
    let (vars, rows) = p.add_tenant_rows("t", block.coeffs.len(), |vars| {
        let mut expr = LinearExpr::new();
        for v in vars {
            expr.add_term(*v, 1.0);
        }
        vec![(expr, ConstraintOp::Le, budget)]
    });
    for (j, v) in vars.iter().enumerate() {
        p.set_objective_coefficient(*v, block.coeffs[j]);
        p.update_constraint_coefficient(j, *v, 1.0);
    }
    rows[0]
}

fn build(model: &Model) -> (Problem, Vec<usize>) {
    let mut p = Problem::new(Sense::Maximize);
    for cap in &model.caps {
        p.add_constraint(&[], ConstraintOp::Le, *cap);
    }
    let rows = model.tenants.iter().map(|t| join(&mut p, t)).collect();
    (p, rows)
}

/// Tenant-major owner maps for the current population: variable `i` belongs
/// to slot `i / k`; capacity rows `0..k` are shared; each budget row belongs
/// to the tenant whose departure would remove it.
fn declare_owners(p: &mut Problem, tenant_rows: &[usize], k: usize) {
    let tenants = tenant_rows.len();
    let var_owner: Vec<u32> = (0..tenants * k).map(|i| (i / k) as u32).collect();
    let mut row_owner = vec![NO_OWNER; k + tenants];
    for (slot, &row) in tenant_rows.iter().enumerate() {
        row_owner[row] = slot as u32;
    }
    p.set_attribution_owners(var_owner, row_owner);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn attribution_conserves_context_stats_across_churn(
        model in (2usize..=3).prop_flat_map(model),
        steps in (2usize..=3).prop_flat_map(|k| churn_steps(k, 6)),
    ) {
        let k = model.caps.len();
        let mut model = model;
        let (mut p, mut tenant_rows) = build(&model);
        let mut ctx = SolverContext::new();
        let mut acc = AttributionReport::default();
        let mut last = ctx.stats();

        for (step_idx, step) in std::iter::once(None).chain(steps.iter().map(Some)).enumerate() {
            match step {
                None => {}
                Some(ChurnStep::Join(block)) => {
                    let mut block = block.clone();
                    block.coeffs.resize(k, 1.0);
                    tenant_rows.push(join(&mut p, &block));
                    model.tenants.push(block);
                }
                Some(ChurnStep::Leave(index)) if model.tenants.len() > 1 => {
                    let slot = index % model.tenants.len();
                    let vars = block_vars(&p, slot, k);
                    let row = tenant_rows[slot];
                    p.remove_tenant_rows(&vars, &[row]);
                    model.tenants.remove(slot);
                    tenant_rows.remove(slot);
                    for r in tenant_rows.iter_mut() {
                        if *r > row {
                            *r -= 1;
                        }
                    }
                }
                Some(ChurnStep::Leave(_)) => {}
                Some(ChurnStep::Scale(index, factor)) => {
                    let slot = index % model.tenants.len();
                    let vars = block_vars(&p, slot, k);
                    for (j, v) in vars.iter().enumerate() {
                        model.tenants[slot].coeffs[j] *= factor;
                        p.update_objective_coefficient(*v, model.tenants[slot].coeffs[j]);
                    }
                }
            }

            declare_owners(&mut p, &tenant_rows, k);
            ctx.solve(&p).map_err(|e| {
                TestCaseError::fail(format!("step {step_idx}: context solve failed: {e:?}"))
            })?;
            let report = ctx.last_attribution().clone();
            prop_assert_eq!(
                report.slots.len(),
                model.tenants.len(),
                "step {}: one slot per declared owner",
                step_idx
            );

            // Exact per-step conservation against the solver's own counters.
            let now = ctx.stats();
            let total = report.total();
            prop_assert_eq!(
                total.pivots,
                now.eta_pivots - last.eta_pivots,
                "step {}: every eta append must be exactly one attributed pivot",
                step_idx
            );
            prop_assert_eq!(
                total.refactorizations,
                now.refactorizations - last.refactorizations,
                "step {}: every refactorization must be charged to exactly one bucket",
                step_idx
            );
            last = now;
            acc.merge(&report);
        }

        // Cumulative conservation: the merged per-tenant ledger reproduces
        // the context counters over the whole lifetime.
        let stats = ctx.stats();
        let lifetime = acc.total();
        prop_assert_eq!(lifetime.pivots, stats.eta_pivots);
        prop_assert_eq!(lifetime.refactorizations, stats.refactorizations);
        prop_assert!(
            lifetime.pivots == 0 || acc.slots.iter().any(|w| !w.is_zero()),
            "pivots happened but none landed on a tenant slot"
        );
    }

    /// The cooperative policy's pattern: a fixed tenant-major variable space,
    /// capacity rows, and envy rows `(l, i)` that arrive in batches through
    /// `add_tenant_rows("", 0, ..)` between solves.  Owner maps are declared
    /// once per shape — data-only rounds must keep resolving every slot from
    /// the maps the problem already carries.
    #[test]
    fn attribution_conserves_context_stats_while_envy_rows_grow(
        (k, weights, caps) in (2usize..=3).prop_flat_map(|k| (
            Just(k),
            proptest::collection::vec(proptest::collection::vec(1.0..3.0f64, k), 3..=6),
            proptest::collection::vec(2.0..8.0f64, k),
        )),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0usize..6), 0..=4),
            6,
        ),
        scales in proptest::collection::vec((0usize..6, 0.9..1.1f64), 6),
    ) {
        let n = weights.len();
        let mut weights = weights;
        let mut p = Problem::new(Sense::Maximize);
        let vars = p.add_variables("x", n * k);
        for (l, w) in weights.iter().enumerate() {
            for j in 0..k {
                p.set_objective_coefficient(vars[l * k + j], w[j]);
            }
        }
        for (j, cap) in caps.iter().enumerate() {
            let terms: Vec<_> = (0..n).map(|l| (vars[l * k + j], 1.0)).collect();
            p.add_constraint(&terms, ConstraintOp::Le, *cap);
        }
        // The `(l, i)` of every envy row appended so far, in row order.
        let mut envy_rows: Vec<(usize, usize)> = Vec::new();
        let mut declared_rows = usize::MAX;
        let mut ctx = SolverContext::new();
        let mut acc = AttributionReport::default();
        let mut last = ctx.stats();

        for (step, (batch, (slot, factor))) in batches.iter().zip(&scales).enumerate() {
            // Re-profile one tenant: its objective block and its envy rows.
            let l = slot % n;
            for w in weights[l].iter_mut().skip(1) {
                *w *= factor;
            }
            for j in 0..k {
                p.update_objective_coefficient(vars[l * k + j], weights[l][j]);
            }
            for (r, &(_, i)) in envy_rows.iter().enumerate().filter(|(_, row)| row.0 == l) {
                for j in 0..k {
                    p.update_constraint_coefficient(k + r, vars[l * k + j], weights[l][j]);
                    p.update_constraint_coefficient(k + r, vars[i * k + j], -weights[l][j]);
                }
            }
            // Grow the working set: every fresh (l, i) pair of this batch.
            let pairs: Vec<(usize, usize)> = batch
                .iter()
                .map(|&(l, i)| (l % n, i % n))
                .filter(|&(l, i)| l != i)
                .collect();
            if !pairs.is_empty() {
                p.add_tenant_rows("", 0, |_| {
                    pairs
                        .iter()
                        .map(|&(l, i)| {
                            let mut expr = LinearExpr::new();
                            for j in 0..k {
                                expr.add_term(vars[l * k + j], weights[l][j]);
                            }
                            for j in 0..k {
                                expr.add_term(vars[i * k + j], -weights[l][j]);
                            }
                            (expr, ConstraintOp::Ge, 0.0)
                        })
                        .collect()
                });
                envy_rows.extend(&pairs);
            }
            if declared_rows != p.num_constraints() {
                declared_rows = p.num_constraints();
                let var_owner = (0..n * k).map(|v| (v / k) as u32).collect();
                let mut row_owner = vec![NO_OWNER; k];
                row_owner.extend(envy_rows.iter().map(|&(l, _)| l as u32));
                p.set_attribution_owners(var_owner, row_owner);
            }

            ctx.solve(&p).map_err(|e| {
                TestCaseError::fail(format!("step {step}: context solve failed: {e:?}"))
            })?;
            let report = ctx.last_attribution().clone();
            prop_assert_eq!(report.slots.len(), n, "step {}: owner maps went stale", step);
            let now = ctx.stats();
            prop_assert_eq!(report.total().pivots, now.eta_pivots - last.eta_pivots);
            prop_assert_eq!(
                report.total().refactorizations,
                now.refactorizations - last.refactorizations
            );
            last = now;
            acc.merge(&report);
        }
        let stats = ctx.stats();
        prop_assert_eq!(acc.total().pivots, stats.eta_pivots);
        prop_assert_eq!(acc.total().refactorizations, stats.refactorizations);
    }
}
