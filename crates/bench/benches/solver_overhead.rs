//! Criterion bench for Fig. 10(a): fair-share evaluator overhead vs number of users,
//! plus the cold-vs-warm comparison for the revised-simplex solver context.
//!
//! Ten GPU types, as in the paper.  The cooperative program has O(n²) envy-freeness
//! constraints; the policy generates them lazily, so its sweep reaches 100 users at
//! about a second for the cold solve (0.15 s at 50), and the measured shape — the
//! cooperative mechanism growing much faster than non-cooperative — matches the paper.
//!
//! The cold-vs-warm groups measure the per-round LP hot path on a steady-state
//! round sequence (same tenants, slightly jittered speedup reports every round):
//!
//! * `solver_cold_dense`   — the dense two-phase reference, one full solve per round
//!   (swept through 500 tenants; O(m³) makes it hopeless beyond);
//! * `solver_cold_revised` — the sparse-LU revised simplex without basis reuse
//!   (the correctness oracle at 1000+ tenants);
//! * `solver_warm_context` — one [`oef_lp::SolverContext`] reused across rounds;
//! * `solver_churn_resolve_pair` — a tenant leave + re-solve plus a re-join +
//!   re-solve against the live program, served as journaled basis repairs.
//!
//! Every warm solve is checked against the oracle objective (1e-6), and the
//! measured means are written to `BENCH_solver.json` at the workspace root so
//! future changes can track the speedup trajectory.  `OEF_BENCH_SMOKE=1`
//! runs only the small-n correctness gates (the CI smoke step), which include
//! the cooperative one: the policy's row generation must reach the eager
//! full-row program's optimum, and reach it faster than that program solves cold.

use criterion::{BenchmarkId, Criterion};
use oef_core::{AllocationPolicy, ClusterSpec, CooperativeOef, NonCooperativeOef, SpeedupMatrix};
use oef_lp::{ConstraintOp, LinearExpr, Problem, Sense, SolverContext, Variable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_GPU_TYPES: usize = 10;
/// Rounds in the steady-state sequence the warm path cycles through.
const ROUND_SEQUENCE: usize = 8;

fn instance(num_users: usize, seed: u64) -> (ClusterSpec, SpeedupMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..NUM_GPU_TYPES).map(|j| format!("gpu{j}")).collect();
    let capacities: Vec<f64> = (0..NUM_GPU_TYPES)
        .map(|_| rng.gen_range(4..=16) as f64)
        .collect();
    let cluster = ClusterSpec::new(names.into_iter().zip(capacities).collect()).unwrap();
    let rows: Vec<Vec<f64>> = (0..num_users)
        .map(|_| {
            let mut row = vec![1.0];
            let mut last = 1.0;
            for _ in 1..NUM_GPU_TYPES {
                last *= rng.gen_range(1.02..1.35);
                row.push(last);
            }
            row
        })
        .collect();
    (cluster, SpeedupMatrix::from_rows(rows).unwrap())
}

fn bench_noncoop(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10a_noncooperative_oef");
    group.sample_size(10);
    for &n in &[25usize, 50, 100, 200] {
        let (cluster, users) = instance(n, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let policy = NonCooperativeOef::default();
            b.iter(|| policy.allocate(&cluster, &users).unwrap());
        });
    }
    group.finish();
}

fn bench_coop(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10a_cooperative_oef");
    group.sample_size(10);
    for &n in &[5usize, 10, 20, 30, 50, 100] {
        let (cluster, users) = instance(n, 1000 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let policy = CooperativeOef::default();
            b.iter(|| policy.allocate(&cluster, &users).unwrap());
        });
    }
    group.finish();
}

/// Builds the *eager* cooperative LP of problem (10): every one of the
/// `n(n-1)` envy rows present — the program `CooperativeOef` solved before it
/// generated rows lazily, kept here as its oracle.
fn build_eager_coop_problem(cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Problem {
    let n = speedups.num_users();
    let k = cluster.num_gpu_types();
    let mut problem = Problem::new(Sense::Maximize);
    let vars = problem.add_variables("x", n * k);
    for l in 0..n {
        for j in 0..k {
            problem.set_objective_coefficient(vars[l * k + j], speedups.speedup(l, j));
        }
    }
    for j in 0..k {
        let terms: Vec<_> = (0..n).map(|l| (vars[l * k + j], 1.0)).collect();
        problem.add_constraint(&terms, ConstraintOp::Le, cluster.capacity(j));
    }
    for l in 0..n {
        for i in (0..n).filter(|&i| i != l) {
            let mut terms: Vec<_> = (0..k)
                .map(|j| (vars[l * k + j], speedups.speedup(l, j)))
                .collect();
            terms.extend((0..k).map(|j| (vars[i * k + j], -speedups.speedup(l, j))));
            problem.add_constraint(&terms, ConstraintOp::Ge, 0.0);
        }
    }
    problem
}

/// Cooperative gate: at each size the policy's first (cold) allocate must
/// reach the dense optimum of the eager program to 1e-6, in less time than a
/// cold revised solve of that program — best of three on both sides.
fn gate_coop_lazy_vs_eager() {
    for n in [8usize, 20] {
        let (cluster, users) = instance(n, 1000 + n as u64);
        let eager = build_eager_coop_problem(&cluster, &users);
        let reference = eager.solve().unwrap().objective_value();
        let best_of_three = |run: &dyn Fn() -> f64| -> f64 {
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let objective = run();
                    let secs = started.elapsed().as_secs_f64();
                    assert!(
                        (objective - reference).abs() < 1e-6 * (1.0 + reference.abs()),
                        "n={n}: objective {objective} vs eager dense oracle {reference}"
                    );
                    secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let lazy = best_of_three(&|| {
            CooperativeOef::default()
                .allocate(&cluster, &users)
                .unwrap()
                .total_efficiency(&users)
        });
        let eager_cold = best_of_three(&|| {
            SolverContext::new()
                .solve(&eager)
                .unwrap()
                .objective_value()
        });
        println!("gate coop_lazy_vs_eager/{n}: lazy {lazy:.6}s, eager cold {eager_cold:.6}s");
        assert!(
            lazy < eager_cold,
            "n={n}: lazy cold allocate {lazy}s is not faster than the eager cold solve {eager_cold}s"
        );
    }
}

/// Builds the non-cooperative OEF LP of problem (9) for one round's reports.
fn build_noncoop_problem(cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Problem {
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
    for l in 0..n {
        for j in 0..k {
            problem.set_objective_coefficient(vars[l][j], speedups.speedup(l, j));
        }
    }
    for j in 0..k {
        let terms: Vec<_> = (0..n).map(|l| (vars[l][j], 1.0)).collect();
        problem.add_constraint(&terms, ConstraintOp::Le, cluster.capacity(j));
    }
    for l in 1..n {
        let mut terms: Vec<_> = (0..k)
            .map(|j| (vars[0][j], speedups.speedup(0, j)))
            .collect();
        terms.extend((0..k).map(|j| (vars[l][j], -speedups.speedup(l, j))));
        problem.add_constraint(&terms, ConstraintOp::Eq, 0.0);
    }
    problem
}

/// A steady-state round sequence: the same tenant mix with per-round ±2%
/// jitter on the reported speedups (shape never changes).
fn round_sequence(num_users: usize, seed: u64) -> (ClusterSpec, Vec<Problem>) {
    let (cluster, base) = instance(num_users, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let problems = (0..ROUND_SEQUENCE)
        .map(|_| {
            let rows: Vec<Vec<f64>> = (0..base.num_users())
                .map(|l| {
                    let mut row = vec![1.0];
                    for j in 1..base.num_gpu_types() {
                        row.push(base.speedup(l, j) * rng.gen_range(0.98..1.02));
                    }
                    row
                })
                .collect();
            let jittered = SpeedupMatrix::from_rows(rows).unwrap();
            build_noncoop_problem(&cluster, &jittered)
        })
        .collect();
    (cluster, problems)
}

/// Removes the trailing tenant block (its `k` variables plus its
/// equal-efficiency row) from a live non-cooperative program via the
/// journaled churn primitive.  `n_live` is the tenant count *before* the
/// leave; the layout invariants (`var = l*k + j`, `eq_row(l) = k + l - 1`)
/// are the same append-only discipline the `oef-core` policies keep.
fn churn_leave(p: &mut Problem, n_live: usize, k: usize) {
    let u = n_live - 1;
    let vars: Vec<Variable> = (u * k..(u + 1) * k)
        .map(|i| p.variable(i).expect("trailing block in range"))
        .collect();
    p.remove_tenant_rows(&vars, &[k + u - 1]);
}

/// Appends tenant `u` back: `k` fresh variables, the equal-efficiency row
/// tying it to tenant 0, objective coefficients, and capacity-row terms.
fn churn_join(p: &mut Problem, u: usize, k: usize, speedups: &SpeedupMatrix) {
    let v0: Vec<Variable> = (0..k).map(|j| p.variable(j).expect("tenant 0")).collect();
    let row0: Vec<f64> = (0..k).map(|j| speedups.speedup(0, j)).collect();
    let row_u: Vec<f64> = (0..k).map(|j| speedups.speedup(u, j)).collect();
    let (vars, _) = p.add_tenant_rows(&format!("x_{u}"), k, |new_vars| {
        let mut expr = LinearExpr::new();
        for j in 0..k {
            expr.add_term(v0[j], row0[j]);
        }
        for j in 0..k {
            expr.add_term(new_vars[j], -row_u[j]);
        }
        vec![(expr, ConstraintOp::Eq, 0.0)]
    });
    for j in 0..k {
        p.set_objective_coefficient(vars[j], row_u[j]);
        p.update_constraint_coefficient(j, vars[j], 1.0);
    }
}

/// One measured point of the cold-vs-warm comparison.  `cold_dense_secs` is
/// `None` at the sizes where the O(m³) dense reference is too slow to sweep
/// (the revised cold path is the oracle there instead).
struct TrajectoryPoint {
    n: usize,
    cold_dense_secs: Option<f64>,
    cold_revised_secs: f64,
    warm_secs: f64,
    churn_resolve_secs: f64,
}

/// `(tenants, samples, dense_oracle)` sweep schedule.  Dense solves are
/// O(m³): fine through 500 tenants, hopeless at 1000+, where the revised
/// cold path takes over as the correctness oracle.
fn sweep_sizes(smoke: bool) -> &'static [(usize, usize, bool)] {
    if smoke {
        &[(4, 2, true), (20, 2, true), (60, 2, true)]
    } else {
        &[
            (4, 10, true),
            (20, 10, true),
            (100, 5, true),
            (500, 2, true),
            (1000, 2, false),
            (2000, 2, false),
        ]
    }
}

fn bench_cold_vs_warm(c: &mut Criterion, points: &mut Vec<TrajectoryPoint>, smoke: bool) {
    for &(n, samples, dense_oracle) in sweep_sizes(smoke) {
        let (cluster, base) = instance(n, 42 + n as u64);
        let (_, problems) = round_sequence(n, 42 + n as u64);

        // The per-round oracle: the dense reference where tractable, a fresh
        // revised cold solve beyond that.  Either way the warm path must
        // reproduce it to 1e-6 on every round.
        let oracle = |p: &Problem| -> f64 {
            if dense_oracle {
                p.solve().unwrap().objective_value()
            } else {
                SolverContext::new().solve(p).unwrap().objective_value()
            }
        };

        // Correctness gate: the warm-started context must reproduce the
        // oracle objective on every round of the sequence.  Warm starts are
        // allowed to fall back cold occasionally (that is the safety valve),
        // but the steady state must serve most rounds warm.
        let mut ctx = SolverContext::new();
        let mut warm_rounds = 0usize;
        for (round, p) in problems.iter().enumerate() {
            let warm = ctx.solve(p).unwrap();
            let reference = oracle(p);
            assert!(
                (warm.objective_value() - reference).abs() < 1e-6 * (1.0 + reference.abs()),
                "n={n} round {round}: warm {} vs oracle {reference}",
                warm.objective_value(),
            );
            if round > 0 && warm.stats().warm_start {
                warm_rounds += 1;
            }
        }
        assert!(
            warm_rounds * 2 >= ROUND_SEQUENCE - 1,
            "n={n}: only {warm_rounds}/{} re-solves warm-started",
            ROUND_SEQUENCE - 1
        );

        // Churn gate: a tenant leave and a re-join must both re-solve to the
        // oracle objective, served as basis repairs, not cold solves.
        {
            let mut p = build_noncoop_problem(&cluster, &base);
            let mut ctx = SolverContext::new();
            ctx.solve(&p).unwrap();
            churn_leave(&mut p, n, NUM_GPU_TYPES);
            let after_leave = ctx.solve(&p).unwrap().objective_value();
            let leave_ref = oracle(&p);
            assert!(
                (after_leave - leave_ref).abs() < 1e-6 * (1.0 + leave_ref.abs()),
                "n={n}: post-leave warm {after_leave} vs oracle {leave_ref}"
            );
            churn_join(&mut p, n - 1, NUM_GPU_TYPES, &base);
            let after_join = ctx.solve(&p).unwrap().objective_value();
            let join_ref = oracle(&p);
            assert!(
                (after_join - join_ref).abs() < 1e-6 * (1.0 + join_ref.abs()),
                "n={n}: post-join warm {after_join} vs oracle {join_ref}"
            );
            assert!(
                ctx.stats().churn_repairs >= 1,
                "n={n}: churn edits were not served by basis repair \
                 (churn_repairs=0, cold_solves={})",
                ctx.stats().cold_solves
            );
        }

        if dense_oracle {
            let mut group = c.benchmark_group("solver_cold_dense");
            group.sample_size(samples);
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
                b.iter(|| problems[0].solve().unwrap())
            });
            group.finish();
        }

        let mut group = c.benchmark_group("solver_cold_revised");
        group.sample_size(samples);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| SolverContext::new().solve(&problems[0]).unwrap())
        });
        group.finish();

        let mut group = c.benchmark_group("solver_warm_context");
        group.sample_size(samples);
        // Pre-warm, then cycle through the jittered round sequence so every
        // measured solve is a warm re-solve of a *different* round.
        let mut ctx = SolverContext::new();
        ctx.solve(&problems[0]).unwrap();
        let mut round = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                round = (round + 1) % problems.len();
                ctx.solve(&problems[round]).unwrap()
            })
        });
        group.finish();

        // Churn-delta re-solve: each iteration is one leave + re-solve plus
        // one re-join + re-solve on the live program, so the reported mean
        // halves into a per-edit figure.  Sublinearity in n is the claim:
        // the edit repairs a basis instead of rebuilding the program.
        let mut group = c.benchmark_group("solver_churn_resolve_pair");
        group.sample_size(samples);
        let mut p = build_noncoop_problem(&cluster, &base);
        let mut ctx = SolverContext::new();
        ctx.solve(&p).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                churn_leave(&mut p, n, NUM_GPU_TYPES);
                ctx.solve(&p).unwrap();
                churn_join(&mut p, n - 1, NUM_GPU_TYPES, &base);
                ctx.solve(&p).unwrap()
            })
        });
        group.finish();

        let find = |label: &str| {
            c.measurements()
                .iter()
                .rev()
                .find(|m| m.label == format!("{label}/{n}"))
                .map(|m| m.mean_secs)
                .unwrap_or(f64::NAN)
        };
        points.push(TrajectoryPoint {
            n,
            cold_dense_secs: dense_oracle.then(|| find("solver_cold_dense")),
            cold_revised_secs: find("solver_cold_revised"),
            warm_secs: find("solver_warm_context"),
            churn_resolve_secs: find("solver_churn_resolve_pair") / 2.0,
        });
    }
}

/// Writes `BENCH_solver.json` at the workspace root: one trajectory point per
/// tenant count, so future PRs can track the cold/warm speedup over time.
fn emit_trajectory(points: &[TrajectoryPoint]) {
    let rows: Vec<serde_json::Value> = points
        .iter()
        .map(|p| {
            serde_json::json!({
                "tenants": p.n,
                "cold_dense_secs": p.cold_dense_secs,
                "cold_revised_secs": p.cold_revised_secs,
                "warm_secs": p.warm_secs,
                "churn_resolve_secs": p.churn_resolve_secs,
                "speedup_warm_vs_cold_dense": p.cold_dense_secs.map(|d| d / p.warm_secs),
                "speedup_warm_vs_cold_revised": p.cold_revised_secs / p.warm_secs,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "experiment": "solver_cold_vs_warm",
        "gpu_types": NUM_GPU_TYPES,
        "rounds_in_sequence": ROUND_SEQUENCE,
        "points": rows,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let body = serde_json::to_string(&doc).expect("trajectory serializes");
    std::fs::write(path, body).expect("write BENCH_solver.json");
    println!("wrote {path}");
}

fn main() {
    // `OEF_BENCH_SMOKE=1` (CI) trims the sweep to small sizes and skips the
    // trajectory write: the correctness gates — warm-vs-oracle objectives,
    // churn repairs — still run and fail the step on any divergence.
    let smoke = std::env::var_os("OEF_BENCH_SMOKE").is_some();
    let mut criterion = Criterion::default().configure_from_args();
    if !smoke {
        bench_noncoop(&mut criterion);
        bench_coop(&mut criterion);
    }
    gate_coop_lazy_vs_eager();
    let mut points = Vec::new();
    bench_cold_vs_warm(&mut criterion, &mut points, smoke);
    if !smoke {
        emit_trajectory(&points);
    }
}
