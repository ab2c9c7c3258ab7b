//! Differential oracle for the packed configuration store.
//!
//! The packed store ([`stst_runtime::store::ConfigStore`]) keeps every register as a
//! fixed-width bit slot; the struct-backed mode is the retained reference (analogous
//! to the executor's `FullRescan` mode). Because every codec round-trips exactly
//! (`decode(encode(x)) == x`, including fault garbage), executions over the two
//! stores must be **bit-identical**: same states after every step, same move/round/
//! guard-evaluation counters, same recovery behavior under register corruption and
//! the same re-seeding under topology churn. These tests pin that across both
//! guarded-rule layers, all 5 daemons, several seeds and thread counts {1, 2, 8}.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use self_stabilizing_spanning_trees::baselines::naive_reset::{
    DistanceOnlySpanningTree, DistanceOnlyState,
};
use self_stabilizing_spanning_trees::core::bfs::{BfsState, RootedBfs};
use self_stabilizing_spanning_trees::core::spanning::{MinIdSpanningTree, SpanningState};
use self_stabilizing_spanning_trees::graph::{generators, Graph, Mutation, NodeId};
use self_stabilizing_spanning_trees::obs::Obs;
use self_stabilizing_spanning_trees::runtime::{
    Algorithm, Executor, ExecutorConfig, SchedulerKind, StoreMode,
};

/// Runs packed and struct-backed executors in lockstep: identical chosen nodes,
/// identical states after every step, identical counters — with a register-corruption
/// fault injected every `perturb_every` steps (the RNG draws are part of the lockstep:
/// both executors must consume them identically). Both executors run with an enabled
/// observability handle attached, so the lockstep equality doubles as a determinism-
/// transparency pin, and the published guard counters are checked against the
/// two-tier invariant at the end.
fn drive_lockstep<A: Algorithm + Clone>(
    g: &Graph,
    algo: A,
    config: ExecutorConfig,
    max_steps: usize,
    perturb_every: Option<usize>,
    label: &str,
) {
    let packed_obs = Obs::enabled();
    let struct_obs = Obs::enabled();
    let mut packed = Executor::from_arbitrary(g, algo.clone(), config);
    packed.attach_obs(packed_obs.clone());
    let mut structs = Executor::from_arbitrary(g, algo, config.with_store(StoreMode::Struct));
    structs.attach_obs(struct_obs.clone());
    assert_eq!(packed.states(), structs.states(), "{label}: initial");
    for step in 0..max_steps {
        if packed.is_quiescent() {
            assert!(structs.is_quiescent(), "{label}: quiescence at step {step}");
            match perturb_every {
                Some(_) if step + 40 < max_steps => {}
                _ => break,
            }
        }
        if let Some(every) = perturb_every {
            if step % every == every - 1 {
                let a = packed.corrupt_random_nodes(3);
                let b = structs.corrupt_random_nodes(3);
                assert_eq!(a, b, "{label}: fault targets at step {step}");
            }
        }
        let a = packed.step_once().to_vec();
        let b = structs.step_once().to_vec();
        assert_eq!(a, b, "{label}: chosen nodes at step {step}");
        assert_eq!(
            packed.states(),
            structs.states(),
            "{label}: states at step {step}"
        );
        assert_eq!(
            (packed.moves(), packed.rounds(), packed.guard_evaluations()),
            (
                structs.moves(),
                structs.rounds(),
                structs.guard_evaluations()
            ),
            "{label}: counters at step {step}"
        );
        // Two-tier accounting: every packed evaluation is either screened or fully
        // decoded; the struct path neither screens nor decodes.
        assert_eq!(
            packed.guard_screen_hits() + packed.guard_full_decodes(),
            packed.guard_evaluations(),
            "{label}: tier accounting at step {step}"
        );
        assert_eq!(
            (structs.guard_screen_hits(), structs.guard_full_decodes()),
            (0, 0),
            "{label}: struct runs have nothing to screen"
        );
    }
    assert!(
        packed.guard_screen_hits() > 0,
        "{label}: the screen never resolved a guard"
    );
    // Registry view of the same invariant: what the executors published at wave
    // boundaries must obey the tier accounting — packed splits every published
    // evaluation between the screen and the decoder, the struct store publishes
    // zeros for both tiers.
    let registry = packed_obs.registry().unwrap();
    let evals = registry
        .counter_value("executor_guard_evaluations")
        .unwrap_or(0);
    let hits = registry
        .counter_value("executor_guard_screen_hits")
        .unwrap_or(0);
    let decodes = registry
        .counter_value("executor_guard_full_decodes")
        .unwrap_or(0);
    assert_eq!(hits + decodes, evals, "{label}: registry tier accounting");
    assert!(
        evals <= packed.guard_evaluations(),
        "{label}: the registry never runs ahead of the executor"
    );
    let struct_registry = struct_obs.registry().unwrap();
    assert_eq!(
        (
            struct_registry
                .counter_value("executor_guard_screen_hits")
                .unwrap_or(0),
            struct_registry
                .counter_value("executor_guard_full_decodes")
                .unwrap_or(0),
        ),
        (0, 0),
        "{label}: struct runs publish nothing to screen"
    );
}

/// Lockstep of packed and struct-backed executors under **out-of-width** register
/// injection. `arbitrary_state` only draws values that fit the codec widths, so
/// [`drive_lockstep`]'s faults never reach the decoding tier; here, every `every`
/// steps, both executors get the same garbage at the same target through
/// `corrupt_node`. The garbage escapes extraction, so the packed executor must re-run
/// rules over decoded registers — and still match the struct reference state for
/// state at every step.
fn drive_lockstep_with_garbage<A: Algorithm + Clone>(
    g: &Graph,
    algo: A,
    config: ExecutorConfig,
    max_steps: usize,
    every: usize,
    garbage: impl Fn(&mut StdRng) -> A::State,
    label: &str,
) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9a7b);
    let mut packed = Executor::from_arbitrary(g, algo.clone(), config);
    let mut structs = Executor::from_arbitrary(g, algo, config.with_store(StoreMode::Struct));
    for step in 0..max_steps {
        if step % every == every - 1 {
            let v = NodeId(rng.gen_range(0..g.node_count()));
            let state = garbage(&mut rng);
            packed.corrupt_node(v, state.clone());
            structs.corrupt_node(v, state);
            assert_eq!(
                packed.states(),
                structs.states(),
                "{label}: after garbage at step {step}"
            );
        }
        if packed.is_quiescent() {
            assert!(structs.is_quiescent(), "{label}: quiescence at step {step}");
            continue;
        }
        let a = packed.step_once().to_vec();
        let b = structs.step_once().to_vec();
        assert_eq!(a, b, "{label}: chosen nodes at step {step}");
        assert_eq!(
            packed.states(),
            structs.states(),
            "{label}: states at step {step}"
        );
        assert_eq!(
            (packed.moves(), packed.rounds(), packed.guard_evaluations()),
            (
                structs.moves(),
                structs.rounds(),
                structs.guard_evaluations()
            ),
            "{label}: counters at step {step}"
        );
        assert_eq!(
            packed.guard_screen_hits() + packed.guard_full_decodes(),
            packed.guard_evaluations(),
            "{label}: tier accounting at step {step}"
        );
    }
    assert!(
        packed.guard_full_decodes() > 0,
        "{label}: the garbage never reached the decoding tier"
    );
    let qp = packed.run_to_quiescence(2_000_000).unwrap();
    let qs = structs.run_to_quiescence(2_000_000).unwrap();
    assert_eq!(qp, qs, "{label}: re-stabilization");
    assert_eq!(packed.states(), structs.states(), "{label}: final states");
    assert!(qp.legal, "{label}: recovered from out-of-width garbage");
}

/// An identity or counter value far outside every codec field width.
fn wide(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.25) {
        u64::MAX
    } else {
        rng.gen_range(1u64 << 40..u64::MAX)
    }
}

#[test]
fn packed_and_struct_stores_agree_under_out_of_width_garbage() {
    let g = generators::workload(20, 0.2, 5);
    let root_ident = g.ident(g.min_ident_node());
    for kind in SchedulerKind::all() {
        drive_lockstep_with_garbage(
            &g,
            RootedBfs::new(root_ident),
            ExecutorConfig::with_scheduler(7, kind),
            300,
            11,
            |rng| BfsState {
                parent: rng.gen_bool(0.5).then(|| wide(rng)),
                dist: wide(rng),
            },
            &format!("bfs garbage/{kind}"),
        );
        drive_lockstep_with_garbage(
            &g,
            MinIdSpanningTree,
            ExecutorConfig::with_scheduler(3, kind),
            300,
            11,
            |rng| SpanningState {
                root: if rng.gen_bool(0.5) {
                    wide(rng)
                } else {
                    rng.gen_range(0..4)
                },
                parent: Some(rng.gen_range(0..40)),
                dist: wide(rng),
                size: wide(rng),
            },
            &format!("spanning garbage/{kind}"),
        );
        drive_lockstep_with_garbage(
            &g,
            DistanceOnlySpanningTree,
            ExecutorConfig::with_scheduler(11, kind),
            300,
            11,
            |rng| DistanceOnlyState {
                root: if rng.gen_bool(0.5) {
                    wide(rng)
                } else {
                    rng.gen_range(0..4)
                },
                parent: rng.gen_bool(0.5).then(|| wide(rng)),
                dist: wide(rng),
            },
            &format!("distance-only garbage/{kind}"),
        );
    }
}

#[test]
fn packed_and_struct_stores_run_bit_identically_under_all_daemons() {
    let g = generators::workload(22, 0.2, 8);
    for kind in SchedulerKind::all() {
        for seed in [3u64, 19] {
            let config = ExecutorConfig::with_scheduler(seed, kind);
            drive_lockstep(
                &g,
                MinIdSpanningTree,
                config,
                400,
                None,
                &format!("spanning/{kind}/seed {seed}"),
            );
        }
    }
}

#[test]
fn packed_and_struct_stores_agree_under_fault_injection() {
    let g = generators::workload(20, 0.2, 5);
    let root_ident = g.ident(g.min_ident_node());
    for kind in SchedulerKind::all() {
        drive_lockstep(
            &g,
            RootedBfs::new(root_ident),
            ExecutorConfig::with_scheduler(7, kind),
            300,
            Some(13),
            &format!("bfs faults/{kind}"),
        );
        drive_lockstep(
            &g,
            DistanceOnlySpanningTree,
            ExecutorConfig::with_scheduler(11, kind),
            300,
            Some(17),
            &format!("distance-only faults/{kind}"),
        );
    }
}

#[test]
fn packed_runs_are_bit_identical_at_every_thread_count() {
    // Large enough that the parallel wave path genuinely runs (PAR_MIN_ITEMS).
    let g = generators::workload(400, 0.01, 2);
    let reference = {
        let config = ExecutorConfig::with_scheduler(4, SchedulerKind::Synchronous);
        let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
        let q = exec.run_to_quiescence(1_000_000).unwrap();
        (
            exec.states(),
            q,
            exec.guard_evaluations(),
            exec.guard_screen_hits(),
            exec.guard_full_decodes(),
        )
    };
    for store in [StoreMode::Packed, StoreMode::Struct] {
        for threads in [1usize, 2, 8] {
            let config = ExecutorConfig::with_scheduler(4, SchedulerKind::Synchronous)
                .with_threads(threads)
                .with_store(store);
            let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
            let q = exec.run_to_quiescence(1_000_000).unwrap();
            assert_eq!(exec.states(), reference.0, "{store:?}, {threads} threads");
            assert_eq!(q, reference.1, "{store:?}, {threads} threads");
            assert_eq!(
                exec.guard_evaluations(),
                reference.2,
                "{store:?}, {threads} threads"
            );
            // The tier split is as thread-count-invariant as the execution: a guard's
            // screenability depends only on the slot bits, never on which worker
            // evaluated it.
            let expected_tiers = match store {
                StoreMode::Packed => (reference.3, reference.4),
                StoreMode::Struct => (0, 0),
            };
            assert_eq!(
                (exec.guard_screen_hits(), exec.guard_full_decodes()),
                expected_tiers,
                "{store:?}, {threads} threads"
            );
        }
    }
}

#[test]
fn packed_store_survives_topology_churn_like_the_struct_store() {
    // Edge churn and node churn re-seed the executor; the packed store re-encodes the
    // surviving registers under the refreshed codec widths and must land in exactly
    // the struct store's configuration — including the weight-drift case that grows
    // the weight field.
    let g0 = generators::workload(30, 0.15, 6);
    for kind in [SchedulerKind::Central, SchedulerKind::Synchronous] {
        let config = ExecutorConfig::with_scheduler(9, kind);
        let mut packed = Executor::from_arbitrary(&g0, MinIdSpanningTree, config);
        let mut structs =
            Executor::from_arbitrary(&g0, MinIdSpanningTree, config.with_store(StoreMode::Struct));
        packed.run_to_quiescence(2_000_000).unwrap();
        structs.run_to_quiescence(2_000_000).unwrap();
        assert_eq!(packed.states(), structs.states(), "{kind}: stabilized");
        // Batch 1: an insertion plus a (connectivity-preserving) removal plus weight
        // drift beyond the old maximum.
        let (a, b) = {
            let mut found = None;
            'outer: for a in g0.nodes() {
                for b in g0.nodes() {
                    if a < b && g0.edge_between(a, b).is_none() {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.unwrap()
        };
        let removable = g0
            .edge_ids()
            .find(|&e| {
                let ed = *g0.edge(e);
                let mut trial = g0.clone();
                trial.remove_edge(ed.u, ed.v);
                trial.is_connected()
            })
            .unwrap();
        let (ru, rv) = (g0.edge(removable).u, g0.edge(removable).v);
        let drift = {
            let e = g0
                .edge_ids()
                .find(|&e| e != removable)
                .expect("more than one edge");
            (g0.edge(e).u, g0.edge(e).v)
        };
        let max_w = g0.edge_ids().map(|e| g0.weight(e)).max().unwrap();
        let batch = vec![
            Mutation::AddEdge {
                u: a,
                v: b,
                weight: 1,
            },
            Mutation::RemoveEdge { u: ru, v: rv },
            Mutation::SetWeight {
                u: drift.0,
                v: drift.1,
                weight: 4 * max_w,
            },
        ];
        let mut g1 = g0.clone();
        let outcome = g1.apply_mutations(&batch);
        packed.apply_topology(&g1, &outcome);
        structs.apply_topology(&g1, &outcome);
        assert_eq!(
            packed.states(),
            structs.states(),
            "{kind}: after edge churn"
        );
        assert_eq!(packed.enabled_nodes(), structs.enabled_nodes());
        assert_eq!(packed.enabled_nodes(), packed.rescan_enabled_nodes());
        let qp = packed.run_to_quiescence(2_000_000).unwrap();
        let qs = structs.run_to_quiescence(2_000_000).unwrap();
        assert_eq!(qp, qs, "{kind}: re-stabilization after edge churn");
        assert_eq!(packed.states(), structs.states());
        // Batch 2: node churn (join with a large identity — grows the ident field).
        let n = g1.node_count();
        let mut g2 = g1.clone();
        let outcome = g2.apply_mutations(&[
            Mutation::AddNode { ident: 5_000 },
            Mutation::AddEdge {
                u: NodeId(n),
                v: NodeId(0),
                weight: 2,
            },
        ]);
        packed.apply_topology(&g2, &outcome);
        structs.apply_topology(&g2, &outcome);
        assert_eq!(
            packed.states(),
            structs.states(),
            "{kind}: after node churn"
        );
        let qp = packed.run_to_quiescence(2_000_000).unwrap();
        let qs = structs.run_to_quiescence(2_000_000).unwrap();
        assert_eq!(qp, qs, "{kind}: re-stabilization after node churn");
        assert_eq!(packed.states(), structs.states());
        assert!(qp.legal);
    }
}
