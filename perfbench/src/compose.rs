//! `mst-compose` and `mdst-compose`: full compositions from arbitrary configurations
//! to silence, each followed by one publication and a query burst on the silent
//! certificates (the path from an arbitrary configuration to the first served answer).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use self_stabilizing_spanning_trees::core::engine::{CompositionEngine, EngineTask, PhaseEvent};
use self_stabilizing_spanning_trees::core::EngineConfig;
use self_stabilizing_spanning_trees::graph::fr::fr_certificate;
use self_stabilizing_spanning_trees::graph::mst::kruskal;
use self_stabilizing_spanning_trees::graph::Graph;
use self_stabilizing_spanning_trees::obs::Obs;
use self_stabilizing_spanning_trees::runtime::{SchedulerKind, StoreMode};
use self_stabilizing_spanning_trees::serve::{Answer, LoadGen, Query, QueryMix, ServeHub};

use crate::common::{self, derive_seed, median, HostSpeed, Metrics, RunOutcome, Spans};
use crate::oracle::TraversalOracle;
use crate::{sparse_graph, Mode, QUERY_SAMPLE_EVERY};

pub struct Params {
    pub task: EngineTask,
    pub n: usize,
    pub instances: usize,
    /// Queries streamed off each published snapshot.
    pub queries: u64,
}

/// Many instances at a moderate size rather than a few large ones: the spanning-tree
/// phase has a heavy tail (about four in ten arbitrary configurations hold a fake
/// root that must count to n), so only a large sample per run gives a steady median
/// and a steady maximum. Every derived seed runs; none is filtered out.
pub const MST: Params = Params {
    task: EngineTask::Mst,
    n: 512,
    instances: 560,
    queries: 20_000,
};

pub const MDST: Params = Params {
    task: EngineTask::Mdst,
    n: 512,
    instances: 240,
    queries: 20_000,
};

/// Length of one pass on the quiet reference host, set-up included.
const PASS_S: f64 = 40.0;

/// Synchronous-daemon step budget per instance (a step is a round under this daemon;
/// the worst tail needs about n rounds).
fn step_budget(n: usize) -> u64 {
    64 * n as u64
}

struct Instance {
    seed: u64,
    graph: Graph,
}

fn build_inputs(seed: u64, p: &Params) -> Vec<Instance> {
    (0..p.instances as u64)
        .map(|i| {
            let s = derive_seed(seed, i);
            Instance {
                seed: s,
                graph: sparse_graph(p.n, s),
            }
        })
        .collect()
}

/// Time and work of one instance, by the phase event each `step()` returned.
#[derive(Default, Clone)]
struct Phases {
    tree_s: f64,
    tree_rounds: u64,
    label_s: f64,
    label_waves: u64,
    labels_written: u64,
    switch_s: f64,
    switches: u64,
    local_switches: u64,
    verify_s: f64,
}

#[derive(Default, Clone)]
struct Op {
    silence_s: f64,
    answer_ms: f64,
    publish_s: f64,
    query_s: f64,
    queries: u64,
    phases: Phases,
    total_rounds: u64,
    labels_written: u64,
    register_bits: u64,
    /// What the instance added to the traced pass's registry.
    tally: Tally,
    /// The tree phase's executor, from the registry's gauges.
    exec_rounds: u64,
    exec_moves: u64,
}

/// Registry counters one instance adds to the traced pass's shared `Obs`.
#[derive(Default, Clone, Copy)]
struct Tally {
    guard_evaluations: u64,
    screen_hits: u64,
    full_decodes: u64,
    serve_screened: u64,
    serve_full_decodes: u64,
    serve_queries: u64,
    query_ns_sum: u64,
    query_ns_count: u64,
    dropped: u64,
}

impl Tally {
    fn read(obs: &Obs) -> Tally {
        let Some(reg) = obs.registry() else {
            return Tally::default();
        };
        let c = |name: &str| reg.counter_value(name).unwrap_or(0);
        let h = reg.histogram("query_ns");
        Tally {
            guard_evaluations: c("executor_guard_evaluations"),
            screen_hits: c("executor_guard_screen_hits"),
            full_decodes: c("executor_guard_full_decodes"),
            serve_screened: c("serve_screen_hits"),
            serve_full_decodes: c("serve_full_decodes"),
            serve_queries: c("queries_served"),
            query_ns_sum: h.sum(),
            query_ns_count: h.count(),
            dropped: c("trace_dropped_events"),
        }
    }

    fn since(self, before: Tally) -> Tally {
        Tally {
            guard_evaluations: self.guard_evaluations - before.guard_evaluations,
            screen_hits: self.screen_hits - before.screen_hits,
            full_decodes: self.full_decodes - before.full_decodes,
            serve_screened: self.serve_screened - before.serve_screened,
            serve_full_decodes: self.serve_full_decodes - before.serve_full_decodes,
            serve_queries: self.serve_queries - before.serve_queries,
            query_ns_sum: self.query_ns_sum - before.query_ns_sum,
            query_ns_count: self.query_ns_count - before.query_ns_count,
            dropped: self.dropped - before.dropped,
        }
    }
}

/// Runs one instance: arbitrary configuration → silence → publish → first answer →
/// query burst. Checks the outputs afterwards, outside the timed region.
fn run_instance(
    inst: &Instance,
    p: &Params,
    op_id: u64,
    obs: &Obs,
    spans: &mut Spans,
) -> Result<Op, String> {
    let config = EngineConfig::seeded(inst.seed)
        .with_scheduler(SchedulerKind::Synchronous)
        .with_max_steps(step_budget(p.n))
        .with_threads(1);
    let before = Tally::read(obs);
    let mut op = Op::default();
    let mut gen = LoadGen::new(p.n, 0.99, QueryMix::default_mix(), inst.seed);
    let queries: Vec<Query> = (0..p.queries).map(|_| gen.next_query()).collect();
    let mut samples: Vec<(Query, Answer)> = Vec::new();

    spans.begin("instance", op_id);
    let start = Instant::now();
    let mut engine = CompositionEngine::new(&inst.graph, p.task, config);
    engine.attach_obs(obs.clone());
    loop {
        let t = Instant::now();
        spans.begin("engine.step", op_id);
        let event = engine.step();
        spans.end();
        let dt = t.elapsed().as_secs_f64();
        let ph = &mut op.phases;
        match event {
            PhaseEvent::TreeConstructed { rounds } => {
                ph.tree_s += dt;
                ph.tree_rounds += rounds;
            }
            PhaseEvent::LabelsReady { labels_written, .. } => {
                ph.label_s += dt;
                ph.label_waves += 1;
                ph.labels_written += labels_written;
            }
            PhaseEvent::Switched { local_switches, .. } => {
                ph.switch_s += dt;
                ph.switches += 1;
                ph.local_switches += local_switches as u64;
            }
            PhaseEvent::Stabilized { legal } => {
                ph.verify_s += dt;
                if !legal {
                    return Err("the engine's verifier rejected the silent configuration".into());
                }
                break;
            }
            other => return Err(format!("unexpected phase event {other:?}")),
        }
    }
    op.silence_s = start.elapsed().as_secs_f64();
    let mut hub = ServeHub::new(StoreMode::Packed);
    hub.attach_obs(obs.clone());
    let t = Instant::now();
    spans.begin("serve.publish", op_id);
    hub.publish_from_engine(&engine);
    spans.end();
    op.publish_s = t.elapsed().as_secs_f64();
    let mut reader = hub.reader().ok_or("nothing published")?;
    spans.begin("serve.first_answer", op_id);
    let first = reader.query(queries[0]);
    spans.end();
    op.answer_ms = start.elapsed().as_secs_f64() * 1e3;
    samples.push((queries[0], first));
    let t = Instant::now();
    spans.begin("serve.query_burst", op_id);
    for (i, &q) in queries.iter().enumerate().skip(1) {
        let a = black_box(reader.query(black_box(q)));
        if (i as u64).is_multiple_of(QUERY_SAMPLE_EVERY) {
            samples.push((q, a));
        }
    }
    spans.end();
    op.query_s = t.elapsed().as_secs_f64();
    op.queries = p.queries;
    spans.end();

    // Untimed: checks against stst-graph, never against the engine's own verifier.
    let report = engine.report();
    let g = engine.graph();
    match p.task {
        EngineTask::Mst => {
            let mst = kruskal(g).map_err(|e| format!("kruskal: {e:?}"))?;
            if !report.tree.is_spanning_tree_of(g)
                || report.tree.total_weight(g) != mst.total_weight(g)
            {
                return Err("tree weight differs from Kruskal's".into());
            }
        }
        EngineTask::Mdst => {
            if fr_certificate(g, &report.tree).is_none() {
                return Err("the silent tree carries no FR certificate".into());
            }
        }
    }
    // The answers are checked against the tree checked above, and the published
    // snapshot must hold that tree.
    let parents = report.tree.parents();
    if reader.snapshot().parents() != parents {
        return Err("the published snapshot's parents differ from the silent tree".into());
    }
    TraversalOracle::of(parents)?.check(&samples)?;
    op.total_rounds = report.total_rounds;
    op.labels_written = report.labels_written;
    op.register_bits = report.max_register_bits as u64;
    drop(reader);
    op.tally = Tally::read(obs).since(before);
    if let Some(reg) = obs.registry() {
        op.exec_rounds = reg.gauge_value("executor_rounds").unwrap_or(0);
        op.exec_moves = reg.gauge_value("executor_moves").unwrap_or(0);
    }
    Ok(op)
}

struct Pass {
    ops: Vec<Option<Op>>,
    spans: Vec<common::SpanRec>,
    registry_json: Option<String>,
}

fn run_pass(
    inputs: &[Instance],
    p: &Params,
    traced: bool,
    host: &mut HostSpeed,
    out: &mut RunOutcome,
) -> Pass {
    let mut spans = Spans::new(traced, Instant::now(), "main");
    let obs = if traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut ops = Vec::with_capacity(inputs.len());
    for (i, inst) in inputs.iter().enumerate() {
        host.tick();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_instance(inst, p, i as u64, &obs, &mut spans)
        }));
        spans.close_all();
        let op = match result {
            Ok(Ok(op)) => Some(op),
            Ok(Err(reason)) => {
                out.failures
                    .push(format!("instance {i} seed {}: {reason}", inst.seed));
                None
            }
            Err(_) => {
                out.failures.push(format!(
                    "instance {i} seed {}: panicked (budget {} steps exhausted or internal error)",
                    inst.seed,
                    step_budget(p.n)
                ));
                None
            }
        };
        ops.push(op);
    }
    Pass {
        ops,
        spans: spans.recs,
        registry_json: obs.registry().map(|r| r.json()),
    }
}

fn counters(pass: &Pass) -> Vec<(&'static str, u64)> {
    let ok: Vec<&Op> = pass.ops.iter().flatten().collect();
    vec![
        ("rounds_to_silence", ok.iter().map(|o| o.total_rounds).sum()),
        (
            "engine.labels_written",
            ok.iter().map(|o| o.labels_written).sum(),
        ),
        (
            "register_bits_max",
            ok.iter().map(|o| o.register_bits).max().unwrap_or(0),
        ),
        (
            "engine.switches",
            ok.iter().map(|o| o.phases.switches).sum(),
        ),
        (
            "engine.tree_rounds",
            ok.iter().map(|o| o.phases.tree_rounds).sum(),
        ),
        ("instances_ok", ok.len() as u64),
    ]
}

pub fn run(p: &Params, seed: u64, seconds: f64, mode: Mode) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut host = HostSpeed::new();
    let (inputs, setup_s) = common::build_repeatedly(&mut host, || build_inputs(seed, p));
    out.instance_seeds = inputs.iter().map(|i| i.seed).collect();

    let mut passes = vec![run_pass(&inputs, p, false, &mut host, &mut out)];
    // The footprint of one pass: later passes only re-run the same instances.
    let peak_rss_mib = common::peak_rss_mib();
    let reference = counters(&passes[0]);
    if mode == Mode::Traced {
        let traced = run_pass(&inputs, p, true, &mut host, &mut out);
        if counters(&traced) != reference {
            out.failures.push(
                "determinism: the traced pass's counters differ from the untraced pass's".into(),
            );
        }
        out.per_layer = layer_metrics(&passes[0], &traced, setup_s);
        out.per_layer.put("host.slowness", host.slowness());
        let silence = per_instance(&passes, |o| o.silence_s);
        let answer = per_instance(&passes, |o| o.answer_ms);
        out.per_layer
            .put("tail.silence_s_p90", common::percentile(&silence, 90.0));
        out.per_layer
            .put("tail.silence_s_max", common::max(&silence));
        out.per_layer.put(
            "tail.event_to_answer_ms_p99",
            common::percentile(&answer, 99.0),
        );
        out.spans = traced.spans;
        out.registry_json = traced.registry_json;
    } else {
        while passes.len() < common::passes_for(seconds, PASS_S) {
            let again = run_pass(&inputs, p, false, &mut host, &mut out);
            if counters(&again) != reference {
                out.failures
                    .push("determinism: a repeated pass's counters differ".into());
            }
            passes.push(again);
        }
    }
    out.attempted = (passes.len() * inputs.len()) as u64
        + if mode == Mode::Traced {
            inputs.len() as u64
        } else {
            0
        };
    out.failed = out.failures.len() as u64;
    out.counters = reference;
    out.notes.push(("passes", passes.len().to_string()));
    out.notes.push(("n", p.n.to_string()));
    common::note_host(&mut out, &host);
    out.end_to_end = end_to_end(&passes, setup_s, host.slowness());
    out.end_to_end.put("peak_rss_mib", peak_rss_mib);
    out
}

/// Per instance, the least over passes of `f` (the host's noise only ever adds time,
/// and the passes are spread over the run); instances that failed in any pass are
/// left out (they are counted as failed ops).
fn per_instance(passes: &[Pass], f: impl Fn(&Op) -> f64) -> Vec<f64> {
    let n = passes[0].ops.len();
    (0..n)
        .filter_map(|i| {
            let vals: Option<Vec<f64>> = passes.iter().map(|p| p.ops[i].as_ref().map(&f)).collect();
            vals.map(|v| v.into_iter().fold(f64::INFINITY, f64::min))
        })
        .collect()
}

/// End-to-end metrics; times are divided by the host's `slowness`, rates multiplied.
fn end_to_end(passes: &[Pass], setup_s: f64, slowness: f64) -> Metrics {
    let silence = per_instance(passes, |o| o.silence_s);
    let answer = per_instance(passes, |o| o.answer_ms);
    let ok: Vec<&Op> = passes[0].ops.iter().flatten().collect();
    let queries: f64 = per_instance(passes, |o| o.queries as f64).iter().sum();
    let query_s: f64 = per_instance(passes, |o| o.query_s).iter().sum();
    let attempted = passes.iter().map(|p| p.ops.len()).sum::<usize>() as f64;
    let failed = passes
        .iter()
        .map(|p| p.ops.iter().filter(|o| o.is_none()).count())
        .sum::<usize>() as f64;
    let mut m = Metrics::default();
    m.put("setup_s", setup_s / slowness);
    m.put("silence_s", silence.iter().sum::<f64>() / slowness);
    m.put("silence_s_p50", median(&silence) / slowness);
    m.put(
        "rounds_to_silence",
        ok.iter().map(|o| o.total_rounds as f64).sum(),
    );
    m.put(
        "register_bits_max",
        median(
            &ok.iter()
                .map(|o| o.register_bits as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put("event_to_answer_ms_p50", median(&answer) / slowness);
    m.put(
        "event_to_answer_ms_p90",
        common::percentile(&answer, 90.0) / slowness,
    );
    m.put("query_qps", common::ratio(queries, query_s) * slowness);
    m.put("ok_share", common::ratio(attempted - failed, attempted));
    m
}

fn layer_metrics(untraced: &Pass, traced: &Pass, setup_s: f64) -> Metrics {
    let ok: Vec<&Op> = traced.ops.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Op) -> f64| ok.iter().map(|o| f(o)).sum::<f64>();
    let base: Vec<&Op> = untraced.ops.iter().flatten().collect();
    let med =
        |ops: &[&Op], f: &dyn Fn(&Op) -> f64| median(&ops.iter().map(|o| f(o)).collect::<Vec<_>>());
    let publish: Vec<f64> = ok.iter().map(|o| o.publish_s * 1e3).collect();
    let ph = |f: &dyn Fn(&Phases) -> f64| sum(&|o: &Op| f(&o.phases));
    let label_s = ph(&|p| p.label_s);
    let label_waves = ph(&|p| p.label_waves as f64);
    let switch_s = ph(&|p| p.switch_s);
    let switches = ph(&|p| p.switches as f64);
    let evals = sum(&|o| o.tally.guard_evaluations as f64);
    let tree_s = ph(&|p| p.tree_s);
    let mut l = Metrics::default();
    l.put("graph.build_s", setup_s);
    l.put("executor.busy_s", tree_s);
    l.put("executor.evals_per_s", common::ratio(evals, tree_s));
    l.put("executor.guard_evaluations", evals);
    l.put(
        "executor.guard_screen_hits",
        sum(&|o| o.tally.screen_hits as f64),
    );
    l.put(
        "executor.guard_full_decodes",
        sum(&|o| o.tally.full_decodes as f64),
    );
    l.put("executor.moves", sum(&|o| o.exec_moves as f64));
    l.put("executor.rounds", sum(&|o| o.exec_rounds as f64));
    l.put(
        "executor.fire_share",
        common::ratio(sum(&|o| o.exec_moves as f64), evals),
    );
    l.put("engine.tree_s", tree_s);
    l.put(
        "engine.tree_s_max",
        ok.iter().map(|o| o.phases.tree_s).fold(0.0, f64::max),
    );
    l.put("engine.tree_rounds", ph(&|p| p.tree_rounds as f64));
    l.put("engine.label_s", label_s);
    l.put("engine.label_waves", label_waves);
    l.put("engine.labels_written", ph(&|p| p.labels_written as f64));
    l.put(
        "engine.label_ms_per_wave",
        common::ratio(label_s * 1e3, label_waves),
    );
    l.put("engine.switch_s", switch_s);
    l.put("engine.switches", switches);
    l.put("engine.local_switches", ph(&|p| p.local_switches as f64));
    l.put(
        "engine.switch_ms_per_switch",
        common::ratio(switch_s * 1e3, switches),
    );
    l.put("engine.verify_s", ph(&|p| p.verify_s));
    // The typical instance: the median over instances of each phase's share of the
    // instance's time to silence (the sums above are weighted by the tree-phase tail).
    let share =
        |f: &dyn Fn(&Phases) -> f64| med(&ok, &|o: &Op| common::ratio(f(&o.phases), o.silence_s));
    l.put("engine.tree_share_p50", share(&|p| p.tree_s));
    l.put("engine.label_share_p50", share(&|p| p.label_s));
    l.put("engine.switch_share_p50", share(&|p| p.switch_s));
    l.put("serve.publish_ms_p50", median(&publish));
    l.put("serve.publish_ms_max", common::max(&publish));
    l.put(
        "serve.query_ns_mean",
        common::ratio(
            sum(&|o| o.tally.query_ns_sum as f64),
            sum(&|o| o.tally.query_ns_count as f64),
        ),
    );
    l.put(
        "serve.screen_share",
        common::ratio(
            sum(&|o| o.tally.serve_screened as f64),
            sum(&|o| o.tally.serve_queries as f64),
        ),
    );
    l.put(
        "serve.full_decodes",
        sum(&|o| o.tally.serve_full_decodes as f64),
    );
    l.put(
        "obs.trace_overhead",
        common::ratio(med(&ok, &|o| o.silence_s), med(&base, &|o| o.silence_s)),
    );
    l.put(
        "obs.trace_overhead_answer",
        common::ratio(med(&ok, &|o| o.answer_ms), med(&base, &|o| o.answer_ms)),
    );
    l.put("obs.trace_dropped_events", sum(&|o| o.tally.dropped as f64));
    l
}
