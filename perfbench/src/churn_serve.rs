//! `churn-serve`: a stabilized MST under a closed loop of link-only churn batches.
//! The writer injects a batch, lets the engine re-stabilize, publishes the silent
//! configuration and waits until the reader has answered on the new epoch; one reader
//! thread streams the default zipfian query mix throughout and polls the epoch.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::Instant;

use self_stabilizing_spanning_trees::churn::{trace, ChurnDriver, TopologyEvent};
use self_stabilizing_spanning_trees::core::engine::{CompositionEngine, EngineTask};
use self_stabilizing_spanning_trees::core::EngineConfig;
use self_stabilizing_spanning_trees::graph::mst::kruskal;
use self_stabilizing_spanning_trees::graph::{Graph, NodeId};
use self_stabilizing_spanning_trees::obs::Obs;
use self_stabilizing_spanning_trees::runtime::{SchedulerKind, Snapshot, StoreMode};
use self_stabilizing_spanning_trees::serve::{Answer, LoadGen, Query, QueryMix, ServeHub};

use crate::common::{
    self, derive_seed, median, percentile, HostSpeed, Metrics, RunOutcome, SpanRec, Spans,
};
use crate::oracle::TraversalOracle;
use crate::{sparse_graph, Mode, QUERY_SAMPLE_EVERY};

const N: usize = 2048;
/// Several graphs per run, each stabilized once and then churned: the per-batch cost
/// depends on the graph, so one graph per seed would make the seed, not the code,
/// the largest source of spread.
const GRAPHS: usize = 14;
/// Non-empty batches per graph. A pass replays every graph's batches from its
/// stabilized checkpoint, so each batch is the same op in every pass; a run makes
/// one pass per `PASS_S` of `--seconds` and keeps each batch's fastest time.
const BATCHES_PER_GRAPH: usize = 70;
/// Length of one pass on the quiet reference host.
const PASS_S: f64 = 20.0;
const RATE: f64 = 1.5;
/// Queries between two polls of the epoch.
const POLL_EVERY: u32 = 16;

struct Network {
    seed: u64,
    graph: Graph,
    batches: Vec<Vec<TopologyEvent>>,
}

fn build_network(seed: u64) -> Network {
    let graph = sparse_graph(N, seed);
    // Poisson(1.5) leaves about a fifth of the waves empty; draw enough waves for
    // the non-empty batches (topping up is deterministic in the seed).
    let mut waves = BATCHES_PER_GRAPH * 3 / 2;
    loop {
        let churn = trace::steady_poisson(&graph, waves, RATE, 0.0, seed);
        let batches: Vec<_> = churn
            .batches
            .into_iter()
            .filter(|b| !b.is_empty())
            .collect();
        if batches.len() >= BATCHES_PER_GRAPH {
            return Network {
                seed,
                graph,
                batches: batches.into_iter().take(BATCHES_PER_GRAPH).collect(),
            };
        }
        waves *= 2;
    }
}

fn build_inputs(seed: u64) -> Vec<Network> {
    (0..GRAPHS as u64)
        .map(|i| build_network(derive_seed(seed, i)))
        .collect()
}

struct Batch {
    epoch: Option<u64>,
    inject_start: Instant,
    inject_ms: f64,
    publish_ms: f64,
    published: Option<Instant>,
    recovery_rounds: u64,
    labels_written: u64,
    dirty_nodes: u64,
    switches: u64,
    legal: bool,
}

#[derive(Default)]
struct ReaderLog {
    /// Epoch → instant of the first answer served on it.
    first_answer: BTreeMap<u64, Instant>,
    refresh_us: Vec<f64>,
    samples: Vec<(u64, Query, Answer)>,
    queries: u64,
    /// Time spent serving: the loop's time less the host samples taken in it.
    elapsed_s: f64,
    /// The host's slowness as the reader's core saw it.
    slowness: f64,
    staleness_max: u64,
    spans: Vec<SpanRec>,
}

struct Pass {
    first_publish_s: f64,
    batches: Vec<Batch>,
    reader: ReaderLog,
    parents: BTreeMap<u64, Vec<Option<NodeId>>>,
    /// Per graph, the largest register of the whole churned run.
    register_bits: Vec<u64>,
    final_weight: u64,
    spans: Vec<SpanRec>,
    registry: BTreeMap<&'static str, f64>,
    registry_json: Option<String>,
}

fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig::seeded(seed)
        .with_scheduler(SchedulerKind::Synchronous)
        .with_max_steps(64 * N as u64)
        .with_threads(1)
}

/// Blocks until the reader has answered on `epoch` (the closed loop); fails if the
/// reader thread has ended without answering.
fn wait_for_answer(
    answered: &AtomicU64,
    epoch: u64,
    reader: &ScopedJoinHandle<'_, ReaderLog>,
) -> Result<(), String> {
    let mut spins = 0u32;
    while answered.load(Ordering::Acquire) < epoch {
        if reader.is_finished() {
            return Err(format!(
                "the reader ended before answering on epoch {epoch}"
            ));
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Tells the reader to stop when the writer leaves its loop, by any path.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Stabilizes every network from its arbitrary configuration once and checkpoints
/// the silent engine: the start of every pass. Returns the checkpoints and the time
/// the stabilizations took.
fn stabilize_inputs(inputs: &[Network]) -> Result<(Vec<Snapshot>, f64), String> {
    let t = Instant::now();
    let snapshots = catch_unwind(AssertUnwindSafe(|| {
        inputs
            .iter()
            .map(|net| {
                let mut driver = ChurnDriver::new(CompositionEngine::new(
                    &net.graph,
                    EngineTask::Mst,
                    engine_config(net.seed),
                ));
                driver.stabilize();
                driver.engine().checkpoint()
            })
            .collect::<Vec<_>>()
    }))
    .map_err(|_| "the initial stabilization panicked".to_string())?;
    Ok((snapshots, t.elapsed().as_secs_f64()))
}

fn run_pass(
    inputs: &[Network],
    snapshots: &[Snapshot],
    seed: u64,
    traced: bool,
    host: &mut HostSpeed,
) -> Result<Pass, String> {
    let obs = if traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    // Every network restarts from its silent checkpoint before the reader starts; only
    // the churn runs against live reads.
    let mut drivers = Vec::with_capacity(snapshots.len());
    for (net, snapshot) in inputs.iter().zip(snapshots) {
        let (engine, outcome) = CompositionEngine::restore(snapshot, 1)
            .map_err(|e| format!("network seed {}: restore: {e:?}", net.seed))?;
        if outcome.families_rebuilt > 0 || outcome.rounds > 0 {
            return Err(format!(
                "network seed {}: the silent checkpoint did not restore verbatim",
                net.seed
            ));
        }
        let mut driver = ChurnDriver::new(engine);
        driver.attach_obs(obs.clone());
        drivers.push(driver);
    }
    let mut hub = ServeHub::new(StoreMode::Packed);
    hub.attach_obs(obs.clone());
    let origin = Instant::now();
    let t = Instant::now();
    let first_epoch = hub.publish_from_engine(drivers[0].engine());
    let mut writer = WriterLog {
        batches: Vec::new(),
        parents: BTreeMap::new(),
        first_publish_s: t.elapsed().as_secs_f64(),
        spans: Spans::new(traced, origin, "writer"),
    };
    writer
        .parents
        .insert(first_epoch, drivers[0].engine().tree().parents().to_vec());

    let shared = Shared::default();
    let hub = &hub;
    let reader = std::thread::scope(|scope| -> Result<ReaderLog, String> {
        // The reader samples the host on its own core: the rate it reports is
        // normalized by that core's slowness, not the writer's.
        let reader_host = HostSpeed::new();
        let reader = scope.spawn(|| read_loop(hub, seed, traced, origin, &shared, reader_host));
        let written = {
            let _stop = StopOnDrop(&shared.stop);
            write_loop(
                inputs,
                &mut drivers,
                hub,
                &shared,
                &reader,
                &mut writer,
                host,
            )
        };
        let log = reader
            .join()
            .map_err(|_| "the reader thread panicked".to_string())?;
        written.map(|()| log)
    })?;
    let mut registry = BTreeMap::new();
    if let Some(reg) = obs.registry() {
        let c = |name: &str| reg.counter_value(name).unwrap_or(0) as f64;
        let topology = reg.histogram("span_engine_topology_us");
        let query_ns = reg.histogram("query_ns");
        registry.insert("serve_screen_hits", c("serve_screen_hits"));
        registry.insert("serve_full_decodes", c("serve_full_decodes"));
        registry.insert("queries_served", c("queries_served"));
        registry.insert(
            "query_ns_mean",
            common::ratio(query_ns.sum() as f64, query_ns.count() as f64),
        );
        registry.insert(
            "engine_topology_ms_mean",
            common::ratio(topology.sum() as f64 * 1e-3, topology.count() as f64),
        );
        registry.insert("trace_dropped_events", c("trace_dropped_events"));
    }
    let reports: Vec<_> = drivers.iter().map(|d| d.engine().report()).collect();
    Ok(Pass {
        first_publish_s: writer.first_publish_s,
        batches: writer.batches,
        reader,
        parents: writer.parents,
        register_bits: reports.iter().map(|r| r.max_register_bits as u64).collect(),
        final_weight: reports
            .iter()
            .zip(&drivers)
            .map(|(r, d)| r.tree.total_weight(d.engine().graph()))
            .sum(),
        spans: writer.spans.recs,
        registry,
        registry_json: obs.registry().map(|r| r.json()),
    })
}

/// State the two threads of the closed loop share.
#[derive(Default)]
struct Shared {
    /// The newest epoch the reader has answered on.
    answered: AtomicU64,
    /// The epoch that switched the served network: wave stamps of two engines do
    /// not compare, so the reader measures no staleness across it.
    switched: AtomicU64,
    stop: AtomicBool,
}

struct WriterLog {
    batches: Vec<Batch>,
    /// Epoch → the published tree's parents (the oracle's input, kept untimed).
    parents: BTreeMap<u64, Vec<Option<NodeId>>>,
    first_publish_s: f64,
    spans: Spans,
}

/// The writer side of the closed loop: every network in turn, batch by batch.
fn write_loop(
    inputs: &[Network],
    drivers: &mut [ChurnDriver<'static>],
    hub: &ServeHub,
    shared: &Shared,
    reader: &ScopedJoinHandle<'_, ReaderLog>,
    log: &mut WriterLog,
    host: &mut HostSpeed,
) -> Result<(), String> {
    for (g, (net, driver)) in inputs.iter().zip(drivers.iter_mut()).enumerate() {
        if g > 0 {
            // Switch the served network: an initial publication, not a batch.
            shared.switched.store(hub.epoch() + 1, Ordering::Release);
            let t = Instant::now();
            let epoch = hub.publish_from_engine(driver.engine());
            log.first_publish_s += t.elapsed().as_secs_f64();
            wait_for_answer(&shared.answered, epoch, reader)?;
            log.parents
                .insert(epoch, driver.engine().tree().parents().to_vec());
        }
        for events in &net.batches {
            host.tick();
            let op = log.batches.len() as u64;
            log.spans.begin("batch", op);
            let inject_start = Instant::now();
            log.spans.begin("churn.inject", op);
            let report = driver.inject(events);
            log.spans.end();
            let mut batch = Batch {
                epoch: None,
                inject_start,
                inject_ms: inject_start.elapsed().as_secs_f64() * 1e3,
                publish_ms: 0.0,
                published: None,
                recovery_rounds: report.recovery_rounds,
                labels_written: report.labels_written,
                dirty_nodes: report.dirty_nodes as u64,
                switches: report.switches,
                legal: report.legal,
            };
            if report.applied {
                let t = Instant::now();
                log.spans.begin("serve.publish", op);
                let epoch = hub.publish_from_engine(driver.engine());
                log.spans.end();
                batch.published = Some(Instant::now());
                batch.publish_ms = t.elapsed().as_secs_f64() * 1e3;
                batch.epoch = Some(epoch);
                log.spans.end();
                wait_for_answer(&shared.answered, epoch, reader)?;
                // Untimed: the MST is checked against Kruskal on the churned graph.
                let engine = driver.engine();
                let g = engine.graph();
                batch.legal &=
                    kruskal(g).is_ok_and(|t| t.total_weight(g) == engine.tree().total_weight(g));
                log.parents.insert(epoch, engine.tree().parents().to_vec());
            } else {
                log.spans.end();
            }
            log.batches.push(batch);
        }
    }
    Ok(())
}

fn read_loop(
    hub: &ServeHub,
    seed: u64,
    traced: bool,
    origin: Instant,
    shared: &Shared,
    mut host: HostSpeed,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut spans = Spans::new(traced, origin, "reader");
    let mut reader = hub
        .reader()
        .expect("the initial configuration is published");
    let mut gen = LoadGen::new(N, 0.99, QueryMix::default_mix(), seed);
    let start = Instant::now();
    let sampled_before = host.spent_s();
    let mut count = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        host.tick();
        if reader.is_stale() {
            if hub.epoch() != shared.switched.load(Ordering::Acquire) {
                log.staleness_max = log.staleness_max.max(reader.staleness_waves());
            }
            let t = Instant::now();
            spans.begin("serve.refresh", hub.epoch());
            reader.refresh();
            spans.end();
            log.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
            let epoch = reader.epoch();
            let q = gen.next_query();
            spans.begin("serve.first_answer", epoch);
            let a = reader.query(q);
            spans.end();
            log.first_answer.insert(epoch, Instant::now());
            shared.answered.store(epoch, Ordering::Release);
            log.samples.push((epoch, q, a));
            count += 1;
        }
        for _ in 0..POLL_EVERY {
            let q = gen.next_query();
            let a = black_box(reader.query(black_box(q)));
            count += 1;
            if count.is_multiple_of(QUERY_SAMPLE_EVERY) {
                log.samples.push((reader.epoch(), q, a));
            }
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64() - (host.spent_s() - sampled_before);
    log.slowness = host.slowness();
    log.queries = count;
    log.spans = spans.recs;
    log
}

/// Checks the pass's sampled answers against the traversal oracle of their epoch.
/// Returns (sampled queries checked, failures); a wrong first answer fails its batch.
fn check_samples(pass: &mut Pass, out: &mut RunOutcome) -> u64 {
    let mut by_epoch: BTreeMap<u64, Vec<(Query, Answer)>> = BTreeMap::new();
    for &(epoch, q, a) in &pass.reader.samples {
        by_epoch.entry(epoch).or_default().push((q, a));
    }
    let mut checked = 0;
    for (epoch, samples) in by_epoch {
        let Some(parents) = pass.parents.get(&epoch) else {
            out.failures
                .push(format!("epoch {epoch}: answered but never recorded"));
            continue;
        };
        checked += samples.len() as u64;
        let verdict = TraversalOracle::of(parents).and_then(|o| o.check(&samples));
        if let Err(reason) = verdict {
            out.failures.push(format!("epoch {epoch}: {reason}"));
            if let Some(b) = pass.batches.iter_mut().find(|b| b.epoch == Some(epoch)) {
                b.legal = false;
            }
        }
    }
    checked
}

fn counters(pass: &Pass) -> Vec<(&'static str, u64)> {
    let b = &pass.batches;
    vec![
        (
            "churn.recovery_rounds",
            b.iter().map(|x| x.recovery_rounds).sum(),
        ),
        (
            "engine.labels_written",
            b.iter().map(|x| x.labels_written).sum(),
        ),
        ("churn.switches", b.iter().map(|x| x.switches).sum()),
        (
            "churn.severed_batches",
            b.iter().filter(|x| x.epoch.is_none()).count() as u64,
        ),
        (
            "register_bits_max",
            pass.register_bits.iter().copied().max().unwrap_or(0),
        ),
        ("final_tree_weight", pass.final_weight),
    ]
}

/// Runs one pass and checks it; a panic or an error fails the whole pass.
fn attempt(
    inputs: &[Network],
    snapshots: &[Snapshot],
    seed: u64,
    traced: bool,
    host: &mut HostSpeed,
    out: &mut RunOutcome,
) -> Option<Pass> {
    match catch_unwind(AssertUnwindSafe(|| {
        run_pass(inputs, snapshots, seed, traced, host)
    })) {
        Ok(Ok(mut pass)) => {
            let checked = check_samples(&mut pass, out);
            for (i, b) in pass.batches.iter().enumerate() {
                if !b.legal {
                    out.failures.push(format!(
                        "batch {i}: re-stabilized tree is not the MST, or its first answer is wrong"
                    ));
                }
            }
            let applied = pass.batches.iter().filter(|b| b.epoch.is_some()).count() as u64;
            out.attempted += applied + checked;
            Some(pass)
        }
        Ok(Err(reason)) => {
            out.attempted += 1;
            out.failures.push(format!("pass seed {seed}: {reason}"));
            None
        }
        Err(_) => {
            out.attempted += 1;
            out.failures.push(format!("pass seed {seed}: panicked"));
            None
        }
    }
}

/// Per-batch times. Built from several passes, each entry is the batch's fastest time
/// over them (a batch is the same op in every pass).
#[derive(Default)]
struct Latencies {
    inject_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    answer_ms: Vec<f64>,
    poll_lag_us: Vec<f64>,
}

/// One batch run's times; the last three are `None` when the batch published
/// nothing (a severing batch) or was never answered.
struct BatchTime {
    inject_ms: f64,
    publish_ms: Option<f64>,
    answer_ms: Option<f64>,
    poll_lag_us: Option<f64>,
}

/// One pass's per-batch times, in batch order.
fn batch_times(pass: &Pass) -> Vec<BatchTime> {
    pass.batches
        .iter()
        .map(|b| {
            let answered = b.epoch.zip(b.published).and_then(|(epoch, published)| {
                let answer = *pass.reader.first_answer.get(&epoch)?;
                Some((answer, published))
            });
            BatchTime {
                inject_ms: b.inject_ms,
                publish_ms: answered.map(|_| b.publish_ms),
                answer_ms: answered
                    .map(|(answer, _)| answer.duration_since(b.inject_start).as_secs_f64() * 1e3),
                poll_lag_us: answered.map(|(answer, published)| {
                    answer.saturating_duration_since(published).as_secs_f64() * 1e6
                }),
            }
        })
        .collect()
}

fn latencies(passes: &[&Pass]) -> Latencies {
    let times: Vec<_> = passes.iter().map(|p| batch_times(p)).collect();
    let mut l = Latencies::default();
    for i in 0..times[0].len() {
        let least = |f: &dyn Fn(&BatchTime) -> Option<f64>| {
            times
                .iter()
                .filter_map(|t| t.get(i).and_then(f))
                .reduce(f64::min)
        };
        l.inject_ms.extend(least(&|t| Some(t.inject_ms)));
        l.publish_ms.extend(least(&|t| t.publish_ms));
        l.answer_ms.extend(least(&|t| t.answer_ms));
        l.poll_lag_us.extend(least(&|t| t.poll_lag_us));
    }
    l
}

pub fn run(seed: u64, seconds: f64, mode: Mode) -> RunOutcome {
    let mut out = RunOutcome::default();
    let mut host = HostSpeed::new();
    let (inputs, setup_s) = common::build_repeatedly(&mut host, || build_inputs(seed));
    out.instance_seeds = inputs.iter().map(|net| net.seed).collect();
    let (snapshots, initial_silence_s) = match stabilize_inputs(&inputs) {
        Ok(stabilized) => stabilized,
        Err(reason) => {
            out.attempted = 1;
            out.failures.push(format!("seed {seed}: {reason}"));
            out.failed = 1;
            return out;
        }
    };

    let Some(first) = attempt(&inputs, &snapshots, seed, false, &mut host, &mut out) else {
        out.failed = out.failures.len() as u64;
        return out;
    };
    let reference = counters(&first);
    // The footprint of one pass: later passes only replay the same batches.
    let peak_rss_mib = common::peak_rss_mib();
    let mut passes = vec![first];
    let mut traced = None;
    if mode == Mode::Traced {
        traced = attempt(&inputs, &snapshots, seed, true, &mut host, &mut out);
    } else {
        while passes.len() < common::passes_for(seconds, PASS_S) {
            let Some(again) = attempt(&inputs, &snapshots, seed, false, &mut host, &mut out) else {
                break;
            };
            passes.push(again);
        }
    }
    for pass in passes.iter().skip(1).chain(&traced) {
        if counters(pass) != reference {
            out.failures
                .push("determinism: the counters of two passes differ".into());
        }
    }
    let all: Vec<&Pass> = passes.iter().collect();
    let lat = latencies(&all);
    let first = &passes[0];
    if let Some(traced) = traced {
        out.per_layer = layer_metrics(&lat, &traced, setup_s, initial_silence_s);
        out.per_layer.put("host.slowness", host.slowness());
        // The tail over every batch run of the untraced passes.
        let runs: Vec<_> = all.iter().flat_map(|p| batch_times(p)).collect();
        let inject: Vec<f64> = runs.iter().map(|t| t.inject_ms).collect();
        let answer: Vec<f64> = runs.iter().filter_map(|t| t.answer_ms).collect();
        out.per_layer
            .put("tail.silence_s_p90", percentile(&inject, 90.0) * 1e-3);
        out.per_layer
            .put("tail.silence_s_max", common::max(&inject) * 1e-3);
        out.per_layer
            .put("tail.event_to_answer_ms_p99", percentile(&answer, 99.0));
        out.registry_json = traced.registry_json;
        let mut spans = traced.spans;
        spans.extend(traced.reader.spans);
        out.spans = spans;
    }
    out.failed = out.failures.len() as u64;
    out.counters = reference;
    let severed = first.batches.iter().filter(|b| b.epoch.is_none()).count();
    out.notes.push(("n", N.to_string()));
    out.notes.push(("graphs", GRAPHS.to_string()));
    out.notes.push(("batches", first.batches.len().to_string()));
    out.notes.push(("passes", passes.len().to_string()));
    out.notes.push(("severed_batches", severed.to_string()));
    out.notes
        .push(("initial_silence_s", common::num(initial_silence_s)));
    out.notes.push((
        "sampled_queries",
        passes
            .iter()
            .map(|p| p.reader.samples.len())
            .sum::<usize>()
            .to_string(),
    ));

    common::note_host(&mut out, &host);
    // Times are divided by the writer's host slowness; the reader's rate is
    // multiplied by its own.
    let slowness = host.slowness();
    let reader_slowness: Vec<f64> = passes.iter().map(|p| p.reader.slowness).collect();
    out.notes
        .push(("reader_slowness", common::num(median(&reader_slowness))));
    let m = &mut out.end_to_end;
    let first_publish_s = passes
        .iter()
        .map(|p| p.first_publish_s)
        .fold(f64::INFINITY, f64::min);
    m.put("setup_s", (setup_s + first_publish_s) / slowness);
    m.put(
        "silence_s",
        lat.inject_ms.iter().sum::<f64>() * 1e-3 / slowness,
    );
    m.put("silence_s_p50", median(&lat.inject_ms) * 1e-3 / slowness);
    m.put(
        "rounds_to_silence",
        first.batches.iter().map(|b| b.recovery_rounds as f64).sum(),
    );
    m.put(
        "register_bits_max",
        median(
            &first
                .register_bits
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put("peak_rss_mib", peak_rss_mib);
    m.put("event_to_answer_ms_p50", median(&lat.answer_ms) / slowness);
    m.put(
        "event_to_answer_ms_p90",
        percentile(&lat.answer_ms, 90.0) / slowness,
    );
    m.put(
        "query_qps",
        passes
            .iter()
            .map(|p| common::ratio(p.reader.queries as f64, p.reader.elapsed_s) * p.reader.slowness)
            .fold(0.0, f64::max),
    );
    m.put(
        "ok_share",
        common::ratio(
            (out.attempted - out.failed.min(out.attempted)) as f64,
            out.attempted as f64,
        ),
    );
    out
}

fn layer_metrics(base: &Latencies, traced: &Pass, setup_s: f64, initial_silence_s: f64) -> Metrics {
    let lat = latencies(&[traced]);
    let b = &traced.batches;
    let applied = b.iter().filter(|x| x.epoch.is_some()).count() as f64;
    let reg = |name: &str| traced.registry.get(name).copied().unwrap_or(0.0);
    let mut l = Metrics::default();
    l.put("graph.build_s", setup_s);
    l.put("churn.initial_silence_s", initial_silence_s);
    l.put("churn.inject_ms_p50", median(&lat.inject_ms));
    l.put("churn.inject_ms_max", common::max(&lat.inject_ms));
    l.put(
        "churn.recovery_rounds",
        b.iter().map(|x| x.recovery_rounds as f64).sum(),
    );
    l.put(
        "churn.labels_written_per_batch",
        common::ratio(b.iter().map(|x| x.labels_written as f64).sum(), applied),
    );
    l.put(
        "churn.dirty_nodes",
        b.iter().map(|x| x.dirty_nodes as f64).sum(),
    );
    l.put("churn.switches", b.iter().map(|x| x.switches as f64).sum());
    l.put("churn.severed_batches", b.len() as f64 - applied);
    l.put("engine.topology_ms_mean", reg("engine_topology_ms_mean"));
    l.put("serve.publish_ms_p50", median(&lat.publish_ms));
    l.put("serve.publish_ms_max", common::max(&lat.publish_ms));
    l.put("serve.refresh_us_p50", median(&traced.reader.refresh_us));
    l.put("serve.poll_lag_us_p50", median(&lat.poll_lag_us));
    l.put("serve.query_ns_mean", reg("query_ns_mean"));
    l.put(
        "serve.screen_share",
        common::ratio(reg("serve_screen_hits"), reg("queries_served")),
    );
    l.put("serve.full_decodes", reg("serve_full_decodes"));
    l.put(
        "serve.staleness_waves_max",
        traced.reader.staleness_max as f64,
    );
    l.put(
        "obs.trace_overhead",
        common::ratio(median(&lat.inject_ms), median(&base.inject_ms)),
    );
    l.put(
        "obs.trace_overhead_answer",
        common::ratio(median(&lat.answer_ms), median(&base.answer_ms)),
    );
    l.put("obs.trace_dropped_events", reg("trace_dropped_events"));
    l
}
