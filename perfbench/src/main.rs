//! The repository benchmark: time to silence and event-to-answer latency, end to end,
//! and timed layer by layer across executor, engine, churn and serve.
//!
//! ```text
//! perfbench --workload <mst-compose|mdst-compose|churn-serve>
//!           --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Inputs are generated from the seed; every output is checked against `stst-graph`
//! outside the timed region. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (a traced pass with an enabled
//! `Obs` attached, after an untraced pass of the same inputs for the overhead ratio).
//! The line before it is the run record (host, commit, seeds, counters, failures).

mod churn_serve;
mod common;
mod compose;
mod oracle;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use self_stabilizing_spanning_trees::graph::{generators, Graph};

use common::{Metrics, RunOutcome};

/// One in this many streamed queries is kept and checked against the oracle.
pub const QUERY_SAMPLE_EVERY: u64 = 1024;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Traced,
}

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("silence_s", "s"),
    ("silence_s_p50", "s"),
    ("rounds_to_silence", "rounds"),
    ("register_bits_max", "bits"),
    ("peak_rss_mib", "MiB"),
    ("event_to_answer_ms_p50", "ms"),
    ("event_to_answer_ms_p90", "ms"),
    ("query_qps", "queries/s"),
    ("ok_share", "ratio"),
];

/// Every per-layer metric, with its unit, in output order. A workload that does not
/// drive a layer's entry point reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("executor.busy_s", "s"),
    ("executor.evals_per_s", "1/s"),
    ("executor.guard_evaluations", "count"),
    ("executor.guard_screen_hits", "count"),
    ("executor.guard_full_decodes", "count"),
    ("executor.moves", "count"),
    ("executor.rounds", "rounds"),
    ("executor.fire_share", "ratio"),
    ("engine.tree_s", "s"),
    ("engine.tree_s_max", "s"),
    ("engine.tree_rounds", "rounds"),
    ("engine.label_s", "s"),
    ("engine.label_waves", "count"),
    ("engine.labels_written", "count"),
    ("engine.label_ms_per_wave", "ms"),
    ("engine.switch_s", "s"),
    ("engine.switches", "count"),
    ("engine.local_switches", "count"),
    ("engine.switch_ms_per_switch", "ms"),
    ("engine.verify_s", "s"),
    ("engine.tree_share_p50", "ratio"),
    ("engine.label_share_p50", "ratio"),
    ("engine.switch_share_p50", "ratio"),
    ("engine.topology_ms_mean", "ms"),
    ("churn.initial_silence_s", "s"),
    ("churn.inject_ms_p50", "ms"),
    ("churn.inject_ms_max", "ms"),
    ("churn.recovery_rounds", "rounds"),
    ("churn.labels_written_per_batch", "count"),
    ("churn.dirty_nodes", "count"),
    ("churn.switches", "count"),
    ("churn.severed_batches", "count"),
    ("serve.publish_ms_p50", "ms"),
    ("serve.publish_ms_max", "ms"),
    ("serve.refresh_us_p50", "us"),
    ("serve.poll_lag_us_p50", "us"),
    ("serve.query_ns_mean", "ns"),
    ("serve.screen_share", "ratio"),
    ("serve.full_decodes", "count"),
    ("serve.staleness_waves_max", "waves"),
    ("self.op_s", "s"),
    ("self.executor_s", "s"),
    ("self.engine_s", "s"),
    ("self.churn_s", "s"),
    ("self.serve_s", "s"),
    ("tail.silence_s_p90", "s"),
    ("tail.silence_s_max", "s"),
    ("tail.event_to_answer_ms_p99", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_overhead_answer", "ratio"),
    ("obs.trace_dropped_events", "count"),
    ("host.slowness", "ratio"),
];

const WORKLOADS: &[&str] = &["mst-compose", "mdst-compose", "churn-serve"];

/// The workload graph: a connected sparse graph (random spanning tree plus n/2 chords)
/// with shuffled identities and distinct random weights.
pub fn sparse_graph(n: usize, seed: u64) -> Graph {
    let g = generators::random_sparse(n, n / 2, seed);
    let g = generators::shuffle_idents(&g, seed.wrapping_add(1));
    generators::randomize_weights(&g, seed.wrapping_add(2))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut mode = Mode::Untraced;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        mode,
    })
}

/// Self time of the traced pass's spans, summed by layer (the span name's prefix).
fn self_times(out: &RunOutcome, layer: &mut Metrics) {
    let totals = common::span_totals(&out.spans);
    let by_prefix = |prefixes: &[&str]| -> f64 {
        totals
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.split('.').next() == Some(p)))
            .map(|(_, t)| t.2)
            .sum()
    };
    layer.put("self.op_s", by_prefix(&["instance", "batch"]));
    for (metric, prefix) in [
        ("self.executor_s", "executor"),
        ("self.engine_s", "engine"),
        ("self.churn_s", "churn"),
        ("self.serve_s", "serve"),
    ] {
        layer.put(metric, by_prefix(&[prefix]));
    }
}

/// Orders `measured` by `table`, filling 0 for metrics the workload does not measure.
fn canonical(table: &[(&'static str, &'static str)], measured: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = measured
            .0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            common::num(value)
        );
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn record(args: &Args, out: &RunOutcome, wall_s: f64) -> String {
    let seeds: Vec<String> = out.instance_seeds.iter().map(u64::to_string).collect();
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let failed_share = common::ratio(out.failed as f64, out.attempted as f64);
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host\": {{\"logical_cores\": {}, \"cpu_model\": {}}}, \"git_commit\": {}, \"build_id\": {}, \
         \"instance_seeds\": [{}], \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \
         \"counters\": {{{}}}, \"notes\": {{{}}}, \"failures\": [{}], \"wall_s\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.mode == Mode::Traced),
        common::num(args.seconds),
        common::logical_cores(),
        json_str(&common::cpu_model()),
        common::git_commit().map_or("null".to_string(), |c| json_str(&c)),
        json_str(&common::build_id()),
        seeds.join(", "),
        out.attempted,
        out.failed,
        common::num(failed_share),
        counters.join(", "),
        notes.join(", "),
        failures.join(", "),
        common::num(wall_s),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "mst-compose" => compose::run(&compose::MST, args.seed, args.seconds, args.mode),
        "mdst-compose" => compose::run(&compose::MDST, args.seed, args.seconds, args.mode),
        _ => churn_serve::run(args.seed, args.seconds, args.mode),
    };
    let mismatches = common::check_determinism(
        &args.workload,
        args.seed,
        &out.counters,
        !out.failures.is_empty(),
    );
    out.failures.extend(mismatches);
    out.failed = out.failed.max(out.failures.len() as u64);
    if args.mode == Mode::Traced {
        let mut layer = std::mem::take(&mut out.per_layer);
        self_times(&out, &mut layer);
        out.per_layer = layer;
        if let Some(dir) = common::state_dir("perfbench-trace") {
            let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
            let _ = std::fs::write(path, common::spans_jsonl(&out.spans));
            if let Some(json) = &out.registry_json {
                let path = dir.join(format!("{}-{}.registry.json", args.workload, args.seed));
                let _ = std::fs::write(path, json);
            }
        }
    }
    let correct = out.failures.is_empty() && out.attempted > 0;
    let metrics = match args.mode {
        Mode::Untraced => canonical(END_TO_END, &out.end_to_end),
        Mode::Traced => canonical(PER_LAYER, &out.per_layer),
    };
    println!("{}", record(&args, &out, started.elapsed().as_secs_f64()));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}
