//! Shared pieces of the benchmark: seed derivation, summary statistics, the in-memory
//! span recorder, metric lists, host stamps and the cross-run determinism record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// SplitMix64: derives independent instance seeds from the workload seed. Every index
/// is used as drawn — there is no filtering of "slow" seeds.
pub fn derive_seed(workload_seed: u64, index: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median of `values` (mean of the two middle values for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Least number of input builds in one run, and least total build time: `setup_s` is
/// the median build, so a short build is repeated until the median no longer rests on
/// a few samples of the host's noise.
const MIN_BUILDS: usize = 5;
const MIN_BUILD_S: f64 = 1.0;

/// Builds the inputs at least `MIN_BUILDS` times and for at least `MIN_BUILD_S`
/// seconds, dropping each copy before the next, and returns the last copy with the
/// median build time (the `setup_s` of a run, before host normalization).
pub fn build_repeatedly<T>(host: &mut HostSpeed, build: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < MIN_BUILDS || times.iter().sum::<f64>() < MIN_BUILD_S {
        drop(built.take());
        host.tick();
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("built at least once"), median(&times))
}

/// Iterations of the reference kernel in one sample (about 0.7 ms).
const KERNEL_ITERS: u64 = 400_000;
/// The reference kernel's median sample on a quiet 2-vCPU Xeon virtual machine.
const NOMINAL_KERNEL_S: f64 = 0.000_665;
/// Least time between two samples taken by [`HostSpeed::tick`].
const SAMPLE_EVERY_S: f64 = 0.1;

/// The speed of the host while the run measures, from a fixed reference kernel of the
/// benchmark's own (integer mixing and read-modify-writes in a 4 KiB table) timed
/// between ops, never inside a timed region.
///
/// A shared virtual host runs the same code up to twice as slow for minutes at a time,
/// so neither repeats nor medians inside one run remove it. Every end-to-end time is
/// therefore divided by the run's [`slowness`](HostSpeed::slowness), and every rate
/// multiplied by it. The kernel is not program code: a change to the program moves
/// the normalized times exactly as it moves the wall times, while a change of the
/// host's speed moves the kernel too and cancels out.
pub struct HostSpeed {
    table: Vec<u64>,
    samples: Vec<f64>,
    spent_s: f64,
    last: Instant,
}

impl HostSpeed {
    /// Starts with a burst of samples, so that a short run still has a steady median.
    pub fn new() -> Self {
        let mut host = HostSpeed {
            table: vec![1; 1 << 9],
            samples: Vec::new(),
            spent_s: 0.0,
            last: Instant::now(),
        };
        for _ in 0..16 {
            host.sample();
        }
        host
    }

    fn sample(&mut self) {
        let mask = self.table.len() as u64 - 1;
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..KERNEL_ITERS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let i = (z & mask) as usize;
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v.rotate_left(7);
            }
            self.table[i] = v.wrapping_add(z);
        }
        black_box(acc);
        let dt = t.elapsed().as_secs_f64();
        self.samples.push(dt);
        self.spent_s += dt;
        self.last = Instant::now();
    }

    /// Takes a sample if the last one is at least `SAMPLE_EVERY_S` old. Call it between
    /// ops, outside every timed region.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// Total time spent sampling.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The median sample over its nominal time: above 1 when the host runs slower than
    /// the quiet reference host.
    pub fn slowness(&self) -> f64 {
        median(&self.samples) / NOMINAL_KERNEL_S
    }
}

/// Records the host's speed in the run record.
pub fn note_host(out: &mut RunOutcome, host: &HostSpeed) {
    out.notes.push(("host_slowness", num(host.slowness())));
    out.notes
        .push(("host_kernel_samples", host.samples().to_string()));
}

/// Passes in a run of `seconds`: one per `pass_s` (the pass's length on the quiet
/// reference host), at least one. The count depends on `--seconds` only, never on how
/// fast the host runs, so every run of a workload takes the same statistic (the
/// fastest of the same number of repeats) over the same ops.
pub fn passes_for(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).round() as usize).max(1)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured metrics as `(name, value)`; units live in the tables of `main.rs`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Everything one workload run produces.
#[derive(Default)]
pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed op (op kind, instance seed, reason).
    pub failures: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Deterministic counters: identical across every run of one seed, traced or not.
    pub counters: Vec<(&'static str, u64)>,
    pub instance_seeds: Vec<u64>,
    /// Extra record fields, as strings.
    pub notes: Vec<(&'static str, String)>,
    /// Spans of the traced pass (empty in untraced runs).
    pub spans: Vec<SpanRec>,
    /// The traced pass's `Obs` registry, as `Registry::json` renders it.
    pub registry_json: Option<String>,
}

/// One benchmark span: a timed call into a layer's public entry point.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one op (instance, batch) share this identifier.
    pub op: u64,
    pub thread: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by this span's children.
    pub child_ns: u64,
}

impl SpanRec {
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// In-memory span recorder for one thread. Disabled recorders still hand out ids
/// but record nothing, so untraced runs pay one branch per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    thread: &'static str,
    pub recs: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant, thread: &'static str) -> Self {
        Spans {
            enabled,
            origin,
            thread,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            id,
            parent: self.stack.last().copied(),
            op,
            thread: self.thread,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            child_ns: 0,
        });
        self.stack.push(id);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("span end without begin");
        let end = self.origin.elapsed().as_nanos() as u64;
        self.recs[id].end_ns = end;
        if let Some(parent) = self.recs[id].parent {
            self.recs[parent].child_ns += end - self.recs[id].start_ns;
        }
    }
}

impl Spans {
    /// Closes every open span now (after a caught panic unwound through them).
    pub fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }
}

/// Per span name: (count, total seconds, self seconds).
pub fn span_totals(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
        e.2 += s.self_ns() as f64 * 1e-9;
    }
    out
}

pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\": \"{}\", \"id\": {}, \"parent\": {parent}, \"op\": {}, \"thread\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.name, s.id, s.op, s.thread, s.start_ns, s.end_ns, s.self_ns()
        );
    }
    out
}

/// The build directory this executable lives in (`<target>/release/perfbench` →
/// `<target>`); state and traces of the benchmark are kept there, inside the checkout.
pub fn state_dir(sub: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.join(sub);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// FNV-1a over this executable's bytes: identifies the build the determinism record
/// belongs to (the checkout the benchmark runs in is not a git repository).
pub fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The git commit of the working directory, when it is a git checkout.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).replace('"', "'"))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Checks the run's deterministic counters against the first correct run of the same
/// build, workload and seed (traced or not), and records them when none exists yet.
/// Returns the mismatches. A run that failed, or has no counters, neither records nor
/// compares: its counters may cover only part of the work.
pub fn check_determinism(
    workload: &str,
    seed: u64,
    counters: &[(&str, u64)],
    failed: bool,
) -> Vec<String> {
    if failed || counters.is_empty() {
        return Vec::new();
    }
    let Some(dir) = state_dir("perfbench-det") else {
        return Vec::new();
    };
    let path = dir.join(format!("{}-{workload}-{seed}.txt", build_id()));
    let mut text = String::new();
    for (name, value) in counters {
        let _ = writeln!(text, "{name}={value}");
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => {
            let old: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once('=')).collect();
            counters
                .iter()
                .filter_map(|(name, value)| {
                    let before = old.get(name).copied().unwrap_or("missing");
                    (before != value.to_string())
                        .then(|| format!("counter {name}: {value} now, {before} in an earlier run"))
                })
                .collect()
        }
        Ok(_) => Vec::new(),
        Err(_) => {
            let _ = std::fs::write(&path, text);
            Vec::new()
        }
    }
}
