//! Pass loop, output checks shared by every workload, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use crate::clock;
use crate::layers::Tally;
use crate::spans::{self, Span};
use crate::Args;

/// Directory (inside the checkout) for the digest ledger and span dumps.
const OUT_DIR: &str = ".bench_out";

/// One pass over a workload's fixed job list.
#[derive(Default)]
pub struct PassOut {
    /// Elapsed and processor time of the measured part of the pass (the
    /// jobs, not their checks).
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-job elapsed time, as the caller saw it, and processor time.
    pub latencies_ms: Vec<f64>,
    pub job_cpu_ms: Vec<f64>,
    /// Jobs attempted and the errors of those that failed.
    pub jobs: usize,
    pub errors: Vec<String>,
    /// `(job key, .tnet digest)` per successful job, in job order.
    pub digests: Vec<(String, u64)>,
    /// Quality of the pass's outputs, summed over its distinct circuits.
    pub gates: f64,
    pub levels: f64,
    pub area: f64,
    /// Serve jobs only: the reply's in-session time, and the rest of the
    /// client latency (request encode, decode, reply encode, decode).
    pub session_ms: Vec<f64>,
    pub protocol_ms: Vec<f64>,
    /// Traced passes only: per-layer counts and the spans recorded.
    pub tally: Tally,
    pub spans: Vec<Span>,
}

/// Everything a workload hands back for reporting.
#[derive(Default)]
pub struct Run {
    /// Median processor and elapsed time of one set-up, and the one-time
    /// tier-0 prewarm before the set-ups.
    pub setup_s: f64,
    pub setup_wall_s: f64,
    pub prewarm_s: f64,
    pub untraced: Vec<PassOut>,
    pub traced: Vec<PassOut>,
    pub peak_rss_mb: f64,
    /// Failed output checks (wrong bytes, digest disagreement, replay
    /// difference). Any entry makes the run incorrect.
    pub check_errors: Vec<String>,
}

/// Set-up timings: the median processor and elapsed time of one set-up.
pub struct SetupTimes {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Times repeated set-ups and returns the median time of one with the last
/// result. A set-up shorter than 0.2 s is timed in batches of 0.2 s or
/// more (each sample the batch mean). Sampling continues for at least
/// `reps` samples and 2 s.
pub fn setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (SetupTimes, T) {
    let start = Instant::now();
    let c0 = clock::process_s();
    let mut out = f();
    let first = start.elapsed().as_secs_f64();
    let batch = (0.2 / first).ceil().max(1.0) as usize;
    let mut walls = vec![first];
    let mut cpus = vec![clock::process_s() - c0];
    while walls.len() < reps || start.elapsed().as_secs_f64() < 2.0 {
        let t0 = Instant::now();
        let c0 = clock::process_s();
        for _ in 0..batch {
            // Free the previous result first so it does not count in the
            // peak resident set.
            drop(out);
            out = f();
        }
        cpus.push((clock::process_s() - c0) / batch as f64);
        walls.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    let times = SetupTimes {
        cpu_s: median(&cpus),
        wall_s: median(&walls),
    };
    (times, out)
}

/// Runs passes back to back until the next one would end past `seconds`,
/// and at least `min` of them.
pub fn passes(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> PassOut) -> Vec<PassOut> {
    let start = Instant::now();
    let mut out: Vec<PassOut> = Vec::new();
    loop {
        let p = pass(out.len());
        let last = p.wall_s;
        out.push(p);
        if out.len() >= min && start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 without procfs.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every pass must write the same bytes for every job (thread and warming
/// races must not change output). Returns one digest over the first pass.
fn check_digests(all: &[&PassOut], errors: &mut Vec<String>) -> u64 {
    let Some(first) = all.first() else {
        return 0;
    };
    for (k, p) in all.iter().enumerate().skip(1) {
        if p.digests != first.digests {
            errors.push(format!("pass {k} wrote different .tnet bytes than pass 0"));
        }
    }
    let mut text = String::new();
    for (key, d) in &first.digests {
        let _ = writeln!(text, "{key}\t{d:016x}");
    }
    fnv64(text.as_bytes())
}

/// Identity of the running code: a digest of this executable's bytes, so
/// the ledger only compares runs of the same build of the same source.
fn code_id() -> Option<u64> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(fnv64(&bytes))
}

/// Compares this run's per-job digests with those earlier runs of the same
/// code in the same checkout recorded under the same keys, then records
/// the new ones.
fn check_ledger(workload: &str, digests: &[(String, u64)], errors: &mut Vec<String>) {
    let Some(code) = code_id() else {
        eprintln!("telsbench: cannot read this executable; no digest ledger check");
        return;
    };
    let path = Path::new(OUT_DIR).join("digests.tsv");
    let mut known: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('\t') {
                known.insert(k.to_string(), v.to_string());
            }
        }
    }
    let mut added = false;
    for (key, d) in digests {
        let key = format!("{code:016x}/{workload}/{key}");
        let hex = format!("{d:016x}");
        match known.get(&key) {
            Some(old) if *old != hex => errors.push(format!(
                "{key}: .tnet digest {hex} disagrees with {old} from an earlier run of this code"
            )),
            Some(_) => {}
            None => {
                known.insert(key, hex);
                added = true;
            }
        }
    }
    if added {
        let mut text = String::new();
        for (k, v) in &known {
            let _ = writeln!(text, "{k}\t{v}");
        }
        let tmp = path.with_extension("tmp");
        let saved = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&tmp, text))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = saved {
            eprintln!(
                "telsbench: cannot record digests in {}: {e}",
                path.display()
            );
        }
    }
}

/// Each per-layer metric in report order: name, unit, and whether it is a
/// count (counts also report whether they repeated across traced passes).
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("opt.script_algebraic_s", "s", false),
    ("opt.sweep_s", "s", false),
    ("opt.eliminate_s", "s", false),
    ("opt.simplify_s", "s", false),
    ("opt.resubstitute_s", "s", false),
    ("opt.extract_s", "s", false),
    ("opt.strash_s", "s", false),
    ("opt.sweep_applied", "count", true),
    ("opt.eliminate_applied", "count", true),
    ("opt.resubstitute_applied", "count", true),
    ("opt.extract_applied", "count", true),
    ("opt.strash_applied", "count", true),
    ("opt.nodes_out", "count", true),
    ("opt.literals_out", "count", true),
    ("synth.synthesize_s", "s", false),
    ("synth.queries", "count", true),
    ("synth.collapses", "count", true),
    ("synth.unate_splits", "count", true),
    ("synth.binate_splits", "count", true),
    ("synth.theorem2_combines", "count", true),
    ("check.tier0_lookups", "count", true),
    ("check.tier05_hits", "count", true),
    ("check.tier05_rejects", "count", true),
    ("check.negcache_hits", "count", true),
    ("check.cache_hits", "count", true),
    ("check.prefilter_rejections", "count", true),
    ("check.theorem1_refutations", "count", true),
    ("check.solve_free_ratio", "ratio", false),
    ("check.tier0_prewarm_s", "s", false),
    ("ilp.solves", "count", true),
    ("ilp.rational_fallbacks", "count", true),
    ("ilp.solve_s", "s", false),
    ("blif.parse_s", "s", false),
    ("blif.bytes", "bytes", true),
    ("eval.verify_s", "s", false),
    ("eval.vectors", "count", true),
    ("tnet.write_s", "s", false),
    ("tnet.bytes", "bytes", true),
    ("serve.session_ms_p50", "ms", false),
    ("serve.protocol_ms_p50", "ms", false),
    ("serve.jobs_failed", "count", true),
    ("serve.cache_entries", "count", true),
    ("trace.overhead_s", "s", false),
    ("trace.overhead_share", "ratio", false),
];

/// Per-layer values of one traced pass.
fn layer_values(p: &PassOut) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = p.tally.iter().map(|(k, x)| (k.to_string(), *x)).collect();
    for (name, s) in spans::seconds_by_name(&p.spans) {
        v.insert(format!("{name}_s"), s);
    }
    let queries = v.get("synth.queries").copied().unwrap_or(0.0);
    let avoided = v.get("check.ilp_avoided").copied().unwrap_or(0.0);
    v.insert(
        "check.solve_free_ratio".into(),
        if queries > 0.0 {
            avoided / queries
        } else {
            0.0
        },
    );
    if !p.session_ms.is_empty() {
        v.insert("serve.session_ms_p50".into(), median(&p.session_ms));
        v.insert("serve.protocol_ms_p50".into(), median(&p.protocol_ms));
    }
    v
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// End-to-end metrics. Timings are processor time (see `clock`); the
/// elapsed-time figures are printed beside them.
fn end_to_end(run: &Run, attempted: usize, failed: usize) -> Vec<Metric> {
    let cpu = median(&run.untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    let wall = median(&run.untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let jobs_per_pass = run.untraced.first().map_or(0, |p| p.jobs);
    let all = |f: fn(&PassOut) -> &Vec<f64>| -> Vec<f64> {
        run.untraced
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect()
    };
    let job_cpu = all(|p| &p.job_cpu_ms);
    let lat = all(|p| &p.latencies_ms);
    println!(
        "elapsed: setup_s {:.6} wall_s {wall:.6} jobs_per_s {:.6} \
         latency_ms_p50 {:.6} latency_ms_p90 {:.6} ({} samples)",
        run.setup_wall_s,
        jobs_per_pass as f64 / wall,
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        lat.len()
    );
    let first = run.untraced.first();
    let m = |name: &str, value: f64, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("setup_s", run.setup_s, "s"),
        m("cpu_s", cpu, "s"),
        m("jobs_per_cpu_s", jobs_per_pass as f64 / cpu, "1/s"),
        m("job_cpu_ms_p50", quantile(&job_cpu, 0.5), "ms"),
        m("job_cpu_ms_p90", quantile(&job_cpu, 0.9), "ms"),
        m("peak_rss_mb", run.peak_rss_mb, "MiB"),
        m("gates", first.map_or(0.0, |p| p.gates), "count"),
        m("levels", first.map_or(0.0, |p| p.levels), "count"),
        m("area", first.map_or(0.0, |p| p.area), "units"),
        m(
            "ok_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "share",
        ),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let passes: Vec<BTreeMap<String, f64>> = run.traced.iter().map(layer_values).collect();
    let untraced = median(&run.untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    let traced = median(&run.traced.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    let mut out = Vec::new();
    let mut flags = Vec::new();
    for &(name, unit, count) in PER_LAYER {
        // Passes that measured the metric (none where a workload bypasses
        // the layer, such as serve on large_flow).
        let values: Vec<f64> = passes.iter().filter_map(|v| v.get(name).copied()).collect();
        let value = match name {
            "trace.overhead_s" => traced - untraced,
            "trace.overhead_share" => (traced - untraced) / untraced,
            "check.tier0_prewarm_s" => run.prewarm_s,
            _ => median(&values),
        };
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
        if count {
            let repeats = values.len() >= 2 && values.windows(2).all(|w| w[0] == w[1]);
            println!(
                "repeat {name:<28} {} over {} traced passes: {values:?}",
                if repeats { "yes" } else { "NO " },
                values.len()
            );
            flags.push(Metric {
                name: format!("{name}.repeats"),
                value: if repeats { 1.0 } else { 0.0 },
                unit: "bool",
            });
        }
    }
    out.extend(flags);
    out
}

/// Checks outputs, prints every metric with its unit, and prints the
/// result object as the last line.
pub fn finish(args: &Args, mut run: Run) -> ExitCode {
    let all: Vec<&PassOut> = run.untraced.iter().chain(&run.traced).collect();
    let attempted: usize = all.iter().map(|p| p.jobs).sum();
    // A check that is not about one job (a set-up replay) still fails one.
    let failed: usize = all
        .iter()
        .map(|p| p.errors.len())
        .sum::<usize>()
        .min(attempted);
    for p in &all {
        for e in p.errors.iter().take(3) {
            eprintln!("telsbench: job failed: {e}");
        }
    }
    let mut check_errors = std::mem::take(&mut run.check_errors);
    let digest = check_digests(&all, &mut check_errors);
    if let Some(first) = all.first() {
        check_ledger(&args.workload, &first.digests, &mut check_errors);
    }
    for e in &check_errors {
        eprintln!("telsbench: check failed: {e}");
    }
    let correct = failed == 0 && check_errors.is_empty() && attempted > 0;

    let samples: usize = run.untraced.iter().map(|p| p.job_cpu_ms.len()).sum();
    println!(
        "workload {} seed {}: {} untraced passes, {} traced, {samples} job samples, \
         {attempted} jobs attempted, {failed} failed; .tnet digest {digest:016x}",
        args.workload,
        args.seed,
        run.untraced.len(),
        run.traced.len()
    );
    let cpus: Vec<f64> = run.untraced.iter().map(|p| p.cpu_s).collect();
    println!(
        "pass cpu_s min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        quantile(&cpus, 0.0),
        quantile(&cpus, 0.25),
        quantile(&cpus, 0.5),
        quantile(&cpus, 0.75),
        quantile(&cpus, 1.0)
    );
    let e2e = end_to_end(&run, attempted, failed);
    for m in &e2e {
        println!("e2e {:<16} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let metrics = if args.trace {
        let layers = per_layer(&run);
        for m in &layers {
            println!("layer {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let spans: Vec<Span> = run
            .traced
            .iter()
            .flat_map(|p| p.spans.iter().cloned())
            .collect();
        let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.json", args.workload, args.seed));
        let saved = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans::to_json(&spans)));
        match saved {
            Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("telsbench: cannot write {}: {e}", path.display()),
        }
        layers
    } else {
        e2e
    };
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
