//! End-to-end and per-layer benchmark of the TELS synthesis flow.
//!
//! ```text
//! cargo run --release --manifest-path telsbench/Cargo.toml -- \
//!     --workload large_flow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (inputs are generated from `--seed`; the program only ever
//! sees the generated BLIF):
//!
//! - `large_flow`: the one-shot `tels synth` pipeline at default config —
//!   parse, `script_algebraic`, `synthesize_with_stats`, `verify_against`,
//!   `to_tnet` — on `parity_ladder(160,64)` and `majority_grid(64,64)`.
//! - `synth_margin`: seeded random networks plus three generated circuits,
//!   pre-factored during set-up, each synthesized at ψ=8 under δ_on=0
//!   (tier-0, tier-0.5 and the negative cache) and δ_on=2 (cache and ILP).
//! - `serve_mixed`: an in-process `ServeSession`; one closed-loop client
//!   thread per hardware thread sends `synth_request_json` documents
//!   (half a hot set of 8 circuits, half fresh ones) through
//!   `ServeSession::handle`, encoded and decoded as on the wire.
//!
//! A run prewarms the tier-0 oracle, sets up several times (`setup_s` is
//! the median), then repeats timed passes over the workload for
//! `--seconds`. End-to-end timings are processor time (see `clock`): on a
//! shared virtual machine the time the host gives to other guests makes
//! elapsed time too unsteady to compare two builds, so elapsed-time
//! figures are printed beside them but not reported as metrics. Every
//! output is checked after the timed phase: each `.tnet` re-parses and
//! re-verifies against its source network, all passes write identical
//! bytes, serve replies equal one-shot synthesis, and digests agree with
//! earlier runs of the same executable in the same checkout
//! (`.bench_out/digests.tsv`).
//!
//! `--trace 1` splits `--seconds` between the untraced measurement and
//! traced passes (at least two) with spans around every public call, and
//! reports per-layer metrics, whether each count repeated exactly across
//! the traced passes, and the tracing overhead (processor time). Spans
//! are written to `.bench_out/spans-<workload>-<seed>.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod clock;
mod flow;
mod layers;
mod report;
mod serve;
mod spans;

use std::process::ExitCode;

use report::Run;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds as f64,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("telsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: Run = match args.workload.as_str() {
        "large_flow" => flow::large_flow(&args),
        "synth_margin" => flow::synth_margin(&args),
        "serve_mixed" => serve::serve_mixed(&args),
        other => {
            eprintln!(
                "telsbench: unknown workload `{other}` (large_flow, synth_margin, serve_mixed)"
            );
            return ExitCode::from(2);
        }
    };
    report::finish(&args, run)
}
