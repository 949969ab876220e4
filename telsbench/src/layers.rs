//! The public call into each layer, wrapped in a span and a count.
//!
//! Every workload reaches the program only through these functions, so a
//! traced run and an untraced run execute the same calls; the only
//! difference is whether the guards record.

use std::collections::BTreeMap;

use tels_core::{parse_tnet, synthesize_with_stats, SynthError, TelsConfig, ThresholdNetwork};
use tels_logic::opt::{self, OptOptions};
use tels_logic::{blif, Network};
use tels_metrics::instruments::EVAL_VECTORS;
use tels_trace::json::Json;

use crate::spans::Tracer;

/// Per-pass counts, keyed by per-layer metric name.
pub type Tally = BTreeMap<&'static str, f64>;

pub fn bump(tally: &mut Tally, key: &'static str, by: f64) {
    *tally.entry(key).or_insert(0.0) += by;
}

/// Where a call sits: the tracer, the enclosing span and the job id.
#[derive(Clone, Copy)]
pub struct At<'a> {
    pub tracer: &'a Tracer,
    pub parent: Option<u64>,
    pub job: u64,
}

impl<'a> At<'a> {
    /// This position with `parent` as the enclosing span.
    pub fn under(self, parent: Option<u64>) -> At<'a> {
        At { parent, ..self }
    }
}

/// `blif::parse_reader` on BLIF text.
pub fn parse(at: At, text: &str, tally: &mut Tally) -> Result<Network, String> {
    let _g = at.tracer.enter("blif.parse", at.parent, at.job);
    bump(tally, "blif.bytes", text.len() as f64);
    blif::parse_reader(text.as_bytes()).map_err(|e| format!("blif: {e}"))
}

/// `opt::script_algebraic`, counting the factored network it returns.
pub fn factor(at: At, net: &Network, tally: &mut Tally) -> Network {
    let out = {
        let _g = at.tracer.enter("opt.script_algebraic", at.parent, at.job);
        opt::script_algebraic(net)
    };
    bump(tally, "opt.nodes_out", out.num_logic_nodes() as f64);
    bump(tally, "opt.literals_out", out.num_literals() as f64);
    out
}

/// One pass of `script_algebraic_with`'s sequence.
#[derive(Clone, Copy)]
enum Pass {
    Sweep,
    Eliminate(isize),
    Simplify,
    Resubstitute,
    Extract,
    Strash,
}

/// The pass sequence of `opt::script_algebraic_with` (between its two
/// `compact` calls). [`replay_factor`] proves on every use that it still
/// produces the same network.
const SCRIPT_ALGEBRAIC: [Pass; 15] = [
    Pass::Sweep,
    Pass::Eliminate(-1),
    Pass::Simplify,
    Pass::Eliminate(-1),
    Pass::Sweep,
    Pass::Eliminate(5),
    Pass::Simplify,
    Pass::Resubstitute,
    Pass::Extract,
    Pass::Resubstitute,
    Pass::Strash,
    Pass::Sweep,
    Pass::Eliminate(-1),
    Pass::Sweep,
    Pass::Simplify,
];

/// Replays `script_algebraic` pass by pass through the public `opt`
/// passes, one span and one applied-count per pass, and fails unless the
/// replayed network writes the same BLIF bytes as `factored` (the
/// `script_algebraic` result for `net`).
pub fn replay_factor(
    at: At,
    net: &Network,
    factored: &Network,
    tally: &mut Tally,
) -> Result<(), String> {
    let opts = OptOptions::default();
    let mut n = net.compact();
    for pass in SCRIPT_ALGEBRAIC {
        let (span, key) = match pass {
            Pass::Sweep => ("opt.sweep", Some("opt.sweep_applied")),
            Pass::Eliminate(_) => ("opt.eliminate", Some("opt.eliminate_applied")),
            Pass::Simplify => ("opt.simplify", None),
            Pass::Resubstitute => ("opt.resubstitute", Some("opt.resubstitute_applied")),
            Pass::Extract => ("opt.extract", Some("opt.extract_applied")),
            Pass::Strash => ("opt.strash", Some("opt.strash_applied")),
        };
        let _g = at.tracer.enter(span, at.parent, at.job);
        let applied = match pass {
            Pass::Sweep => opt::sweep(&mut n),
            Pass::Eliminate(t) => opt::eliminate(&mut n, t, &opts),
            Pass::Simplify => {
                opt::simplify(&mut n);
                0
            }
            Pass::Resubstitute => opt::resubstitute(&mut n),
            Pass::Extract => opt::extract(&mut n, &opts),
            Pass::Strash => opt::strash(&mut n),
        };
        if let Some(key) = key {
            bump(tally, key, applied as f64);
        }
    }
    let replayed = n.compact();
    if blif::write(&replayed) != blif::write(factored) {
        return Err(format!(
            "opt replay of `{}` differs from script_algebraic: the pass sequence changed",
            net.model()
        ));
    }
    Ok(())
}

/// `synthesize_with_stats`, adding its statistics to the tally.
pub fn synth(
    at: At,
    net: &Network,
    config: &TelsConfig,
    tally: &mut Tally,
) -> Result<ThresholdNetwork, String> {
    let (tn, stats) = {
        let _g = at.tracer.enter("synth.synthesize", at.parent, at.job);
        synthesize_with_stats(net, config).map_err(|e| format!("synthesize: {e}"))?
    };
    add_stats(tally, &stats.to_json());
    Ok(tn)
}

/// Adds one run's statistics, in the `SynthStats::to_json` form that both
/// the one-shot API and a serve reply carry, to the tally.
pub fn add_stats(tally: &mut Tally, stats: &Json) {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let solver = stats.get("solver").cloned().unwrap_or(Json::Null);
    for (key, field) in [
        ("synth.queries", "ilp_calls"),
        ("synth.collapses", "collapses"),
        ("synth.unate_splits", "unate_splits"),
        ("synth.binate_splits", "binate_splits"),
        ("synth.theorem2_combines", "theorem2_combines"),
        ("check.cache_hits", "cache_hits"),
        ("check.prefilter_rejections", "prefilter_rejections"),
        ("check.theorem1_refutations", "theorem1_refutations"),
        ("check.ilp_avoided", "ilp_avoided"),
        ("ilp.solves", "ilp_solves"),
    ] {
        bump(tally, key, num(stats, field));
    }
    for (key, field) in [
        ("check.tier0_lookups", "tier0_lookups"),
        ("check.tier05_hits", "tier05_hits"),
        ("check.tier05_rejects", "tier05_rejects"),
        ("check.negcache_hits", "negcache_hits"),
        ("ilp.rational_fallbacks", "rational_fallbacks"),
    ] {
        bump(tally, key, num(&solver, field));
    }
    let solve_ns = num(&solver, "int_solve_ns") + num(&solver, "rational_solve_ns");
    bump(tally, "ilp.solve_s", solve_ns * 1e-9);
}

/// Verify settings: those of `tels synth` (12-input exhaustive limit,
/// 1024 random vectors), with the vector seed taken from the benchmark.
pub const VERIFY_LIMIT: u32 = 12;
pub const VERIFY_PATTERNS: usize = 1024;

/// `verify_against` the reference network; a counterexample is an error.
/// Traced calls also count the vectors the program simulated, read from
/// its `EVAL_VECTORS` instrument, with metrics collection switched on for
/// the call only.
pub fn verify(
    at: At,
    tn: &ThresholdNetwork,
    reference: &Network,
    seed: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let counted = at.tracer.on();
    let found = {
        let _g = at.tracer.enter("eval.verify", at.parent, at.job);
        if counted {
            tels_metrics::enable();
        }
        let before = EVAL_VECTORS.value();
        let found = tn.verify_against(reference, VERIFY_LIMIT, VERIFY_PATTERNS, seed);
        if counted {
            tels_metrics::disable();
            bump(
                tally,
                "eval.vectors",
                EVAL_VECTORS.value().wrapping_sub(before) as f64,
            );
        }
        found
    };
    match found.map_err(|e: SynthError| format!("verify `{}`: {e}", reference.model()))? {
        None => Ok(()),
        Some(cex) => Err(format!(
            "verification mismatch on `{}` at {cex:?}",
            reference.model()
        )),
    }
}

/// `to_tnet`.
pub fn write(at: At, tn: &ThresholdNetwork, tally: &mut Tally) -> String {
    let text = {
        let _g = at.tracer.enter("tnet.write", at.parent, at.job);
        tn.to_tnet()
    };
    bump(tally, "tnet.bytes", text.len() as f64);
    text
}

/// The output check: `parse_tnet` of the written text must re-verify
/// against the circuit's source network.
pub fn reverify(text: &str, source: &Network, seed: u64) -> Result<(), String> {
    let tn = parse_tnet(text).map_err(|e| format!("parse_tnet `{}`: {e}", source.model()))?;
    match tn
        .verify_against(source, VERIFY_LIMIT, VERIFY_PATTERNS, seed)
        .map_err(|e| format!("re-verify `{}`: {e}", source.model()))?
    {
        None => Ok(()),
        Some(cex) => Err(format!(
            "re-parsed .tnet of `{}` mismatches its source at {cex:?}",
            source.model()
        )),
    }
}
