//! Properties of the canonical realization cache: cached answers must be
//! exact after remapping, repeated runs must agree on both the synthesized
//! network and every run counter, and the cache on or off must not change
//! a byte of the output.

use tels::circuits::{comparator, lfsr_cone, random_network, ripple_adder, RandomNetOptions};
use tels::logic::opt::script_algebraic;
use tels::logic::rng::Xoshiro256;
use tels::logic::{Cube, Network, Sop, Var};
use tels::trace::json::Json;
use tels::{check_threshold, synthesize_with_stats, Realization, SynthStats, TelsConfig};

/// Exhaustively validates a realization against the function it claims to
/// compute.
fn assert_exact(f: &Sop, r: &Realization) {
    let vars: Vec<Var> = f.support().iter().collect();
    for m in 0..1u32 << vars.len() {
        let assign = |v: Var| {
            let i = vars.iter().position(|&x| x == v).unwrap();
            m >> i & 1 != 0
        };
        let expect = f.eval(assign);
        let sum: i64 = r
            .weights
            .iter()
            .map(|&(v, w)| if assign(v) { w } else { 0 })
            .sum();
        assert_eq!(
            sum >= r.threshold,
            expect,
            "minterm {m} of {f}: sum {sum} vs T {}",
            r.threshold
        );
    }
}

fn random_nets() -> Vec<Network> {
    (0..6u64)
        .map(|seed| {
            random_network(
                &format!("net_{seed}"),
                0x5eed ^ seed,
                &RandomNetOptions::default(),
            )
        })
        .collect()
}

/// A statistics document with every wall-time (`*_ns`) field removed:
/// what is left counts work, and must not vary between identical runs.
fn without_timings(j: Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !k.ends_with("_ns"))
                .map(|(k, v)| (k, without_timings(v)))
                .collect(),
        ),
        other => other,
    }
}

/// Two identical runs emit the same `.tnet` bytes and the same counters
/// (ILP solves, tier-0 lookups, tier-0.5 hits, cache hits, ...): every
/// query is issued once, in emission order, by the one serial pass. Runs
/// at ψ=8 under both margins, so the tier-0/0.5 paths (δ_on=0) and the
/// plain cached ILP path (δ_on=2) are both covered.
#[test]
fn synthesis_counters_are_deterministic() {
    let mut nets = random_nets();
    nets.push(lfsr_cone(32, 64));
    for net in &nets {
        let prepared = script_algebraic(net);
        for delta_on in [0, 2] {
            let config = TelsConfig {
                psi: 8,
                delta_on,
                ..TelsConfig::default()
            };
            let run = || {
                let (tn, stats) = synthesize_with_stats(&prepared, &config).expect("synthesis");
                (tn.to_tnet(), without_timings(stats.to_json()).to_string())
            };
            let (tnet_a, stats_a) = run();
            let (tnet_b, stats_b) = run();
            assert_eq!(
                tnet_a,
                tnet_b,
                "{} at delta_on={delta_on}: repeated runs emitted different bytes",
                net.model()
            );
            assert_eq!(
                stats_a,
                stats_b,
                "{} at delta_on={delta_on}: repeated runs counted different work",
                net.model()
            );
        }
    }
}

/// Statistics fields a realization cache legitimately moves: each cache
/// hit replaces one fresh decision (a Theorem-1 refutation, a tier-0.5
/// answer or negative-cache hit, a pre-filter rejection, or an ILP solve),
/// and the solves it saves take their solver counters with them.
const CACHE_DEPENDENT: [&str; 10] = [
    "cache_hits",
    "theorem1_refutations",
    "prefilter_rejections",
    "ilp_solves",
    "ilp_avoided",
    "tier05_hits",
    "tier05_rejects",
    "negcache_hits",
    "chow_merged_vars",
    "int_fast_path_solves",
];

/// `without_timings`, additionally dropping the [`CACHE_DEPENDENT`]
/// fields and the rational-fallback count (a solve-side counter like the
/// integer fast path's).
fn query_stream_counters(j: Json) -> Json {
    match without_timings(j) {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| {
                    !CACHE_DEPENDENT.contains(&k.as_str()) && k != "rational_fallbacks"
                })
                .map(|(k, v)| (k, query_stream_counters(v)))
                .collect(),
        ),
        other => other,
    }
}

/// Every query the cache answers is a query the cache-less run decides
/// fresh: the decision tallies plus the cache hits are conserved.
fn decisions(s: &SynthStats) -> usize {
    s.cache_hits
        + s.theorem1_refutations
        + s.prefilter_rejections
        + s.ilp_solves
        + s.solver.tier05_hits
        + s.solver.tier05_rejects
        + s.solver.negcache_hits
}

/// The cache is a pure memoization: with it on and off, synthesis emits
/// the same `.tnet` bytes and issues the same query stream (same query
/// count, collapses, splits, combines, tier-0 lookups, support histogram).
/// Only the cache hits — and the fresh decisions each one replaces —
/// differ. Covers ψ ∈ {3, 5, 8} at δ_on ∈ {0, 2} plus one weight-capped
/// run, where tier 0 disengages and the cache answers the most queries.
#[test]
fn cached_synthesis_matches_uncached_bytes() {
    let mut nets = random_nets();
    nets.push(ripple_adder(4));
    nets.push(comparator(4));
    let mut configs: Vec<TelsConfig> = [3, 5, 8]
        .into_iter()
        .flat_map(|psi| {
            [0, 2].map(|delta_on| TelsConfig {
                psi,
                delta_on,
                ..TelsConfig::default()
            })
        })
        .collect();
    configs.push(TelsConfig {
        psi: 4,
        weight_cap: Some(6),
        ..TelsConfig::default()
    });
    let mut hits = 0;
    for net in &nets {
        let prepared = script_algebraic(net);
        for cached in &configs {
            let uncached = TelsConfig {
                use_cache: false,
                ..cached.clone()
            };
            let tag = format!(
                "{} at psi={} delta_on={} weight_cap={:?}",
                net.model(),
                cached.psi,
                cached.delta_on,
                cached.weight_cap
            );
            let (tn_c, stats_c) = synthesize_with_stats(&prepared, cached).expect("cached");
            let (tn_u, stats_u) = synthesize_with_stats(&prepared, &uncached).expect("uncached");
            assert_eq!(tn_c.to_tnet(), tn_u.to_tnet(), "{tag}: bytes differ");
            assert_eq!(
                tn_c.verify_against(net, 14, 2048, 0xC0FE).expect("sim"),
                None,
                "{tag}: synthesis diverged from the source network"
            );
            assert_eq!(
                query_stream_counters(stats_c.to_json()).to_string(),
                query_stream_counters(stats_u.to_json()).to_string(),
                "{tag}: the query stream differs"
            );
            assert_eq!(stats_u.cache_hits, 0, "{tag}: cache off yet hit");
            assert_eq!(decisions(&stats_c), decisions(&stats_u), "{tag}");
            hits += stats_c.cache_hits;
        }
    }
    assert!(hits > 0, "the cache never hit");
}

/// A cache hit after renaming and phase flips must reproduce exactly the
/// realization a fresh solve finds: every remapped realization from a
/// cache-enabled run must satisfy the original cover, which `validate`
/// checks exhaustively.
#[test]
fn cached_realizations_are_exact_on_random_unate_sops() {
    let mut rng = Xoshiro256::seed_from_u64(0xCAC4E);
    let config = TelsConfig::default();
    let mut checked = 0;
    for _ in 0..200 {
        let n = rng.gen_range(1..=4u32);
        let cubes = rng.gen_range(1..=3usize);
        // Random unate SOP: one global phase per variable.
        let phases: Vec<bool> = (0..n).map(|_| rng.gen_range(0..2u32) == 0).collect();
        let f = Sop::from_cubes(
            (0..cubes)
                .map(|_| {
                    Cube::from_literals((0..n).filter_map(|i| {
                        (rng.gen_range(0..3u32) > 0).then_some((Var(i), phases[i as usize]))
                    }))
                })
                .collect::<Vec<_>>(),
        );
        if let Some(r) = check_threshold(&f, &config).expect("check") {
            assert_exact(&f, &r);
            checked += 1;
        }
        // And the same function under a renaming + phase flip of every
        // variable still checks out (this is the transformation the cache
        // undoes on a hit).
        let renamed = Sop::from_cubes(
            f.cubes()
                .iter()
                .map(|c| Cube::from_literals(c.literals().map(|(v, ph)| (Var(v.0 * 2 + 7), !ph))))
                .collect::<Vec<_>>(),
        );
        if let Some(r) = check_threshold(&renamed, &config).expect("check") {
            assert_exact(&renamed, &r);
        }
    }
    assert!(checked > 20, "suite produced too few threshold functions");
}
