//! Properties of the canonical realization cache: cached answers must be
//! exact after remapping, and repeated runs must agree on both the
//! synthesized network and every run counter.

use tels::circuits::{comparator, lfsr_cone, random_network, ripple_adder, RandomNetOptions};
use tels::logic::opt::script_algebraic;
use tels::logic::rng::Xoshiro256;
use tels::logic::{Cube, Network, Sop, Var};
use tels::trace::json::Json;
use tels::{check_threshold, synthesize_with_stats, Realization, TelsConfig};

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

/// Cache on and cache off may pick different (but equally exact) gate
/// weights; both must realize the source network.
#[test]
fn cached_synthesis_matches_uncached_functionally() {
    let mut nets = random_nets();
    nets.push(ripple_adder(4));
    nets.push(comparator(4));
    for net in &nets {
        let prepared = script_algebraic(net);
        for psi in [3, 5] {
            let cached = TelsConfig {
                psi,
                use_cache: true,
                // The suite includes circuits below the default engagement
                // gate; force the cache on — it is what is under test.
                parallel_min_nodes: 0,
                ..TelsConfig::default()
            };
            let uncached = TelsConfig {
                psi,
                use_cache: false,
                ..TelsConfig::default()
            };
            let (tn_c, stats_c) = synthesize_with_stats(&prepared, &cached).expect("cached");
            let (tn_u, stats_u) = synthesize_with_stats(&prepared, &uncached).expect("uncached");
            assert_eq!(
                tn_c.verify_against(net, 14, 2048, 0xC0FE).expect("sim"),
                None,
                "cached synthesis diverged from the source network"
            );
            assert_eq!(
                tn_u.verify_against(net, 14, 2048, 0xC0FE).expect("sim"),
                None,
                "uncached synthesis diverged from the source network"
            );
            // Theorem-1 refutations are tallied identically on both paths,
            // so the two emission passes issue the same query count — and
            // the cached one must answer some without the solver.
            assert_eq!(stats_c.ilp_calls, stats_u.ilp_calls);
            assert!(stats_c.ilp_avoided() > 0, "cache never hit");
        }
    }
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
