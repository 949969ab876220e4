//! Pins the output of the factoring scripts byte for byte.
//!
//! For 200 fuzz-generator seeds, 40 random networks and the five large
//! generators (at sizes a debug test run finishes quickly), each case
//! records one line:
//!
//! - the FNV-1a digest of `blif::write` for `script_algebraic` and
//!   `script_boolean`;
//! - the applied count of every counting pass, replayed one by one through
//!   the public `opt` passes (the replay must write the same bytes as the
//!   script, so the pass list cannot drift from the scripts);
//! - the factored node and literal counts of both results.
//!
//! The expected lines in `factor_identity.expected` were recorded before
//! the factoring passes were reworked to run in local variable space: any
//! change to a rewrite sequence, a tie-break or a literal count shows up
//! here as a changed line. After an intended output change, regenerate the
//! file with
//! `cargo test --test factor_identity -- --ignored --nocapture print_table`
//! and say why in the change log.

use tels::circuits::{
    alu_array, array_multiplier, lfsr_cone, majority_grid, parity_ladder, random_network,
    RandomNetOptions,
};
use tels::fuzz::{gen_case, GenOptions};
use tels::logic::opt::{
    eliminate, extract, resubstitute, script_algebraic, script_boolean, simplify, strash, sweep,
    OptOptions,
};
use tels::logic::{blif, Network};

const EXPECTED: &str = include_str!("factor_identity.expected");

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `script_algebraic_with`'s pass sequence, returning the compacted result
/// and the applied count of every pass that reports one.
fn replay_algebraic(net: &Network, opts: &OptOptions) -> (Network, Vec<usize>) {
    let mut n = net.compact();
    let mut counts = vec![sweep(&mut n), eliminate(&mut n, -1, opts)];
    simplify(&mut n);
    counts.push(eliminate(&mut n, -1, opts));
    counts.push(sweep(&mut n));
    counts.push(eliminate(&mut n, 5, opts));
    simplify(&mut n);
    counts.push(resubstitute(&mut n));
    counts.push(extract(&mut n, opts));
    counts.push(resubstitute(&mut n));
    counts.push(strash(&mut n));
    counts.push(sweep(&mut n));
    counts.push(eliminate(&mut n, -1, opts));
    counts.push(sweep(&mut n));
    simplify(&mut n);
    (n.compact(), counts)
}

/// `script_boolean_with`'s passes after the algebraic script.
fn replay_boolean_tail(alg: &Network, opts: &OptOptions) -> (Network, Vec<usize>) {
    let mut n = alg.clone();
    let mut counts = vec![eliminate(&mut n, 10, opts)];
    simplify(&mut n);
    counts.push(eliminate(&mut n, 5, opts));
    simplify(&mut n);
    counts.push(sweep(&mut n));
    (n.compact(), counts)
}

fn join(counts: &[usize]) -> String {
    counts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// The pinned line for one case.
fn case_line(label: &str, net: &Network) -> String {
    let opts = OptOptions::default();
    let alg = script_algebraic(net);
    let boolean = script_boolean(net);
    let alg_text = blif::write(&alg);
    let bool_text = blif::write(&boolean);

    let (replayed, alg_counts) = replay_algebraic(net, &opts);
    assert_eq!(
        blif::write(&replayed),
        alg_text,
        "{label}: pass replay differs from script_algebraic"
    );
    let (replayed, bool_counts) = replay_boolean_tail(&alg, &opts);
    assert_eq!(
        blif::write(&replayed),
        bool_text,
        "{label}: pass replay differs from script_boolean"
    );

    format!(
        "{label} alg={:016x} bool={:016x} passes={} bool_passes={} nodes={} lits={} bool_nodes={} bool_lits={}",
        fnv1a(alg_text.as_bytes()),
        fnv1a(bool_text.as_bytes()),
        join(&alg_counts),
        join(&bool_counts),
        alg.num_logic_nodes(),
        alg.num_literals(),
        boolean.num_logic_nodes(),
        boolean.num_literals(),
    )
}

fn fuzz_lines() -> Vec<String> {
    let opts = GenOptions::default();
    (0..200)
        .map(|seed| case_line(&format!("fuzz_{seed}"), &gen_case(seed, &opts)))
        .collect()
}

/// Random networks shaped like the benchmark's pre-factored margin set.
fn random_lines() -> Vec<String> {
    let opts = RandomNetOptions {
        inputs: 16,
        outputs: 8,
        nodes: 80,
        max_fanin: 5,
        max_cubes: 4,
        ..RandomNetOptions::default()
    };
    (0..40)
        .map(|i| {
            let name = format!("rand_{i}");
            case_line(&name, &random_network(&name, 2000 + i, &opts))
        })
        .collect()
}

fn generator_lines() -> Vec<String> {
    [
        array_multiplier(12),
        parity_ladder(48, 12),
        majority_grid(32, 12),
        lfsr_cone(24, 30),
        alu_array(24),
    ]
    .iter()
    .map(|net| case_line(net.model(), net))
    .collect()
}

/// Compares each line with the expected line of the same label.
fn assert_lines(actual: &[String]) {
    let diffs: Vec<String> = actual
        .iter()
        .filter_map(|a| {
            let label = a.split(' ').next().expect("labelled line");
            let e = EXPECTED
                .lines()
                .find(|e| e.split(' ').next() == Some(label))
                .unwrap_or("(no expected line)");
            (a != e).then(|| format!("expected {e}\n  actual {a}"))
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} factoring results changed:\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n")
    );
}

#[test]
fn fuzz_cases_factor_identically() {
    assert_lines(&fuzz_lines());
}

#[test]
fn large_generators_factor_identically() {
    assert_lines(&generator_lines());
}

#[test]
fn random_networks_factor_identically() {
    assert_lines(&random_lines());
}

/// Prints the table `factor_identity.expected` holds.
#[test]
#[ignore]
fn print_table() {
    let lines = [fuzz_lines(), random_lines(), generator_lines()];
    for line in lines.concat() {
        println!("{line}");
    }
}
