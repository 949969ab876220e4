//! Edge-case tests for the synthesis driver on degenerate and adversarial
//! networks.

use tels_core::{synthesize, synthesize_with_stats, TelsConfig};
use tels_logic::{blif, Cube, Network, Sop, Var};

fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
    Sop::from_cubes(
        cubes
            .iter()
            .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
    )
}

fn synth_verified(net: &Network, config: &TelsConfig) -> tels_core::ThresholdNetwork {
    let tn = synthesize(net, config).expect("synthesis succeeds");
    assert_eq!(
        tn.verify_against(net, 14, 1024, 0x5eed).unwrap(),
        None,
        "functional mismatch"
    );
    tn
}

#[test]
fn empty_network() {
    let net = Network::new("empty");
    let tn = synthesize(&net, &TelsConfig::default()).unwrap();
    assert_eq!(tn.num_gates(), 0);
    assert_eq!(tn.outputs().len(), 0);
}

#[test]
fn output_directly_on_input() {
    let mut net = Network::new("wire");
    let a = net.add_input("a").unwrap();
    net.add_output("f", a).unwrap();
    let tn = synth_verified(&net, &TelsConfig::default());
    assert_eq!(tn.num_gates(), 0, "a wire needs no gate");
}

#[test]
fn inverter_chain_collapses() {
    // inv(inv(inv(a))) ≡ inv(a): collapsing should fold the chain.
    let mut net = Network::new("invchain");
    let a = net.add_input("a").unwrap();
    let i1 = net.add_node("i1", vec![a], sop(&[&[(0, false)]])).unwrap();
    let i2 = net.add_node("i2", vec![i1], sop(&[&[(0, false)]])).unwrap();
    let i3 = net.add_node("i3", vec![i2], sop(&[&[(0, false)]])).unwrap();
    net.add_output("f", i3).unwrap();
    let tn = synth_verified(&net, &TelsConfig::default());
    assert_eq!(tn.num_gates(), 1, "the chain folds into one inverter");
}

#[test]
fn duplicate_output_names_on_different_nodes() {
    let src = ".model m\n.inputs a b\n.outputs f g\n.names a b f\n11 1\n.names a b g\n11 1\n.end\n";
    let net = blif::parse(src).unwrap();
    let tn = synth_verified(&net, &TelsConfig::default());
    // Identical functions are distinct nodes in the input network and both
    // are POs; each must be driven.
    assert_eq!(tn.outputs().len(), 2);
}

#[test]
fn po_node_is_also_fanout_node() {
    // g drives both an output and f: it is a boundary synthesized once.
    let src = "\
.model pofan
.inputs a b c
.outputs g f
.names a b g
11 1
.names g c f
1- 1
-1 1
.end
";
    let net = blif::parse(src).unwrap();
    let (tn, _) = synthesize_with_stats(&net, &TelsConfig::default()).unwrap();
    assert_eq!(tn.verify_against(&net, 14, 256, 0).unwrap(), None);
    assert_eq!(tn.num_gates(), 2);
}

#[test]
fn huge_psi_collapses_everything_possible() {
    let src = "\
.model bigpsi
.inputs a b c d e f g h
.outputs y
.names a b t1
11 1
.names c d t2
11 1
.names t1 t2 t3
1- 1
-1 1
.names e f t4
11 1
.names t3 t4 g h y
11-- 1
--11 1
.end
";
    let net = blif::parse(src).unwrap();
    let config = TelsConfig {
        psi: 16,
        ..TelsConfig::default()
    };
    let tn = synth_verified(&net, &config);
    // Fully collapsed; either a single gate (if threshold) or few.
    assert!(tn.num_gates() <= 4, "got {} gates", tn.num_gates());
}

#[test]
fn psi_two_still_works() {
    let src = ".model m\n.inputs a b c d\n.outputs f\n.names a b c d f\n11-- 1\n--11 1\n.end\n";
    let net = blif::parse(src).unwrap();
    let config = TelsConfig {
        psi: 2,
        ..TelsConfig::default()
    };
    let tn = synth_verified(&net, &config);
    for (_, g) in tn.gates() {
        assert!(g.inputs.len() <= 2);
    }
}

#[test]
fn all_negative_literal_function() {
    // f = ā·b̄·c̄ (NOR3): single threshold gate with negative weights.
    let src = ".model nor\n.inputs a b c\n.outputs f\n.names a b c f\n000 1\n.end\n";
    let net = blif::parse(src).unwrap();
    let tn = synth_verified(&net, &TelsConfig::default());
    assert_eq!(tn.num_gates(), 1);
    let (_, g) = tn.gates().next().unwrap();
    assert!(g.weights.iter().all(|&w| w < 0));
}

#[test]
fn dense_binate_function_splits_correctly() {
    // A 2-out-of-3 exactly function (binate everywhere).
    let src = "\
.model exact2
.inputs a b c
.outputs f
.names a b c f
110 1
101 1
011 1
.end
";
    let net = blif::parse(src).unwrap();
    let (tn, stats) = synthesize_with_stats(&net, &TelsConfig::default()).unwrap();
    assert_eq!(tn.verify_against(&net, 14, 64, 0).unwrap(), None);
    assert!(stats.binate_splits >= 1);
    assert!(tn.num_gates() >= 2);
}

#[test]
fn larger_delta_off_grows_margins_and_area() {
    // δ_off = 0 is rejected (an OFF minterm would sit exactly at the
    // switching point T); larger δ_off widens the OFF margin at area cost.
    let src = ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n";
    let net = blif::parse(src).unwrap();
    let default = synthesize(&net, &TelsConfig::default()).unwrap();
    let wide = synthesize(
        &net,
        &TelsConfig {
            delta_off: 3,
            ..TelsConfig::default()
        },
    )
    .unwrap();
    assert!(wide.area() >= default.area());
    assert_eq!(wide.verify_against(&net, 14, 64, 0).unwrap(), None);
    let bad = TelsConfig {
        delta_off: 0,
        ..TelsConfig::default()
    };
    assert!(bad.validate().is_err(), "delta_off = 0 must be rejected");
    assert!(matches!(
        synthesize(&net, &bad),
        Err(tels_core::SynthError::Config(_))
    ));
}

#[test]
fn fig5_collapse_example() {
    // §V-A's example: f = n1 ∨ n2, n1 = x1·n3, n2 = n3·x4, n3 shared
    // (fanout node) — collapsing must stop at n3, giving
    // f = x1·n3 ∨ n3·x4 over leaves {x1, n3, x4}.
    let src = "\
.model fig5
.inputs x1 x2 x3 x4
.outputs f
.names x2 x3 n3
1- 1
-1 1
.names x1 n3 n1
11 1
.names n3 x4 n2
11 1
.names n1 n2 f
1- 1
-1 1
.end
";
    let net = blif::parse(src).unwrap();
    let config = TelsConfig {
        psi: 4,
        ..TelsConfig::default()
    };
    let (tn, stats) = synthesize_with_stats(&net, &config).unwrap();
    assert_eq!(tn.verify_against(&net, 14, 64, 0).unwrap(), None);
    // n3 survives as a shared gate; f collapses n1 and n2 away. The
    // collapsed f = n3·(x1 ∨ x4) is a threshold function ⟨2,1,1;3⟩, so the
    // result is exactly two gates.
    assert!(stats.collapses >= 2);
    assert_eq!(tn.num_gates(), 2);
    let root = tn.find("f").expect("named root");
    let g = tn.gate(root).unwrap();
    let mut ws = g.weights.clone();
    ws.sort_unstable();
    assert_eq!(ws, vec![1, 1, 2]);
}

#[test]
fn many_outputs_share_synthesized_roots() {
    // 8 outputs all referencing one internal cone.
    let mut src = String::from(".model fanout\n.inputs a b c\n.outputs");
    for i in 0..8 {
        src.push_str(&format!(" o{i}"));
    }
    src.push_str("\n.names a b t\n11 1\n");
    for i in 0..8 {
        src.push_str(&format!(".names t c o{i}\n1{} 1\n", i % 2));
    }
    src.push_str(".end\n");
    let net = blif::parse(&src).unwrap();
    let tn = synth_verified(&net, &TelsConfig::default());
    // t is synthesized once; each output adds one gate.
    assert_eq!(tn.num_gates(), 9);
}

#[test]
fn deep_chain_does_not_overflow_the_stack() {
    // The driver recurses once per logic level; a chain far deeper than
    // the bundled circuits must run on the depth-scaled stack instead of
    // crashing. Depth 4000 comfortably exceeds the inline threshold while
    // keeping the test fast.
    const DEPTH: usize = 4000;
    let mut src = String::from(".model chain\n.inputs i0 i1\n.outputs out\n");
    let mut prev = "i0".to_string();
    for k in 1..=DEPTH {
        src.push_str(&format!(".names {prev} i1 n{k}\n10 1\n01 1\n"));
        prev = format!("n{k}");
    }
    src.push_str(&format!(".names {prev} out\n1 1\n.end\n"));
    let net = blif::parse(&src).unwrap();
    let tn = synthesize(&net, &TelsConfig::default()).unwrap();
    assert_eq!(tn.verify_against(&net, 14, 256, 0xDEE9).unwrap(), None);
}

#[test]
fn ilp_limit_exhaustion_degrades_gracefully() {
    // With a starved ILP budget, everything is declared non-threshold and
    // split down to trivial gates — the result must still be correct.
    let src =
        ".model m\n.inputs a b c d\n.outputs f\n.names a b c d f\n11-- 1\n1-1- 1\n---1 1\n.end\n";
    let net = blif::parse(src).unwrap();
    let config = TelsConfig {
        ilp_limits: tels_ilp::Limits {
            max_pivots: 3,
            max_nodes: 1,
        },
        psi: 4,
        ..TelsConfig::default()
    };
    let tn = synthesize(&net, &config).unwrap();
    assert_eq!(tn.verify_against(&net, 14, 64, 0).unwrap(), None);
}

mod shannon_strategy {
    use super::*;
    use tels_core::SynthStrategy;

    fn shannon_config() -> TelsConfig {
        TelsConfig {
            strategy: SynthStrategy::Shannon,
            ..TelsConfig::default()
        }
    }

    #[test]
    fn shannon_synthesizes_correctly() {
        let cases = [
            ".model a\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n",
            ".model x\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n",
            ".model u\n.inputs a b c d\n.outputs f\n.names a b c d f\n11-- 1\n--11 1\n.end\n",
            ".model m\n.inputs a b c d e\n.outputs f g\n.names a b c t\n1-0 1\n-10 1\n.names t d f\n11 1\n.names t e g\n10 1\n.end\n",
        ];
        for src in cases {
            let net = blif::parse(src).unwrap();
            let tn = synthesize(&net, &shannon_config()).unwrap();
            assert_eq!(
                tn.verify_against(&net, 14, 512, 1).unwrap(),
                None,
                "shannon strategy broke {src}"
            );
            for (_, g) in tn.gates() {
                assert!(g.inputs.len() <= 3);
            }
        }
    }

    #[test]
    fn shannon_handles_constant_cofactors() {
        // f = a ∨ b·c: cofactor on a gives f1 = 1.
        let src = ".model c\n.inputs a b c\n.outputs f\n.names a b c f\n1-- 1\n-11 1\n.end\n";
        let net = blif::parse(src).unwrap();
        let tn = synthesize(&net, &shannon_config()).unwrap();
        assert_eq!(tn.verify_against(&net, 14, 64, 2).unwrap(), None);
    }

    #[test]
    fn paper_flow_beats_naive_shannon_on_unate_logic() {
        // The expected ablation outcome: the paper's heuristics produce no
        // more gates than divide-and-conquer on its home turf.
        let src = ".model u\n.inputs a b c d e f\n.outputs y\n.names a b c d e f y\n11---- 1\n--11-- 1\n----11 1\n.end\n";
        let net = blif::parse(src).unwrap();
        let paper = synthesize(&net, &TelsConfig::default()).unwrap();
        let shannon = synthesize(&net, &shannon_config()).unwrap();
        assert_eq!(paper.verify_against(&net, 14, 64, 3).unwrap(), None);
        assert_eq!(shannon.verify_against(&net, 14, 64, 4).unwrap(), None);
        assert!(paper.num_gates() <= shannon.num_gates());
    }
}
