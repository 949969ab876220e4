//! One-to-one mapping baseline (§VI-A): decompose the Boolean network into
//! simple gates with fanin ≤ ψ, then replace each gate with one threshold
//! gate.

use std::collections::HashMap;

use tels_logic::opt::decompose;
use tels_logic::{Cube, Network, NodeKind};

use crate::check::check_threshold;
use crate::config::TelsConfig;
use crate::error::SynthError;
use crate::synth::unrealizable;
use crate::tnet::{ThresholdGate, ThresholdNetwork};

/// Replaces every simple gate of the (decomposed) network with a single
/// threshold gate — the baseline TELS is compared against in Table I.
///
/// The input network is first technology-decomposed to AND/OR/NOT gates with
/// at most ψ inputs; each gate's weight-threshold vector is then derived
/// through the same ILP as the synthesizer, so the configured defect
/// tolerances apply to the baseline as well.
///
/// # Errors
///
/// Returns [`SynthError::Config`] if the configuration fails
/// [`TelsConfig::validate`] or its `weight_cap` is too small for a
/// decomposed gate; otherwise an error only if the network is cyclic or
/// the ILP solver overflows.
///
/// # Example
///
/// ```
/// use tels_core::{map_one_to_one, TelsConfig};
/// use tels_logic::blif;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = blif::parse(".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n")?;
/// let tn = map_one_to_one(&net, &TelsConfig::default())?;
/// assert!(tn.verify_against(&net, 14, 256, 0)?.is_none());
/// // AND(a,b) and OR(t,c): two gates, like the Boolean network.
/// assert_eq!(tn.num_gates(), 2);
/// # Ok(())
/// # }
/// ```
pub fn map_one_to_one(net: &Network, config: &TelsConfig) -> Result<ThresholdNetwork, SynthError> {
    config.validate()?;
    let simple = decompose(net, config.psi);
    let mut tn = ThresholdNetwork::new(simple.model().to_string());
    let mut map: HashMap<tels_logic::NodeId, crate::tnet::TnId> = HashMap::new();
    for pi in simple.inputs() {
        let id = tn.add_input(simple.name(pi).to_string())?;
        map.insert(pi, id);
    }
    // Cache realizations per canonical local SOP (gate shape).
    let mut proto_cache: HashMap<Vec<Cube>, (Vec<i64>, i64)> = HashMap::new();
    for id in simple.topo_order()? {
        let NodeKind::Logic { fanins, sop } = simple.kind(id) else {
            continue;
        };
        let key: Vec<Cube> = {
            let mut c = sop.cubes().to_vec();
            c.sort();
            c
        };
        let (weights, threshold) = match proto_cache.get(&key) {
            Some(hit) => hit.clone(),
            None => {
                let r = check_threshold(sop, config)?.ok_or_else(|| {
                    unrealizable(config, &format!("decomposed `{}` ({sop})", simple.name(id)))
                })?;
                // Realization weights are sorted by variable; for simple
                // gates every input has the same local index order.
                let mut weights = vec![0i64; fanins.len()];
                for &(v, w) in &r.weights {
                    weights[v.0 as usize] = w;
                }
                let entry = (weights, r.threshold);
                proto_cache.insert(key, entry.clone());
                entry
            }
        };
        let inputs = fanins.iter().map(|f| map[f]).collect();
        let gate = tn.add_gate(
            simple.name(id).to_string(),
            ThresholdGate {
                inputs,
                weights,
                threshold,
            },
        )?;
        map.insert(id, gate);
    }
    for (name, id) in simple.outputs() {
        tn.add_output(name.clone(), map[id])?;
    }
    Ok(tn)
}

/// Synthesizes with TELS **and** the one-to-one baseline, returning
/// whichever network has fewer gates (ties go to TELS).
///
/// §VI-A: "we can always choose the better of the two networks, thereby
/// guaranteeing that TELS will never output a network requiring more gates
/// than that required for one-to-one mapping."
///
/// # Errors
///
/// Propagates errors from either flow.
pub fn synthesize_best(net: &Network, config: &TelsConfig) -> Result<ThresholdNetwork, SynthError> {
    let tels = crate::synth::synthesize(net, config)?;
    let baseline = map_one_to_one(net, config)?;
    Ok(if tels.num_gates() <= baseline.num_gates() {
        tels
    } else {
        baseline
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_logic::blif;

    #[test]
    fn maps_simple_network() {
        let src = ".model m\n.inputs a b c d\n.outputs f\n.names a b t\n11 1\n.names t c d f\n1-0 1\n-10 1\n.end\n";
        let net = blif::parse(src).unwrap();
        let tn = map_one_to_one(&net, &TelsConfig::default()).unwrap();
        assert_eq!(tn.verify_against(&net, 14, 256, 0).unwrap(), None);
        for (_, g) in tn.gates() {
            assert!(g.inputs.len() <= 3);
        }
    }

    #[test]
    fn gate_count_matches_decomposition() {
        let src =
            ".model m\n.inputs a b c d e f\n.outputs y\n.names a b c d e f y\n111111 1\n.end\n";
        let net = blif::parse(src).unwrap();
        let config = TelsConfig::default();
        let dec = decompose(&net, config.psi);
        let tn = map_one_to_one(&net, &config).unwrap();
        assert_eq!(tn.num_gates(), dec.num_logic_nodes());
        assert_eq!(tn.depth(), dec.depth().unwrap());
    }

    #[test]
    fn inverters_get_negative_weights() {
        let src = ".model m\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n";
        let net = blif::parse(src).unwrap();
        let tn = map_one_to_one(&net, &TelsConfig::default()).unwrap();
        assert_eq!(tn.num_gates(), 1);
        let (_, g) = tn.gates().next().unwrap();
        assert_eq!(g.weights, vec![-1]);
        assert_eq!(tn.verify_against(&net, 14, 16, 0).unwrap(), None);
    }

    #[test]
    fn best_never_worse_than_baseline() {
        // tcon-style wires/inverters: TELS may lose; `synthesize_best` must
        // return the smaller network.
        let src = "\
.model tconish
.inputs a b c d
.outputs w x y z
.names a w
0 1
.names b x
1 1
.names c y
0 1
.names d z
1 1
.end
";
        let net = blif::parse(src).unwrap();
        let config = TelsConfig::default();
        let best = synthesize_best(&net, &config).unwrap();
        let baseline = map_one_to_one(&net, &config).unwrap();
        assert!(best.num_gates() <= baseline.num_gates());
        assert_eq!(best.verify_against(&net, 14, 64, 0).unwrap(), None);
    }
}
