//! One-shot workloads: `large_flow` and `synth_margin`.

use std::time::Instant;

use tels_circuits::{
    array_multiplier, lfsr_cone, majority_grid, parity_ladder, random_network, RandomNetOptions,
};
use tels_core::{prewarm_tier0, TelsConfig};
use tels_logic::{blif, opt, Network};
use tels_serve::protocol::JobRequest;

use crate::clock;
use crate::layers::{self, At};
use crate::report::{self, fnv64, PassOut, Run, SetupTimes};
use crate::serve;
use crate::spans::Tracer;
use crate::Args;

/// Least set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// A generated circuit: its source network and the BLIF the program reads.
pub struct Circuit {
    pub name: String,
    pub source: Network,
    pub blif: String,
}

/// One job of a one-shot workload: a circuit under a configuration.
pub struct Job {
    pub circuit: usize,
    pub label: &'static str,
    pub config: TelsConfig,
}

/// Builds the circuits from `(name, network)` pairs; with `prefactor` the
/// BLIF holds the `script_algebraic` result instead of the network.
pub fn build(sources: Vec<(String, Network)>, prefactor: bool) -> Vec<Circuit> {
    sources
        .into_iter()
        .map(|(name, source)| {
            let blif = if prefactor {
                blif::write(&opt::script_algebraic(&source))
            } else {
                blif::write(&source)
            };
            Circuit { name, source, blif }
        })
        .collect()
}

/// Prewarms the tier-0 oracle, then times repeated set-ups. Returns the
/// set-up times, the prewarm time and the circuits. The prewarm happens
/// once per process, so it is a single sample: it is kept out of the
/// set-up median and reported as the per-layer `check.tier0_prewarm_s`.
pub fn set_up(make: impl FnMut() -> Vec<Circuit>) -> (SetupTimes, f64, Vec<Circuit>) {
    let t0 = Instant::now();
    prewarm_tier0();
    let prewarm_s = t0.elapsed().as_secs_f64();
    let (times, circuits) = report::setup(SETUP_REPS, make);
    (times, prewarm_s, circuits)
}

/// One pass over the job list: each job is the `tels synth` pipeline
/// (parse, factor unless pre-factored, synthesize, verify, write), timed
/// per job. With `reverify`, every `.tnet` is also re-parsed and
/// re-verified against its source network. Traced passes replay the
/// factoring pass by pass, and with `via_serve` every job also goes
/// through a serve session whose reply must equal the one-shot bytes; none
/// of that is timed. Returns the pass and the `.tnet` text of each job
/// that succeeded, in job order.
pub fn one_shot_pass(
    args: &Args,
    circuits: &[Circuit],
    jobs: &[Job],
    prefactored: bool,
    tracer: &Tracer,
    reverify: bool,
    via_serve: bool,
) -> (PassOut, Vec<String>) {
    let mut p = PassOut::default();
    let mut texts = Vec::new();
    let mut serve_jobs = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let c = &circuits[job.circuit];
        let tally = &mut p.tally;
        let t0 = Instant::now();
        let c0 = clock::process_s();
        let outcome = {
            let g = tracer.enter("job", None, j as u64);
            let at = At {
                tracer,
                parent: g.id(),
                job: j as u64,
            };
            (|| -> Result<_, String> {
                let net = layers::parse(at, &c.blif, tally)?;
                let factored = (!prefactored).then(|| layers::factor(at, &net, tally));
                let prepared = factored.as_ref().unwrap_or(&net);
                let tn = layers::synth(at, prepared, &job.config, tally)?;
                layers::verify(at, &tn, &net, args.seed, tally)?;
                let text = layers::write(at, &tn, tally);
                Ok((net, factored, tn, text))
            })()
        };
        let cpu = clock::process_s() - c0;
        let latency = t0.elapsed().as_secs_f64();
        p.wall_s += latency;
        p.cpu_s += cpu;
        p.latencies_ms.push(latency * 1e3);
        p.job_cpu_ms.push(cpu * 1e3);
        p.jobs += 1;
        let key = format!("{}/{}", c.name, job.label);
        match outcome {
            Err(e) => p.errors.push(format!("{key}: {e}")),
            Ok((net, factored, tn, text)) => {
                if reverify {
                    if let Err(e) = layers::reverify(&text, &c.source, args.seed) {
                        p.errors.push(format!("{key}: {e}"));
                    }
                }
                p.gates += tn.num_gates() as f64;
                p.levels += tn.depth() as f64;
                p.area += tn.area() as f64;
                p.digests.push((key.clone(), fnv64(text.as_bytes())));
                if tracer.on() {
                    let at = At {
                        tracer,
                        parent: None,
                        job: j as u64,
                    };
                    if let Some(factored) = &factored {
                        if let Err(e) = layers::replay_factor(at, &net, factored, &mut p.tally) {
                            p.errors.push(format!("{key}: {e}"));
                        }
                    }
                }
                if via_serve {
                    serve_jobs.push((key, c.blif.clone(), job.config.clone(), text.clone()));
                }
                texts.push(text);
            }
        }
    }
    if via_serve {
        serve_leg(tracer, serve_jobs, !prefactored, &mut p);
    }
    p.spans = tracer.drain();
    (p, texts)
}

/// Sends the jobs' input BLIF through a fresh serve session (`verify` on,
/// factoring as the one-shot job did) and checks each reply against the
/// one-shot `.tnet`.
fn serve_leg(
    tracer: &Tracer,
    jobs: Vec<(String, String, TelsConfig, String)>,
    factor: bool,
    p: &mut PassOut,
) {
    let session = serve::new_session();
    for (j, (key, blif, config, expected)) in jobs.into_iter().enumerate() {
        let req = JobRequest {
            id: Some(j as u64 + 1),
            blif,
            factor,
            verify: true,
            config,
        };
        let at = At {
            tracer,
            parent: None,
            job: j as u64,
        };
        p.jobs += 1;
        match serve::call(&session, at, &req) {
            Err(e) => {
                layers::bump(&mut p.tally, "serve.jobs_failed", 1.0);
                p.errors.push(format!("{key} via serve: {e}"));
            }
            Ok(reply) => {
                p.session_ms.push(reply.session_ms);
                p.protocol_ms.push(reply.latency_ms - reply.session_ms);
                if reply.tnet != expected {
                    p.errors
                        .push(format!("{key}: serve reply differs from one-shot bytes"));
                }
            }
        }
    }
    layers::bump(
        &mut p.tally,
        "serve.cache_entries",
        serve::cache_entries(&session),
    );
    layers::bump(&mut p.tally, "serve.jobs_failed", 0.0);
}

/// The time given to the untraced passes of a run: all of `--seconds`,
/// or half of it with `--trace 1`, whose traced passes take the other
/// half.
pub fn untraced_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// Least untraced passes of a run: two, so `cpu_s` is a median, or one
/// with `--trace 1`, which reports only the per-layer metrics and uses the
/// untraced passes for the tracing overhead alone.
pub fn untraced_min(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        2
    }
}

/// Untraced passes; with `--trace 1`, then traced passes (at least two, so
/// every count can be compared with a repeat), each with the serve leg
/// when `via_serve`.
fn measure(
    args: &Args,
    circuits: &[Circuit],
    jobs: &[Job],
    prefactored: bool,
    (setup, prewarm_s): (SetupTimes, f64),
    via_serve: bool,
) -> Run {
    let off = Tracer::new(false);
    let untraced = report::passes(untraced_seconds(args), untraced_min(args), |k| {
        one_shot_pass(args, circuits, jobs, prefactored, &off, k == 0, false).0
    });
    let peak_rss_mb = report::peak_rss_mb();
    let traced = if args.trace {
        let on = Tracer::new(true);
        report::passes(args.seconds / 2.0, 2, |_| {
            let (mut p, _) =
                one_shot_pass(args, circuits, jobs, prefactored, &on, false, via_serve);
            if prefactored {
                // The factoring happened during set-up: trace it (and its
                // replay) here, outside the timed jobs.
                prefactor_traced(&on, circuits, &mut p);
            }
            p
        })
    } else {
        Vec::new()
    };
    Run {
        setup_s: setup.cpu_s,
        setup_wall_s: setup.wall_s,
        prewarm_s,
        untraced,
        traced,
        peak_rss_mb,
        check_errors: Vec::new(),
    }
}

/// Traces the set-up factoring of every circuit, with its pass-by-pass
/// replay, into a traced pass.
pub fn prefactor_traced(tracer: &Tracer, circuits: &[Circuit], p: &mut PassOut) {
    for (j, c) in circuits.iter().enumerate() {
        let at = At {
            tracer,
            parent: None,
            job: j as u64,
        };
        let factored = layers::factor(at, &c.source, &mut p.tally);
        if let Err(e) = layers::replay_factor(at, &c.source, &factored, &mut p.tally) {
            p.errors.push(format!("{}: {e}", c.name));
        }
    }
    p.spans.extend(tracer.drain());
}

/// `large_flow`: the whole `tels synth` pipeline at default config on the
/// two large generators. The seed only drives verification vectors.
pub fn large_flow(args: &Args) -> Run {
    let (setup, prewarm_s, circuits) = set_up(|| {
        let sources = vec![
            ("parity_ladder_160x64".to_string(), parity_ladder(160, 64)),
            ("majority_grid_64x64".to_string(), majority_grid(64, 64)),
        ];
        build(sources, false)
    });
    let jobs: Vec<Job> = (0..circuits.len())
        .map(|circuit| Job {
            circuit,
            label: "default",
            config: TelsConfig::default(),
        })
        .collect();
    // No serve leg: the protocol's JSON string decoder is quadratic in
    // document length, so decoding the 1.3 MB parity-ladder reply alone
    // takes about 30 s on a 2-core x86-64 box, which would bring a traced
    // run near the 180-s run limit. synth_margin and serve_mixed cover the
    // serve layer.
    measure(args, &circuits, &jobs, false, (setup, prewarm_s), false)
}

/// Random networks for `synth_margin`.
pub const MARGIN_RANDOM: usize = 360;

/// `synth_margin`: seeded random networks plus three generated circuits,
/// pre-factored in set-up, each synthesized at ψ=8 under δ_on=0 and δ_on=2.
pub fn synth_margin(args: &Args) -> Run {
    let seed = args.seed;
    let (setup, prewarm_s, circuits) = set_up(|| {
        let opts = RandomNetOptions {
            inputs: 16,
            outputs: 8,
            nodes: 80,
            max_fanin: 5,
            max_cubes: 4,
            ..RandomNetOptions::default()
        };
        let mut v: Vec<(String, Network)> = (0..MARGIN_RANDOM as u64)
            .map(|i| {
                let name = format!("rand_s{seed}_{i}");
                let net = random_network(&name, seed.wrapping_mul(1000).wrapping_add(i), &opts);
                (name, net)
            })
            .collect();
        v.push(("array_multiplier_16".into(), array_multiplier(16)));
        v.push(("lfsr_cone_32x64".into(), lfsr_cone(32, 64)));
        v.push(("majority_grid_32x32".into(), majority_grid(32, 32)));
        build(v, true)
    });
    let mut jobs = Vec::new();
    for circuit in 0..circuits.len() {
        for (label, delta_on) in [("psi8_don0", 0), ("psi8_don2", 2)] {
            jobs.push(Job {
                circuit,
                label,
                config: TelsConfig {
                    psi: 8,
                    delta_on,
                    ..TelsConfig::default()
                },
            });
        }
    }
    measure(args, &circuits, &jobs, true, (setup, prewarm_s), true)
}
