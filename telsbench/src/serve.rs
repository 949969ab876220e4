//! `serve_mixed`: closed-loop clients against an in-process serve session.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tels_circuits::{
    alu_array, array_multiplier, comparator, lfsr_cone, majority_grid, parity_ladder,
    priority_encoder, random_network, ripple_adder, RandomNetOptions,
};
use tels_core::TelsConfig;
use tels_serve::protocol::{synth_request_json, JobRequest};
use tels_serve::{ServeOptions, ServeSession};
use tels_trace::json::{self, Json};

use crate::clock;
use crate::flow::{
    build, one_shot_pass, prefactor_traced, set_up, untraced_min, untraced_seconds, Circuit, Job,
};
use crate::layers::{self, At};
use crate::report::{self, fnv64, PassOut, Run};
use crate::spans::Tracer;
use crate::Args;

/// Circuits of the hot set, repeated across requests (cache reads).
const HOT: usize = 8;
/// Fresh circuits per pass; each pass sends as many hot requests.
const FRESH: usize = 192;

/// A session as `tels serve` builds it by default (one pool worker per
/// hardware thread, no cache file, metrics off).
pub fn new_session() -> ServeSession {
    ServeSession::new(ServeOptions::default()).expect("a session without a cache file")
}

/// Realization-cache entries across the session's configurations.
pub fn cache_entries(session: &ServeSession) -> f64 {
    session
        .stats_json()
        .get("cache_entries")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A decoded successful reply.
pub struct Reply {
    pub tnet: String,
    pub gates: f64,
    pub levels: f64,
    pub area: f64,
    pub stats: Json,
    /// The reply's `micros`: the job's time inside the session.
    pub session_ms: f64,
    /// Client latency: encode, handle, decode.
    pub latency_ms: f64,
    /// Processor time of the client thread over the same call (the job
    /// runs on the calling thread; warming on the session's pool is not
    /// included).
    pub cpu_ms: f64,
}

/// One request as a client sends it: `synth_request_json` encoded to
/// text, decoded and handled by the session, the reply encoded to text
/// and decoded again.
pub fn call(session: &ServeSession, at: At, req: &JobRequest) -> Result<Reply, String> {
    let t0 = Instant::now();
    let c0 = clock::thread_s();
    let reply = {
        let g = at.tracer.enter("serve.request", at.parent, at.job);
        let at = at.under(g.id());
        let wire = {
            let _g = at.tracer.enter("serve.encode", at.parent, at.job);
            synth_request_json(req).to_string()
        };
        let answer = {
            let _g = at.tracer.enter("serve.handle", at.parent, at.job);
            let doc = json::parse(&wire)?;
            session.handle(&doc).0.to_string()
        };
        let _g = at.tracer.enter("serve.decode", at.parent, at.job);
        json::parse(&answer)?
    };
    let cpu_ms = (clock::thread_s() - c0) * 1e3;
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        let msg = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no message");
        return Err(format!("error reply: {msg}"));
    }
    let num = |k: &str| reply.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(Reply {
        tnet: reply
            .get("tnet")
            .and_then(Json::as_str)
            .ok_or("reply without tnet")?
            .to_string(),
        gates: num("gates"),
        levels: num("levels"),
        area: num("area"),
        stats: reply.get("stats").cloned().unwrap_or(Json::Null),
        session_ms: num("micros") * 1e-3,
        latency_ms,
        cpu_ms,
    })
}

/// Serve configuration: ψ=6, δ_on=2 (tiers 0 and 0.5 off, so the shared
/// cache and the ILP carry the work).
fn config() -> TelsConfig {
    TelsConfig {
        psi: 6,
        delta_on: 2,
        ..TelsConfig::default()
    }
}

fn request(c: &Circuit, id: u64) -> JobRequest {
    JobRequest {
        id: Some(id),
        blif: c.blif.clone(),
        factor: false,
        verify: true,
        config: config(),
    }
}

/// Hot circuits first, then fresh ones. The hot set is fixed (small
/// instances of the circuit generators); the fresh circuits are seeded
/// random networks.
fn generate(seed: u64) -> Vec<(String, tels_logic::Network)> {
    let mut v: Vec<(String, tels_logic::Network)> = vec![
        ("hot_array_multiplier_4".into(), array_multiplier(4)),
        ("hot_alu_array_4".into(), alu_array(4)),
        ("hot_majority_grid_10x6".into(), majority_grid(10, 6)),
        ("hot_parity_ladder_10x4".into(), parity_ladder(10, 4)),
        ("hot_lfsr_cone_12x10".into(), lfsr_cone(12, 10)),
        ("hot_ripple_adder_6".into(), ripple_adder(6)),
        ("hot_comparator_6".into(), comparator(6)),
        ("hot_priority_encoder_8".into(), priority_encoder(8)),
    ];
    debug_assert_eq!(v.len(), HOT);
    let opts = RandomNetOptions {
        inputs: 20,
        outputs: 10,
        nodes: 100,
        max_fanin: 5,
        max_cubes: 4,
        ..RandomNetOptions::default()
    };
    v.extend((0..FRESH as u64).map(|i| {
        let name = format!("fresh_s{seed}_{i}");
        let net = random_network(&name, seed.wrapping_mul(7919).wrapping_add(i), &opts);
        (name, net)
    }));
    v
}

/// The request list of a pass: hot and fresh alternate, so half the
/// requests repeat the hot set and half are new to the session.
fn schedule() -> Vec<usize> {
    (0..2 * FRESH)
        .map(|i| {
            if i % 2 == 0 {
                (i / 2) % HOT
            } else {
                HOT + i / 2
            }
        })
        .collect()
}

/// One pass: a fresh session, the hot set sent once (untimed), then the
/// closed loop over the request list, one client thread per hardware
/// thread, each sending its next request only after its reply. Every
/// reply must equal `reference`, the one-shot bytes of its circuit.
fn pass(circuits: &[Circuit], tracer: &Tracer, clients: usize, reference: &[String]) -> PassOut {
    let session = new_session();
    let off = Tracer::new(false);
    for (i, c) in circuits.iter().take(HOT).enumerate() {
        let at = At {
            tracer: &off,
            parent: None,
            job: 0,
        };
        // A failure here shows again in the timed loop.
        let _ = call(&session, at, &request(c, 1_000_000 + i as u64));
    }
    let order = schedule();
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<Reply, String>>>> =
        Mutex::new((0..order.len()).map(|_| None).collect());
    let t0 = Instant::now();
    let c0 = clock::process_s();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&c) = order.get(i) else {
                    break;
                };
                let at = At {
                    tracer,
                    parent: None,
                    job: i as u64 + 1,
                };
                let r = call(&session, at, &request(&circuits[c], i as u64 + 1));
                slots.lock().expect("reply slots poisoned")[i] = Some(r);
            });
        }
    });
    let mut p = PassOut {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: clock::process_s() - c0,
        jobs: order.len(),
        ..PassOut::default()
    };
    let mut seen = vec![false; circuits.len()];
    let slots = slots.into_inner().expect("reply slots poisoned");
    for (i, (slot, &c)) in slots.into_iter().zip(&order).enumerate() {
        let key = &circuits[c].name;
        match slot.unwrap_or_else(|| Err("no reply".into())) {
            Err(e) => {
                layers::bump(&mut p.tally, "serve.jobs_failed", 1.0);
                p.errors.push(format!("request {i} ({key}): {e}"));
            }
            Ok(reply) => {
                p.latencies_ms.push(reply.latency_ms);
                p.job_cpu_ms.push(reply.cpu_ms);
                p.session_ms.push(reply.session_ms);
                p.protocol_ms.push(reply.latency_ms - reply.session_ms);
                layers::add_stats(&mut p.tally, &reply.stats);
                p.digests.push((key.clone(), fnv64(reply.tnet.as_bytes())));
                if reply.tnet != reference[c] {
                    p.errors.push(format!(
                        "request {i} ({key}): reply differs from one-shot synthesis"
                    ));
                }
                if !std::mem::replace(&mut seen[c], true) {
                    p.gates += reply.gates;
                    p.levels += reply.levels;
                    p.area += reply.area;
                }
            }
        }
    }
    layers::bump(&mut p.tally, "serve.cache_entries", cache_entries(&session));
    layers::bump(&mut p.tally, "serve.jobs_failed", 0.0);
    p
}

/// One-shot synthesis of every circuit at the serve configuration (parse,
/// synthesize, verify, write, and re-verify against the source): the
/// bytes every reply must equal, in circuit order.
fn reference(args: &Args, circuits: &[Circuit], tracer: &Tracer) -> (PassOut, Vec<String>) {
    let jobs: Vec<Job> = (0..circuits.len())
        .map(|circuit| Job {
            circuit,
            label: "serve",
            config: config(),
        })
        .collect();
    one_shot_pass(args, circuits, &jobs, true, tracer, true, false)
}

/// `serve_mixed`.
pub fn serve_mixed(args: &Args) -> Run {
    let off = Tracer::new(false);
    let (setup, prewarm_s, circuits) = set_up(|| {
        let circuits = build(generate(args.seed), true);
        drop(new_session());
        circuits
    });
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The bytes every reply must equal, computed before the timed phase.
    let (checked, texts) = reference(args, &circuits, &off);
    if !checked.errors.is_empty() {
        return Run {
            setup_s: setup.cpu_s,
            setup_wall_s: setup.wall_s,
            prewarm_s,
            check_errors: checked.errors,
            ..Run::default()
        };
    }
    let untraced = report::passes(untraced_seconds(args), untraced_min(args), |_| {
        pass(&circuits, &off, clients, &texts)
    });
    let peak_rss_mb = report::peak_rss_mb();

    let traced = if args.trace {
        let on = Tracer::new(true);
        report::passes(args.seconds / 2.0, 2, |_| {
            // The traced one-shot reference contributes its parse, verify
            // and write figures only. Synthesis counts come from the
            // replies' statistics, and synthesis time from the replies'
            // `micros` (`serve.session_ms_p50`), so the one-shot
            // `synth.synthesize` spans are dropped.
            let (one, texts) = reference(args, &circuits, &on);
            let mut p = if one.errors.is_empty() {
                pass(&circuits, &on, clients, &texts)
            } else {
                PassOut {
                    errors: one.errors,
                    ..PassOut::default()
                }
            };
            for (k, v) in one.tally {
                if k.starts_with("blif.") || k.starts_with("eval.") || k.starts_with("tnet.") {
                    layers::bump(&mut p.tally, k, v);
                }
            }
            p.spans = one
                .spans
                .into_iter()
                .filter(|s| s.name != "synth.synthesize")
                .chain(on.drain())
                .collect();
            prefactor_traced(&on, &circuits, &mut p);
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
