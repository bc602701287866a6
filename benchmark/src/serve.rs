//! The serve workload: an in-process one-shard `RouteServer` under a
//! seeded request stream (static and live metric, hub and uniform
//! targets) while an updater thread feeds sparse live-weight deltas.
//! First half of the window closed loop (capacity), second half open loop
//! at a fixed rate (latency from the instant a request was due).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pathrank_obs::MetricsSnapshot;
use pathrank_serve::server::PendingRoute;
use pathrank_serve::{
    Metric, RouteReply, RouteRequest, RouteServer, ServeConfig, ServeError, ServerIndexes,
};
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::graph::{CostModel, EdgeId, Graph, VertexId};

use crate::consts::*;
use crate::env::Env;
use crate::rng::{Fnv, Rng};
use crate::stats;
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::window::Op;

#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub source: VertexId,
    pub target: VertexId,
    pub metric: Metric,
    /// Sequential `QueryEngine` cost for `Metric::Length` requests.
    pub expected: Option<f64>,
}

pub struct Prepared {
    pub server: RouteServer,
    pub pool: Vec<Request>,
    pub input_hash: u64,
    /// The live vector of the server's current generation: what the next
    /// window's checks replay the updater's log onto.
    pub weights: Vec<f64>,
}

/// The seeded request pool; the stream walks it in order and wraps.
pub fn request_pool(g: &Graph, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::stream(seed, 0x5e);
    let nv = g.vertex_count();
    let hubs: Vec<VertexId> = (0..SERVE_HUBS)
        .map(|_| VertexId(rng.below(nv) as u32))
        .collect();
    (0..n)
        .map(|_| loop {
            let source = VertexId(rng.below(nv) as u32);
            let target = if rng.unit() < SERVE_P_HUB {
                hubs[rng.below(hubs.len())]
            } else {
                VertexId(rng.below(nv) as u32)
            };
            let metric = if rng.unit() < SERVE_P_LENGTH {
                Metric::Length
            } else {
                Metric::Live
            };
            if source != target {
                break Request {
                    source,
                    target,
                    metric,
                    expected: None,
                };
            }
        })
        .collect()
}

/// Starts the server, installs the first live generation and draws the
/// request pool, each as a timed set-up stage of `env`; then fills in the
/// oracle costs (harness work, not set-up).
pub fn prepare(env: &mut Env, seed: u64) -> Prepared {
    let graph = Arc::clone(&env.graph);
    let indexes = ServerIndexes {
        ch: Some(Arc::clone(&env.ch)),
        landmarks: Some(Arc::clone(&env.landmarks)),
        cch_topology: Some(Arc::clone(
            env.cch_topology
                .as_ref()
                .expect("serve phase needs the CCH topology"),
        )),
    };
    let server = env.stages.run("setup.server_start", || {
        RouteServer::start(
            graph,
            indexes,
            ServeConfig {
                shards: 1,
                queue_capacity: SERVE_QUEUE,
                ..ServeConfig::default()
            },
        )
    });
    let base = env.live_base.clone();
    env.stages.run("setup.live_install", || {
        server
            .update_live_weights(base)
            .expect("base live weights are valid")
    });
    let mut pool = env.stages.run("setup.requests", || {
        request_pool(&env.graph, SERVE_POOL, seed)
    });

    let mut oracle = env.engine();
    let mut hash = Fnv::default();
    for r in &mut pool {
        hash.word((r.source.0 as u64) << 32 | r.target.0 as u64);
        hash.word(matches!(r.metric, Metric::Live) as u64);
        if r.metric == Metric::Length {
            r.expected = oracle.shortest_path_cost(r.source, r.target, CostModel::Length);
        }
    }
    Prepared {
        server,
        pool,
        input_hash: hash.0,
        weights: env.live_base.clone(),
    }
}

/// One finished request, with every instant the client saw.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub idx: u32,
    /// When the request was due (open loop) or about to be submitted.
    pub due_ns: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub wait_start_ns: u64,
    pub wait_end_ns: u64,
    pub reply: Result<RouteReply, ServeError>,
}

impl Done {
    pub fn op(&self) -> Op {
        Op {
            start_ns: self.due_ns,
            end_ns: self.wait_end_ns,
            failed: self.reply.is_err(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Keep this many requests outstanding.
    Closed(usize),
    /// Independent users: a Poisson stream of this many requests per
    /// second (seeded exponential gaps), whatever the server does.
    Open { rate: f64, seed: u64 },
}

pub struct Driven {
    /// In submission order.
    pub done: Vec<Done>,
    pub start_ns: u64,
    /// CPU nanoseconds of the generator and reaper threads.
    pub harness_cpu_ns: u64,
    pub queue_depth_max: i64,
}

/// Drives the server from the calling thread (generator) plus a reaper
/// thread that waits for replies in submission order. `stall` makes the
/// generator sleep once, before the given request — the self-test's way
/// to show that open-loop latency is timed from the due instant.
pub fn drive(
    server: &RouteServer,
    pool: &[Request],
    first: usize,
    pace: Pace,
    seconds: f64,
    stall: Option<(usize, Duration)>,
) -> Driven {
    let depth = server.registry().gauge(
        "pathrank_serve_queue_depth",
        "Jobs admitted to a shard queue and not yet picked up",
        &[("shard", "0")],
    );
    let outstanding = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(Done, Option<PendingRoute>)>();
    std::thread::scope(|scope| {
        let outstanding = &outstanding;
        let reaper = std::thread::Builder::new()
            .name("bench-reaper".into())
            .spawn_scoped(scope, move || {
                let cpu0 = sys::thread_cpu_ns();
                let mut done = Vec::new();
                for (mut d, pending) in rx {
                    if let Some(p) = pending {
                        d.wait_start_ns = sys::now_ns();
                        d.reply = p.wait();
                        d.wait_end_ns = sys::now_ns();
                        outstanding.fetch_sub(1, Ordering::SeqCst);
                    }
                    done.push(d);
                }
                (done, sys::thread_cpu_ns() - cpu0)
            })
            .expect("spawn reaper");

        let cpu0 = sys::thread_cpu_ns();
        let start_ns = sys::now_ns();
        let deadline = start_ns + (seconds * 1e9) as u64;
        let mut queue_depth_max = 0;
        let mut sent = 0usize;
        let mut arrivals = match pace {
            Pace::Open { seed, .. } => Rng::stream(seed, 0xa2),
            Pace::Closed(_) => Rng::stream(0, 0),
        };
        let mut next_due = start_ns;
        loop {
            let now = sys::now_ns();
            if now >= deadline {
                break;
            }
            let due_ns = match pace {
                Pace::Closed(window) => {
                    if outstanding.load(Ordering::SeqCst) >= window {
                        std::thread::yield_now();
                        continue;
                    }
                    now
                }
                Pace::Open { rate, .. } => {
                    if next_due > now {
                        std::thread::yield_now();
                        continue;
                    }
                    let due = next_due;
                    // Exponential gap with mean 1 / rate.
                    next_due += (-(1.0 - arrivals.unit()).ln() * 1e9 / rate) as u64;
                    due
                }
            };
            if let Some((_, pause)) = stall.filter(|&(at, _)| at == sent) {
                std::thread::sleep(pause);
            }
            let idx = (first + sent) % pool.len();
            let r = &pool[idx];
            let submit_start_ns = sys::now_ns();
            let submitted = server.submit(RouteRequest {
                source: r.source,
                target: r.target,
                metric: r.metric,
                deadline: None,
            });
            let submit_end_ns = sys::now_ns();
            queue_depth_max = queue_depth_max.max(depth.value());
            let mut d = Done {
                idx: idx as u32,
                due_ns,
                submit_start_ns,
                submit_end_ns,
                wait_start_ns: submit_end_ns,
                wait_end_ns: submit_end_ns,
                reply: Err(ServeError::Shutdown),
            };
            let pending = match submitted {
                Ok(p) => {
                    outstanding.fetch_add(1, Ordering::SeqCst);
                    Some(p)
                }
                Err(e) => {
                    d.reply = Err(e);
                    None
                }
            };
            tx.send((d, pending))
                .expect("reaper outlives the generator");
            sent += 1;
        }
        drop(tx);
        let generator_cpu = sys::thread_cpu_ns() - cpu0;
        let (done, reaper_cpu) = reaper.join().expect("reaper panicked");
        Driven {
            done,
            start_ns,
            harness_cpu_ns: generator_cpu + reaper_cpu,
            queue_depth_max,
        }
    })
}

/// One live-weight update the updater thread made.
#[derive(Debug, Clone)]
pub struct Update {
    pub generation: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub changes: Vec<(EdgeId, f64)>,
}

/// Every `UPDATE_EVERY_MS`, re-draws `UPDATE_EDGE_SHARE` of the edges at
/// 1–`CONGESTION_MAX` times their free-flow weight, until `stop`.
pub fn updater(server: &RouteServer, base: &[f64], seed: u64, stop: &AtomicBool) -> Vec<Update> {
    let mut rng = Rng::stream(seed, 0x0d);
    let per_update = ((base.len() as f64 * UPDATE_EDGE_SHARE) as usize).max(1);
    let mut log = Vec::new();
    let mut next = sys::now_ns() + UPDATE_EVERY_MS * 1_000_000;
    while !stop.load(Ordering::SeqCst) {
        let now = sys::now_ns();
        if now < next {
            std::thread::sleep(Duration::from_nanos((next - now).min(5_000_000)));
            continue;
        }
        next += UPDATE_EVERY_MS * 1_000_000;
        let changes: Vec<(EdgeId, f64)> = (0..per_update)
            .map(|_| {
                let e = rng.below(base.len());
                (
                    EdgeId(e as u32),
                    base[e] * (1.0 + rng.unit() * (CONGESTION_MAX - 1.0)),
                )
            })
            .collect();
        let start_ns = sys::now_ns();
        let generation = server
            .update_live_weights_sparse(&changes)
            .expect("a full vector is installed and the delta is valid");
        log.push(Update {
            generation,
            start_ns,
            end_ns: sys::now_ns(),
            changes,
        });
    }
    log
}

pub struct Outcome {
    pub closed: Driven,
    pub open: Driven,
    pub updates: Vec<Update>,
    /// Server registry deltas over each half.
    pub closed_metrics: MetricsSnapshot,
    pub open_metrics: MetricsSnapshot,
    /// Process CPU nanoseconds over both halves, generator and reaper
    /// left out: the server's threads (worker and updater).
    pub cpu_ns: u64,
    /// `VmHWM` when the second half ended, before the replies are checked.
    pub peak_rss_mib: f64,
    pub spans: Vec<Span>,
    pub output_hash: u64,
    pub error: Option<String>,
}

impl Outcome {
    pub fn all_done(&self) -> impl Iterator<Item = &Done> {
        self.closed.done.iter().chain(&self.open.done)
    }
}

/// Runs both halves with the updater alongside, then checks every reply.
pub fn run(
    env: &Env,
    prepared: &mut Prepared,
    seed: u64,
    seconds: f64,
    traced: bool,
    lane: u32,
) -> Outcome {
    let server = &prepared.server;
    let pool = &prepared.pool;
    let first_generation = server.live_generation();
    let stop = AtomicBool::new(false);

    // Warm the worker's search state before anything is timed.
    drive(server, pool, 0, Pace::Closed(SERVE_OUTSTANDING), 0.1, None);

    let cpu0 = sys::process_cpu_ns();
    let before = server.metrics_snapshot();
    let (closed, mid, open, updates) = std::thread::scope(|scope| {
        let stop = &stop;
        let up = std::thread::Builder::new()
            .name("bench-updater".into())
            .spawn_scoped(scope, move || updater(server, &env.live_base, seed, stop))
            .expect("spawn updater");
        let closed = drive(
            server,
            pool,
            0,
            Pace::Closed(SERVE_OUTSTANDING),
            seconds / 2.0,
            None,
        );
        let mid = server.metrics_snapshot();
        let open = drive(
            server,
            pool,
            closed.done.len(),
            Pace::Open {
                rate: RATE_RPS,
                seed,
            },
            seconds / 2.0,
            None,
        );
        stop.store(true, Ordering::SeqCst);
        (closed, mid, open, up.join().expect("updater panicked"))
    });
    let peak_rss_mib = sys::peak_rss_mib();
    let after = server.metrics_snapshot();
    let cpu_ns =
        (sys::process_cpu_ns() - cpu0).saturating_sub(closed.harness_cpu_ns + open.harness_cpu_ns);

    let mut out = Outcome {
        closed_metrics: mid.delta_since(&before),
        open_metrics: after.delta_since(&mid),
        closed,
        open,
        updates,
        cpu_ns,
        peak_rss_mib,
        spans: Vec::new(),
        output_hash: 0,
        error: None,
    };
    out.error = verify(env, pool, &prepared.weights, first_generation, &out).err();
    for u in &out.updates {
        for &(e, w) in &u.changes {
            prepared.weights[e.index()] = w;
        }
    }
    match output_hash(pool, &out.closed.done) {
        Some(h) => out.output_hash = h,
        None => {
            out.error.get_or_insert(format!(
                "the closed-loop half answered fewer than {SERVE_HASH_REQUESTS} requests"
            ));
        }
    }
    if traced {
        out.spans = spans_of(&out, lane);
    }
    out
}

/// Fingerprint of the `length` replies among the first
/// `SERVE_HASH_REQUESTS` requests: pool index and the sequential engine's
/// cost each reply was checked against (a coalesced reply may differ from
/// it in the last bits, and which replies coalesce depends on timing).
/// `None` when fewer requests were answered.
fn output_hash(pool: &[Request], done: &[Done]) -> Option<u64> {
    let first = done.get(..SERVE_HASH_REQUESTS.min(pool.len()))?;
    let mut h = Fnv::default();
    for d in first {
        let r = &pool[d.idx as usize];
        if r.metric == Metric::Length {
            d.reply.ok()?;
            h.word(d.idx as u64);
            h.word(r.expected.map_or(0, f64::to_bits));
        }
    }
    Some(h.0)
}

/// How many leading requests of each half get their spans written out (a
/// full window is ~10⁶ spans; every number is computed from all of them).
const SPAN_REQUESTS_PER_HALF: usize = 20_000;

/// Spans from the instants the client records anyway: `op` from due to
/// reply with `serve.submit` and `serve.wait` inside, `serve.update` per
/// updater call.
fn spans_of(out: &Outcome, lane: u32) -> Vec<Span> {
    let mut tr = Tracer::new(true, lane);
    for half in [&out.closed, &out.open] {
        for (i, d) in half.done.iter().take(SPAN_REQUESTS_PER_HALF).enumerate() {
            let request = (half.start_ns / 1_000_000) << 24 | i as u64;
            let op = tr.record("op", request, 0, d.due_ns, d.wait_end_ns);
            tr.record(
                "serve.submit",
                request,
                op,
                d.submit_start_ns,
                d.submit_end_ns,
            );
            tr.record("serve.wait", request, op, d.wait_start_ns, d.wait_end_ns);
        }
    }
    for u in &out.updates {
        tr.record("serve.update", u.generation, 0, u.start_ns, u.end_ns);
    }
    tr.into_spans()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks one static-metric reply against the sequential engine's cost:
/// bitwise when served individually, to 1e-9 relative out of a coalesced
/// many-to-many fill (the documented float caveat).
pub fn check_length_reply(expected: Option<f64>, reply: &RouteReply) -> Result<(), String> {
    let same = match (expected, reply.cost) {
        (None, None) => true,
        (Some(e), Some(c)) if reply.batched => close(e, c),
        (Some(e), Some(c)) => e.to_bits() == c.to_bits(),
        _ => false,
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "reply {:?} (batched {}) but the sequential engine says {:?}",
            reply.cost, reply.batched, expected
        ))
    }
}

/// Every static reply equals the oracle, live generations never decrease,
/// sampled live replies equal a fresh Dijkstra under their generation's
/// weights, and client and server counts reconcile.
pub fn verify(
    env: &Env,
    pool: &[Request],
    first_weights: &[f64],
    first_generation: u64,
    out: &Outcome,
) -> Result<(), String> {
    let mut live: Vec<&Done> = Vec::new();
    for half in [&out.closed, &out.open] {
        let mut generation = 0;
        for d in &half.done {
            let Ok(reply) = &d.reply else { continue };
            let r = &pool[d.idx as usize];
            match r.metric {
                Metric::Length => check_length_reply(r.expected, reply)
                    .map_err(|e| format!("{}->{}: {e}", r.source.0, r.target.0))?,
                _ => {
                    if reply.weights_generation < generation {
                        return Err(format!(
                            "live generation went back from {generation} to {}",
                            reply.weights_generation
                        ));
                    }
                    generation = reply.weights_generation;
                    live.push(d);
                }
            }
        }
    }

    // Replay the updater's log up to each sampled reply's generation.
    let step = (live.len() / LIVE_VERIFY_SAMPLES).max(1);
    let mut samples: Vec<&Done> = live.into_iter().step_by(step).collect();
    samples.sort_by_key(|d| d.reply.map_or(0, |r| r.weights_generation));
    let mut weights = first_weights.to_vec();
    let mut applied = first_generation;
    let mut log = out.updates.iter().peekable();
    let mut dijkstra = QueryEngine::new(&env.graph);
    for d in samples {
        let reply = d.reply.expect("only answered requests are sampled");
        while let Some(u) = log
            .peek()
            .filter(|u| u.generation <= reply.weights_generation)
        {
            if u.generation != applied + 1 {
                return Err(format!(
                    "update log skips from {applied} to {}",
                    u.generation
                ));
            }
            for &(e, w) in &u.changes {
                weights[e.index()] = w;
            }
            applied = u.generation;
            log.next();
        }
        if applied != reply.weights_generation {
            return Err(format!(
                "reply carries generation {} but the log ends at {applied}",
                reply.weights_generation
            ));
        }
        let r = &pool[d.idx as usize];
        let want = dijkstra.shortest_path_cost(r.source, r.target, CostModel::Custom(&weights));
        let same = match (want, reply.cost) {
            (None, None) => true,
            (Some(a), Some(b)) => close(a, b),
            _ => false,
        };
        if !same {
            return Err(format!(
                "live {}->{} at generation {}: served {:?}, Dijkstra {:?}",
                r.source.0, r.target.0, reply.weights_generation, reply.cost, want
            ));
        }
    }

    for (half, metrics) in [
        (&out.closed, &out.closed_metrics),
        (&out.open, &out.open_metrics),
    ] {
        let answered = half.done.iter().filter(|d| d.reply.is_ok()).count() as u64;
        let served = metrics.counter_total("pathrank_serve_served_total", &[]);
        if answered != served {
            return Err(format!(
                "client saw {answered} answers, server counted {served}"
            ));
        }
    }
    Ok(())
}

/// Median microseconds of `n` requests over one loopback TCP connection,
/// and of the same requests through `route()`.
pub fn tcp_probe(server: &RouteServer, pool: &[Request], n: usize) -> std::io::Result<(f64, f64)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let requests: Vec<&Request> = pool
        .iter()
        .filter(|r| r.metric == Metric::Length)
        .take(n)
        .collect();
    // Connecting before anyone accepts cannot block (the listener's
    // backlog holds it) and means the acceptor below cannot wait forever.
    let stream = TcpStream::connect(addr)?;
    std::thread::scope(|scope| {
        let acceptor = scope.spawn(move || {
            let (stream, _) = listener.accept()?;
            pathrank_serve::tcp::serve_connection(stream, server)
        });
        let tcp = (|| -> std::io::Result<Vec<f64>> {
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let mut us = Vec::with_capacity(requests.len());
            for r in &requests {
                let t0 = sys::now_ns();
                writeln!(writer, "ROUTE {} {} length", r.source.0, r.target.0)?;
                line.clear();
                reader.read_line(&mut line)?;
                us.push((sys::now_ns() - t0) as f64 / 1e3);
                if !line.starts_with("OK ") {
                    return Err(std::io::Error::other(format!("server said {line:?}")));
                }
            }
            Ok(us)
        })();
        // The client's stream is closed by now, which ends the connection.
        let served = acceptor.join().expect("tcp acceptor panicked");
        let mut tcp = tcp?;
        served?;
        let mut direct: Vec<f64> = requests
            .iter()
            .map(|r| {
                let t0 = sys::now_ns();
                let reply = server.route(RouteRequest {
                    source: r.source,
                    target: r.target,
                    metric: r.metric,
                    deadline: None,
                });
                std::hint::black_box(reply.ok());
                (sys::now_ns() - t0) as f64 / 1e3
            })
            .collect();
        Ok((stats::median(&mut tcp), stats::median(&mut direct)))
    })
}

/// `(quiet, overlapping)`: live requests of `done` split by whether an
/// update call was in flight at any time between their due instant and
/// their reply.
pub fn split_by_update_overlap<'a>(
    done: &'a [Done],
    pool: &[Request],
    updates: &[Update],
) -> (Vec<&'a Done>, Vec<&'a Done>) {
    let mut intervals: VecDeque<(u64, u64)> =
        updates.iter().map(|u| (u.start_ns, u.end_ns)).collect();
    let (mut quiet, mut overlap) = (Vec::new(), Vec::new());
    for d in done {
        if pool[d.idx as usize].metric != Metric::Live || d.reply.is_err() {
            continue;
        }
        while intervals.front().is_some_and(|&(_, end)| end < d.due_ns) {
            intervals.pop_front();
        }
        let hit = intervals
            .iter()
            .take_while(|&&(start, _)| start <= d.wait_end_ns)
            .any(|&(start, end)| start <= d.wait_end_ns && end >= d.due_ns);
        if hit {
            overlap.push(d);
        } else {
            quiet.push(d);
        }
    }
    (quiet, overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Spec;
    use pathrank_spatial::algo::engine::SearchBackend;

    fn prepared() -> (Env, Prepared) {
        let mut env = Env::build(
            Spec {
                mult: 1,
                fleet: None,
                pretrain: false,
                queries: 0,
                live: true,
            },
            3,
        );
        let p = prepare(&mut env, 3);
        (env, p)
    }

    fn reply(cost: Option<f64>, batched: bool) -> RouteReply {
        RouteReply {
            cost,
            backend: SearchBackend::Ch,
            batched,
            weights_generation: 0,
        }
    }

    #[test]
    fn corrupted_replies_fail_the_check() {
        let e = Some(1234.5);
        assert!(check_length_reply(e, &reply(e, false)).is_ok());
        let ulp = f64::from_bits(1234.5f64.to_bits() + 1);
        assert!(check_length_reply(e, &reply(Some(ulp), false)).is_err());
        assert!(check_length_reply(e, &reply(Some(ulp), true)).is_ok());
        assert!(check_length_reply(e, &reply(Some(1234.6), true)).is_err());
        assert!(check_length_reply(e, &reply(None, false)).is_err());
        assert!(check_length_reply(None, &reply(None, true)).is_ok());
    }

    #[test]
    fn request_pool_is_a_function_of_the_seed() {
        let (env, p) = prepared();
        let again = request_pool(&env.graph, 64, 3);
        let other = request_pool(&env.graph, 64, 4);
        let key = |r: &Request| (r.source, r.target, r.metric == Metric::Live);
        assert!(again.iter().zip(&p.pool).all(|(a, b)| key(a) == key(b)));
        assert!(again.iter().zip(&other).any(|(a, b)| key(a) != key(b)));
        assert!(p.pool.iter().any(|r| r.metric == Metric::Live));
        assert!(p
            .pool
            .iter()
            .all(|r| (r.metric == Metric::Length) == r.expected.is_some()));
    }

    #[test]
    fn a_window_verifies_and_a_tampered_one_does_not() {
        let (env, mut p) = prepared();
        let first = p.weights.clone();
        let mut out = run(&env, &mut p, 3, 1.2, true, 2);
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(
            Some(out.output_hash),
            output_hash(&p.pool, &out.closed.done[..SERVE_HASH_REQUESTS]),
            "the hash does not depend on how much the window answered"
        );
        assert_eq!(output_hash(&p.pool, &out.closed.done[..100]), None);
        assert!(!out.updates.is_empty());
        assert!(out.closed.done.len() > SERVE_OUTSTANDING);
        assert!(out.spans.iter().any(|s| s.name == "serve.update"));
        assert!(out.spans.iter().any(|s| s.name == "serve.wait"));

        assert!(verify(&env, &p.pool, &first, 1, &out).is_ok());
        assert_ne!(first, p.weights, "the window's updates are folded in");

        let victim = out
            .closed
            .done
            .iter_mut()
            .find(|d| p.pool[d.idx as usize].metric == Metric::Length && d.reply.is_ok())
            .unwrap();
        let mut r = victim.reply.unwrap();
        r.cost = r.cost.map(|c| c * 1.01);
        victim.reply = Ok(r);
        assert!(verify(&env, &p.pool, &first, 1, &out).is_err());
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_instant() {
        let (_env, p) = prepared();
        let rate = 2_000.0;
        let pace = Pace::Open { rate, seed: 9 };
        let calm = drive(&p.server, &p.pool, 0, pace, 0.4, None);
        let stalled = drive(
            &p.server,
            &p.pool,
            0,
            pace,
            0.4,
            Some((100, Duration::from_millis(60))),
        );
        let worst = |d: &Driven| {
            d.done
                .iter()
                .map(|d| d.wait_end_ns - d.due_ns)
                .max()
                .unwrap()
        };
        let late = |d: &Driven| {
            d.done
                .iter()
                .map(|d| d.submit_start_ns - d.due_ns)
                .max()
                .unwrap()
        };
        assert!(late(&stalled) >= 55_000_000, "stall shows as lateness");
        assert!(
            worst(&stalled) >= 55_000_000,
            "and in latency from due time"
        );
        assert!(worst(&calm) < 40_000_000);
        // The generator catches up: every due request was still sent.
        assert!(stalled.done.len() as f64 >= 0.8 * rate * 0.4);
        // Same seed, same arrival process.
        let gaps = |d: &Driven| -> Vec<u64> {
            d.done
                .windows(2)
                .take(50)
                .map(|w| w[1].due_ns - w[0].due_ns)
                .collect()
        };
        assert_eq!(gaps(&calm), gaps(&stalled));
    }

    #[test]
    fn overlap_split_uses_the_request_interval() {
        let (_env, p) = prepared();
        let live = p
            .pool
            .iter()
            .position(|r| r.metric == Metric::Live)
            .unwrap() as u32;
        let d = |due, end| Done {
            idx: live,
            due_ns: due,
            submit_start_ns: due,
            submit_end_ns: due,
            wait_start_ns: due,
            wait_end_ns: end,
            reply: Ok(reply(Some(1.0), false)),
        };
        let done = [d(0, 10), d(20, 35), d(50, 60), d(90, 95)];
        let updates = [Update {
            generation: 2,
            start_ns: 30,
            end_ns: 55,
            changes: Vec::new(),
        }];
        let (quiet, overlap) = split_by_update_overlap(&done, &p.pool, &updates);
        assert_eq!(quiet.len(), 2);
        assert_eq!(overlap.len(), 2);
        assert_eq!(overlap[0].due_ns, 20);
        assert_eq!(overlap[1].due_ns, 50);
    }
}
