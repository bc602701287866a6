//! Integration tests for the route server: batched exactness, the
//! degradation ladder, deadline/overload shedding, atomic live-weight
//! swaps and the TCP protocol.
//!
//! All bit-identity assertions run on the integer-weight fixture city,
//! where bucket m2m sums are exact in any association (see
//! `pathrank_serve::fixture`); the float-weight test uses a relative
//! tolerance instead.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pathrank_serve::fixture::{hub_pairs, integer_city, integer_live_weights};
use pathrank_serve::{
    Metric, RouteReply, RouteRequest, RouteServer, ServeConfig, ServeError, ServerIndexes,
};
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank_spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank_spatial::builder::GraphBuilder;
use pathrank_spatial::geometry::Point;
use pathrank_spatial::graph::{CostModel, EdgeAttrs, EdgeId, RoadCategory, VertexId};

fn length_request(s: VertexId, t: VertexId) -> RouteRequest {
    RouteRequest {
        source: s,
        target: t,
        metric: Metric::Length,
        deadline: None,
    }
}

/// Submits every request before waiting on any reply: with one shard
/// and a generous straggler window this coalesces the burst into m2m
/// batches.
fn burst_route(server: &RouteServer, reqs: &[RouteRequest]) -> Vec<Result<RouteReply, ServeError>> {
    let pending: Vec<_> = reqs.iter().map(|r| server.submit(*r)).collect();
    pending
        .into_iter()
        .map(|p| match p {
            Ok(p) => p.wait(),
            Err(e) => Err(e),
        })
        .collect()
}

#[test]
fn serve_batched_replies_are_bit_identical_to_sequential() {
    let graph = Arc::new(integer_city(10));
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    // Two hub targets: every batch of `min_batch_for_m2m` or more then
    // passes the coalescing-win test (`S + T + 2 <= 2B` holds for any
    // B >= 4 when T <= 2), however the burst fragments.
    let pairs = hub_pairs(&graph, 160, 2, 0xfeed);

    let mut engine = QueryEngine::new(&graph);
    engine.set_ch(Some(Arc::clone(&ch)));
    let expected: Vec<Option<f64>> = pairs
        .iter()
        .map(|&(s, t)| engine.shortest_path_cost(s, t, CostModel::Length))
        .collect();

    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            batch_window: Duration::from_millis(100),
            max_batch: pairs.len(),
            // Always-wait straggler window (`0`): if the worker keeps
            // pace with the submitting thread, every drain comes up
            // empty and the load-signal gate would rightly dispatch the
            // trickle solo — this test *wants* the burst to accumulate
            // into one m2m batch, whatever the scheduling.
            straggler_min_queued: 0,
            ..ServeConfig::default()
        },
    );
    let reqs: Vec<_> = pairs.iter().map(|&(s, t)| length_request(s, t)).collect();
    let replies = burst_route(&server, &reqs);

    for ((reply, want), &(s, t)) in replies.iter().zip(&expected).zip(&pairs) {
        let reply = reply.expect("no deadlines, deep queue: everything serves");
        assert_eq!(reply.backend, SearchBackend::Ch);
        assert_eq!(
            reply.cost.map(f64::to_bits),
            want.map(f64::to_bits),
            "batched answer for {}->{} diverged from the sequential engine",
            s.0,
            t.0
        );
    }
    let stats = server.stats();
    assert_eq!(stats.served, pairs.len() as u64);
    assert!(
        stats.batched >= (pairs.len() / 2) as u64,
        "the burst must actually exercise the m2m path, got {} batched of {}",
        stats.batched,
        stats.served
    );
    server.shutdown();
}

#[test]
fn serve_float_graph_batched_matches_within_tolerance() {
    // Fractional lengths: bucket sums may differ from the sequential
    // fold in the last ulp, so this asserts closeness, not bits.
    let mut b = GraphBuilder::new();
    let side = 8usize;
    for i in 0..side {
        for j in 0..side {
            b.add_vertex(Point::new(i as f64 * 97.0, j as f64 * 97.0));
        }
    }
    let id = |i: usize, j: usize| VertexId((i * side + j) as u32);
    for i in 0..side {
        for j in 0..side {
            let len = 90.0 + ((i * 31 + j * 17) % 50) as f64 * 1.37;
            if i + 1 < side {
                b.add_bidirectional(
                    id(i, j),
                    id(i + 1, j),
                    EdgeAttrs::with_default_speed(len, RoadCategory::Residential),
                )
                .unwrap();
            }
            if j + 1 < side {
                b.add_bidirectional(
                    id(i, j),
                    id(i, j + 1),
                    EdgeAttrs::with_default_speed(len + 0.73, RoadCategory::Arterial),
                )
                .unwrap();
            }
        }
    }
    let graph = Arc::new(b.build());
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let pairs = hub_pairs(&graph, 96, 5, 0x0f10a7);

    let mut engine = QueryEngine::new(&graph);
    engine.set_ch(Some(Arc::clone(&ch)));
    let expected: Vec<Option<f64>> = pairs
        .iter()
        .map(|&(s, t)| engine.shortest_path_cost(s, t, CostModel::Length))
        .collect();

    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            batch_window: Duration::from_millis(100),
            max_batch: pairs.len(),
            ..ServeConfig::default()
        },
    );
    let reqs: Vec<_> = pairs.iter().map(|&(s, t)| length_request(s, t)).collect();
    for (reply, want) in burst_route(&server, &reqs).iter().zip(&expected) {
        let got = reply.expect("serves").cost;
        match (got, want) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "batched {g} vs sequential {w}"
                );
            }
            other => panic!("reachability disagrees: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn serve_live_weight_swaps_are_atomic_and_bit_exact() {
    let graph = Arc::new(integer_city(8));
    let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
    const GENS: u64 = 6;

    // Generations interleave full installs (odd) with sparse deltas
    // patched on top of the previous vector (even) — the torn-weights
    // claim must hold across both update paths racing the readers.
    // Sequential ground truth per generation, computed up front from
    // the evolving weight vector.
    let pairs = hub_pairs(&graph, 24, 4, 0x5a5a);
    let weights_for = |gen: u64| integer_live_weights(&graph, 0xcafe + gen);
    let sparse_delta = |gen: u64| -> Vec<(EdgeId, f64)> {
        let fresh = integer_live_weights(&graph, 0xd00d + gen);
        (0..graph.edge_count())
            .step_by(7)
            .map(|i| (EdgeId(i as u32), fresh[i]))
            .collect()
    };
    let mut current = weights_for(1);
    let mut vectors: HashMap<u64, Vec<f64>> = HashMap::new();
    vectors.insert(1, current.clone());
    for gen in 2..=GENS {
        if gen % 2 == 0 {
            for &(e, w) in &sparse_delta(gen) {
                current[e.index()] = w;
            }
        } else {
            current = weights_for(gen);
        }
        vectors.insert(gen, current.clone());
    }
    let mut expected: HashMap<u64, Vec<Option<f64>>> = HashMap::new();
    for gen in 1..=GENS {
        let w = &vectors[&gen];
        let cch = Arc::new(topo.customize_weights(&graph, w));
        let mut engine = QueryEngine::new(&graph);
        engine.set_cch(Some(cch));
        let costs = pairs
            .iter()
            .map(|&(s, t)| engine.shortest_path_cost(s, t, CostModel::Custom(w)))
            .collect();
        expected.insert(gen, costs);
    }

    let server = Arc::new(RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            cch_topology: Some(Arc::clone(&topo)),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    ));
    assert_eq!(server.update_live_weights(weights_for(1)), Ok(1));

    // Clients hammer Live queries while the main thread keeps swapping
    // generations underneath them.
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));
    let mut observed: HashSet<u64> = HashSet::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..2 {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            let pairs = &pairs;
            let expected = &expected;
            handles.push(scope.spawn(move || {
                start.wait();
                let mut seen = HashSet::new();
                let mut i = client;
                while !stop.load(Ordering::Relaxed) {
                    let (s, t) = pairs[i % pairs.len()];
                    let reply = server
                        .route(RouteRequest {
                            source: s,
                            target: t,
                            metric: Metric::Live,
                            deadline: None,
                        })
                        .expect("live weights installed");
                    let gen = reply.weights_generation;
                    assert!(
                        (1..=GENS).contains(&gen),
                        "reply from unknown generation {gen}"
                    );
                    // The atomicity claim: whatever generation answered,
                    // the cost is bit-identical to that generation's
                    // sequential answer — never a torn mix.
                    assert_eq!(
                        reply.cost.map(f64::to_bits),
                        expected[&gen][i % pairs.len()].map(f64::to_bits),
                        "cost does not match generation {gen} for pair {}->{}",
                        s.0,
                        t.0
                    );
                    seen.insert(gen);
                    i += 1;
                }
                seen
            }));
        }
        start.wait();
        for gen in 2..=GENS {
            std::thread::sleep(Duration::from_millis(15));
            if gen % 2 == 0 {
                assert_eq!(
                    server.update_live_weights_sparse(&sparse_delta(gen)),
                    Ok(gen)
                );
            } else {
                assert_eq!(server.update_live_weights(vectors[&gen].clone()), Ok(gen));
            }
        }
        std::thread::sleep(Duration::from_millis(15));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            observed.extend(h.join().expect("client"));
        }
    });
    assert!(
        observed.len() >= 2,
        "clients should observe multiple generations, saw {observed:?}"
    );
    assert_eq!(server.live_generation(), GENS);
}

#[test]
fn serve_deadlines_shed_instead_of_serving_late() {
    let graph = Arc::new(integer_city(6));
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            // A long window the worker will sit out (min_batch is
            // unreachable), guaranteeing the tight deadline below
            // expires while its batch forms. `straggler_min_queued: 0`
            // opts back into the unconditional window so a solo request
            // opens it.
            batch_window: Duration::from_millis(400),
            min_batch_for_m2m: usize::MAX,
            straggler_min_queued: 0,
            ..ServeConfig::default()
        },
    );

    // Already-expired deadlines shed at admission, before queueing.
    let pre_expired = server.submit(RouteRequest {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..length_request(VertexId(0), VertexId(35))
    });
    assert!(matches!(pre_expired, Err(ServeError::DeadlineExpired)));

    // A patient request opens the 400ms window (the sleep hands the
    // core to the worker so it does); a 20ms-deadline request joining
    // that window must be shed when processing starts at window end.
    let patient = server
        .submit(length_request(VertexId(0), VertexId(35)))
        .expect("queue empty");
    std::thread::sleep(Duration::from_millis(50));
    let hurried = server
        .submit(RouteRequest {
            deadline: Some(Instant::now() + Duration::from_millis(20)),
            ..length_request(VertexId(1), VertexId(30))
        })
        .expect("queue has room");

    assert!(patient
        .wait()
        .expect("no deadline: must serve")
        .cost
        .is_some());
    assert_eq!(hurried.wait(), Err(ServeError::DeadlineExpired));
    let stats = server.stats();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.shed_deadline, 2);
    server.shutdown();
}

#[test]
fn serve_solo_requests_skip_the_straggler_window() {
    // The low-concurrency regression fix: a synchronous client on an
    // otherwise idle shard must not pay the straggler window per
    // request. With a deliberately huge window (400ms) and the default
    // straggler gate, ten sequential round trips must complete in a
    // fraction of a single window — the drain finds nothing queued, so
    // the window never opens.
    let graph = Arc::new(integer_city(6));
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            batch_window: Duration::from_millis(400),
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    for i in 0..10u32 {
        let reply = server
            .route(length_request(VertexId(i % 36), VertexId((i + 18) % 36)))
            .expect("idle shard must serve");
        assert!(!reply.batched, "a solo request has nothing to batch with");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "10 solo round trips took {elapsed:?}: the straggler window \
         must stay shut on an idle shard"
    );
    server.shutdown();
}

#[test]
fn serve_full_queues_shed_at_admission() {
    // No indexes: every query is a full plain Dijkstra over 1600
    // vertices (hundreds of microseconds), while a submission costs a
    // try_send (microseconds). The worker absorbs at most 8 jobs per
    // batch and cannot drain while processing one, so a 200-deep burst
    // against a depth-8 queue must overflow on any scheduler.
    let graph = Arc::new(integer_city(40));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes::default(),
        ServeConfig {
            shards: 1,
            queue_capacity: 8,
            min_batch_for_m2m: usize::MAX,
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let reqs: Vec<_> = (0..200)
        .map(|i| length_request(VertexId(i % 1600), VertexId((i + 800) % 1600)))
        .filter(|r| r.source != r.target)
        .collect();
    let results = burst_route(&server, &reqs);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let full = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::QueueFull)))
        .count();
    assert!(ok >= 1, "the absorbed prefix must still be served");
    assert!(full >= 1, "a 200-burst against depth 8 must overflow");
    assert_eq!(ok + full, results.len(), "no other failure mode expected");
    assert_eq!(server.stats().shed_queue_full, full as u64);
    server.shutdown();
}

#[test]
fn serve_degradation_ladder_falls_back_and_bottoms_out() {
    let graph = Arc::new(integer_city(6));
    let s = VertexId(3);
    let t = VertexId(32);
    let mut engine = QueryEngine::new(&graph);
    let plain = engine.shortest_path_cost(s, t, CostModel::Length);

    // No CH: the ladder lands on ALT, same cost.
    let landmarks = Arc::new(LandmarkTable::build(
        &graph,
        LandmarkMetric::Length,
        &LandmarkConfig::default(),
    ));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            landmarks: Some(landmarks),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let reply = server.route(length_request(s, t)).expect("alt serves");
    assert_eq!(reply.backend, SearchBackend::Alt);
    assert_eq!(reply.cost.map(f64::to_bits), plain.map(f64::to_bits));
    // Live has no backend at all without a CCH topology.
    assert_eq!(
        server.route(RouteRequest {
            metric: Metric::Live,
            ..length_request(s, t)
        }),
        Err(ServeError::NoBackend)
    );
    assert_eq!(server.stats().no_backend, 1);
    server.shutdown();

    // No indexes at all: the ladder bottoms out on plain Dijkstra.
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes::default(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let reply = server.route(length_request(s, t)).expect("plain serves");
    assert_eq!(reply.backend, SearchBackend::Plain);
    assert_eq!(reply.cost.map(f64::to_bits), plain.map(f64::to_bits));
    server.shutdown();
}

#[test]
fn serve_rejects_invalid_live_weights() {
    let graph = Arc::new(integer_city(5));
    let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            cch_topology: Some(topo),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let m = graph.edge_count();
    assert_eq!(
        server.update_live_weights(vec![1.0; m - 1]),
        Err(ServeError::InvalidWeights)
    );
    let mut poisoned = vec![1.0; m];
    poisoned[m / 2] = f64::NAN;
    assert_eq!(
        server.update_live_weights(poisoned),
        Err(ServeError::InvalidWeights)
    );
    let mut negative = vec![1.0; m];
    negative[0] = -2.0;
    assert_eq!(
        server.update_live_weights(negative),
        Err(ServeError::InvalidWeights)
    );
    assert_eq!(server.live_generation(), 0);
    server.shutdown();
}

#[test]
fn serve_sparse_updates_answer_bit_identically_to_sequential() {
    let graph = Arc::new(integer_city(8));
    let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            cch_topology: Some(Arc::clone(&topo)),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let pairs = hub_pairs(&graph, 32, 4, 0xbead);

    // A sparse delta patches the previous generation; before any full
    // install there is nothing to patch.
    assert_eq!(
        server.update_live_weights_sparse(&[(EdgeId(0), 5.0)]),
        Err(ServeError::NoBackend)
    );

    let mut weights = integer_live_weights(&graph, 0x11);
    assert_eq!(server.update_live_weights(weights.clone()), Ok(1));

    // Invalid sparse updates are rejected without publishing.
    let out_of_range = EdgeId(graph.edge_count() as u32);
    assert_eq!(
        server.update_live_weights_sparse(&[(out_of_range, 5.0)]),
        Err(ServeError::InvalidWeights)
    );
    assert_eq!(
        server.update_live_weights_sparse(&[(EdgeId(0), f64::NAN)]),
        Err(ServeError::InvalidWeights)
    );
    assert_eq!(
        server.update_live_weights_sparse(&[(EdgeId(0), -1.0)]),
        Err(ServeError::InvalidWeights)
    );
    assert_eq!(server.live_generation(), 1);

    // Chained sparse deltas — including a duplicate-edge last-wins
    // entry — must leave the server bit-identical to a sequential
    // engine rebuilt from scratch over the same patched vector.
    for round in 0u64..4 {
        let fresh = integer_live_weights(&graph, 0x900d + round);
        let mut delta: Vec<(EdgeId, f64)> = (0..graph.edge_count())
            .step_by(11 + round as usize)
            .map(|i| (EdgeId(i as u32), fresh[i]))
            .collect();
        // EdgeId(0) already appears first; this later entry must win.
        delta.push((EdgeId(0), 77.0));
        for &(e, w) in &delta {
            weights[e.index()] = w;
        }
        let gen = server
            .update_live_weights_sparse(&delta)
            .expect("a valid delta publishes");
        assert_eq!(gen, round + 2);

        let cch = Arc::new(topo.customize_weights(&graph, &weights));
        let mut engine = QueryEngine::new(&graph);
        engine.set_cch(Some(cch));
        for &(s, t) in &pairs {
            let want = engine.shortest_path_cost(s, t, CostModel::Custom(&weights));
            let reply = server
                .route(RouteRequest {
                    source: s,
                    target: t,
                    metric: Metric::Live,
                    deadline: None,
                })
                .expect("live weights installed");
            assert_eq!(reply.weights_generation, gen);
            assert_eq!(
                reply.cost.map(f64::to_bits),
                want.map(f64::to_bits),
                "sparse-updated server diverged from sequential engine \
                 for {}->{} at generation {gen}",
                s.0,
                t.0
            );
        }
    }
    server.shutdown();
}

/// A one-shard live server over the fixture city with generation 1
/// installed, and the vector it serves.
fn live_server(side: usize) -> (RouteServer, Arc<CchTopology>, Vec<f64>) {
    let graph = Arc::new(integer_city(side));
    let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
    let server = RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            cch_topology: Some(Arc::clone(&topo)),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let weights = integer_live_weights(&graph, 0x11);
    assert_eq!(server.update_live_weights(weights.clone()), Ok(1));
    (server, topo, weights)
}

/// Patches `weights` with the `round`-th test delta and returns it.
fn next_delta(server: &RouteServer, weights: &mut [f64], round: u64) -> Vec<(EdgeId, f64)> {
    let fresh = integer_live_weights(server.graph(), 0x7e57 + round);
    let delta: Vec<(EdgeId, f64)> = (round as usize % 5..weights.len())
        .step_by(9)
        .map(|i| (EdgeId(i as u32), fresh[i]))
        .collect();
    for &(e, w) in &delta {
        weights[e.index()] = w;
    }
    delta
}

/// One live request: afterwards the (only) shard has the served
/// generation mounted and holds no older one.
fn live_request(server: &RouteServer) -> RouteReply {
    let n = server.graph().vertex_count() as u32;
    server
        .route(RouteRequest {
            source: VertexId(0),
            target: VertexId(n - 1),
            metric: Metric::Live,
            deadline: None,
        })
        .expect("live weights installed")
}

fn buffers(server: &RouteServer, source: &str) -> u64 {
    server.metrics_snapshot().counter_total(
        "pathrank_serve_snapshot_buffers_total",
        &[("source", source)],
    )
}

#[test]
fn serve_live_generations_alternate_two_buffers_and_stay_bit_exact() {
    let (server, topo, mut weights) = live_server(8);
    let graph = Arc::clone(server.graph());
    // The allocation holding each generation's weight vector.
    let mut allocation = vec![0usize; 2];
    for gen in 1..=8u64 {
        if gen == 6 {
            // A full update between sparse ones: the buffer it gets
            // back needs no levelling, the sparse one after it a whole
            // copy.
            weights = integer_live_weights(&graph, 0xf011);
            assert_eq!(server.update_live_weights(weights.clone()), Ok(gen));
        } else if gen > 1 {
            let delta = next_delta(&server, &mut weights, gen);
            assert_eq!(server.update_live_weights_sparse(&delta), Ok(gen));
        }
        let lw = server.live_weights().expect("installed");
        assert_eq!(lw.generation, gen);
        let fresh = topo.customize_weights(&graph, &weights);
        assert!(
            lw.cch.bit_identical(&fresh),
            "generation {gen} differs from a fresh customization of its vector"
        );
        let served = lw.cch.custom_weights().expect("live vector");
        allocation.push(served.as_ptr() as usize);
        drop(lw);

        let reply = live_request(&server);
        assert_eq!(reply.weights_generation, gen);
        let mut engine = QueryEngine::new(&graph).with_cch(Arc::new(fresh));
        let n = graph.vertex_count() as u32;
        let want =
            engine.shortest_path_cost(VertexId(0), VertexId(n - 1), CostModel::Custom(&weights));
        assert_eq!(reply.cost.map(f64::to_bits), want.map(f64::to_bits));
    }
    // `allocation[gen + 1]` is generation `gen`'s.
    for gen in 3..=8 {
        assert_eq!(
            allocation[gen + 1],
            allocation[gen - 1],
            "generation {gen} must be written into generation {}'s buffers",
            gen - 2
        );
    }
    assert_ne!(allocation[2], allocation[3], "two buffers, not one");
    // The install and the first delta had nothing to take back.
    assert_eq!(buffers(&server, "cloned"), 2);
    assert_eq!(buffers(&server, "recycled"), 6);
}

#[test]
fn serve_pinned_generation_is_never_written_and_costs_one_clone() {
    let (server, topo, mut weights) = live_server(8);
    let graph = Arc::clone(server.graph());
    for gen in 2..=3 {
        let delta = next_delta(&server, &mut weights, gen);
        assert_eq!(server.update_live_weights_sparse(&delta), Ok(gen));
        live_request(&server);
    }
    let pinned = server.live_weights().expect("installed");
    assert_eq!(pinned.generation, 3);
    let before = format!("{pinned:?}");
    let cloned_before = buffers(&server, "cloned");
    // Two updates on: the second one's turn to reuse generation 3.
    for gen in 4..=5 {
        let delta = next_delta(&server, &mut weights, gen);
        assert_eq!(server.update_live_weights_sparse(&delta), Ok(gen));
        live_request(&server);
    }
    assert!(
        format!("{pinned:?}") == before,
        "a held generation was written"
    );
    assert_eq!(buffers(&server, "cloned") - cloned_before, 1);
    let served = server.live_weights().expect("installed");
    assert!(served
        .cch
        .bit_identical(&topo.customize_weights(&graph, &weights)));
    // Once released, nothing is cloned again.
    drop((pinned, served));
    for gen in 6..=8 {
        let delta = next_delta(&server, &mut weights, gen);
        assert_eq!(server.update_live_weights_sparse(&delta), Ok(gen));
        live_request(&server);
    }
    assert_eq!(buffers(&server, "cloned") - cloned_before, 1);
    let served = server.live_weights().expect("installed");
    assert!(served
        .cch
        .bit_identical(&topo.customize_weights(&graph, &weights)));
}

#[test]
fn serve_tcp_update_round_trip() {
    let graph = Arc::new(integer_city(6));
    let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
    let server = Arc::new(RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            cch_topology: Some(Arc::clone(&topo)),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    ));
    let mut weights = integer_live_weights(&graph, 0x70c9);
    assert_eq!(server.update_live_weights(weights.clone()), Ok(1));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = pathrank_serve::tcp::run_listener(listener, server);
        });
    }
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // A sparse delta over the wire bumps the generation...
    weights[0] = 444.0;
    weights[7] = 555.0;
    writer.write_all(b"UPDATE 0:444,7:555\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), "OK 2");

    // ...and live routes answer on the patched vector, bit-identical
    // to a sequential engine customized from scratch.
    let cch = Arc::new(topo.customize_weights(&graph, &weights));
    let mut engine = QueryEngine::new(&graph);
    engine.set_cch(Some(cch));
    let want = engine
        .shortest_path_cost(VertexId(0), VertexId(35), CostModel::Custom(&weights))
        .expect("grid is connected");
    line.clear();
    writer.write_all(b"ROUTE 0 35 live\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), format!("OK {want} Cch 0 2"));

    // Malformed pairs are a protocol error; a real pair naming an
    // unknown edge or a negative weight is a validation error.
    line.clear();
    writer.write_all(b"UPDATE 0=444\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), "ERR BadRequest");
    // Variant errors carry the server's cumulative count for the
    // variant: first InvalidWeights is n=1, the next n=2.
    line.clear();
    writer.write_all(b"UPDATE 999999:5\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), "ERR InvalidWeights n=1");
    line.clear();
    writer.write_all(b"UPDATE 0:-3\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), "ERR InvalidWeights n=2");
    assert_eq!(server.live_generation(), 2);
}

#[test]
fn serve_tcp_round_trip() {
    let graph = Arc::new(integer_city(6));
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let mut engine = QueryEngine::new(&graph);
    engine.set_ch(Some(Arc::clone(&ch)));
    let want = engine
        .shortest_path_cost(VertexId(0), VertexId(35), CostModel::Length)
        .expect("grid is connected");

    let server = Arc::new(RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = pathrank_serve::tcp::run_listener(listener, server);
        });
    }

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writer.write_all(b"ROUTE 0 35 length\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), format!("OK {want} Ch 0 0"));

    line.clear();
    writer.write_all(b"ROUTE 0 garbage length\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), "ERR BadRequest");

    line.clear();
    writer.write_all(b"ROUTE 0 35 live\n").expect("send");
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim(), "ERR NoBackend n=1");
}

#[test]
fn serve_tcp_bad_lines_answer_bad_request_and_keep_the_connection() {
    let graph = Arc::new(integer_city(6));
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let mut engine = QueryEngine::new(&graph);
    engine.set_ch(Some(Arc::clone(&ch)));
    let want = engine
        .shortest_path_cost(VertexId(0), VertexId(35), CostModel::Length)
        .expect("grid is connected");
    let server = Arc::new(RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = pathrank_serve::tcp::run_listener(listener, server);
        });
    }
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut exchange = |request: &[u8]| {
        writer.write_all(request).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        line.trim().to_string()
    };
    let route = format!("OK {want} Ch 0 0");

    // Twice the line cap before the first newline: refused once, at
    // the newline, and the next line is read afresh.
    let mut long = vec![b'x'; 2 * pathrank_serve::tcp::MAX_LINE_BYTES];
    long.push(b'\n');
    assert_eq!(exchange(&long), "ERR BadRequest");
    assert_eq!(exchange(b"ROUTE 0 35 length\n"), route);
    // A line that is not UTF-8 is a bad request, not a hang-up.
    assert_eq!(exchange(b"ROUTE 0 \xff\xfe length\n"), "ERR BadRequest");
    assert_eq!(exchange(b"ROUTE 0 35 length\n"), route);
    // A verb is a whole token: a longer word that starts with one is
    // refused, whichever verb it extends.
    for glued in [&b"UPDATE1:2\n"[..], b"STATSjson\n", b"ROUTEX 0 1 length\n"] {
        assert_eq!(exchange(glued), "ERR BadRequest");
        assert_eq!(exchange(b"ROUTE 0 35 length\n"), route);
    }
}
