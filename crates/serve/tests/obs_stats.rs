//! Serving-layer observability: the `STATS` TCP command, per-variant
//! `ERR ... n=<count>` replies, the typed snapshot API and the obs-off
//! escape hatch. Test names carry the `obs_` prefix, so
//! `cargo test --release -- obs_` runs them alongside the exactness
//! harness.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pathrank_obs::{promtext, Registry};
use pathrank_serve::fixture::{hub_pairs, integer_city, integer_live_weights};
use pathrank_serve::{Metric, RouteRequest, RouteServer, ServeConfig, ServeError, ServerIndexes};
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::graph::EdgeId;

fn start_server(graph: Arc<pathrank_spatial::graph::Graph>) -> Arc<RouteServer> {
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        pathrank_spatial::algo::landmarks::LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let topo = Arc::new(CchTopology::build(&graph, &CchConfig::default()));
    Arc::new(RouteServer::start(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            cch_topology: Some(topo),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    ))
}

/// Reads a framed multi-line STATS reply: every line up to the `.`
/// frame terminator.
fn read_frame(reader: &mut BufReader<TcpStream>) -> String {
    let mut out = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("frame line");
        if line.trim_end() == "." {
            return out;
        }
        out.push_str(&line);
    }
}

#[test]
fn obs_serve_stats_scrape_has_nonzero_series() {
    let graph = Arc::new(integer_city(6));
    let server = start_server(Arc::clone(&graph));
    server
        .update_live_weights(integer_live_weights(&graph, 0x0b5))
        .expect("install live weights");
    server
        .update_live_weights_sparse(&[(EdgeId(0), 123.0)])
        .expect("sparse delta");
    // Traffic across two metrics so engine and serve families populate.
    for (s, t) in hub_pairs(&graph, 32, 2, 0x57a7) {
        for metric in [Metric::Length, Metric::Live] {
            server
                .route(RouteRequest {
                    source: s,
                    target: t,
                    metric,
                    deadline: None,
                })
                .expect("served");
        }
    }

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

    writer.write_all(b"STATS\n").expect("send");
    let text = read_frame(&mut reader);
    assert!(text.ends_with("# EOF\n"), "scrape not EOF-terminated");
    let samples = promtext::parse(&text).expect("well-formed exposition");
    let total = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    assert_eq!(total("pathrank_serve_served_total"), 64.0);
    assert_eq!(total("pathrank_serve_request_latency_ns_count"), 64.0);
    assert_eq!(total("pathrank_engine_queries_total"), 64.0);
    assert!(total("pathrank_serve_batch_size_count") >= 1.0);
    assert!(total("pathrank_engine_settled_nodes_total") > 0.0);
    assert_eq!(total("pathrank_serve_live_swaps_total"), 2.0);
    assert_eq!(total("pathrank_cch_customize_ns_count"), 2.0);
    assert_eq!(total("pathrank_cch_delta_edges_count"), 1.0);
    assert_eq!(total("pathrank_serve_live_generation"), 2.0);
    // Update latency decomposes into customize + publish, one each per
    // swap; the three index gauges (ch, cch_topology, cch_snapshot) are
    // all mounted here, so each reports bytes.
    assert_eq!(total("pathrank_serve_publish_ns_count"), 2.0);
    let index_bytes: Vec<f64> = samples
        .iter()
        .filter(|s| s.name == "pathrank_serve_index_bytes")
        .map(|s| s.value)
        .collect();
    assert_eq!(index_bytes.len(), 3, "ch, cch_topology, cch_snapshot");
    assert!(index_bytes.iter().all(|&b| b > 0.0), "{index_bytes:?}");

    // The JSON form carries the same families.
    writer.write_all(b"STATS json\n").expect("send");
    let json = read_frame(&mut reader);
    assert!(json.trim_start().starts_with('{'), "not a JSON object");
    assert!(json.contains("pathrank_serve_served_total"));
    assert!(json.contains("pathrank_engine_queries_total"));

    // Typed quick-look API agrees with the scrape.
    let stats = server.stats();
    assert_eq!(stats.served, 64);
    let snapshot = server.metrics_snapshot();
    assert_eq!(
        snapshot.counter_total("pathrank_serve_served_total", &[]),
        64
    );
    assert_eq!(
        snapshot
            .histogram("pathrank_serve_request_latency_ns", &[])
            .expect("latency histogram registered")
            .count,
        64
    );
}

#[test]
fn obs_serve_error_replies_carry_cumulative_counts() {
    let graph = Arc::new(integer_city(4));
    // No CCH topology: live routes and updates answer NoBackend.
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        pathrank_spatial::algo::landmarks::LandmarkMetric::Length,
        &ChConfig::default(),
    ));
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
    for n in 1..=3u32 {
        line.clear();
        writer.write_all(b"ROUTE 0 5 live\n").expect("send");
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line.trim(), format!("ERR NoBackend n={n}"));
    }
    assert_eq!(server.error_count(ServeError::NoBackend), 3);
    assert_eq!(server.error_count(ServeError::QueueFull), 0);
}

#[test]
fn obs_serve_disabled_registry_is_a_true_noop() {
    let graph = Arc::new(integer_city(5));
    let ch = Arc::new(ContractionHierarchy::build(
        &graph,
        pathrank_spatial::algo::landmarks::LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let server = RouteServer::start_with_metrics(
        Arc::clone(&graph),
        ServerIndexes {
            ch: Some(ch),
            ..ServerIndexes::default()
        },
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Registry::disabled(),
    );
    for (s, t) in hub_pairs(&graph, 16, 2, 0x0ff) {
        let reply = server
            .route(RouteRequest {
                source: s,
                target: t,
                metric: Metric::Length,
                deadline: None,
            })
            .expect("served");
        assert!(reply.cost.is_some());
    }
    // Nothing registered, nothing recorded — but the
    // derived quick-look stats still answer (all zeros).
    let snapshot = server.metrics_snapshot();
    assert_eq!(
        snapshot.counter_total("pathrank_serve_served_total", &[]),
        0
    );
    assert!(snapshot.to_prometheus_text().ends_with("# EOF\n"));
    assert_eq!(server.stats().served, 0);
}
