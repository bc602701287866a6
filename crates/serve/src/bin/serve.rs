//! `serve` — stand up a [`RouteServer`] over a fixture city and speak
//! the TCP line protocol.
//!
//! ```text
//! serve [--port P] [--side N] [--shards S]
//! ```
//!
//! Binds the port, builds the integer grid city, a Length CH and the CCH
//! topology (which reuses the contraction order the CH build left on the
//! graph), installs an initial live weight generation, logging each
//! stage's seconds, then accepts. `length` requests go to the CH, `live` ones
//! to the CCH and `time` ones to plain Dijkstra: a landmark table would
//! answer none of them, so none is built. Try it with netcat:
//!
//! ```text
//! $ echo "ROUTE 0 575 length" | nc 127.0.0.1 7111
//! OK 7458 Ch 0 0
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pathrank_serve::fixture::{integer_city, integer_live_weights};
use pathrank_serve::tcp::run_listener;
use pathrank_serve::{RouteServer, ServeConfig, ServerIndexes};
use pathrank_spatial::algo::cch::{CchConfig, CchTopology};
use pathrank_spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank_spatial::algo::landmarks::LandmarkMetric;

/// The city sides `integer_city` can build: at least a 2×2 grid, and at
/// most the side whose `4·s·(s−1)` directed edges still fit `u32` ids.
const SIDES: std::ops::RangeInclusive<usize> = 2..=32_768;

/// Parses the command line (without the program name) into
/// `(port, side, config)`. A flag without a value, a value that does not
/// parse, a side outside [`SIDES`] and an unknown flag are all errors: a
/// typo must not bind the default port.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(u16, usize, ServeConfig), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("invalid value for {flag}: {v:?}"))
    }
    let mut port: u16 = 7111;
    let mut side: usize = 24;
    let mut cfg = ServeConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = value(&arg, args.next())?,
            "--side" => side = value(&arg, args.next())?,
            "--shards" => cfg.shards = value(&arg, args.next())?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !SIDES.contains(&side) {
        return Err(format!(
            "--side must be in {}..={}, got {side}",
            SIDES.start(),
            SIDES.end()
        ));
    }
    Ok((port, side, cfg))
}

/// Binds the port, then stands the server up. The listener comes first
/// so that a taken port is reported before seconds of index building.
/// The CH build orders the graph and leaves the order on it, so the
/// topology built after it runs no ordering loop of its own; each stage
/// logs its seconds.
fn start(
    port: u16,
    side: usize,
    cfg: ServeConfig,
) -> Result<(TcpListener, Arc<RouteServer>), String> {
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;

    eprintln!("building {side}x{side} fixture city...");
    let graph = Arc::new(integer_city(side));
    eprintln!(
        "  {} vertices, {} directed edges",
        graph.vertex_count(),
        graph.edge_count()
    );
    let ch = timed("Length CH", || {
        ContractionHierarchy::build(&graph, LandmarkMetric::Length, &ChConfig::default())
    });
    let topo = timed("CCH topology (order reused)", || {
        CchTopology::build(&graph, &CchConfig::default())
    });
    let indexes = ServerIndexes {
        ch: Some(Arc::new(ch)),
        landmarks: None,
        cch_topology: Some(Arc::new(topo)),
    };

    let server = Arc::new(RouteServer::start(Arc::clone(&graph), indexes, cfg));
    let generation = timed("live install", || {
        server
            .update_live_weights(integer_live_weights(&graph, 0xbeef))
            .expect("fixture weights are valid")
    });
    eprintln!("installed live weight generation {generation}");
    Ok((listener, server))
}

/// Runs `build`, logging its seconds under `what`.
fn timed<T>(what: &str, build: impl FnOnce() -> T) -> T {
    let began = Instant::now();
    let built = build();
    eprintln!("  {what}: {:.3} s", began.elapsed().as_secs_f64());
    built
}

fn main() -> ExitCode {
    let (port, side, cfg) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: serve [--port P] [--side N] [--shards S]");
            return ExitCode::from(2);
        }
    };
    let (listener, server) = match start(port, side, cfg) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving on 127.0.0.1:{port} with {} shard(s); protocol: ROUTE <src> <dst> <length|time|live> [deadline_ms]",
        server.shards()
    );
    match run_listener(listener, server) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, start};

    fn parse(line: &[&str]) -> Result<(u16, usize, pathrank_serve::ServeConfig), String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_args_good_line_sets_every_value() {
        let (port, side, cfg) =
            parse(&["--port", "7934", "--side", "8", "--shards", "3"]).expect("valid line");
        assert_eq!((port, side, cfg.shards), (7934, 8, 3));
        let (port, side, cfg) = parse(&[]).expect("empty line is the defaults");
        assert_eq!((port, side, cfg.shards), (7111, 24, 0));
    }

    #[test]
    fn serve_args_bad_port_is_an_error() {
        let err = parse(&["--port", "abc"]).unwrap_err();
        assert!(err.contains("--port") && err.contains("abc"), "{err}");
        assert!(parse(&["--port", "70000"]).is_err(), "port must fit u16");
        assert!(parse(&["--shards", "x"]).is_err());
    }

    #[test]
    fn serve_args_missing_value_is_an_error() {
        let err = parse(&["--side", "8", "--port"]).unwrap_err();
        assert!(err.contains("--port needs a value"), "{err}");
    }

    #[test]
    fn serve_args_side_out_of_range_is_an_error() {
        for side in ["0", "1", "32769"] {
            let err = parse(&["--side", side]).unwrap_err();
            assert!(err.contains("--side") && err.contains(side), "{err}");
        }
        for side in ["2", "32768"] {
            assert!(parse(&["--side", side]).is_ok(), "--side {side}");
        }
    }

    #[test]
    fn serve_args_unknown_flag_is_an_error() {
        let err = parse(&["--no-batching"]).unwrap_err();
        assert!(err.contains("--no-batching"), "{err}");
    }

    #[test]
    fn serve_args_bound_port_fails_before_any_index_is_built() {
        let taken = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("an ephemeral port");
        let port = taken.local_addr().expect("bound").port();
        // A city whose indexes take seconds to build: an error that
        // arrives at once was raised ahead of all of them.
        let began = std::time::Instant::now();
        let err = match start(port, 400, pathrank_serve::ServeConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("port {port} is taken"),
        };
        assert!(
            err.starts_with(&format!("cannot bind 127.0.0.1:{port}: ")),
            "{err}"
        );
        assert!(
            began.elapsed() < std::time::Duration::from_secs(1),
            "bind failure took {:?}",
            began.elapsed()
        );
    }
}
