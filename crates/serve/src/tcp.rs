//! A minimal TCP line protocol over [`RouteServer`].
//!
//! One line per request, one line per reply:
//!
//! ```text
//! -> ROUTE <source> <target> <metric> [deadline_ms]
//! <- OK <cost|inf> <backend> <batched:0|1> <generation>
//! -> UPDATE <edge>:<weight>[,<edge>:<weight>...]
//! <- OK <generation>
//! -> STATS [json]
//! <- (multi-line metrics dump, see below)
//! <- ERR <QueueFull|DeadlineExpired|NoBackend|InvalidWeights|Shutdown> n=<count>
//! <- ERR BadRequest
//! ```
//!
//! `<metric>` is `length`, `time` or `live`; `deadline_ms` is a relative
//! budget from the moment the server parses the line.
//!
//! Every `ERR` carrying a [`ServeError`] variant appends `n=<count>` —
//! the server's cumulative error count for that variant, so a client
//! seeing its first `QueueFull` can tell an isolated blip (`n=1`) from
//! systemic overload (`n=40000`) without a second round trip.
//! `BadRequest` is a parse failure on this connection, not a server
//! error, and carries no counter. A line that is not UTF-8, or longer
//! than [`MAX_LINE_BYTES`] (the rest of it is discarded up to its
//! newline), is a `BadRequest` too; the connection stays open.
//!
//! `STATS` scrapes the server's metrics registry
//! ([`RouteServer::metrics_snapshot`]) and answers with a framed dump:
//! Prometheus text exposition by default (`# EOF` terminated, so a
//! scraper can splice it straight through), or a single JSON line after
//! `STATS json`. Both forms end with a `.` line as the protocol frame
//! terminator.
//!
//! `UPDATE` feeds a sparse live-weight delta
//! ([`RouteServer::update_live_weights_sparse`]): each `edge:weight`
//! pair sets one edge's live weight (duplicates last-wins), the rest of
//! the installed vector carries over, and only the shortcut arcs the
//! named edges support are re-relaxed before the new generation swaps
//! in — the reply carries that generation so a client can fence
//! subsequent `live` routes on it. A full vector must have been
//! installed first (the `serve` binary does this at startup); before
//! that, `UPDATE` answers `ERR NoBackend`. Malformed pairs answer `ERR
//! BadRequest`; unknown edges and non-finite / negative weights answer
//! `ERR InvalidWeights`.
//!
//! The protocol is a demo transport for the `serve` binary — the
//! benchmarks drive the server in-process so transport noise never
//! pollutes the latency numbers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathrank_spatial::graph::{EdgeId, VertexId};

use crate::server::{Metric, RouteRequest, RouteServer, ServeError};

/// Parses one `ROUTE` line into a request against `server`'s graph.
/// Returns `None` on any malformed input (answered as `ERR BadRequest`).
fn parse_line(server: &RouteServer, line: &str) -> Option<RouteRequest> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "ROUTE" {
        return None;
    }
    let n = server.graph().vertex_count() as u64;
    let source: u64 = parts.next()?.parse().ok()?;
    let target: u64 = parts.next()?.parse().ok()?;
    if source >= n || target >= n {
        return None;
    }
    let metric = match parts.next()? {
        "length" => Metric::Length,
        "time" => Metric::TravelTime,
        "live" => Metric::Live,
        _ => return None,
    };
    let deadline = match parts.next() {
        Some(ms) => {
            let ms: u64 = ms.parse().ok()?;
            Some(Instant::now() + Duration::from_millis(ms))
        }
        None => None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(RouteRequest {
        source: VertexId(source as u32),
        target: VertexId(target as u32),
        metric,
        deadline,
    })
}

/// Parses the delta of an `UPDATE` line: comma-separated `edge:weight`
/// pairs (whitespace between groups also tolerated). Returns `None` on
/// any malformed pair; edge-bounds and weight-range checks stay with
/// [`RouteServer::update_live_weights_sparse`] so they answer
/// `ERR InvalidWeights` rather than `BadRequest`.
fn parse_update(line: &str) -> Option<Vec<(EdgeId, f64)>> {
    let rest = line.trim().strip_prefix("UPDATE")?;
    let mut updates = Vec::new();
    for pair in rest.split_ascii_whitespace().flat_map(|g| g.split(',')) {
        if pair.is_empty() {
            continue;
        }
        let (edge, weight) = pair.split_once(':')?;
        let edge: u32 = edge.parse().ok()?;
        let weight: f64 = weight.parse().ok()?;
        updates.push((EdgeId(edge), weight));
    }
    Some(updates)
}

fn error_tag(e: ServeError) -> &'static str {
    match e {
        ServeError::QueueFull => "QueueFull",
        ServeError::DeadlineExpired => "DeadlineExpired",
        ServeError::NoBackend => "NoBackend",
        ServeError::InvalidWeights => "InvalidWeights",
        ServeError::Shutdown => "Shutdown",
    }
}

/// `ERR <Variant> n=<count>`: the variant plus the server's cumulative
/// count for it (this reply included — the counter was incremented
/// before the error propagated here).
fn error_reply(server: &RouteServer, e: ServeError) -> String {
    format!("ERR {} n={}\n", error_tag(e), server.error_count(e))
}

/// Answers a `STATS [json]` line: the full registry scrape, framed with
/// a trailing `.` line.
fn stats_reply(server: &RouteServer, line: &str) -> String {
    let rest = line.trim().strip_prefix("STATS").unwrap_or("").trim();
    let snapshot = server.metrics_snapshot();
    if rest.eq_ignore_ascii_case("json") {
        let mut out = snapshot.to_json();
        out.push_str("\n.\n");
        out
    } else if rest.is_empty() {
        let mut out = snapshot.to_prometheus_text();
        out.push_str(".\n");
        out
    } else {
        "ERR BadRequest\n".to_string()
    }
}

/// Longest request line read into memory, newline excluded, so a client
/// that never sends a newline cannot grow the buffer without bound. An
/// `UPDATE` pair takes about 25 bytes, so one line still carries some
/// 40 000 of them.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One request line off the wire, as [`read_line_capped`] found it.
enum Frame {
    /// A line up to [`MAX_LINE_BYTES`] long, in the caller's buffer.
    Line,
    /// A longer line, discarded through its newline.
    TooLong,
    Eof,
}

/// Reads one line into `buf` without its `\n` (or `\r\n`) — the last
/// line may lack one, as with [`BufRead::lines`] — reading at most one
/// byte past [`MAX_LINE_BYTES`] of it into memory.
fn read_line_capped(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    reader.by_ref().take(cap).read_until(b'\n', buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Frame::TooLong);
    } else if buf.is_empty() {
        return Ok(Frame::Eof);
    }
    Ok(Frame::Line)
}

/// Serves one connection until EOF or a write error.
pub fn serve_connection(stream: TcpStream, server: &RouteServer) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_line_capped(&mut reader, &mut buf)? {
            Frame::Eof => return Ok(()),
            Frame::TooLong => None,
            Frame::Line => std::str::from_utf8(&buf).ok(),
        };
        let Some(line) = line else {
            writer.write_all(b"ERR BadRequest\n")?;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        if line.trim_start().starts_with("STATS") {
            writer.write_all(stats_reply(server, line).as_bytes())?;
            continue;
        }
        if line.trim_start().starts_with("UPDATE") {
            let answer = match parse_update(line) {
                None => "ERR BadRequest\n".to_string(),
                Some(updates) => match server.update_live_weights_sparse(&updates) {
                    Ok(generation) => format!("OK {generation}\n"),
                    Err(e) => error_reply(server, e),
                },
            };
            writer.write_all(answer.as_bytes())?;
            continue;
        }
        let answer = match parse_line(server, line) {
            None => "ERR BadRequest\n".to_string(),
            Some(req) => match server.route(req) {
                Err(e) => error_reply(server, e),
                Ok(reply) => format!(
                    "OK {} {:?} {} {}\n",
                    reply.cost.map_or("inf".to_string(), |c| format!("{c}")),
                    reply.backend,
                    u8::from(reply.batched),
                    reply.weights_generation
                ),
            },
        };
        writer.write_all(answer.as_bytes())?;
    }
}

/// Accept loop: one thread per connection, each sharing `server`.
/// Runs until the listener errors (i.e. effectively forever).
pub fn run_listener(listener: TcpListener, server: Arc<RouteServer>) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &server);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_tcp_line_cap_bounds_the_buffer() {
        // Lines of 3x, 1x and 1x + 1 the cap, then two short ones.
        let mut wire = Vec::new();
        for len in [3 * MAX_LINE_BYTES, MAX_LINE_BYTES, MAX_LINE_BYTES + 1] {
            wire.resize(wire.len() + len, b'x');
            wire.push(b'\n');
        }
        wire.extend_from_slice(b"ROUTE 1 2 length\r\nlast");
        let mut reader = BufReader::new(wire.as_slice());
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        loop {
            let frame = read_line_capped(&mut reader, &mut buf).expect("in memory");
            assert!(
                buf.capacity() <= 2 * MAX_LINE_BYTES,
                "buffer outgrew the cap"
            );
            match frame {
                Frame::Eof => break,
                Frame::TooLong => frames.push("too long".to_string()),
                Frame::Line if buf.len() == MAX_LINE_BYTES => frames.push("at the cap".to_string()),
                Frame::Line => frames.push(String::from_utf8(buf.clone()).expect("ASCII")),
            }
        }
        assert_eq!(
            frames,
            [
                "too long",
                "at the cap",
                "too long",
                "ROUTE 1 2 length",
                "last"
            ]
        );
    }
}
