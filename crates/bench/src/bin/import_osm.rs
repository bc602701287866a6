//! CLI for the `spatial::osm` importer: raw OSM XML in, network
//! statistics out, optionally a `pathrank-graph v1` file that every
//! experiment binary's `--graph` flag reads.
//!
//! ```text
//! cargo run --release -p pathrank-bench --bin import_osm -- INPUT.osm.xml
//!     [--out FILE]        write the imported graph (`pathrank-graph v1`)
//!     [--keep-service]    also import service/track access roads
//!     [--no-scc]          skip the largest-SCC prune
//!     [--no-contract]     skip degree-2 chain contraction
//!
//! cargo run --release -p pathrank-bench --bin import_osm -- \
//!     --gen-fixture FILE [--seed N]
//!     regenerate the synthetic fixture extract (deterministic)
//! ```

use std::time::Instant;

use pathrank_spatial::osm::synth::{synthetic_city, write_osm_xml, SynthCityConfig};
use pathrank_spatial::osm::{import_osm, parse_osm_xml, ImportConfig};

fn die(msg: &str) -> ! {
    eprintln!("import_osm: {msg}");
    eprintln!(
        "usage: import_osm INPUT.osm.xml [--out FILE] [--keep-service] [--no-scc] [--no-contract]"
    );
    eprintln!("       import_osm --gen-fixture FILE [--seed N]");
    std::process::exit(2);
}

fn main() {
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut gen_fixture: Option<String> = None;
    let mut seed = 2020u64;
    let mut cfg = ImportConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a path"))),
            "--gen-fixture" => {
                gen_fixture = Some(
                    args.next()
                        .unwrap_or_else(|| die("--gen-fixture needs a path")),
                )
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"))
            }
            "--keep-service" => cfg.include_service_roads = true,
            "--no-scc" => cfg.prune_to_largest_scc = false,
            "--no-contract" => cfg.contract_chains = false,
            "--help" | "-h" => die("see usage"),
            other if !other.starts_with('-') && input.is_none() => input = Some(flag),
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    if let Some(path) = gen_fixture {
        let xml = write_osm_xml(&synthetic_city(&SynthCityConfig::default(), seed));
        std::fs::write(&path, &xml).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!(
            "wrote synthetic fixture ({} bytes, seed {seed}) to {path}",
            xml.len()
        );
        return;
    }

    let Some(input) = input else {
        die("missing INPUT.osm.xml");
    };
    let t0 = Instant::now();
    let file = std::fs::File::open(&input).unwrap_or_else(|e| die(&format!("{input}: {e}")));
    let data = parse_osm_xml(std::io::BufReader::new(file))
        .unwrap_or_else(|e| die(&format!("parsing {input}: {e}")));
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let imported =
        import_osm(&data, &cfg).unwrap_or_else(|e| die(&format!("importing {input}: {e}")));
    let import_ms = t1.elapsed().as_secs_f64() * 1e3;

    let s = &imported.stats;
    println!("parsed {input} in {parse_ms:.1} ms; imported in {import_ms:.1} ms");
    println!("raw extract: {} nodes, {} ways", s.raw_nodes, s.raw_ways);
    println!(
        "kept {} highway ways ({} oneway); skipped: {} non-highway, {} unroutable class, {} missing nodes, {} degenerate",
        s.kept_ways,
        s.oneway_ways,
        s.skipped_non_highway,
        s.skipped_unroutable_class,
        s.skipped_missing_nodes,
        s.skipped_degenerate
    );
    print!("highway classes:");
    for (name, count) in &s.highway_histogram {
        print!(" {name} {count},");
    }
    println!();
    println!(
        "segment graph:          {:>7} vertices {:>8} edges",
        s.segment_vertices, s.segment_edges
    );
    println!(
        "after SCC prune:        {:>7} vertices {:>8} edges  ({} vertices pruned)",
        s.scc_vertices,
        s.scc_edges,
        s.segment_vertices - s.scc_vertices
    );
    println!(
        "after chain contraction:{:>7} vertices {:>8} edges  ({} vertices folded)",
        s.final_vertices,
        s.final_edges,
        s.scc_vertices - s.final_vertices
    );
    println!("total directed length: {:.1} km", s.total_km);

    if let Some(out_path) = out {
        let mut buf = Vec::new();
        pathrank_spatial::io::write_graph(&imported.graph, &mut buf)
            .expect("writing to a Vec cannot fail");
        std::fs::write(&out_path, &buf)
            .unwrap_or_else(|e| die(&format!("writing {out_path}: {e}")));
        println!(
            "wrote pathrank-graph v1 ({} bytes) to {out_path}",
            buf.len()
        );
    }
}
