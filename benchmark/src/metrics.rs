//! Names and units of every metric, in the order `BENCHMARK.json` lists
//! them (a unit test keeps the two in step).

use std::collections::BTreeMap;

/// Which direction is better, and the bounds, live in `BENCHMARK.json`
/// only: that is what the driver and `compare` read.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Per-layer readings of a traced run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What an untraced run prints. The four window timings of the issue's
/// six (`ops_per_s`, `op_p50_ms`, `op_p95_ms`, `cpu_ms_per_op`) do not
/// repeat within a tenth on this machine, so by the issue's own rule they
/// are per-layer metrics; an untraced run still measures them and keeps
/// them in its result file.
pub const END_TO_END: [Def; 2] = [m("peak_rss_mib", "MiB"), m("setup_s", "s")];

pub const PER_LAYER: [Def; 77] = [
    m("ops_per_s", "1/s"),
    m("op_p50_ms", "ms"),
    m("op_p95_ms", "ms"),
    m("cpu_ms_per_op", "ms"),
    m("spatial.yen.ms_p50", "ms"),
    m("spatial.diversified.ms_p50", "ms"),
    m("spatial.diversified.ms_p95", "ms"),
    m("spatial.diversified.returned_share", "ratio"),
    m("spatial.similarity.ns_per_pair", "ns"),
    m("spatial.engine.searches_per_op", "count"),
    m("spatial.engine.settled_per_op", "count"),
    m("spatial.engine.heap_pushes_per_op", "count"),
    m("spatial.engine.fallbacks_per_op", "count"),
    m("spatial.ch.query_us_p50", "us"),
    m("spatial.cch.query_us_p50", "us"),
    m("spatial.m2m.us_per_pair", "us"),
    m("spatial.cch.apply_delta_ms_p50", "ms"),
    m("spatial.cch.customize_full_ms", "ms"),
    m("spatial.cch.topology_s", "s"),
    m("spatial.ch.build_s", "s"),
    m("spatial.landmarks.build_s", "s"),
    m("spatial.generators.region_s", "s"),
    m("spatial.io.ch_bytes", "bytes"),
    m("spatial.io.ch_read_ms", "ms"),
    m("spatial.graph.vertices", "count"),
    m("spatial.graph.edges", "count"),
    m("traj.simulator.fleet_s", "s"),
    m("traj.mapmatch.traces_per_s", "1/s"),
    m("traj.mapmatch.matched_share", "ratio"),
    m("embed.walks_s", "s"),
    m("embed.skipgram_s", "s"),
    m("embed.node2vec_s", "s"),
    m("nn.forward_us_per_vertex", "us"),
    m("nn.fwd_bwd_us_per_sample", "us"),
    m("nn.optim.step_ms", "ms"),
    m("nn.params.scalars", "count"),
    m("core.candidates.share", "ratio"),
    m("core.model.share", "ratio"),
    m("core.model.score_ms_p50", "ms"),
    m("core.features.us_p50", "us"),
    m("core.sort.us_p50", "us"),
    m("core.model.paths_per_op", "count"),
    m("core.model.vertices_per_op", "count"),
    m("core.candidates.groups_per_s", "1/s"),
    m("core.candidates.per_group", "count"),
    m("core.trainer.prepare_ms", "ms"),
    m("core.trainer.samples_per_s", "1/s"),
    m("core.trainer.parallel_speedup", "ratio"),
    m("core.eval.paths_per_s", "1/s"),
    m("core.eval.kendall_tau", "ratio"),
    m("core.eval.mae", "ratio"),
    m("core.trainer.final_loss", "ratio"),
    m("serve.submit_us_p50", "us"),
    m("serve.wait_us_p50", "us"),
    m("serve.server.latency_p50_us", "us"),
    m("serve.server.latency_p99_us", "us"),
    m("serve.reply_path_us_p50", "us"),
    m("serve.queue.depth_max", "count"),
    m("serve.batch.size_mean", "count"),
    m("serve.batch.batched_share", "ratio"),
    m("serve.shed_share", "ratio"),
    m("serve.class.length_p50_us", "us"),
    m("serve.class.live_p50_us", "us"),
    m("serve.open.p99_us", "us"),
    m("serve.open.max_late_us", "us"),
    m("serve.live.p50_quiet_us", "us"),
    m("serve.live.p50_overlap_us", "us"),
    m("serve.update.apply_ms_p50", "ms"),
    m("serve.update.apply_ms_p95", "ms"),
    m("serve.update.swaps", "count"),
    m("serve.update.staleness_ms_p50", "ms"),
    m("serve.tcp.route_us_p50", "us"),
    m("serve.tcp.overhead_us_p50", "us"),
    m("obs.snapshot_ms", "ms"),
    m("bench.trace_overhead_ratio", "ratio"),
    m("bench.calibration_ms", "ms"),
    m("bench.blocks", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repository root is the driver's copy of
    /// these lists; the two must say the same.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = v.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                let better = m.get("better").unwrap().as_str().unwrap();
                assert!(better == "higher" || better == "lower", "{}", d.name);
                assert_eq!(m.get("bound").is_some(), key == "end_to_end", "{}", d.name);
            }
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::consts::WORKLOADS);
    }
}
