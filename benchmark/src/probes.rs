//! Per-layer micro-probes: fixed work against one layer's public
//! functions, run after the timed window of a traced run.

use std::sync::Arc;

use pathrank_core::model::PathRankModel;
use pathrank_core::trainer::{train, Sample};
use pathrank_nn::optim::{Adam, Optimizer};
use pathrank_nn::params::GradStore;
use pathrank_nn::tape::Tape;
use pathrank_obs::Registry;
use pathrank_spatial::algo::engine::QueryEngine;
use pathrank_spatial::graph::{CostModel, EdgeId, VertexId};
use pathrank_spatial::io::{read_ch, write_ch};
use pathrank_spatial::similarity::{weighted_jaccard, EdgeWeight};

use crate::consts::*;
use crate::env::{model_config, train_config, Env};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::stats;
use crate::sys;

/// Times `f`; returns its result and nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = sys::now_ns();
    let out = f();
    (out, (sys::now_ns() - t0) as f64)
}

/// Median nanoseconds over `n` timed calls of `f`.
fn median_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<f64> = (0..n).map(|i| timed(|| f(i)).1).collect();
    stats::median(&mut ns)
}

fn random_pairs(env: &Env, n: usize, stream: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = Rng::stream(GRAPH_SEED, stream);
    let nv = env.graph.vertex_count();
    (0..n)
        .map(|_| {
            (
                VertexId(rng.below(nv) as u32),
                VertexId(rng.below(nv) as u32),
            )
        })
        .collect()
}

pub fn spatial(env: &Env, values: &mut Values) {
    let g = &env.graph;
    let topo = env
        .cch_topology
        .as_ref()
        .expect("traced runs build the CCH topology");

    // Similarity over the candidate sets of a few queries.
    let mut engine = env.engine();
    let sets: Vec<_> = env
        .queries
        .iter()
        .take(8)
        .map(|&(s, d)| engine.yen_k_shortest(s, d, CostModel::Length, K))
        .collect();
    let pairs: usize = sets.iter().map(|c| c.len() * (c.len() - 1) / 2).sum();
    let reps = 20;
    let ((), ns) = timed(|| {
        for _ in 0..reps {
            for set in &sets {
                for i in 0..set.len() {
                    for j in i + 1..set.len() {
                        std::hint::black_box(weighted_jaccard(
                            g,
                            &set[i].0,
                            &set[j].0,
                            EdgeWeight::Length,
                        ));
                    }
                }
            }
        }
    });
    let similarity_ns_per_pair = ns / (reps * pairs.max(1)) as f64;

    let queries = random_pairs(env, 2_000, 0xc4);
    let mut ch_engine = QueryEngine::new(g).with_ch(Arc::clone(&env.ch));
    let ch_ns = median_ns(queries.len(), |i| {
        let (s, d) = queries[i];
        std::hint::black_box(ch_engine.shortest_path_cost(s, d, CostModel::Length));
    });

    let (cch, customize_ns) = timed(|| topo.customize_weights(g, &env.live_base));
    let mut scratch = cch.clone();
    let cch = Arc::new(cch);
    let mut cch_engine = QueryEngine::new(g).with_cch(Arc::clone(&cch));
    let live = CostModel::Custom(&env.live_base);
    assert!(cch_engine.uses_cch(live), "CCH probe must run on the CCH");
    let cch_ns = median_ns(queries.len(), |i| {
        let (s, d) = queries[i];
        std::hint::black_box(cch_engine.shortest_path_cost(s, d, live));
    });

    let side = 64;
    let sources: Vec<VertexId> = queries[..side].iter().map(|q| q.0).collect();
    let targets: Vec<VertexId> = queries[..side].iter().map(|q| q.1).collect();
    let (table, m2m_ns) = timed(|| ch_engine.many_to_many(&sources, &targets, CostModel::Length));
    assert!(table.is_some(), "m2m probe must run on the CH");

    let mut rng = Rng::stream(GRAPH_SEED, 0xde);
    let per_update = ((env.live_base.len() as f64 * UPDATE_EDGE_SHARE) as usize).max(1);
    let delta_ns = median_ns(20, |_| {
        let changes: Vec<(EdgeId, f64)> = (0..per_update)
            .map(|_| {
                let e = rng.below(env.live_base.len());
                (
                    EdgeId(e as u32),
                    env.live_base[e] * (1.0 + rng.unit() * (CONGESTION_MAX - 1.0)),
                )
            })
            .collect();
        std::hint::black_box(scratch.apply_weight_delta(&changes));
    });

    let mut bytes = Vec::new();
    write_ch(&env.ch, &mut bytes).expect("writing to memory cannot fail");
    let (read, read_ns) = timed(|| read_ch(bytes.as_slice()));
    assert!(read.is_ok(), "a CH just written must read back");

    values.insert("spatial.similarity.ns_per_pair", similarity_ns_per_pair);
    values.insert("spatial.ch.query_us_p50", ch_ns / 1e3);
    values.insert("spatial.cch.query_us_p50", cch_ns / 1e3);
    values.insert(
        "spatial.m2m.us_per_pair",
        m2m_ns / 1e3 / (side * side) as f64,
    );
    values.insert("spatial.cch.customize_full_ms", customize_ns / 1e6);
    values.insert("spatial.cch.apply_delta_ms_p50", delta_ns / 1e6);
    values.insert("spatial.io.ch_bytes", bytes.len() as f64);
    values.insert("spatial.io.ch_read_ms", read_ns / 1e6);
}

pub fn nn(env: &Env, seed: u64, values: &mut Values) {
    let off = env
        .offline
        .as_ref()
        .expect("traced runs build the offline pipeline");
    let samples: &[Sample] = &off.samples[..off.samples.len().min(256)];
    let fresh = || {
        PathRankModel::new(
            env.graph.vertex_count(),
            Some(off.embedding.clone()),
            model_config(seed),
        )
    };

    let mut model = fresh();
    let mut grads = GradStore::new(&model.store);
    let ((), ns) = timed(|| {
        for s in samples {
            let mut tape = Tape::new(&model.store);
            let loss = model.loss(&mut tape, &s.vertices, s.score, s.aux);
            tape.backward(loss, &mut grads);
        }
    });
    let fwd_bwd_us_per_sample = ns / 1e3 / samples.len() as f64;

    grads.scale(1.0 / samples.len() as f32);
    let mut adam = Adam::new(1e-3);
    let step_ns = median_ns(9, |_| adam.step(&mut model.store, &grads));

    // Same slice, same seed: one thread, then the fan-out.
    let mut one = fresh();
    let (_, t1) = timed(|| train(&mut one, samples, &train_config(1, 1, seed)));
    let mut two = fresh();
    let (_, t2) = timed(|| train(&mut two, samples, &train_config(THREADS, 1, seed)));

    values.insert("nn.fwd_bwd_us_per_sample", fwd_bwd_us_per_sample);
    values.insert("nn.optim.step_ms", step_ns / 1e6);
    values.insert("nn.params.scalars", model.parameter_count() as f64);
    values.insert("core.trainer.parallel_speedup", t1 / t2);
}

/// Milliseconds one registry scrape takes.
pub fn snapshot_ms(registry: &Registry) -> f64 {
    median_ns(20, |_| {
        std::hint::black_box(registry.snapshot());
    }) / 1e6
}
