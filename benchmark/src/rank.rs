//! The rank workloads: `src,dst` → candidate paths → vertex sequences →
//! PathRank scores → ranked top-k, in a single-threaded closed loop.

use pathrank_core::candidates::Strategy;
use pathrank_core::model::PathRankModel;
use pathrank_obs::{MetricsSnapshot, Registry};
use pathrank_spatial::algo::engine::{EngineObs, QueryEngine};
use pathrank_spatial::graph::{CostModel, Graph, VertexId};
use pathrank_spatial::path::Path;
use pathrank_spatial::similarity::{weighted_jaccard, EdgeWeight};

use crate::consts::*;
use crate::env::{diversified_config, Env};
use crate::rng::Fnv;
use crate::trace::{Span, Tracer};
use crate::window::{self, Log};

/// One op's output: the candidates in generation order with their costs,
/// their scores, and the candidate indices best score first.
#[derive(Debug, Clone)]
pub struct Ranked {
    pub candidates: Vec<(Path, f64)>,
    pub scores: Vec<f32>,
    pub order: Vec<usize>,
}

impl Ranked {
    /// Fingerprint over (paths, score bits, order).
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for ((p, _), s) in self.candidates.iter().zip(&self.scores) {
            for v in p.vertices() {
                h.word(v.0 as u64);
            }
            h.word(s.to_bits() as u64);
        }
        for &i in &self.order {
            h.word(i as u64);
        }
        h.0
    }
}

/// The op. Every call into a layer sits in its own span.
pub fn rank_op(
    engine: &mut QueryEngine<'_>,
    model: &PathRankModel,
    strategy: Strategy,
    (s, d): (VertexId, VertexId),
    tr: &mut Tracer,
    request: u64,
) -> Ranked {
    let op = tr.enter("op", request);
    let candidates = tr.scoped("spatial.candidates", request, || match strategy {
        Strategy::TkDI => engine.yen_k_shortest(s, d, CostModel::Length, K),
        Strategy::DTkDI => engine.diversified_top_k(s, d, CostModel::Length, &diversified_config()),
    });
    let sequences: Vec<Vec<u32>> = tr.scoped("core.features", request, || {
        candidates
            .iter()
            .map(|(p, _)| p.vertices().iter().map(|v| v.0).collect())
            .collect()
    });
    let scores = tr.scoped("core.model.score", request, || {
        model.score_paths(&sequences)
    });
    let order = tr.scoped("core.sort", request, || {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order.truncate(K);
        order
    });
    tr.exit(op);
    Ranked {
        candidates,
        scores,
        order,
    }
}

/// Checks one op's output against the contract of the pipeline.
pub fn verify(
    g: &Graph,
    oracle: &mut QueryEngine<'_>,
    strategy: Strategy,
    (s, d): (VertexId, VertexId),
    out: &Ranked,
) -> Result<(), String> {
    let n = out.candidates.len();
    if n == 0 || n > K {
        return Err(format!("{n} candidates for {}->{}", s.0, d.0));
    }
    for (p, cost) in &out.candidates {
        p.validate(g)
            .map_err(|e| format!("candidate is not an edge chain: {e}"))?;
        if p.source() != s || p.target() != d {
            return Err("candidate does not join the query's endpoints".into());
        }
        if !p.is_simple() {
            return Err("candidate has a loop".into());
        }
        let folded = p.cost(g, CostModel::Length);
        if (folded - cost).abs() > 1e-9 * folded.max(1.0) {
            return Err(format!("reported cost {cost} but edges add up to {folded}"));
        }
    }
    if out.candidates.windows(2).any(|w| w[1].1 < w[0].1) {
        return Err("candidate costs decrease".into());
    }
    let shortest = oracle
        .shortest_path_cost(s, d, CostModel::Length)
        .ok_or("oracle finds no path")?;
    let first = out.candidates[0].1;
    if (first - shortest).abs() > 1e-9 * shortest.max(1.0) {
        return Err(format!(
            "first candidate costs {first}, shortest path {shortest}"
        ));
    }
    if strategy == Strategy::DTkDI {
        for i in 0..n {
            for j in i + 1..n {
                let sim = weighted_jaccard(
                    g,
                    &out.candidates[i].0,
                    &out.candidates[j].0,
                    EdgeWeight::Length,
                );
                if sim > DIVERSITY_THRESHOLD + 1e-12 {
                    return Err(format!("candidates {i} and {j} overlap by {sim}"));
                }
            }
        }
    }
    if out.scores.len() != n || out.scores.iter().any(|s| !(0.0..=1.0).contains(s)) {
        return Err("a score is missing or outside [0, 1]".into());
    }
    let mut seen = vec![false; n];
    for &i in &out.order {
        if i >= n || std::mem::replace(&mut seen[i], true) {
            return Err("ranking is not a selection of the candidates".into());
        }
    }
    if out.order.len() != n.min(K) {
        return Err("ranking drops candidates".into());
    }
    if out
        .order
        .windows(2)
        .any(|w| out.scores[w[0]] < out.scores[w[1]])
    {
        return Err("ranking is not sorted by score".into());
    }
    Ok(())
}

/// Counts over the first pass of the query list: exact for one seed.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub ops: usize,
    pub paths: usize,
    pub vertices: usize,
    /// Engine counter deltas over the same ops (traced runs only).
    pub engine: Option<MetricsSnapshot>,
}

pub struct Outcome {
    pub log: Log,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub output_hash: u64,
    /// First correctness failure, if any.
    pub error: Option<String>,
}

/// Runs the closed loop over the environment's queries for `seconds`, and
/// for one whole pass at least. `output_hash`, the checks and the counts
/// cover exactly that first pass, however many ops the window completed.
pub fn run(env: &Env, strategy: Strategy, seconds: f64, traced: bool, lane: u32) -> Outcome {
    let model = env.model.as_ref().expect("rank phase needs a model");
    let queries = &env.queries;
    assert!(!queries.is_empty(), "rank phase needs queries");
    let registry = if traced {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let mut engine = env.engine().with_obs(EngineObs::new(&registry));
    let mut tr = Tracer::new(traced, lane);

    // First-pass outputs are kept whole for the checks below; later passes
    // must reproduce their fingerprints.
    let mut first_pass: Vec<Ranked> = Vec::with_capacity(queries.len());
    let mut hashes: Vec<u64> = Vec::with_capacity(queries.len());
    let mut counts = Counts::default();
    let mut error: Option<String> = None;

    // A few untimed ops so the search state and the allocator are warm.
    for &q in queries.iter().take(16) {
        std::hint::black_box(rank_op(
            &mut engine,
            model,
            strategy,
            q,
            &mut Tracer::off(),
            0,
        ));
    }
    let before = traced.then(|| registry.snapshot());

    let log = window::closed_loop(seconds, queries.len(), |i| {
        let qi = i % queries.len();
        let out = rank_op(&mut engine, model, strategy, queries[qi], &mut tr, i as u64);
        if i < queries.len() {
            counts.ops += 1;
            counts.paths += out.candidates.len();
            counts.vertices += out
                .candidates
                .iter()
                .map(|(p, _)| p.vertices().len())
                .sum::<usize>();
            if i + 1 == queries.len() {
                if let Some(b) = &before {
                    counts.engine = Some(registry.snapshot().delta_since(b));
                }
            }
        }
        let h = out.hash();
        if i < queries.len() {
            hashes.push(h);
            first_pass.push(out);
            true
        } else if hashes[qi] != h {
            error.get_or_insert_with(|| format!("op {i} does not repeat query {qi}'s output"));
            false
        } else {
            true
        }
    });

    let mut oracle = env.engine();
    let mut output_hash = Fnv::default();
    for (qi, out) in first_pass.iter().enumerate() {
        output_hash.word(hashes[qi]);
        if let Err(e) = verify(&env.graph, &mut oracle, strategy, queries[qi], out) {
            error.get_or_insert(format!("query {qi}: {e}"));
        }
    }

    Outcome {
        log,
        spans: tr.into_spans(),
        counts,
        output_hash: output_hash.0,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Spec;

    fn env() -> Env {
        Env::build(
            Spec {
                mult: 1,
                fleet: Some((3, 3)),
                pretrain: true,
                queries: 12,
                live: false,
            },
            11,
        )
    }

    #[test]
    fn honest_outputs_pass_and_corrupted_ones_fail() {
        let env = env();
        let model = env.model.as_ref().unwrap();
        let mut engine = env.engine();
        let mut oracle = env.engine();
        for strategy in [Strategy::TkDI, Strategy::DTkDI] {
            let q = env.queries[0];
            let good = rank_op(&mut engine, model, strategy, q, &mut Tracer::off(), 0);
            verify(&env.graph, &mut oracle, strategy, q, &good).unwrap();

            let mut unsorted = good.clone();
            unsorted.order.reverse();
            if good.scores[good.order[0]] != good.scores[*good.order.last().unwrap()] {
                let e = verify(&env.graph, &mut oracle, strategy, q, &unsorted).unwrap_err();
                assert!(e.contains("not sorted"), "{e}");
            }

            let mut wrong_endpoints = good.clone();
            wrong_endpoints.candidates[0] = rank_op(
                &mut engine,
                model,
                strategy,
                env.queries[1],
                &mut Tracer::off(),
                0,
            )
            .candidates[0]
                .clone();
            assert!(verify(&env.graph, &mut oracle, strategy, q, &wrong_endpoints).is_err());

            let mut bad_score = good.clone();
            bad_score.scores[0] = 1.5;
            assert!(verify(&env.graph, &mut oracle, strategy, q, &bad_score).is_err());

            let mut dropped = good.clone();
            dropped.order.pop();
            assert!(verify(&env.graph, &mut oracle, strategy, q, &dropped).is_err());
        }
        // Plain top-k paths overlap far beyond the diversity threshold.
        let q = env.queries[0];
        let plain = rank_op(&mut engine, model, Strategy::TkDI, q, &mut Tracer::off(), 0);
        let e = verify(&env.graph, &mut oracle, Strategy::DTkDI, q, &plain).unwrap_err();
        assert!(e.contains("overlap"), "{e}");
    }

    #[test]
    fn one_seed_gives_identical_counts_and_output_hash_whatever_the_length() {
        let env = env();
        let a = run(&env, Strategy::TkDI, 0.0, true, 1);
        let b = run(&env, Strategy::TkDI, 0.3, false, 1);
        assert!(a.error.is_none(), "{:?}", a.error);
        assert_eq!(a.log.ops.len(), env.queries.len(), "one pass at least");
        assert!(
            b.log.ops.len() > a.log.ops.len(),
            "and more when time allows"
        );
        assert_eq!(a.output_hash, b.output_hash);
        assert_eq!(a.counts.ops, env.queries.len());
        assert_eq!(
            (a.counts.paths, a.counts.vertices),
            (b.counts.paths, b.counts.vertices)
        );
        assert!(a.counts.engine.is_some() && b.counts.engine.is_none());
        assert!(b.spans.is_empty());
        // op + four children per op.
        assert_eq!(a.spans.len(), a.log.ops.len() * 5);
        let sums = crate::trace::self_time_sums(&a.spans);
        for s in a.spans.iter().filter(|s| s.name == "op") {
            assert_eq!(sums.by_root[&s.id], s.duration_ns());
        }
    }
}
