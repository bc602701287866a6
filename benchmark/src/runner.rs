//! One benchmark run: set the environment up, run the workload's window,
//! check its outputs, and turn what was recorded into named metrics.
//!
//! An untraced run builds what its workload needs and runs its window. A
//! traced run builds everything, runs the window with spans on, repeats it
//! for a few seconds with spans off (tracing overhead; the window metrics
//! a traced run reports), then measures the other workloads' per-layer
//! metrics in short side windows on the same environment, then runs the
//! micro-probes: the driver's contract wants every per-layer metric from
//! every traced run. A metric that was not measured fails the run.

use std::path::PathBuf;

use pathrank_core::candidates::{Strategy, TrainingGroup};
use pathrank_serve::Metric;

use crate::calib::{self, Readings};
use crate::consts::*;
use crate::env::{Env, Spec};
use crate::json::Json;
use crate::metrics::{Def, Values, END_TO_END, PER_LAYER};
use crate::trace::{self, Span};
use crate::window::{self, Latency, Log, Throughput};
use crate::{probes, rank, serve, stats, sys, train};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RankTkdi,
    RankDtkdi,
    TrainOffline,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::RankTkdi,
            Workload::RankDtkdi,
            Workload::TrainOffline,
            Workload::ServeMixed,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize]
    }

    /// What the workload's own window needs; a traced run adds the rest.
    fn spec(self, traced: bool) -> Spec {
        let own = match self {
            Workload::RankTkdi | Workload::RankDtkdi => Spec {
                mult: REGION_MULT_RANK,
                fleet: Some(FLEET_RANK),
                pretrain: true,
                queries: RANK_QUERIES,
                live: false,
            },
            Workload::TrainOffline => Spec {
                mult: REGION_MULT_RANK,
                fleet: Some(FLEET_TRAIN),
                pretrain: false,
                queries: 0,
                live: false,
            },
            Workload::ServeMixed => Spec {
                mult: REGION_MULT_SERVE,
                fleet: None,
                pretrain: false,
                queries: 0,
                live: true,
            },
        };
        if !traced {
            return own;
        }
        Spec {
            fleet: own.fleet.or(Some(FLEET_RANK)),
            // The train window starts from an untrained model.
            pretrain: self != Workload::TrainOffline,
            queries: own.queries.max(SIDE_QUERIES),
            live: true,
            ..own
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

pub struct Record {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub error: Option<String>,
}

impl Record {
    /// The object the driver reads from the last line of stdout.
    pub fn last_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .write()
    }
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

struct World {
    env: Env,
    served: Option<serve::Prepared>,
}

impl World {
    fn build(spec: Spec, seed: u64) -> World {
        let mut env = Env::build(spec, seed);
        let served = spec.live.then(|| serve::prepare(&mut env, seed));
        World { env, served }
    }
}

enum Main {
    Rank(Strategy, rank::Outcome),
    Train(train::Outcome),
    Serve(serve::Outcome),
}

impl Main {
    fn error(&self) -> Option<&String> {
        match self {
            Main::Rank(_, o) => o.error.as_ref(),
            Main::Train(o) => o.error.as_ref(),
            Main::Serve(o) => o.error.as_ref(),
        }
    }

    fn output_hash(&self) -> u64 {
        match self {
            Main::Rank(_, o) => o.output_hash,
            Main::Train(o) => o.output_hash(),
            Main::Serve(o) => o.output_hash,
        }
    }

    fn spans(&self) -> &[Span] {
        match self {
            Main::Rank(_, o) => &o.spans,
            Main::Train(o) => &o.spans,
            Main::Serve(o) => &o.spans,
        }
    }

    /// `VmHWM` when the window's fixed work was done: the first pass over
    /// the queries (rank), two passes over the samples (train), both
    /// halves (serve, whose work the rate and the update cadence fix). A
    /// peak read at exit grows with the ops a window happens to complete
    /// (about once in a thousand ops glibc extends an arena by one more of
    /// the trainer's per-batch gradient stores, 2.5 MiB that stay) and with
    /// what the checks allocate.
    fn peak_rss_mib(&self) -> f64 {
        match self {
            Main::Rank(_, o) => o.log.fixed_work_peak_rss_mib,
            Main::Train(o) => o.log.fixed_work_peak_rss_mib,
            Main::Serve(o) => o.peak_rss_mib,
        }
    }

    /// When the first timed op began.
    fn start_ns(&self) -> u64 {
        match self {
            Main::Rank(_, o) => o.log.start_ns,
            Main::Train(o) => o.log.start_ns,
            Main::Serve(o) => o.closed.start_ns,
        }
    }
}

fn run_window(
    workload: Workload,
    world: &mut World,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Main {
    // Span ids of the run's main window start at lane 1.
    let lane = 1;
    match workload {
        Workload::RankTkdi => Main::Rank(
            Strategy::TkDI,
            rank::run(&world.env, Strategy::TkDI, seconds, traced, lane),
        ),
        Workload::RankDtkdi => Main::Rank(
            Strategy::DTkDI,
            rank::run(&world.env, Strategy::DTkDI, seconds, traced, lane),
        ),
        Workload::TrainOffline => {
            let env = &mut world.env;
            let samples = &env.offline.as_ref().expect("train needs samples").samples;
            let model = env.model.as_mut().expect("train needs a model");
            Main::Train(train::run(samples, model, seed, seconds, traced, lane))
        }
        Workload::ServeMixed => {
            let prepared = world.served.as_mut().expect("serve needs a server");
            Main::Serve(serve::run(
                &world.env, prepared, seed, seconds, traced, lane,
            ))
        }
    }
}

/// The numbers of one window that every workload reports.
struct WindowNumbers {
    throughput: Throughput,
    latency: Latency,
    cpu_ms_per_op: f64,
    attempted: usize,
    failed: usize,
}

fn window_numbers(main: &Main) -> WindowNumbers {
    let closed_loop = |log: &Log| WindowNumbers {
        throughput: window::throughput(log.start_ns, &log.ops),
        latency: window::latency(&log.ops),
        cpu_ms_per_op: window::cpu_ms_per_op(log.cpu_ns, &log.ops),
        attempted: log.ops.len(),
        failed: window::failed(&log.ops),
    };
    match main {
        Main::Rank(_, o) => closed_loop(&o.log),
        Main::Train(o) => closed_loop(&o.log),
        // Throughput from the closed-loop half, latency from the open-loop
        // half, the server's CPU over both per answer.
        Main::Serve(o) => {
            let closed: Vec<window::Op> = o.closed.done.iter().map(serve::Done::op).collect();
            let open: Vec<window::Op> = o.open.done.iter().map(serve::Done::op).collect();
            let failed = window::failed(&closed) + window::failed(&open);
            let attempted = closed.len() + open.len();
            WindowNumbers {
                throughput: window::throughput(o.closed.start_ns, &closed),
                latency: window::latency(&open),
                cpu_ms_per_op: o.cpu_ns as f64 / 1e6 / (attempted - failed).max(1) as f64,
                attempted,
                failed,
            }
        }
    }
}

fn window_values(n: &WindowNumbers, values: &mut Values) {
    values.insert("ops_per_s", n.throughput.ops_per_s);
    values.insert("op_p50_ms", n.latency.p50_ms);
    values.insert("op_p95_ms", n.latency.p95_ms);
    values.insert("cpu_ms_per_op", n.cpu_ms_per_op);
}

/// Durations of the spans called `name`, in milliseconds.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

fn p50(mut v: Vec<f64>) -> f64 {
    stats::percentile(&mut v, 50.0)
}

/// Asserts that every op's tree of self times adds up to the op.
fn check_op_trees(spans: &[Span]) -> Result<trace::SelfTimeSums, String> {
    let sums = trace::self_time_sums(spans);
    for s in spans.iter().filter(|s| s.name == "op") {
        if sums.by_root.get(&s.id) != Some(&s.duration_ns()) {
            return Err(format!(
                "op span {} lasts {} ns but its self times add up to {:?}",
                s.id,
                s.duration_ns(),
                sums.by_root.get(&s.id)
            ));
        }
    }
    Ok(sums)
}

/// Per-layer values of one traced rank window. `core` selects the window
/// whose op the `core.*`, `nn.forward_*` and engine-counter metrics
/// describe (the run's own rank workload, else the TkDI side window).
fn rank_values(
    strategy: Strategy,
    out: &rank::Outcome,
    core: bool,
    values: &mut Values,
) -> Result<(), String> {
    let sums = check_op_trees(&out.spans)?;
    let candidates = span_ms(&out.spans, "spatial.candidates");
    match strategy {
        Strategy::TkDI => {
            values.insert("spatial.yen.ms_p50", p50(candidates));
        }
        Strategy::DTkDI => {
            let mut c = candidates;
            values.insert(
                "spatial.diversified.ms_p50",
                stats::percentile(&mut c, 50.0),
            );
            values.insert(
                "spatial.diversified.ms_p95",
                stats::percentile(&mut c, 95.0),
            );
            values.insert(
                "spatial.diversified.returned_share",
                out.counts.paths as f64 / (out.counts.ops * K) as f64,
            );
        }
    }
    if !core {
        return Ok(());
    }
    let total_op: u64 = out
        .spans
        .iter()
        .filter(|s| s.name == "op")
        .map(Span::duration_ns)
        .sum();
    let share = |name: &str| sums.by_name.get(name).copied().unwrap_or(0) as f64 / total_op as f64;
    values.insert("core.candidates.share", share("spatial.candidates"));
    values.insert("core.model.share", share("core.model.score"));
    values.insert(
        "core.model.score_ms_p50",
        p50(span_ms(&out.spans, "core.model.score")),
    );
    values.insert(
        "core.features.us_p50",
        p50(span_ms(&out.spans, "core.features")) * 1e3,
    );
    values.insert(
        "core.sort.us_p50",
        p50(span_ms(&out.spans, "core.sort")) * 1e3,
    );
    let ops = out.counts.ops as f64;
    values.insert("core.model.paths_per_op", out.counts.paths as f64 / ops);
    values.insert(
        "core.model.vertices_per_op",
        out.counts.vertices as f64 / ops,
    );
    // Scoring time of the first pass over the vertices it scored.
    let counted_score_ms: f64 = out
        .spans
        .iter()
        .filter(|s| s.name == "core.model.score" && s.request < out.counts.ops as u64)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    values.insert(
        "nn.forward_us_per_vertex",
        counted_score_ms * 1e3 / out.counts.vertices as f64,
    );
    let engine = out
        .counts
        .engine
        .as_ref()
        .ok_or("a traced rank window takes the engine's counters")?;
    for (metric, family) in [
        (
            "spatial.engine.searches_per_op",
            "pathrank_engine_queries_total",
        ),
        (
            "spatial.engine.settled_per_op",
            "pathrank_engine_settled_nodes_total",
        ),
        (
            "spatial.engine.heap_pushes_per_op",
            "pathrank_engine_heap_pushes_total",
        ),
        (
            "spatial.engine.fallbacks_per_op",
            "pathrank_engine_fallback_total",
        ),
    ] {
        values.insert(metric, engine.counter_total(family, &[]) as f64 / ops);
    }
    Ok(())
}

fn us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    ns.map(|n| n as f64 / 1e3).collect()
}

/// Per-layer values of a serve window.
fn serve_values(
    out: &serve::Outcome,
    prepared: &serve::Prepared,
    values: &mut Values,
) -> Result<(), String> {
    let answered = |d: &&serve::Done| d.reply.is_ok();
    values.insert(
        "serve.submit_us_p50",
        p50(us(out
            .all_done()
            .map(|d| d.submit_end_ns - d.submit_start_ns))),
    );
    values.insert(
        "serve.wait_us_p50",
        p50(us(out
            .all_done()
            .filter(answered)
            .map(|d| d.wait_end_ns - d.wait_start_ns))),
    );
    let server_latency = out
        .open_metrics
        .histogram("pathrank_serve_request_latency_ns", &[])
        .ok_or("the server's registry has no latency histogram")?;
    let server_p = |p: f64| server_latency.percentile(p) / 1e3;
    values.insert("serve.server.latency_p50_us", server_p(50.0));
    values.insert("serve.server.latency_p99_us", server_p(99.0));
    // Client view of the same requests, from the actual submit.
    let client_open = p50(us(out
        .open
        .done
        .iter()
        .filter(answered)
        .map(|d| d.wait_end_ns - d.submit_start_ns)));
    values.insert(
        "serve.reply_path_us_p50",
        (client_open - server_p(50.0)).max(0.0),
    );
    values.insert(
        "serve.queue.depth_max",
        out.closed.queue_depth_max.max(out.open.queue_depth_max) as f64,
    );

    let total = |name: &str, labels: &[(&str, &str)]| {
        (out.closed_metrics.counter_total(name, labels)
            + out.open_metrics.counter_total(name, labels)) as f64
    };
    let served = total("pathrank_serve_served_total", &[]);
    let shed = total("pathrank_serve_shed_total", &[]);
    values.insert(
        "serve.batch.batched_share",
        total("pathrank_serve_served_total", &[("mode", "batched")]) / served.max(1.0),
    );
    values.insert("serve.shed_share", shed / (served + shed).max(1.0));
    values.insert(
        "serve.batch.size_mean",
        out.closed_metrics
            .histogram("pathrank_serve_batch_size", &[])
            .ok_or("the server's registry has no batch-size histogram")?
            .mean(),
    );

    // Latency from the due instant, as the end-to-end percentiles take it.
    let latency_us = |d: &serve::Done| (d.wait_end_ns - d.due_ns) as f64 / 1e3;
    let open_latency_us = |keep: &dyn Fn(&serve::Done) -> bool| -> Vec<f64> {
        out.open
            .done
            .iter()
            .filter(|d| d.reply.is_ok() && keep(d))
            .map(latency_us)
            .collect()
    };
    let metric_of = |d: &serve::Done| prepared.pool[d.idx as usize].metric;
    values.insert(
        "serve.class.length_p50_us",
        p50(open_latency_us(&|d| metric_of(d) == Metric::Length)),
    );
    values.insert(
        "serve.class.live_p50_us",
        p50(open_latency_us(&|d| metric_of(d) == Metric::Live)),
    );
    values.insert(
        "serve.open.p99_us",
        stats::percentile(&mut open_latency_us(&|_| true), 99.0),
    );
    values.insert(
        "serve.open.max_late_us",
        out.open
            .done
            .iter()
            .map(|d| d.submit_start_ns.saturating_sub(d.due_ns))
            .max()
            .unwrap_or(0) as f64
            / 1e3,
    );
    let (quiet, overlap) =
        serve::split_by_update_overlap(&out.open.done, &prepared.pool, &out.updates);
    let p50_of = |set: Vec<&serve::Done>| p50(set.into_iter().map(latency_us).collect());
    values.insert("serve.live.p50_quiet_us", p50_of(quiet));
    values.insert("serve.live.p50_overlap_us", p50_of(overlap));

    let mut apply: Vec<f64> = out
        .updates
        .iter()
        .map(|u| (u.end_ns - u.start_ns) as f64 / 1e6)
        .collect();
    values.insert(
        "serve.update.apply_ms_p50",
        stats::percentile(&mut apply, 50.0),
    );
    values.insert(
        "serve.update.apply_ms_p95",
        stats::percentile(&mut apply, 95.0),
    );
    values.insert("serve.update.swaps", out.updates.len() as f64);
    // Update call → first reply that carries the new generation.
    let mut live_replies = out
        .all_done()
        .filter_map(|d| Some((d.reply.ok()?.weights_generation, d.wait_end_ns)))
        .filter(|&(g, _)| g > 0)
        .peekable();
    let mut staleness = Vec::new();
    for u in &out.updates {
        while live_replies.peek().is_some_and(|&(g, _)| g < u.generation) {
            live_replies.next();
        }
        if let Some(&(_, seen_ns)) = live_replies.peek() {
            staleness.push(seen_ns.saturating_sub(u.start_ns) as f64 / 1e6);
        }
    }
    values.insert("serve.update.staleness_ms_p50", p50(staleness));
    Ok(())
}

/// Per-layer values that come from the set-up stages.
fn setup_values(env: &Env, values: &mut Values) -> Result<(), String> {
    let s = |name: &str| {
        env.stages
            .seconds(name)
            .ok_or_else(|| format!("set-up stage {name} did not run"))
    };
    values.insert("spatial.generators.region_s", s("setup.region")?);
    values.insert("spatial.landmarks.build_s", s("setup.landmarks")?);
    values.insert("spatial.ch.build_s", s("setup.ch")?);
    values.insert("spatial.cch.topology_s", s("setup.cch_topology")?);
    values.insert("spatial.graph.vertices", env.graph.vertex_count() as f64);
    values.insert("spatial.graph.edges", env.graph.edge_count() as f64);
    values.insert("traj.simulator.fleet_s", s("setup.fleet")?);
    values.insert("embed.walks_s", s("setup.walks")?);
    values.insert("embed.skipgram_s", s("setup.skipgram")?);
    values.insert("embed.node2vec_s", s("setup.walks")? + s("setup.skipgram")?);
    values.insert("core.trainer.prepare_ms", s("setup.prepare")? * 1e3);
    let off = env.offline.as_ref().ok_or("no offline pipeline")?;
    values.insert(
        "traj.mapmatch.traces_per_s",
        off.trips as f64 / s("setup.mapmatch")?,
    );
    values.insert(
        "traj.mapmatch.matched_share",
        off.traces_matched as f64 / off.trips.max(1) as f64,
    );
    let groups = off.train_groups.len() + off.test_groups.len();
    let candidates: usize = off
        .train_groups
        .iter()
        .chain(&off.test_groups)
        .map(TrainingGroup::len)
        .sum();
    values.insert(
        "core.candidates.groups_per_s",
        groups as f64 / s("setup.candidates")?,
    );
    values.insert(
        "core.candidates.per_group",
        candidates as f64 / groups.max(1) as f64,
    );
    Ok(())
}

pub fn run(args: &Args) -> Result<Record, String> {
    let Args {
        workload,
        seed,
        seconds,
        trace: traced,
        ..
    } = *args;
    let run_start_ns = sys::now_ns();
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;

    let mut world = World::build(workload.spec(traced), seed);
    let (main, readings) =
        calib::around(|| run_window(workload, &mut world, seed, seconds, traced));
    let numbers = window_numbers(&main);
    let mut error = main.error().cloned();
    for s in &world.env.stages.0 {
        eprintln!(
            "{} {:.3} s, peak {:.1} MiB",
            s.name,
            (s.end_ns - s.start_ns) as f64 / 1e9,
            s.peak_rss_mib
        );
    }

    // Everything this run measured, by metric name.
    let mut values = Values::new();
    values.insert("setup_s", (main.start_ns() - run_start_ns) as f64 / 1e9);
    if traced {
        let spans_for_file: Vec<Span> = world
            .env
            .stages
            .spans()
            .into_iter()
            .chain(main.spans().iter().copied())
            .collect();
        layer_values(
            workload,
            &mut world,
            &main,
            &numbers,
            readings,
            seed,
            &mut values,
        )?;
        let tau = values["core.eval.kendall_tau"];
        if workload == Workload::TrainOffline && tau < TAU_FLOOR {
            error.get_or_insert(format!(
                "quality probe: Kendall tau {tau} is under the floor {TAU_FLOOR}"
            ));
        }
        trace::write_jsonl(
            &args
                .out_dir
                .join(format!("trace-{}.jsonl", workload.name())),
            &spans_for_file,
        )
        .map_err(|e| e.to_string())?;
    } else {
        window_values(&numbers, &mut values);
    }
    values.insert("peak_rss_mib", main.peak_rss_mib());

    // The line the driver reads lists the mode's metrics; one that was not
    // measured fails the run.
    let listed: &[Def] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(listed.len());
    for d in listed {
        match values.get(d.name) {
            Some(&v) if v.is_finite() && (traced || v > 0.0) => metrics.push((d.name, v, d.unit)),
            other => return Err(format!("{} was not measured: {other:?}", d.name)),
        }
    }

    let correct = error.is_none();
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|d| d.name == name)
            .map_or("", |d| d.unit)
    };
    let all: Vec<(&'static str, f64, &'static str)> = values
        .iter()
        .map(|(&name, &v)| (name, v, unit_of(name)))
        .collect();
    let file = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(traced as u8 as f64)),
        ("seconds", Json::Num(seconds)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(numbers.attempted as f64)),
        ("failed", Json::Num(numbers.failed as f64)),
        ("metrics", metrics_json(&all)),
        (
            "output_hash",
            Json::str(format!("{:016x}", main.output_hash())),
        ),
        (
            "input_hash",
            Json::str(format!(
                "{:016x}",
                world.env.input_hash ^ world.served.as_ref().map_or(0, |p| p.input_hash)
            )),
        ),
        ("error", error.clone().map_or(Json::Null, Json::Str)),
        (
            "detail",
            Json::obj([
                ("latency_samples", Json::Num(numbers.latency.samples as f64)),
                (
                    "blocks_ops_per_s",
                    Json::Arr(
                        numbers
                            .throughput
                            .blocks
                            .iter()
                            .map(|&b| Json::Num(b))
                            .collect(),
                    ),
                ),
                ("op_p99_ms", Json::Num(numbers.latency.p99_ms)),
                ("peak_rss_at_exit_mib", Json::Num(sys::peak_rss_mib())),
                ("calibration_ms_before", Json::Num(readings.before_ms)),
                ("calibration_ms_after", Json::Num(readings.after_ms)),
                ("noisy", Json::Bool(readings.noisy())),
                ("nproc", Json::Num(sys::nproc() as f64)),
                ("cpu_model", Json::str(sys::cpu_model())),
            ]),
        ),
    ]);
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        seed,
        traced as u8
    ));
    std::fs::write(&path, file.write() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(Record {
        correct,
        attempted: numbers.attempted,
        failed: numbers.failed,
        metrics,
        error,
    })
}

/// Traced ÷ untraced time. The single-threaded loops replay the same ops
/// in the same order, so the ratio is taken over the ops both windows
/// completed; the serve windows are compared by their block medians.
fn overhead_ratio(traced: &Main, untraced: &Main) -> f64 {
    let time_of = |log: &Log, n: usize| (log.ops[n - 1].end_ns - log.start_ns) as f64;
    let (a, b) = match (traced, untraced) {
        (Main::Rank(_, a), Main::Rank(_, b)) => (&a.log, &b.log),
        (Main::Train(a), Main::Train(b)) => (&a.log, &b.log),
        _ => {
            return window_numbers(untraced).throughput.ops_per_s
                / window_numbers(traced).throughput.ops_per_s
        }
    };
    let n = a.ops.len().min(b.ops.len());
    time_of(a, n) / time_of(b, n)
}

/// Everything a traced run measures beyond its window: the untraced
/// repeat, the other workloads' side windows, and the probes.
fn layer_values(
    workload: Workload,
    world: &mut World,
    main: &Main,
    numbers: &WindowNumbers,
    readings: Readings,
    seed: u64,
    values: &mut Values,
) -> Result<(), String> {
    // The same window again with spans off.
    let repeat = run_window(workload, world, seed, UNTRACED_REPEAT_S, false);
    window_values(&window_numbers(&repeat), values);
    values.insert("bench.trace_overhead_ratio", overhead_ratio(main, &repeat));
    values.insert("bench.blocks", numbers.throughput.blocks.len() as f64);
    values.insert("bench.calibration_ms", readings.mean_ms());

    // Rank windows: the run's own, or a side window.
    let core_strategy = match main {
        Main::Rank(s, _) => *s,
        _ => Strategy::TkDI,
    };
    for (lane, strategy) in [(3, Strategy::TkDI), (4, Strategy::DTkDI)] {
        let side;
        let out = match main {
            Main::Rank(s, o) if *s == strategy => o,
            _ => {
                side = rank::run(&world.env, strategy, SIDE_WINDOW_S, true, lane);
                if let Some(e) = &side.error {
                    return Err(format!("rank side window: {e}"));
                }
                &side
            }
        };
        rank_values(strategy, out, strategy == core_strategy, values)?;
    }

    // Serve window.
    {
        let prepared = world.served.as_mut().expect("traced runs start a server");
        let side;
        let out = match main {
            Main::Serve(o) => o,
            _ => {
                side = serve::run(&world.env, prepared, seed, 2.0 * SIDE_WINDOW_S, true, 5);
                if let Some(e) = &side.error {
                    return Err(format!("serve side window: {e}"));
                }
                &side
            }
        };
        serve_values(out, prepared, values)?;
        values.insert(
            "obs.snapshot_ms",
            probes::snapshot_ms(prepared.server.registry()),
        );
        let (tcp, direct) = serve::tcp_probe(&prepared.server, &prepared.pool, TCP_PROBE_REQUESTS)
            .map_err(|e| format!("TCP probe: {e}"))?;
        values.insert("serve.tcp.route_us_p50", tcp);
        values.insert("serve.tcp.overhead_us_p50", (tcp - direct).max(0.0));
    }

    // Probes on this run's environment.
    probes::spatial(&world.env, values);
    probes::nn(&world.env, seed, values);

    // Train window last: it moves the model the rank windows scored with.
    {
        let side;
        let out = match main {
            Main::Train(o) => o,
            _ => {
                let env = &mut world.env;
                let samples = &env.offline.as_ref().expect("offline pipeline").samples;
                let model = env.model.as_mut().expect("model");
                side = train::run(samples, model, seed, SIDE_WINDOW_S, true, 6);
                if let Some(e) = &side.error {
                    return Err(format!("train side window: {e}"));
                }
                &side
            }
        };
        check_op_trees(&out.spans)?;
        let slice = TRAIN_SLICE.min(world.env.offline.as_ref().expect("offline").samples.len());
        let ops_per_s = window::throughput(out.log.start_ns, &out.log.ops).ops_per_s;
        values.insert("core.trainer.samples_per_s", ops_per_s * slice as f64);
    }
    let off = world.env.offline.as_ref().expect("offline pipeline");
    if off.test_groups.is_empty() {
        return Err("the offline pipeline held out no groups".into());
    }
    let q = train::quality_probe(
        world.env.graph.vertex_count(),
        &off.embedding,
        &off.samples,
        &off.test_groups,
        seed,
    );
    values.insert(
        "core.eval.paths_per_s",
        q.eval_paths as f64 * 1e9 / (q.eval_ns.1 - q.eval_ns.0) as f64,
    );
    values.insert("core.eval.kendall_tau", q.kendall_tau);
    values.insert("core.eval.mae", q.mae);
    values.insert("core.trainer.final_loss", q.final_loss);

    setup_values(&world.env, values)
}
