//! The repository's benchmark. See `README.md` beside this package.
//!
//! ```text
//! pathrank-benchmark [--out-dir DIR] --workload W --seed N --seconds S --trace 0|1
//! pathrank-benchmark [--out-dir DIR] --smoke
//! pathrank-benchmark compare --base FILE... --new FILE... [--bounds BENCHMARK.json]
//! ```

mod calib;
mod compare;
mod consts;
mod env;
mod json;
mod metrics;
mod probes;
mod rank;
mod rng;
mod runner;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{Args, Workload};

const USAGE: &str = "usage: run.sh --workload <rank_tkdi|rank_dtkdi|train_offline|serve_mixed> \
--seed N --seconds S --trace 0|1\n       run.sh --smoke\n       run.sh compare --base FILE... \
--new FILE... [--bounds BENCHMARK.json]";

fn parse(args: &[String]) -> Result<(Option<Args>, PathBuf), String> {
    let mut out_dir = PathBuf::from("benchmark/out");
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out-dir" => out_dir = value()?.into(),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if smoke {
        return Ok((None, out_dir));
    }
    let missing = |what: &str| format!("{what} is required");
    Ok((
        Some(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            out_dir: out_dir.clone(),
        }),
        out_dir,
    ))
}

/// Every workload for two seconds, untraced and traced.
fn smoke(out_dir: PathBuf) -> bool {
    let mut ok = true;
    for name in consts::WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: Workload::parse(name).expect("listed workload"),
                seed: 1,
                seconds: 2.0,
                trace,
                out_dir: out_dir.clone(),
            };
            match runner::run(&args) {
                Ok(r) if r.correct => {
                    println!("smoke {name} trace={} ok: {} ops", trace as u8, r.attempted)
                }
                Ok(r) => {
                    ok = false;
                    println!(
                        "smoke {name} trace={} INCORRECT: {:?}",
                        trace as u8, r.error
                    );
                }
                Err(e) => {
                    ok = false;
                    println!("smoke {name} trace={} FAILED: {e}", trace as u8);
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `run.sh` puts `--out-dir DIR` first; the subcommand may follow it.
    if let Some(at) = args.iter().position(|a| a == "compare") {
        return match compare::main(&args[at + 1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let (run, out_dir) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(run) = run else {
        return if smoke(out_dir) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    match runner::run(&run) {
        Ok(record) => {
            for (name, value, unit) in &record.metrics {
                eprintln!("{name} = {value} {unit}");
            }
            if let Some(e) = &record.error {
                eprintln!("INCORRECT: {e}");
            }
            println!("{}", record.last_line());
            if record.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
