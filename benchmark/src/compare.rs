//! `compare --base FILE... --new FILE... [--bounds BENCHMARK.json]`:
//! one row per (metric, workload) with each side's median and quartiles
//! and a verdict by the rule of the choosing-metrics guide.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What `BENCHMARK.json` says about one metric.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub higher_is_better: bool,
    /// Share of the base's median the metric may worsen by; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = stats::quartiles(&mut values.to_vec());
        Side { q1, median, q3 }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The guide's rule over paired runs (`base[i]` with `new[i]`).
///
/// * `regressed`: the new median is worse than the base's by more than
///   the bound;
/// * `improved`: at least ten pairs, the new side wins at least nine
///   tenths of all pairs (ties count for neither) and the medians differ
///   by more than the distance between the base's quartiles;
/// * `unresolved`: neither, and either side's quartile distance is wider
///   than the bound — never reported as unchanged;
/// * `unchanged` otherwise.
pub fn judge(base: &[f64], new: &[f64], rule: Rule) -> (Side, Side, Verdict) {
    let (b, n) = (Side::of(base), Side::of(new));
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| better(new[i], base[i])).count();
    let worse_by = if rule.higher_is_better {
        b.median - n.median
    } else {
        n.median - b.median
    };
    let verdict = match rule.bound {
        Some(bound) if worse_by > bound * b.median.abs() => Verdict::Regressed,
        _ if pairs >= 10
            && wins * 10 >= pairs * 9
            && better(n.median, b.median)
            && (n.median - b.median).abs() > b.q3 - b.q1 =>
        {
            Verdict::Improved
        }
        Some(bound) if b.spread() > bound || n.spread() > bound => Verdict::Unresolved,
        _ => Verdict::Unchanged,
    };
    (b, n, verdict)
}

/// One result file: the last line that is a JSON object.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: f64,
    attempted: f64,
    failed: f64,
    output_hash: Option<String>,
    metrics: Vec<(String, f64)>,
}

fn read_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let line = text
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| format!("{}: no result object", path.display()))?;
    let v = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| {
        v.get(k).ok_or_else(|| {
            format!(
                "{}: no \"{k}\" (use the files under benchmark/out/)",
                path.display()
            )
        })
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        seed: field("seed")?.as_f64().unwrap_or(-1.0),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        output_hash: v
            .get("output_hash")
            .and_then(Json::as_str)
            .map(str::to_string),
        metrics,
    })
}

/// Metric rules from `BENCHMARK.json`, end-to-end first.
fn read_rules(path: &Path) -> Result<Vec<(String, Rule)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rules = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in v.get(list).and_then(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            rules.push((
                name.to_string(),
                Rule {
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            ));
        }
    }
    Ok(rules)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut base, mut new): (Vec<PathBuf>, Vec<PathBuf>) = (Vec::new(), Vec::new());
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut into: Option<&mut Vec<PathBuf>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--base" => into = Some(&mut base),
            "--new" => into = Some(&mut new),
            "--bounds" => {
                bounds = it.next().ok_or("--bounds needs a file")?.into();
                into = None;
            }
            file => into
                .as_mut()
                .ok_or_else(|| format!("unexpected argument {file:?}"))?
                .push(file.into()),
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("usage: compare --base FILE... --new FILE... [--bounds BENCHMARK.json]".into());
    }
    let rules = read_rules(&bounds)?;
    let load = |files: &[PathBuf]| -> Result<BTreeMap<String, Vec<Run>>, String> {
        let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
        for f in files {
            let run = read_run(f)?;
            by_workload
                .entry(run.workload.clone())
                .or_default()
                .push(run);
        }
        Ok(by_workload)
    };
    let (base, new) = (load(&base)?, load(&new)?);
    let (report, regressed) = render(&base, &new, &rules);
    print!("{report}");
    Ok(!regressed)
}

fn render(
    base: &BTreeMap<String, Vec<Run>>,
    new: &BTreeMap<String, Vec<Run>>,
    rules: &[(String, Rule)],
) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<36} {:<14} {:>5} {:>36} {:>36}  verdict",
        "metric", "workload", "pairs", "base q1 / median / q3", "new q1 / median / q3"
    );
    for (workload, b_runs) in base {
        let Some(n_runs) = new.get(workload) else {
            let _ = writeln!(out, "{workload}: no new runs");
            continue;
        };
        let column = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect()
        };
        for (name, rule) in rules {
            let (b, n) = (column(b_runs, name), column(n_runs, name));
            if b.len() < 2 || n.len() < 2 {
                continue;
            }
            let (bs, ns, verdict) = judge(&b, &n, *rule);
            regressed |= verdict == Verdict::Regressed;
            let side = |s: &Side| format!("{:.5} / {:.5} / {:.5}", s.q1, s.median, s.q3);
            let _ = writeln!(
                out,
                "{:<36} {:<14} {:>5} {:>36} {:>36}  {}",
                name,
                workload,
                b.len().min(n.len()),
                side(&bs),
                side(&ns),
                verdict.label()
            );
        }
        let share = |runs: &[Run]| {
            let (failed, attempted) = runs
                .iter()
                .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
            (failed, attempted)
        };
        let ((bf, ba), (nf, na)) = (share(b_runs), share(n_runs));
        let more_failures = nf / na.max(1.0) > bf / ba.max(1.0);
        regressed |= more_failures;
        let _ = writeln!(
            out,
            "{:<36} {:<14} {:>5} {:>36} {:>36}  {}",
            "failed / attempted",
            workload,
            b_runs.len().min(n_runs.len()),
            format!("{bf} / {ba}"),
            format!("{nf} / {na}"),
            if more_failures {
                "regressed"
            } else {
                "unchanged"
            }
        );
        for (b, n) in b_runs.iter().zip(n_runs) {
            if b.seed == n.seed && b.output_hash.is_some() && b.output_hash != n.output_hash {
                let _ = writeln!(
                    out,
                    "{workload}: output_hash differs for seed {}: {} vs {}",
                    b.seed,
                    b.output_hash.as_deref().unwrap_or("-"),
                    n.output_hash.as_deref().unwrap_or("-")
                );
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.07),
    };

    fn around(centre: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| centre + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = around(100.0, 0.4);
        let mut b = a.clone();
        b.rotate_left(3);
        assert_eq!(judge(&a, &b, LOWER).2, Verdict::Unchanged);
    }

    #[test]
    fn clear_win_is_improved_and_clear_loss_is_regressed() {
        let base = around(100.0, 0.4);
        assert_eq!(judge(&base, &around(95.0, 0.4), LOWER).2, Verdict::Improved);
        assert_eq!(
            judge(&base, &around(110.0, 0.4), LOWER).2,
            Verdict::Regressed
        );
        let higher = Rule {
            higher_is_better: true,
            bound: Some(0.07),
        };
        assert_eq!(
            judge(&base, &around(110.0, 0.4), higher).2,
            Verdict::Improved
        );
        assert_eq!(
            judge(&base, &around(90.0, 0.4), higher).2,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_win_needs_ten_pairs_nine_tenths_and_more_than_the_base_spread() {
        let base = around(100.0, 0.4);
        // Nine pairs only.
        assert_eq!(
            judge(&base[..9], &around(95.0, 0.4)[..9], LOWER).2,
            Verdict::Unchanged
        );
        // Medians closer than the base's quartile distance.
        assert_eq!(
            judge(&base, &around(99.5, 0.4), LOWER).2,
            Verdict::Unchanged
        );
        // Better median, but the new side loses three of ten pairs.
        let mut mixed = around(95.0, 0.4);
        mixed[0] = 120.0;
        mixed[1] = 120.0;
        mixed[2] = 120.0;
        assert_ne!(judge(&base, &mixed, LOWER).2, Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_never_unchanged() {
        let noisy = around(100.0, 4.0);
        assert_eq!(
            judge(&noisy, &around(101.0, 4.0), LOWER).2,
            Verdict::Unresolved
        );
        // Without a bound there is nothing to be unresolved against.
        let free = Rule {
            higher_is_better: false,
            bound: None,
        };
        assert_eq!(
            judge(&noisy, &around(101.0, 4.0), free).2,
            Verdict::Unchanged
        );
    }

    #[test]
    fn renders_rows_failures_and_hash_mismatches() {
        let run = |seed: f64, v: f64, failed: f64, hash: &str| Run {
            workload: "rank_tkdi".into(),
            seed,
            attempted: 100.0,
            failed,
            output_hash: Some(hash.into()),
            metrics: vec![("op_p50_ms".into(), v)],
        };
        let base: BTreeMap<_, _> = [(
            "rank_tkdi".to_string(),
            (0..10)
                .map(|i| run(i as f64, 100.0 + i as f64 * 0.1, 0.0, "aa"))
                .collect::<Vec<_>>(),
        )]
        .into();
        let new: BTreeMap<_, _> = [(
            "rank_tkdi".to_string(),
            (0..10)
                .map(|i| run(i as f64, 120.0 + i as f64 * 0.1, 1.0, "bb"))
                .collect::<Vec<_>>(),
        )]
        .into();
        let rules = vec![("op_p50_ms".to_string(), LOWER)];
        let (text, regressed) = render(&base, &new, &rules);
        assert!(regressed);
        assert!(text.contains("op_p50_ms") && text.contains("regressed"));
        assert!(text.contains("failed / attempted"));
        assert!(text.contains("output_hash differs for seed 0"));
        let (text, regressed) = render(&base, &base, &rules);
        assert!(!regressed && text.contains("unchanged") && !text.contains("output_hash differs"));
    }
}
