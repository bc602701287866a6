//! Shared plumbing for the experiment binaries: a tiny CLI parser, scale
//! presets, and paper-style table printing.
//!
//! Every `[[bin]]` in this crate regenerates one table or figure of the
//! paper (or a labelled extension experiment). All binaries accept:
//!
//! ```text
//! --quick            milliseconds-scale smoke run (tiny region and fleet)
//! --vehicles N       fleet size                  (default 50)
//! --trips N          trips per vehicle           (default 5)
//! --epochs N         training epochs             (default 4)
//! --k N              candidates per trajectory   (default 10)
//! --seed N           master seed                 (default 2020)
//! --threads N        worker threads              (default 2)
//! --graph FILE       run on a real network (OSM XML or a graph file)
//!                    instead of the generator
//! ```

use pathrank_core::pipeline::ExperimentConfig;
use pathrank_core::trainer::TrainConfig;
use pathrank_traj::simulator::SimulationConfig;

/// Parsed command-line scale options.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Fleet size.
    pub vehicles: usize,
    /// Trips per vehicle.
    pub trips: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Candidates per trajectory.
    pub k: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Tiny smoke-run mode.
    pub quick: bool,
    /// Road-network file to run on instead of the synthetic generator
    /// (raw OSM XML or a `pathrank-graph v1` file).
    pub graph: Option<String>,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            vehicles: 60,
            trips: 6,
            epochs: 12,
            k: 10,
            seed: 2020,
            threads: 2,
            quick: false,
            graph: None,
        }
    }
}

impl Scale {
    /// Parses `std::env::args`-style arguments; unknown flags abort with a
    /// usage message.
    pub fn parse(args: impl Iterator<Item = String>) -> Scale {
        let mut scale = Scale::default();
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            let numeric = |name: &str, args: &mut dyn Iterator<Item = String>| -> u64 {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die(&format!("flag {name} needs a numeric argument")))
            };
            match flag.as_str() {
                "--quick" => scale.quick = true,
                "--vehicles" => scale.vehicles = numeric("--vehicles", &mut args) as usize,
                "--trips" => scale.trips = numeric("--trips", &mut args) as usize,
                "--epochs" => scale.epochs = numeric("--epochs", &mut args) as usize,
                "--k" => scale.k = numeric("--k", &mut args) as usize,
                "--seed" => scale.seed = numeric("--seed", &mut args),
                "--threads" => scale.threads = numeric("--threads", &mut args) as usize,
                "--graph" => {
                    scale.graph = Some(
                        args.next()
                            .unwrap_or_else(|| die("flag --graph needs a file path")),
                    )
                }
                "--help" | "-h" => die("see crate docs for flags"),
                other => die(&format!("unknown flag {other:?}")),
            }
        }
        scale
    }

    /// The experiment environment for this scale.
    pub fn experiment_config(&self) -> ExperimentConfig {
        if self.quick {
            let mut cfg = ExperimentConfig::small_test();
            cfg.seed = self.seed;
            cfg.threads = self.threads;
            return cfg;
        }
        let mut cfg = ExperimentConfig::paper_scale();
        cfg.sim = SimulationConfig {
            n_vehicles: self.vehicles,
            trips_per_vehicle: self.trips,
            ..cfg.sim
        };
        cfg.seed = self.seed;
        cfg.threads = self.threads;
        cfg
    }

    /// The experiment workbench for this scale: built on the `--graph`
    /// network when one was given (raw OSM XML or a graph file), on the
    /// synthetic region otherwise.
    pub fn workbench(&self) -> pathrank_core::pipeline::Workbench {
        use pathrank_core::pipeline::Workbench;
        match &self.graph {
            Some(path) => Workbench::from_graph_file(path, self.experiment_config())
                .unwrap_or_else(|e| die(&format!("--graph {path}: {e}"))),
            None => Workbench::new(self.experiment_config()),
        }
    }

    /// The training configuration for this scale.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: if self.quick { 2 } else { self.epochs },
            lr: 2e-3,
            threads: self.threads,
            seed: self.seed.wrapping_add(7),
            ..TrainConfig::default()
        }
    }

    /// Embedding sizes to sweep: the paper's 64 and 128, shrunk under
    /// `--quick`.
    pub fn embedding_dims(&self) -> Vec<usize> {
        if self.quick {
            vec![16, 32]
        } else {
            vec![64, 128]
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("pathrank-bench: {msg}");
    eprintln!(
        "flags: --quick --vehicles N --trips N --epochs N --k N --seed N --threads N --graph FILE"
    );
    std::process::exit(2);
}

/// Prints a paper-style table row: label, M, then the four metrics.
pub fn print_metric_row(label: &str, m: usize, eval: &pathrank_core::eval::EvalResult) {
    println!(
        "| {label:<8} | {m:>4} | {:>7.4} | {:>7.4} | {:>7.4} | {:>7.4} |",
        eval.mae, eval.mare, eval.tau, eval.rho
    );
}

/// Prints the standard table header used by the table binaries.
pub fn print_metric_header(first_col: &str) {
    println!(
        "| {first_col:<8} | {:>4} | {:>7} | {:>7} | {:>7} | {:>7} |",
        "M", "MAE", "MARE", "tau", "rho"
    );
    println!("|----------|------|---------|---------|---------|---------|");
}

/// Runs one full "training-data strategies" table (paper Tables 1 and 2):
/// strategies {TkDI, D-TkDI} × embedding sizes, for the given model
/// variant. Prints paper-style rows to stdout.
pub fn run_strategy_table(mode: pathrank_core::model::EmbeddingMode, scale: &Scale) {
    use pathrank_core::candidates::{CandidateConfig, Strategy};
    use pathrank_core::model::ModelConfig;

    let mut wb = scale.workbench();
    println!(
        "# Training Data Generation Strategies, {} (network: {} vertices / {} edges; \
         {} train + {} test trajectories; k = {})",
        mode.label(),
        wb.graph.vertex_count(),
        wb.graph.edge_count(),
        wb.train_paths.len(),
        wb.test_paths.len(),
        scale.k,
    );
    print_metric_header("Strategy");
    for strategy in [Strategy::TkDI, Strategy::DTkDI] {
        for dim in scale.embedding_dims() {
            let ccfg = CandidateConfig {
                k: scale.k,
                ..CandidateConfig::paper_default(strategy)
            };
            let mcfg = ModelConfig {
                embedding_mode: mode,
                seed: scale.seed.wrapping_add(11),
                ..ModelConfig::paper_default(dim)
            };
            let res = wb.run(mcfg, ccfg, scale.train_config());
            print_metric_row(strategy.label(), dim, &res.eval);
            eprintln!(
                "  [{} M={dim}] {} train groups, {:.1}s train+eval, final loss {:.5}",
                strategy.label(),
                res.train_groups,
                res.seconds,
                res.report.epoch_losses.last().copied().unwrap_or(f64::NAN),
            );
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Scale {
        let all = std::iter::once("bin".to_string()).chain(tokens.iter().map(|s| s.to_string()));
        Scale::parse(all)
    }

    #[test]
    fn defaults() {
        let s = parse(&[]);
        assert_eq!(s.vehicles, 60);
        assert_eq!(s.k, 10);
        assert!(!s.quick);
    }

    #[test]
    fn flags_override_defaults() {
        let s = parse(&[
            "--quick",
            "--vehicles",
            "9",
            "--epochs",
            "3",
            "--seed",
            "99",
        ]);
        assert!(s.quick);
        assert_eq!(s.vehicles, 9);
        assert_eq!(s.epochs, 3);
        assert_eq!(s.seed, 99);
    }

    #[test]
    fn quick_config_is_small() {
        let s = parse(&["--quick"]);
        let cfg = s.experiment_config();
        assert!(cfg.sim.n_vehicles <= 5);
        assert_eq!(s.train_config().epochs, 2);
        assert_eq!(s.embedding_dims(), vec![16, 32]);
    }

    #[test]
    fn graph_flag_is_parsed() {
        let s = parse(&["--graph", "fixtures/osm/pathrank_city.osm.xml"]);
        assert_eq!(
            s.graph.as_deref(),
            Some("fixtures/osm/pathrank_city.osm.xml")
        );
        assert!(parse(&[]).graph.is_none());
    }

    #[test]
    fn full_config_respects_scale() {
        let s = parse(&["--vehicles", "12", "--trips", "3"]);
        let cfg = s.experiment_config();
        assert_eq!(cfg.sim.n_vehicles, 12);
        assert_eq!(cfg.sim.trips_per_vehicle, 3);
        assert_eq!(s.embedding_dims(), vec![64, 128]);
    }
}
