//! The train workload: one op trains the model on the next slice of the
//! seeded sample order (forward, tape backward, Adam, two-thread fan-out).

use pathrank_core::candidates::TrainingGroup;
use pathrank_core::eval::evaluate_model;
use pathrank_core::model::PathRankModel;
use pathrank_core::trainer::{train, Sample};
use pathrank_nn::matrix::Matrix;

use crate::consts::*;
use crate::env::{model_config, train_config};
use crate::rng::{Fnv, Rng};
use crate::stats;
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::window::{self, Log};

pub struct Outcome {
    pub log: Log,
    pub spans: Vec<Span>,
    /// Mean loss of each op's slice.
    pub losses: Vec<f64>,
    pub slices_per_pass: usize,
    pub error: Option<String>,
}

impl Outcome {
    /// Fingerprint of the first pass's losses: the same for one seed
    /// however many ops the window went on to complete.
    pub fn output_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for l in &self.losses[..self.slices_per_pass.min(self.losses.len())] {
            h.word(l.to_bits());
        }
        h.0
    }

    /// Mean loss of the first and of the last complete pass over the
    /// samples; `None` with fewer than two passes.
    pub fn first_and_last_pass_loss(&self) -> Option<(f64, f64)> {
        let passes = self.losses.len() / self.slices_per_pass;
        (passes >= 2).then(|| {
            let spp = self.slices_per_pass;
            (
                stats::mean(&self.losses[..spp]),
                stats::mean(&self.losses[(passes - 1) * spp..passes * spp]),
            )
        })
    }
}

/// Checks the losses of a window: all finite, and the last pass below the
/// first when there were two.
pub fn verify(out: &Outcome) -> Result<(), String> {
    if let Some(i) = out.losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("slice {i} has loss {}", out.losses[i]));
    }
    match out.first_and_last_pass_loss() {
        Some((first, last)) if last >= first => Err(format!(
            "loss does not fall: first pass {first}, last pass {last}"
        )),
        _ => Ok(()),
    }
}

/// Trains for `seconds`, and for two whole passes over the samples at
/// least (what the falling-loss check needs).
pub fn run(
    samples: &[Sample],
    model: &mut PathRankModel,
    seed: u64,
    seconds: f64,
    traced: bool,
    lane: u32,
) -> Outcome {
    let slice = TRAIN_SLICE.min(samples.len());
    let slices_per_pass = samples.len() / slice;
    let mut order: Vec<usize> = (0..samples.len()).collect();
    Rng::stream(seed, 0x7a).shuffle(&mut order);
    let ordered: Vec<Sample> = order.iter().map(|&i| samples[i].clone()).collect();

    let mut tr = Tracer::new(traced, lane);
    let mut losses = Vec::new();
    let log = window::closed_loop(seconds, 2 * slices_per_pass, |i| {
        let at = (i % slices_per_pass) * slice;
        let cfg = train_config(THREADS, 1, seed.wrapping_add(i as u64));
        let op = tr.enter("op", i as u64);
        let report = tr.scoped("core.trainer.train", i as u64, || {
            train(model, &ordered[at..at + slice], &cfg)
        });
        tr.exit(op);
        let loss = report.epoch_losses[0];
        losses.push(loss);
        loss.is_finite()
    });
    let mut out = Outcome {
        log,
        spans: tr.into_spans(),
        losses,
        slices_per_pass,
        error: None,
    };
    out.error = verify(&out).err();
    out
}

/// The fixed-work quality probe: a fresh model, exactly two epochs over
/// all samples, then evaluation on the held-out groups. Its numbers
/// repeat exactly for one seed.
pub struct Quality {
    pub kendall_tau: f64,
    pub mae: f64,
    pub final_loss: f64,
    /// When the evaluation began and ended.
    pub eval_ns: (u64, u64),
    pub eval_paths: usize,
}

pub fn quality_probe(
    vocab: usize,
    embedding: &Matrix,
    samples: &[Sample],
    test_groups: &[TrainingGroup],
    seed: u64,
) -> Quality {
    let mut model = PathRankModel::new(vocab, Some(embedding.clone()), model_config(seed));
    let report = train(&mut model, samples, &train_config(THREADS, 2, seed));
    let t1 = sys::now_ns();
    let eval = evaluate_model(&model, test_groups);
    let t2 = sys::now_ns();
    Quality {
        kendall_tau: eval.tau,
        mae: eval.mae,
        final_loss: report.epoch_losses[1],
        eval_ns: (t1, t2),
        eval_paths: test_groups.iter().map(TrainingGroup::len).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(losses: Vec<f64>, slices_per_pass: usize) -> Outcome {
        Outcome {
            log: Log::default(),
            spans: Vec::new(),
            losses,
            slices_per_pass,
            error: None,
        }
    }

    #[test]
    fn losses_must_be_finite_and_fall_from_first_to_last_pass() {
        assert!(verify(&outcome(vec![0.4, 0.3, 0.2, 0.1], 2)).is_ok());
        assert!(verify(&outcome(vec![0.1, 0.2, 0.3, 0.4], 2)).is_err());
        assert!(verify(&outcome(vec![0.4, f64::NAN], 2)).is_err());
        // A single pass proves nothing either way.
        assert!(verify(&outcome(vec![0.1, 0.4, 0.9], 2)).is_ok());
        // The hash covers the first pass only.
        assert_eq!(
            outcome(vec![0.4, 0.3, 0.2, 0.1], 2).output_hash(),
            outcome(vec![0.4, 0.3, 0.25], 2).output_hash()
        );
        assert_ne!(
            outcome(vec![0.4, 0.3], 2).output_hash(),
            outcome(vec![0.4, 0.31], 2).output_hash()
        );
        assert_eq!(
            outcome(vec![0.5, 0.3, 0.2, 0.2, 9.0], 2).first_and_last_pass_loss(),
            Some((0.4, 0.2)),
            "a trailing partial pass is left out"
        );
    }
}
