//! Training loop (Eq. 5) with mini-batched graph packing.

use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sleuth_tensor::optim::{Adam, Optimizer};

use crate::encode::{EncodedTrace, GraphBatch};
use crate::model::SleuthModel;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the data.
    pub epochs: usize,
    /// Traces per packed graph batch.
    pub batch_traces: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_traces: 32,
            lr: 5e-3,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Optimiser steps taken.
    pub steps: usize,
}

impl TrainReport {
    /// Loss after the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

impl SleuthModel {
    /// Train (or fine-tune — same procedure on fewer samples, §6.5) the
    /// model on encoded traces.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_traces` is zero.
    pub fn train(&mut self, data: &[EncodedTrace], cfg: &TrainConfig) -> TrainReport {
        assert!(!data.is_empty(), "training data must be non-empty");
        assert!(cfg.batch_traces > 0, "batch size must be positive");
        let start = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut adam = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut steps = 0usize;
        // The previous step's batch, tape and gradients are dropped only
        // after the next step has allocated its own. Each step's buffers
        // are megabytes at the top of the heap; freeing them before the
        // next step lets the allocator trim the heap top back to the OS,
        // and the next step then page-faults the same memory in again,
        // which costs as much as a fifth of the training time.
        let mut previous_step = None;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_traces) {
                let refs: Vec<&EncodedTrace> = chunk.iter().map(|&i| &data[i]).collect();
                let batch = GraphBatch::pack(&refs);
                let (tape, loss, bound) = self.loss_on_batch(&batch);
                total += tape.value(loss).item() as f64;
                batches += 1;
                let grads = tape.backward(loss);
                adam.step(self.params_mut(), &bound, &grads);
                steps += 1;
                let _freed_now = previous_step.replace((batch, tape, grads));
            }
            epoch_losses.push((total / batches.max(1) as f64) as f32);
        }
        TrainReport {
            epoch_losses,
            wall: start.elapsed(),
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Featurizer;
    use crate::model::{AggregatorKind, ModelConfig};
    use sleuth_synth::presets;
    use sleuth_synth::workload::CorpusBuilder;

    fn encoded_corpus(n: usize) -> Vec<EncodedTrace> {
        let app = presets::synthetic(16, 1);
        let corpus = CorpusBuilder::new(&app).seed(9).mixed_traces(n, 25);
        let mut f = Featurizer::new(8);
        corpus.traces.iter().map(|t| f.encode(&t.trace)).collect()
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = encoded_corpus(60);
        let mut model = SleuthModel::new(&ModelConfig::default(), 11);
        let report = model.train(
            &data,
            &TrainConfig {
                epochs: 12,
                batch_traces: 16,
                lr: 5e-3,
                seed: 1,
            },
        );
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} -> {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn trained_model_predicts_healthy_durations() {
        let app = presets::synthetic(16, 1);
        let corpus = CorpusBuilder::new(&app).seed(10).normal_traces(80);
        let mut f = Featurizer::new(8);
        let data: Vec<EncodedTrace> =
            corpus.traces.iter().map(|t| f.encode(&t.trace)).collect();
        let mut model = SleuthModel::new(&ModelConfig::default(), 12);
        model.train(
            &data,
            &TrainConfig {
                epochs: 40,
                batch_traces: 20,
                lr: 1e-2,
                seed: 2,
            },
        );
        // Predicted root duration should be within ~3x of observed for
        // most healthy traces after training.
        let mut ok = 0;
        for (enc, st) in data.iter().zip(&corpus.traces) {
            let pred = model.predict(enc).root_duration_us();
            let actual = st.trace.total_duration_us() as f32;
            if pred > actual / 3.0 && pred < actual * 3.0 {
                ok += 1;
            }
        }
        assert!(
            ok * 2 > data.len(),
            "only {ok}/{} predictions within 3x",
            data.len()
        );
    }

    #[test]
    fn gcn_also_trains() {
        let data = encoded_corpus(40);
        let cfg = ModelConfig {
            aggregator: AggregatorKind::Gcn,
            ..ModelConfig::default()
        };
        let mut model = SleuthModel::new(&cfg, 13);
        let report = model.train(
            &data,
            &TrainConfig {
                epochs: 6,
                batch_traces: 16,
                lr: 5e-3,
                seed: 3,
            },
        );
        assert!(report.final_loss().is_finite());
        assert_eq!(report.epoch_losses.len(), 6);
    }

    #[test]
    fn training_is_deterministic() {
        let data = encoded_corpus(30);
        let cfg = TrainConfig {
            epochs: 3,
            batch_traces: 8,
            lr: 5e-3,
            seed: 4,
        };
        let mut m1 = SleuthModel::new(&ModelConfig::default(), 14);
        let mut m2 = SleuthModel::new(&ModelConfig::default(), 14);
        let r1 = m1.train(&data, &cfg);
        let r2 = m2.train(&data, &cfg);
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        assert_eq!(m1.to_checkpoint().params, m2.to_checkpoint().params);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_data_rejected() {
        let mut model = SleuthModel::new(&ModelConfig::default(), 15);
        let _ = model.train(&[], &TrainConfig::default());
    }
}
