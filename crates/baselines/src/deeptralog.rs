//! DeepTraLog (Zhang et al., ICSE '22) reimplementation.
//!
//! DeepTraLog learns a graph embedding of each trace with a gated GNN
//! and encloses normal embeddings in a minimum hypersphere (Deep SVDD).
//! Sleuth's evaluation (§6.2) uses the embedding-space Euclidean
//! distance as an alternative *clustering* metric and shows that it
//! groups traces with different root causes together — a direct
//! consequence of the SVDD objective pulling all embeddings toward one
//! centre, which this reimplementation reproduces.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sleuth_gnn::Featurizer;
use sleuth_tensor::nn::{Activation, Mlp, Params};
use sleuth_tensor::optim::{Adam, Optimizer};
use sleuth_tensor::{Tape, Tensor};
use sleuth_trace::Trace;

/// The DeepTraLog embedding model.
#[derive(Debug, Clone)]
pub struct DeepTraLog {
    featurizer: Featurizer,
    params: Params,
    node_mlp: Mlp,
    center: Vec<f32>,
    embed_dim: usize,
}

impl DeepTraLog {
    /// Fit the embedding on a (mostly normal) corpus.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn fit(traces: &[Trace], epochs: usize, seed: u64) -> Self {
        assert!(!traces.is_empty(), "training corpus must be non-empty");
        let sem_dim = 8;
        let embed_dim = 8;
        let mut featurizer = Featurizer::new(sem_dim);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = Params::new();
        let node_mlp = Mlp::new(
            &mut params,
            &[2 + sem_dim, 16, embed_dim],
            Activation::Tanh,
            &mut rng,
        );

        let feature_rows: Vec<Tensor> = traces
            .iter()
            .map(|t| {
                let enc = featurizer.encode(t);
                let mut rows = Vec::with_capacity(enc.len());
                for i in 0..enc.len() {
                    let mut r = vec![enc.d_scaled[i], enc.e[i]];
                    r.extend_from_slice(enc.sem_row(i));
                    rows.push(r);
                }
                Tensor::from_rows(rows)
            })
            .collect();

        let mut model = DeepTraLog {
            featurizer,
            params,
            node_mlp,
            center: vec![0.0; embed_dim],
            embed_dim,
        };

        // Deep SVDD: centre = mean initial embedding, then minimise the
        // mean squared distance to it.
        let initial: Vec<Vec<f32>> = feature_rows
            .iter()
            .map(|x| model.embed_features(x))
            .collect();
        let mut center = vec![0.0f32; embed_dim];
        for e in &initial {
            for (c, v) in center.iter_mut().zip(e) {
                *c += v;
            }
        }
        for c in center.iter_mut() {
            *c /= initial.len() as f32;
        }
        model.center = center.clone();

        let mut adam = Adam::new(5e-3);
        for _ in 0..epochs {
            let tape = Tape::new();
            let bound = model.params.bind(&tape);
            // Graph embedding = mean over node embeddings; pack all
            // traces and average each with a segment mean.
            let mut all_rows = Vec::new();
            let mut seg = Vec::new();
            for (g, x) in feature_rows.iter().enumerate() {
                for r in 0..x.rows() {
                    all_rows.push(x.row(r).to_vec());
                    seg.push(g);
                }
            }
            let x = tape.leaf(Tensor::from_rows(all_rows));
            let h = model.node_mlp.forward(&tape, &bound, x);
            let sums = tape.segment_sum(h, &seg, feature_rows.len());
            let mut recip = Vec::with_capacity(feature_rows.len() * embed_dim);
            for t in &feature_rows {
                for _ in 0..embed_dim {
                    recip.push(1.0 / t.rows() as f32);
                }
            }
            let recip = tape.leaf(Tensor::new(vec![feature_rows.len(), embed_dim], recip));
            let means = tape.mul(sums, recip);
            // SVDD objective: squared distance to the fixed centre.
            let targets: Vec<f32> = center
                .iter()
                .cycle()
                .take(feature_rows.len() * embed_dim)
                .copied()
                .collect();
            let loss = tape.mse_loss(means, &targets);
            let grads = tape.backward(loss);
            adam.step(&mut model.params, &bound, &grads);
        }
        model
    }

    fn embed_features(&self, x: &Tensor) -> Vec<f32> {
        let h = self.node_mlp.infer(&self.params, x);
        let mut mean = vec![0.0f32; self.embed_dim];
        for r in 0..h.rows() {
            for (m, &v) in mean.iter_mut().zip(h.row(r)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= h.rows() as f32;
        }
        mean
    }

    /// Embed a trace into the SVDD latent space.
    pub fn embed(&mut self, trace: &Trace) -> Vec<f32> {
        let enc = self.featurizer.encode(trace);
        let mut rows = Vec::with_capacity(enc.len());
        for i in 0..enc.len() {
            let mut r = vec![enc.d_scaled[i], enc.e[i]];
            r.extend_from_slice(enc.sem_row(i));
            rows.push(r);
        }
        self.embed_features(&Tensor::from_rows(rows))
    }

    /// Distance to the hypersphere centre (anomaly score).
    pub fn svdd_score(&mut self, trace: &Trace) -> f32 {
        let e = self.embed(trace);
        e.iter()
            .zip(&self.center)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f32>()
            .sqrt()
    }

    /// Euclidean distance between two traces' embeddings — the
    /// clustering metric §6.2 compares against.
    pub fn distance(&mut self, a: &Trace, b: &Trace) -> f64 {
        let ea = self.embed(a);
        let eb = self.embed(b);
        ea.iter()
            .zip(&eb)
            .map(|(x, y)| ((x - y) * (x - y)) as f64)
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_synth::presets;
    use sleuth_synth::workload::CorpusBuilder;

    fn corpus() -> Vec<Trace> {
        let app = presets::synthetic(16, 1);
        CorpusBuilder::new(&app).seed(4).normal_traces(60).plain_traces()
    }

    #[test]
    fn training_shrinks_distances_to_center() {
        let traces = corpus();
        let mut before = DeepTraLog::fit(&traces, 0, 2);
        let mut after = DeepTraLog::fit(&traces, 60, 2);
        let mean_before: f32 =
            traces.iter().map(|t| before.svdd_score(t)).sum::<f32>() / traces.len() as f32;
        let mean_after: f32 =
            traces.iter().map(|t| after.svdd_score(t)).sum::<f32>() / traces.len() as f32;
        assert!(
            mean_after < mean_before,
            "SVDD objective did not shrink: {mean_before} -> {mean_after}"
        );
    }

    #[test]
    fn embeddings_are_deterministic() {
        let traces = corpus();
        let mut a = DeepTraLog::fit(&traces, 5, 3);
        let mut b = DeepTraLog::fit(&traces, 5, 3);
        assert_eq!(a.embed(&traces[0]), b.embed(&traces[0]));
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let traces = corpus();
        let mut m = DeepTraLog::fit(&traces, 5, 4);
        let d_ab = m.distance(&traces[0], &traces[1]);
        let d_ba = m.distance(&traces[1], &traces[0]);
        assert!((d_ab - d_ba).abs() < 1e-9);
        assert!(m.distance(&traces[0], &traces[0]) < 1e-9);
    }

    #[test]
    fn svdd_collapse_compresses_embedding_space() {
        // The documented failure mode: after SVDD training, pairwise
        // distances shrink relative to the untrained embedding,
        // squeezing distinct behaviours together.
        let traces = corpus();
        let mut fresh = DeepTraLog::fit(&traces, 0, 5);
        let mut trained = DeepTraLog::fit(&traces, 60, 5);
        let mean_pair = |m: &mut DeepTraLog| {
            let mut tot = 0.0;
            let mut n = 0;
            for i in 0..10 {
                for j in (i + 1)..10 {
                    tot += m.distance(&traces[i], &traces[j]);
                    n += 1;
                }
            }
            tot / n as f64
        };
        assert!(mean_pair(&mut trained) < mean_pair(&mut fresh));
    }
}
