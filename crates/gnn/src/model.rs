//! The Sleuth model: Eq. 2–4 forward passes (training and generative).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use sleuth_tensor::nn::{Activation, Mlp, Params};
use sleuth_tensor::tape::{Bound, Tape, Var};
use sleuth_tensor::Tensor;
use sleuth_trace::transform::{GLOBAL_LOG_MEAN, GLOBAL_LOG_STD};

use crate::encode::{EncodedTrace, GraphBatch};

const MU: f32 = GLOBAL_LOG_MEAN;
const SIG: f32 = GLOBAL_LOG_STD;
const LOG_EPS: f32 = 1e-3;

/// Message-aggregation flavour of the GNN layer (§3.4.1, §6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AggregatorKind {
    /// Graph Isomorphism Network aggregation over siblings:
    /// `(1 + ε)·x_j + Σ_{k∈S(j)} x_k` (the paper's choice).
    #[default]
    Gin,
    /// Vanilla GCN mean aggregation (the "Sleuth-GCN" baseline).
    Gcn,
}

/// Model hyper-parameters. The architecture is independent of any
/// application's RPC graph — the same (small, fixed-size) network serves
/// every topology, which is what enables transfer (§6.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Semantic embedding dimensionality (must match the featurizer).
    pub sem_dim: usize,
    /// Hidden width of `f_Θ`.
    pub hidden: usize,
    /// Aggregation flavour.
    pub aggregator: AggregatorKind,
    /// GIN self-loop weight ε.
    pub epsilon: f32,
    /// Constant added to the clip-gap head `h₁` (scaled space) before
    /// un-scaling, so the clipping knee `v` initialises near the
    /// timeout scale (`v − u ≈ 10^(4+bias)` µs).
    ///
    /// Note the knees are parameterised as `u' = 10^(σh₀+μ)` and
    /// `v' = u' + 10^(σ(h₁+bias)+μ)` — a deliberate deviation from the
    /// paper's `u' = h₁' − h₀'`, `v' = h₁' + h₀'`. The paper's form ties
    /// `u`'s resolution to `v`'s magnitude: once `v` sits at timeout
    /// scale (10⁶ µs), `u` is a difference of two 10⁶-scale
    /// exponentials and can no longer express the common `u ≈ 10³ µs`
    /// stably. The reparameterisation preserves every property Eq. 2
    /// needs (both knees positive, `u ≤ v`, the async case `v → u`) with
    /// decoupled scales.
    pub knee_bias: f32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            sem_dim: 8,
            hidden: 32,
            aggregator: AggregatorKind::Gin,
            epsilon: 0.5,
            knee_bias: 2.3,
        }
    }
}

/// Per-span predictions from a generative pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePrediction {
    /// Predicted (scaled) duration per span.
    pub d_scaled: Vec<f32>,
    /// Predicted error probability per span.
    pub e_prob: Vec<f32>,
}

impl TracePrediction {
    /// Predicted end-to-end duration (µs) — the root span's prediction.
    pub fn root_duration_us(&self) -> f32 {
        unscale_f(self.d_scaled[0])
    }

    /// Predicted probability the request fails.
    pub fn root_error_prob(&self) -> f32 {
        self.e_prob[0]
    }
}

pub(crate) fn unscale_f(x: f32) -> f32 {
    10f32.powf((SIG * x + MU).clamp(-8.0, 8.0))
}

pub(crate) fn scale_log_f(x: f32) -> f32 {
    (x.max(LOG_EPS).log10() - MU) / SIG
}

fn sigmoid_f(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The Sleuth trace GNN.
#[derive(Debug, Clone)]
pub struct SleuthModel {
    pub(crate) config: ModelConfig,
    pub(crate) params: Params,
    pub(crate) mlp: Mlp,
}

/// Serializable snapshot of a model (§4's model server stores these).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Model hyper-parameters.
    pub config: ModelConfig,
    /// Flattened parameter tensors.
    pub params: Vec<Vec<f32>>,
}

impl SleuthModel {
    /// Initialise a fresh model.
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut params = Params::new();
        let in_dim = 2 + (2 + config.sem_dim);
        let mlp = Mlp::new(
            &mut params,
            &[in_dim, config.hidden, 4],
            Activation::Relu,
            &mut rng,
        );
        SleuthModel {
            config: *config,
            params,
            mlp,
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of trainable scalars — constant in the application size,
    /// unlike Sage's per-node VAEs (§7.1).
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Mutable access to the parameter store (used by the trainer).
    pub(crate) fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Snapshot the model for storage or transfer.
    pub fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            config: self.config,
            params: self.params.to_flat(),
        }
    }

    /// Restore a model from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a description when the snapshot's shapes do not match its
    /// own config.
    pub fn from_checkpoint(ck: &Checkpoint) -> Result<Self, String> {
        let mut model = SleuthModel::new(&ck.config, 0);
        model.params.load_flat(&ck.params)?;
        Ok(model)
    }

    /// Teacher-forced forward pass: build `(tape, dhat, ehat, bound)`
    /// over a packed batch, with child states taken from observations.
    fn forward_teacher_forced(&self, batch: &GraphBatch) -> (Tape, Var, Var, Bound) {
        let tape = Tape::new();
        let bound = self.params.bind(&tape);
        let x = tape.leaf(batch.x.clone());
        let xs = tape.leaf(batch.x_star.clone());

        if batch.child_nodes.is_empty() {
            // Degenerate batch of single-span traces: predictions reduce
            // to the exclusive features.
            let dhat = tape.slice_cols(xs, 0, 1);
            let ehat = tape.slice_cols(xs, 1, 2);
            return (tape, dhat, ehat, bound);
        }

        let h = self.h_vectors(&tape, &bound, x, xs, batch);

        // Eq. 2 — duration decoder.
        let xc = tape.gather_rows(x, &batch.child_nodes);
        let kb = self.config.knee_bias;
        let u = tape.unscale(tape.slice_cols(h, 0, 1), MU, SIG);
        let gap = tape.unscale(tape.add_scalar(tape.slice_cols(h, 1, 2), kb), MU, SIG);
        let v = tape.add(u, gap);
        let d_child_scaled = tape.slice_cols(xc, 0, 1);
        let d_child = tape.unscale(d_child_scaled, MU, SIG);
        let contrib = tape.sub(
            tape.relu(tape.sub(d_child, u)),
            tape.relu(tape.sub(d_child, v)),
        );
        let wait = tape.segment_sum(contrib, &batch.parent_of_child, batch.n);
        let d_star = tape.unscale(tape.slice_cols(xs, 0, 1), MU, SIG);
        let dhat_prime = tape.add(wait, d_star);
        let dhat = tape.scale_log(dhat_prime, MU, SIG, LOG_EPS);

        // Eq. 3 — error decoder (see crate docs for the ±1 mapping and
        // the v-anchored duration gate).
        let e_child = tape.slice_cols(xc, 1, 2);
        let e_pm = tape.add_scalar(tape.scale(e_child, 2.0), -1.0);
        let h2 = tape.slice_cols(h, 2, 3);
        let h3 = tape.slice_cols(h, 3, 4);
        let gate_err = tape.sigmoid(tape.mul(h2, e_pm));
        let v_scaled = tape.scale_log(v, MU, SIG, LOG_EPS);
        let over_timeout = tape.sub(d_child_scaled, v_scaled);
        let gate_dur = tape.sigmoid(tape.mul(h3, over_timeout));
        let gate = tape.max_elem(gate_err, gate_dur);
        let prop = tape.segment_max(gate, &batch.parent_of_child, batch.n, 0.0);
        let e_star = tape.slice_cols(xs, 1, 2);
        let ehat = tape.max_elem(prop, e_star);

        (tape, dhat, ehat, bound)
    }

    /// Teacher-forced training forward pass over a packed batch.
    /// Returns the tape, the scalar loss var, and the parameter binding
    /// (for the optimiser).
    pub fn loss_on_batch(&self, batch: &GraphBatch) -> (Tape, Var, Bound) {
        let (tape, dhat, ehat, bound) = self.forward_teacher_forced(batch);
        let mse = tape.mse_loss(dhat, &batch.d_target);
        let bce = tape.bce_loss(ehat, &batch.e_target);
        let loss = tape.add(mse, bce);
        (tape, loss, bound)
    }

    /// Teacher-forced reconstruction of every span's (scaled) duration
    /// and error probability — the paper's training-time view, also
    /// usable for anomaly scoring.
    pub fn reconstruct(&self, batch: &GraphBatch) -> TracePrediction {
        let (tape, dhat, ehat, _bound) = self.forward_teacher_forced(batch);
        TracePrediction {
            d_scaled: tape.value(dhat).data().to_vec(),
            e_prob: tape.value(ehat).data().to_vec(),
        }
    }

    /// Eq. 4 — per-child parameter vectors `h_j` from the sibling
    /// aggregation concatenated with the parent's exclusive features.
    fn h_vectors(
        &self,
        tape: &Tape,
        bound: &Bound,
        x: Var,
        xs: Var,
        batch: &GraphBatch,
    ) -> Var {
        let xc = tape.gather_rows(x, &batch.child_nodes);
        let fam_sum = tape.segment_sum(xc, &batch.parent_of_child, batch.n);
        let gathered = tape.gather_rows(fam_sum, &batch.parent_of_child);
        let agg = match self.config.aggregator {
            AggregatorKind::Gin => {
                if self.config.epsilon != 0.0 {
                    tape.add(gathered, tape.scale(xc, self.config.epsilon))
                } else {
                    gathered
                }
            }
            AggregatorKind::Gcn => {
                // Mean over the family: divide by sibling count.
                let mut deg = vec![0f32; batch.n];
                for &p in &batch.parent_of_child {
                    deg[p] += 1.0;
                }
                let f = 2 + self.config.sem_dim;
                let mut recip = Vec::with_capacity(batch.child_nodes.len() * f);
                for &p in &batch.parent_of_child {
                    for _ in 0..f {
                        recip.push(1.0 / deg[p]);
                    }
                }
                let recip = tape.leaf(Tensor::new(
                    vec![batch.child_nodes.len(), f],
                    recip,
                ));
                tape.mul(gathered, recip)
            }
        };
        let xsp = tape.gather_rows(xs, &batch.parent_of_child);
        let input = tape.concat_cols(xsp, agg);
        self.mlp.forward(tape, bound, input)
    }

    /// Generative (ancestral) inference: child states are the model's own
    /// predictions, computed bottom-up. `overrides` replaces the
    /// exclusive features `[d*, e*]` of selected spans before the pass —
    /// the counterfactual "restore to normal" intervention of §3.5.
    pub fn predict_with_overrides(
        &self,
        enc: &EncodedTrace,
        overrides: &[(usize, f32, f32)],
    ) -> TracePrediction {
        let n = enc.len();
        let mut d_star = enc.d_star_scaled.clone();
        let mut e_star = enc.e_star.clone();
        for &(i, d, e) in overrides {
            d_star[i] = d;
            e_star[i] = e;
        }
        // Children lists from the parent vector.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in enc.parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(i);
            }
        }

        let mut d_hat = d_star.clone();
        let mut e_hat = e_star.clone();
        let f = 2 + self.config.sem_dim;
        for i in (0..n).rev() {
            if children[i].is_empty() {
                continue;
            }
            let fam = &children[i];
            // Counterfactual child features.
            let mut xc = Vec::with_capacity(fam.len() * f);
            for &j in fam {
                xc.push(d_hat[j]);
                xc.push(e_hat[j]);
                xc.extend_from_slice(enc.sem_row(j));
            }
            let xc = Tensor::new(vec![fam.len(), f], xc);
            // Family sum / mean.
            let mut fam_agg = vec![0f32; f];
            for r in 0..fam.len() {
                for (c, agg) in fam_agg.iter_mut().enumerate() {
                    *agg += xc.at(r, c);
                }
            }
            if self.config.aggregator == AggregatorKind::Gcn {
                for a in fam_agg.iter_mut() {
                    *a /= fam.len() as f32;
                }
            }
            // Build MLP input per child.
            let in_dim = 2 + f;
            let mut input = Vec::with_capacity(fam.len() * in_dim);
            for r in 0..fam.len() {
                input.push(d_star[i]);
                input.push(e_star[i]);
                for (c, &agg) in fam_agg.iter().enumerate() {
                    let self_term = if self.config.aggregator == AggregatorKind::Gin {
                        self.config.epsilon * xc.at(r, c)
                    } else {
                        0.0
                    };
                    input.push(agg + self_term);
                }
            }
            let input = Tensor::new(vec![fam.len(), in_dim], input);
            let h = self.mlp.infer(&self.params, &input);

            // Eq. 2 / Eq. 3 decoders on predictions.
            let mut wait = 0f32;
            let mut gate_max = 0f32;
            for (r, &j) in fam.iter().enumerate() {
                let u = unscale_f(h.at(r, 0));
                let v = u + unscale_f(h.at(r, 1) + self.config.knee_bias);
                let dj = unscale_f(d_hat[j]);
                wait += (dj - u).max(0.0) - (dj - v).max(0.0);
                let e_pm = 2.0 * e_hat[j] - 1.0;
                let gate_err = sigmoid_f(h.at(r, 2) * e_pm);
                let gate_dur = sigmoid_f(h.at(r, 3) * (d_hat[j] - scale_log_f(v)));
                gate_max = gate_max.max(gate_err).max(gate_dur);
            }
            d_hat[i] = scale_log_f(wait + unscale_f(d_star[i]));
            e_hat[i] = gate_max.max(e_star[i]);
        }
        TracePrediction {
            d_scaled: d_hat,
            e_prob: e_hat,
        }
    }

    /// Generative inference with no interventions.
    pub fn predict(&self, enc: &EncodedTrace) -> TracePrediction {
        self.predict_with_overrides(enc, &[])
    }

    /// Interpretability hook: the learned clipped-ReLU knees `(u', v')`
    /// in µs for every child of span `parent`, evaluated on the observed
    /// features (Eq. 2).
    pub fn family_knees(&self, enc: &EncodedTrace, parent: usize) -> Vec<(usize, f32, f32)> {
        let fam: Vec<usize> = (0..enc.len())
            .filter(|&j| enc.parent[j] == Some(parent))
            .collect();
        if fam.is_empty() {
            return Vec::new();
        }
        let f = 2 + self.config.sem_dim;
        let in_dim = 2 + f;
        let mut fam_agg = vec![0f32; f];
        for &j in &fam {
            fam_agg[0] += enc.d_scaled[j];
            fam_agg[1] += enc.e[j];
            for (c, s) in fam_agg[2..].iter_mut().zip(enc.sem_row(j)) {
                *c += s;
            }
        }
        if self.config.aggregator == AggregatorKind::Gcn {
            for a in fam_agg.iter_mut() {
                *a /= fam.len() as f32;
            }
        }
        let mut input = Vec::with_capacity(fam.len() * in_dim);
        for &j in &fam {
            input.push(enc.d_star_scaled[parent]);
            input.push(enc.e_star[parent]);
            for c in 0..f {
                let self_term = if self.config.aggregator == AggregatorKind::Gin {
                    let xjc = if c < 2 {
                        [enc.d_scaled[j], enc.e[j]][c]
                    } else {
                        enc.sem_row(j)[c - 2]
                    };
                    self.config.epsilon * xjc
                } else {
                    0.0
                };
                input.push(fam_agg[c] + self_term);
            }
        }
        let h = self
            .mlp
            .infer(&self.params, &Tensor::new(vec![fam.len(), in_dim], input));
        fam.iter()
            .enumerate()
            .map(|(r, &j)| {
                let u = unscale_f(h.at(r, 0));
                let v = u + unscale_f(h.at(r, 1) + self.config.knee_bias);
                (j, u, v)
            })
            .collect()
    }

    /// Structural-counterfactual inference with per-node **abduction**
    /// (Pearl's abduction–action–prediction over the trace's causal
    /// Bayesian network).
    ///
    /// Each span's mechanism is `d_i = f(children) + d*_i + ε_i`; the
    /// exogenous residual `ε_i` is abduced from the observed trace
    /// (observed value minus the teacher-forced prediction) and carried
    /// into the counterfactual. Consequences:
    ///
    /// * subtrees untouched by the intervention reproduce their
    ///   *observed* values exactly (no exposure-bias drift on deep
    ///   traces, unlike the purely generative
    ///   [`SleuthModel::predict_with_overrides`]),
    /// * along modified paths, only the model-attributed *delta*
    ///   propagates, anchored to reality at every level.
    ///
    /// `overrides` replaces `[d*, e*]` of selected spans, as in
    /// [`SleuthModel::predict_with_overrides`].
    ///
    /// Spans outside the overrides' ancestor closure reproduce their
    /// observed values exactly (that is what abduction pins down), so
    /// this is a one-shot [`crate::CfSession`], which abduces only that
    /// closure — callers issuing many override sets against the same
    /// trace should hold a session and share the abduced families.
    pub fn predict_counterfactual(
        &self,
        enc: &EncodedTrace,
        overrides: &[(usize, f32, f32)],
    ) -> TracePrediction {
        crate::CfSession::new(self, enc).predict_full(overrides)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Featurizer;
    use sleuth_trace::{Span, SpanKind, Trace};

    fn fan_trace(child_durs: &[u64]) -> Trace {
        let total: u64 = 2000 + child_durs.iter().max().copied().unwrap_or(0);
        let mut spans = vec![Span::builder(1, 1, "root", "GET /")
            .time(0, total)
            .build()];
        for (i, &d) in child_durs.iter().enumerate() {
            spans.push(
                Span::builder(1, 2 + i as u64, format!("svc{i}"), format!("op{i}"))
                    .parent(1)
                    .kind(SpanKind::Client)
                    .time(1000, 1000 + d)
                    .build(),
            );
        }
        Trace::assemble(spans).unwrap()
    }

    #[test]
    fn fresh_model_shapes() {
        let m = SleuthModel::new(&ModelConfig::default(), 1);
        // Two layers: (12 -> 32) + bias, (32 -> 4) + bias.
        let in_dim = 2 + 2 + 8;
        assert_eq!(
            m.num_parameters(),
            in_dim * 32 + 32 + 32 * 4 + 4
        );
    }

    #[test]
    fn model_size_independent_of_trace_size() {
        let m = SleuthModel::new(&ModelConfig::default(), 1);
        let p = m.num_parameters();
        let mut f = Featurizer::new(8);
        let small = f.encode(&fan_trace(&[100]));
        let large = f.encode(&fan_trace(&[100; 40]));
        let _ = m.predict(&small);
        let _ = m.predict(&large);
        assert_eq!(m.num_parameters(), p);
    }

    #[test]
    fn loss_is_finite_and_scalar() {
        let m = SleuthModel::new(&ModelConfig::default(), 2);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[500, 900, 100]));
        let batch = GraphBatch::pack(&[&enc]);
        let (tape, loss, _bound) = m.loss_on_batch(&batch);
        let v = tape.value(loss).item();
        assert!(v.is_finite() && v >= 0.0, "loss {v}");
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let m = SleuthModel::new(&ModelConfig::default(), 3);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[500, 900]));
        let batch = GraphBatch::pack(&[&enc]);
        let (tape, loss, bound) = m.loss_on_batch(&batch);
        let grads = tape.backward(loss);
        for &v in bound.vars() {
            assert!(grads.try_get(v).is_some(), "parameter missing gradient");
        }
    }

    #[test]
    fn gcn_variant_runs() {
        let cfg = ModelConfig {
            aggregator: AggregatorKind::Gcn,
            ..ModelConfig::default()
        };
        let m = SleuthModel::new(&cfg, 4);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[500, 900, 700]));
        let batch = GraphBatch::pack(&[&enc]);
        let (tape, loss, _bound) = m.loss_on_batch(&batch);
        assert!(tape.value(loss).item().is_finite());
        let pred = m.predict(&enc);
        assert!(pred.root_duration_us().is_finite());
    }

    #[test]
    fn prediction_vectors_match_trace_len() {
        let m = SleuthModel::new(&ModelConfig::default(), 5);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[100, 200, 300]));
        let pred = m.predict(&enc);
        assert_eq!(pred.d_scaled.len(), 4);
        assert_eq!(pred.e_prob.len(), 4);
        assert!(pred.e_prob.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn overrides_change_prediction() {
        // Train on fan traces whose root duration tracks the slowest
        // child, then check the counterfactual direction: restoring the
        // slow child's exclusive duration must reduce the predicted
        // end-to-end duration.
        use crate::train::TrainConfig;
        let mut f = Featurizer::new(8);
        let mut rng_state = 12345u64;
        // Log-uniform child durations in [1 ms, ~400 ms], so skewed
        // sibling mixes (one slow, others fast) are in-distribution.
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((rng_state >> 40) % 1_000) as f64 / 1_000.0;
            (1_000.0 * 10f64.powf(2.6 * u)) as u64
        };
        let data: Vec<_> = (0..80)
            .map(|_| f.encode(&fan_trace(&[next(), next(), next()])))
            .collect();
        let mut m = SleuthModel::new(&ModelConfig::default(), 6);
        m.train(
            &data,
            &TrainConfig {
                epochs: 50,
                batch_traces: 16,
                lr: 1e-2,
                seed: 1,
            },
        );

        // Slow child within the training distribution's range so the
        // learned clipping knee v' does not flatten it.
        let enc = f.encode(&fan_trace(&[350_000, 2_000, 3_000]));
        let base = m.predict(&enc);
        let fast = sleuth_trace::transform::scale_duration(1_000);
        let idx_slow = (0..enc.len())
            .find(|&i| enc.parent[i].is_some() && enc.d_scaled[i] > 1.0)
            .expect("slow child exists");
        let restored = m.predict_with_overrides(&enc, &[(idx_slow, fast, 0.0)]);
        assert!(
            restored.root_duration_us() < base.root_duration_us(),
            "restoring the slow child must reduce predicted duration: {} vs {}",
            restored.root_duration_us(),
            base.root_duration_us()
        );
    }

    #[test]
    fn counterfactual_without_intervention_reproduces_observation() {
        // With no overrides, abduction must reproduce the observed
        // trace exactly (up to scaling round-trips) — even on an
        // untrained model, where the generative pass would drift.
        let m = SleuthModel::new(&ModelConfig::default(), 21);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[500, 120_000, 3_000]));
        let pred = m.predict_counterfactual(&enc, &[]);
        for i in 0..enc.len() {
            assert!(
                (pred.d_scaled[i] - enc.d_scaled[i]).abs() < 1e-3,
                "span {i}: {} vs {}",
                pred.d_scaled[i],
                enc.d_scaled[i]
            );
            assert!((pred.e_prob[i] - enc.e[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn counterfactual_restoring_slow_child_reduces_root() {
        // Even an untrained model attributes *some* contribution via its
        // initial knees; with abduction the root moves from the observed
        // value by exactly the attributed delta, so restoring the slow
        // child must not increase the root.
        let m = SleuthModel::new(&ModelConfig::default(), 22);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[400_000, 2_000, 3_000]));
        let base = m.predict_counterfactual(&enc, &[]);
        let fast = sleuth_trace::transform::scale_duration(1_000);
        let idx_slow = (0..enc.len())
            .find(|&i| enc.parent[i].is_some() && enc.d_scaled[i] > 1.0)
            .expect("slow child exists");
        let cf = m.predict_counterfactual(&enc, &[(idx_slow, fast, 0.0)]);
        assert!(
            cf.root_duration_us() <= base.root_duration_us() + 1.0,
            "restoration increased the root: {} -> {}",
            base.root_duration_us(),
            cf.root_duration_us()
        );
    }

    #[test]
    fn counterfactual_clears_propagated_error() {
        use sleuth_trace::StatusCode;
        // Child has an exclusive error; root errored by propagation.
        let spans = vec![
            Span::builder(1, 1, "root", "GET /")
                .time(0, 10_000)
                .status(StatusCode::Error)
                .build(),
            Span::builder(1, 2, "db", "query")
                .parent(1)
                .kind(SpanKind::Client)
                .time(1_000, 9_000)
                .status(StatusCode::Error)
                .build(),
        ];
        let trace = Trace::assemble(spans).unwrap();
        let m = SleuthModel::new(&ModelConfig::default(), 23);
        let mut f = Featurizer::new(8);
        let enc = f.encode(&trace);
        let base = m.predict_counterfactual(&enc, &[]);
        assert!(base.root_error_prob() > 0.9, "observed error must persist");
        // Restore the failing child: clear its exclusive error.
        let child = (0..enc.len()).find(|&i| enc.parent[i].is_some()).unwrap();
        let cf = m.predict_counterfactual(&enc, &[(child, enc.d_star_scaled[child], 0.0)]);
        assert_eq!(cf.e_prob[child], 0.0, "restored child must be clean");
        assert!(
            cf.root_error_prob() <= base.root_error_prob() + 1e-6,
            "restoring the erroring child must not raise root error: {} -> {}",
            base.root_error_prob(),
            cf.root_error_prob()
        );
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let m = SleuthModel::new(&ModelConfig::default(), 7);
        let ck = m.to_checkpoint();
        let json = serde_json::to_string(&ck).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        let m2 = SleuthModel::from_checkpoint(&back).unwrap();
        let mut f = Featurizer::new(8);
        let enc = f.encode(&fan_trace(&[100, 5_000]));
        assert_eq!(m.predict(&enc), m2.predict(&enc));
    }

    #[test]
    fn checkpoint_shape_mismatch_rejected() {
        let m = SleuthModel::new(&ModelConfig::default(), 8);
        let mut ck = m.to_checkpoint();
        ck.params[0].pop();
        assert!(SleuthModel::from_checkpoint(&ck).is_err());
    }

    #[test]
    fn single_span_trace_batch() {
        let m = SleuthModel::new(&ModelConfig::default(), 9);
        let mut f = Featurizer::new(8);
        let t = Trace::assemble(vec![Span::builder(1, 1, "s", "op").time(0, 100).build()])
            .unwrap();
        let enc = f.encode(&t);
        let batch = GraphBatch::pack(&[&enc]);
        let (tape, loss, _b) = m.loss_on_batch(&batch);
        assert!(tape.value(loss).item().is_finite());
        let pred = m.predict(&enc);
        assert_eq!(pred.d_scaled.len(), 1);
    }
}
