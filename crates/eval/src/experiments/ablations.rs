//! Ablations over Sleuth's design choices.
//!
//! * [`ablation_distance`] — the Eq. 1 weighted-Jaccard distance vs the
//!   tree edit distance it replaces (§3.3.1's complexity argument),
//! * [`ablation_clustering`] — HDBSCAN vs DBSCAN vs no clustering:
//!   accuracy cost and inference savings (§3.3.2),
//! * [`ablation_decoder`] — the GNN decoder vs a linear SEM (§3.4's
//!   non-linearity argument) and the GCN aggregation ablation.

use std::collections::BTreeSet;
use std::time::Instant;

use serde::Serialize;

use sleuth_baselines::common::RootCauseLocator;
use sleuth_baselines::LinearSem;
use sleuth_cluster::{
    dbscan, normalized_ted, DbscanParams, DistanceMatrix, HdbscanParams, OrderedTree,
    TraceSetEncoder,
};
use sleuth_core::pipeline::{PipelineConfig, SleuthPipeline};
use sleuth_gnn::TrainConfig;
use sleuth_trace::Trace;

use crate::experiments::{
    eval_locator, eval_pipeline_clustered, prepare, AppSpec, EvalScale,
};
use crate::metrics::EvalAccumulator;
use crate::report::Table;

// ---------------------------------------------------------------------------
// Distance metric ablation
// ---------------------------------------------------------------------------

/// One trace-size point of the distance ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistanceRow {
    /// Spans per trace at this point.
    pub spans: usize,
    /// Mean microseconds per pair, weighted Jaccard.
    pub jaccard_us: f64,
    /// Mean microseconds per pair, Zhang–Shasha TED.
    pub ted_us: f64,
    /// TED time / Jaccard time.
    pub speedup: f64,
    /// Rank correlation proxy: fraction of trace pairs ordered the same
    /// way by both distances.
    pub pair_agreement: f64,
}

/// Result of the distance ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistanceAblation {
    /// One row per trace size.
    pub rows: Vec<DistanceRow>,
}

impl DistanceAblation {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: Eq.1 weighted Jaccard vs tree edit distance",
            &["spans", "jaccard µs/pair", "TED µs/pair", "speedup", "pair agreement"],
        );
        for r in &self.rows {
            t.row(&[
                r.spans.to_string(),
                format!("{:.1}", r.jaccard_us),
                format!("{:.1}", r.ted_us),
                format!("{:.1}x", r.speedup),
                format!("{:.2}", r.pair_agreement),
            ]);
        }
        t
    }
}

/// Measure both distances across trace sizes.
pub fn ablation_distance(scale: &EvalScale) -> DistanceAblation {
    let sizes: Vec<usize> = scale.fig5_scales.clone();
    let mut rows = Vec::new();
    for (i, &rpcs) in sizes.iter().enumerate() {
        let prepared = prepare(AppSpec::Synthetic(rpcs), scale, 3_000 + i as u64);
        let traces: Vec<&Trace> = prepared.train.iter().take(12).collect();
        let spans = traces.iter().map(|t| t.len()).max().unwrap_or(0);

        let encoder = TraceSetEncoder::new(3);
        let sets: Vec<_> = traces.iter().map(|t| encoder.encode(t)).collect();
        let trees: Vec<_> = traces.iter().map(|t| OrderedTree::from_trace(t)).collect();

        let mut jd = Vec::new();
        let start = Instant::now();
        for a in 0..sets.len() {
            for b in (a + 1)..sets.len() {
                jd.push(sleuth_cluster::distance::trace_distance(&sets[a], &sets[b]));
            }
        }
        let jaccard_us = start.elapsed().as_micros() as f64 / jd.len() as f64;

        let mut td = Vec::new();
        let start = Instant::now();
        for a in 0..trees.len() {
            for b in (a + 1)..trees.len() {
                td.push(normalized_ted(&trees[a], &trees[b]));
            }
        }
        let ted_us = start.elapsed().as_micros() as f64 / td.len() as f64;

        // Pairwise order agreement between the two metrics.
        let mut agree = 0usize;
        let mut total = 0usize;
        for x in 0..jd.len() {
            for y in (x + 1)..jd.len() {
                total += 1;
                if (jd[x] < jd[y]) == (td[x] < td[y]) {
                    agree += 1;
                }
            }
        }
        rows.push(DistanceRow {
            spans,
            jaccard_us,
            ted_us,
            speedup: ted_us / jaccard_us.max(1e-9),
            pair_agreement: agree as f64 / total.max(1) as f64,
        });
    }
    DistanceAblation { rows }
}

// ---------------------------------------------------------------------------
// Clustering ablation
// ---------------------------------------------------------------------------

/// One clustering configuration's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusteringRow {
    /// Configuration name.
    pub config: String,
    /// F1 of the clustered RCA.
    pub f1: f64,
    /// Exact-match accuracy.
    pub acc: f64,
    /// RCA inferences actually run.
    pub inferences: usize,
    /// Traces covered.
    pub traces: usize,
}

/// Result of the clustering ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusteringAblation {
    /// One row per configuration.
    pub rows: Vec<ClusteringRow>,
}

impl ClusteringAblation {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: clustering algorithm",
            &["config", "F1", "ACC", "inferences", "traces"],
        );
        for r in &self.rows {
            t.row(&[
                r.config.clone(),
                format!("{:.3}", r.f1),
                format!("{:.3}", r.acc),
                r.inferences.to_string(),
                r.traces.to_string(),
            ]);
        }
        t
    }
}

/// Compare HDBSCAN, DBSCAN and no clustering on one benchmark.
pub fn ablation_clustering(scale: &EvalScale) -> ClusteringAblation {
    let prepared = prepare(AppSpec::Synthetic(16), scale, 3100);
    let pipeline = SleuthPipeline::fit(
        &prepared.train,
        &PipelineConfig {
            train: TrainConfig {
                epochs: scale.gnn_epochs,
                batch_traces: 32,
                lr: 1e-2,
                seed: 0,
            },
            ..PipelineConfig::default()
        },
    );
    let mut rows = Vec::new();

    // No clustering.
    let acc = eval_locator(&pipeline, &prepared.queries);
    let traces: usize = prepared.queries.iter().map(|q| q.traces.len()).sum();
    rows.push(ClusteringRow {
        config: "none".into(),
        f1: acc.f1(),
        acc: acc.accuracy(),
        inferences: traces,
        traces,
    });

    // HDBSCAN (the pipeline default).
    let acc = eval_pipeline_clustered(&pipeline, &prepared.queries);
    let (reps, total) = crate::experiments::clustering_savings(&pipeline, &prepared.queries);
    rows.push(ClusteringRow {
        config: "hdbscan".into(),
        f1: acc.f1(),
        acc: acc.accuracy(),
        inferences: reps,
        traces: total,
    });

    // DBSCAN over the same distance.
    let encoder = TraceSetEncoder::new(3);
    let mut acc = EvalAccumulator::new();
    let mut inferences = 0usize;
    let mut total = 0usize;
    for q in &prepared.queries {
        let traces: Vec<&Trace> = q.traces.iter().map(|t| &t.trace).collect();
        let sets: Vec<_> = traces.iter().map(|t| encoder.encode(t)).collect();
        let dm = DistanceMatrix::builder().build_from(&sets);
        let clustering = dbscan(
            &dm,
            &DbscanParams {
                eps: 0.15,
                min_points: 3,
            },
        );
        let mut verdicts: Vec<Option<Vec<String>>> = vec![None; traces.len()];
        for c in 0..clustering.n_clusters() as isize {
            let members = clustering.members(c);
            let rep = sleuth_cluster::geometric_median(&dm, &members).expect("non-empty");
            inferences += 1;
            let services = pipeline.localize(traces[rep]);
            for m in members {
                verdicts[m] = Some(services.clone());
            }
        }
        for i in clustering.noise() {
            inferences += 1;
            verdicts[i] = Some(pipeline.localize(traces[i]));
        }
        for (st, v) in q.traces.iter().zip(&verdicts) {
            let truth: BTreeSet<String> = st.ground_truth.services.iter().cloned().collect();
            acc.add_query(v.as_deref().unwrap_or(&[]), &truth);
            total += 1;
        }
    }
    rows.push(ClusteringRow {
        config: "dbscan".into(),
        f1: acc.f1(),
        acc: acc.accuracy(),
        inferences,
        traces: total,
    });

    // A deliberately over-coarse HDBSCAN (epsilon-merged), showing the
    // failure direction §6.2 attributes to the SVDD distance.
    let coarse = SleuthPipeline::from_parts(
        pipeline.rca().model().clone(),
        pipeline.rca().featurizer().clone(),
        &prepared.train,
        &PipelineConfig {
            hdbscan: HdbscanParams {
                min_cluster_size: 5,
                min_samples: 3,
                cluster_selection_epsilon: 0.9,
                allow_single_cluster: true,
            },
            ..PipelineConfig::default()
        },
    );
    let acc = eval_pipeline_clustered(&coarse, &prepared.queries);
    let (reps, total) = crate::experiments::clustering_savings(&coarse, &prepared.queries);
    rows.push(ClusteringRow {
        config: "hdbscan eps=0.9 (over-merged)".into(),
        f1: acc.f1(),
        acc: acc.accuracy(),
        inferences: reps,
        traces: total,
    });

    ClusteringAblation { rows }
}

// ---------------------------------------------------------------------------
// Decoder ablation
// ---------------------------------------------------------------------------

/// One decoder's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecoderRow {
    /// Model name.
    pub model: String,
    /// RCA F1 on the anomaly queries.
    pub f1: f64,
    /// Exact-match accuracy.
    pub acc: f64,
}

/// Result of the decoder ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecoderAblation {
    /// One row per decoder.
    pub rows: Vec<DecoderRow>,
}

impl DecoderAblation {
    /// Render as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablation: decoder non-linearity (§3.4)",
            &["model", "F1", "ACC"],
        );
        for r in &self.rows {
            t.row(&[r.model.clone(), format!("{:.3}", r.f1), format!("{:.3}", r.acc)]);
        }
        t
    }
}

/// GIN vs GCN vs linear SEM on the same benchmark.
pub fn ablation_decoder(scale: &EvalScale) -> DecoderAblation {
    let prepared = prepare(AppSpec::Synthetic(16), scale, 3200);
    let train_cfg = TrainConfig {
        epochs: scale.gnn_epochs,
        batch_traces: 32,
        lr: 1e-2,
        seed: 0,
    };
    let gin = SleuthPipeline::fit(
        &prepared.train,
        &PipelineConfig {
            train: train_cfg,
            ..PipelineConfig::default()
        },
    );
    let gcn = SleuthPipeline::fit(
        &prepared.train,
        &PipelineConfig {
            train: train_cfg,
            ..PipelineConfig::gcn()
        },
    );
    let sem = LinearSem::fit(&prepared.train);

    let rows = vec![
        score("Sleuth-GIN", &gin, &prepared.queries),
        score("Sleuth-GCN", &gcn, &prepared.queries),
        score("Linear SEM", &sem, &prepared.queries),
    ];
    DecoderAblation { rows }
}

fn score(
    name: &str,
    locator: &dyn RootCauseLocator,
    queries: &[sleuth_synth::workload::AnomalyQuery],
) -> DecoderRow {
    let acc = eval_locator(locator, queries);
    DecoderRow {
        model: name.to_string(),
        f1: acc.f1(),
        acc: acc.accuracy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_ablation_shows_jaccard_speedup() {
        let mut scale = EvalScale::smoke();
        scale.fig5_scales = vec![16, 64];
        let r = ablation_distance(&scale);
        assert_eq!(r.rows.len(), 2);
        // TED must be slower, increasingly so at larger trace sizes.
        for row in &r.rows {
            assert!(row.speedup > 1.0, "TED should be slower: {row:?}");
            assert!((0.0..=1.0).contains(&row.pair_agreement));
        }
        assert!(r.rows[1].speedup >= r.rows[0].speedup * 0.8);
        assert!(!r.table().is_empty());
    }

    #[test]
    fn clustering_ablation_reports_all_configs() {
        let r = ablation_clustering(&EvalScale::smoke());
        assert_eq!(r.rows.len(), 4);
        let none = &r.rows[0];
        let hdb = &r.rows[1];
        assert!(hdb.inferences <= none.inferences);
        assert!(!r.table().is_empty());
    }

    #[test]
    fn decoder_ablation_gnn_beats_linear() {
        let r = ablation_decoder(&EvalScale::smoke());
        assert_eq!(r.rows.len(), 3);
        let gin = &r.rows[0];
        let sem = &r.rows[2];
        assert!(
            gin.f1 + 0.05 >= sem.f1,
            "GIN ({:.3}) should not lose to linear SEM ({:.3})",
            gin.f1,
            sem.f1
        );
    }
}
