//! Trace → tensor encoding (§3.2) and graph batching.

use std::collections::HashMap;

use sleuth_embed::SemanticEmbedder;
use sleuth_tensor::Tensor;
use sleuth_trace::{exclusive, transform, Span, SpanKind, Symbol, Trace};

/// Turns traces into the model's numeric representation: per span a
/// feature vector `[scaled duration, error, semantic embedding…]`, an
/// exclusive-feature vector `[scaled exclusive duration, exclusive
/// error]`, and the parent topology.
///
/// Embeddings are stored once per distinct `(service, name)` symbol
/// pair (§3.2.2) in one flat table. [`Featurizer::encode`] adds the
/// pairs it has not seen; [`Featurizer::encode_with`] only reads the
/// table, so one featurizer can serve any number of threads without a
/// lock. A pair missing from the table is embedded on the spot: the
/// embedding is a pure function of the text, so a miss encodes exactly
/// as a hit would.
#[derive(Debug, Clone)]
pub struct Featurizer {
    embedder: SemanticEmbedder,
    sem_dim: usize,
    /// Table row of each `(service, name)` pair.
    rows: HashMap<(Symbol, Symbol), u32>,
    /// Row-major embeddings, `sem_dim` floats per row.
    table: Vec<f32>,
}

impl Featurizer {
    /// Create a featurizer with `sem_dim`-dimensional semantic
    /// embeddings of `service`+`name` (the sentence-embedding substitute;
    /// see `sleuth-embed`).
    pub fn new(sem_dim: usize) -> Self {
        Featurizer {
            embedder: SemanticEmbedder::new(sem_dim),
            sem_dim,
            rows: HashMap::new(),
            table: Vec::new(),
        }
    }

    /// Semantic embedding dimensionality.
    pub fn sem_dim(&self) -> usize {
        self.sem_dim
    }

    fn key(span: &Span) -> (Symbol, Symbol) {
        (span.service_sym(), span.name_sym())
    }

    fn embed_span(&self, span: &Span) -> Vec<f32> {
        self.embedder.embed(&format!("{} {}", span.service, span.name))
    }

    /// Encode one trace, first adding its unseen `(service, name)`
    /// pairs to the embedding table.
    pub fn encode(&mut self, trace: &Trace) -> EncodedTrace {
        for (_, span) in trace.iter() {
            let key = Self::key(span);
            if !self.rows.contains_key(&key) {
                let row = self.embed_span(span);
                self.table.extend_from_slice(&row);
                self.rows.insert(key, self.rows.len() as u32);
            }
        }
        let ex_d = exclusive::exclusive_durations(trace);
        let ex_e = exclusive::exclusive_errors(trace);
        self.encode_with(trace, &ex_d, &ex_e)
    }

    /// Encode one trace whose exclusive durations (µs) and exclusive
    /// errors are already known, reading the embedding table only.
    ///
    /// # Panics
    ///
    /// Panics if `ex_d` or `ex_e` is not one entry per span.
    pub fn encode_with(&self, trace: &Trace, ex_d: &[u64], ex_e: &[bool]) -> EncodedTrace {
        let n = trace.len();
        assert!(
            ex_d.len() == n && ex_e.len() == n,
            "exclusive features must cover every span"
        );
        let mut sem = Vec::with_capacity(n * self.sem_dim);
        let mut d_scaled = Vec::with_capacity(n);
        let mut e = Vec::with_capacity(n);
        let mut d_star_scaled = Vec::with_capacity(n);
        let mut e_star = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        for (i, span) in trace.iter() {
            match self.rows.get(&Self::key(span)) {
                Some(&row) => {
                    let at = row as usize * self.sem_dim;
                    sem.extend_from_slice(&self.table[at..at + self.sem_dim]);
                }
                None => sem.extend_from_slice(&self.embed_span(span)),
            }
            d_scaled.push(transform::scale_duration(span.duration_us()));
            e.push(if span.is_error() { 1.0 } else { 0.0 });
            d_star_scaled.push(transform::scale_duration(ex_d[i]));
            e_star.push(if ex_e[i] { 1.0 } else { 0.0 });
            parent.push(trace.parent(i));
            kinds.push(span.kind);
        }
        EncodedTrace {
            sem,
            d_scaled,
            e,
            d_star_scaled,
            e_star,
            parent,
            kinds,
        }
    }
}

/// One encoded trace (indices follow the trace's topological order).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTrace {
    /// Semantic embeddings of `service name`, row-major: span `i`'s
    /// vector is [`EncodedTrace::sem_row`]`(i)`.
    pub sem: Vec<f32>,
    /// Observed span durations, log-scaled.
    pub d_scaled: Vec<f32>,
    /// Observed error flags (0/1).
    pub e: Vec<f32>,
    /// Exclusive durations, log-scaled.
    pub d_star_scaled: Vec<f32>,
    /// Exclusive error flags (0/1).
    pub e_star: Vec<f32>,
    /// Parent index per span (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Span kinds (used by RCA affiliation, not by the model).
    pub kinds: Vec<SpanKind>,
}

impl EncodedTrace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.d_scaled.len()
    }

    /// Whether the trace is empty (never true for assembled traces).
    pub fn is_empty(&self) -> bool {
        self.d_scaled.is_empty()
    }

    /// Semantic dimensionality.
    pub fn sem_dim(&self) -> usize {
        self.sem.len().checked_div(self.len()).unwrap_or(0)
    }

    /// Semantic embedding of span `i`.
    pub fn sem_row(&self, i: usize) -> &[f32] {
        let dim = self.sem_dim();
        &self.sem[i * dim..(i + 1) * dim]
    }
}

/// Several encoded traces packed as one disjoint graph.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    /// Node features `[N, 2 + sem_dim]`: `[d, e, sem…]`.
    pub x: Tensor,
    /// Exclusive features `[N, 2]`: `[d*, e*]`.
    pub x_star: Tensor,
    /// Global node index of each non-root node ("child rows").
    pub child_nodes: Vec<usize>,
    /// Global parent index of each child row (segment ids).
    pub parent_of_child: Vec<usize>,
    /// Total node count.
    pub n: usize,
    /// Offset of each trace's first node.
    pub offsets: Vec<usize>,
    /// Scaled-duration targets per node.
    pub d_target: Vec<f32>,
    /// Error targets per node.
    pub e_target: Vec<f32>,
}

impl GraphBatch {
    /// Pack encoded traces into one batch.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or semantic dimensions differ.
    pub fn pack(traces: &[&EncodedTrace]) -> Self {
        assert!(!traces.is_empty(), "cannot pack an empty batch");
        let sem_dim = traces[0].sem_dim();
        let n: usize = traces.iter().map(|t| t.len()).sum();
        let mut x = Vec::with_capacity(n * (2 + sem_dim));
        let mut x_star = Vec::with_capacity(n * 2);
        let mut child_nodes = Vec::new();
        let mut parent_of_child = Vec::new();
        let mut offsets = Vec::with_capacity(traces.len());
        let mut d_target = Vec::with_capacity(n);
        let mut e_target = Vec::with_capacity(n);
        let mut base = 0usize;
        for t in traces {
            assert_eq!(t.sem_dim(), sem_dim, "semantic dims must agree");
            offsets.push(base);
            for i in 0..t.len() {
                x.push(t.d_scaled[i]);
                x.push(t.e[i]);
                x.extend_from_slice(t.sem_row(i));
                x_star.push(t.d_star_scaled[i]);
                x_star.push(t.e_star[i]);
                d_target.push(t.d_scaled[i]);
                e_target.push(t.e[i]);
                if let Some(p) = t.parent[i] {
                    child_nodes.push(base + i);
                    parent_of_child.push(base + p);
                }
            }
            base += t.len();
        }
        GraphBatch {
            x: Tensor::new(vec![n, 2 + sem_dim], x),
            x_star: Tensor::new(vec![n, 2], x_star),
            child_nodes,
            parent_of_child,
            n,
            offsets,
            d_target,
            e_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sleuth_trace::{Span, StatusCode};

    fn small_trace(id: u64) -> Trace {
        Trace::assemble(vec![
            Span::builder(id, 1, "frontend", "GET /").time(0, 10_000).build(),
            Span::builder(id, 2, "db", "query")
                .parent(1)
                .kind(SpanKind::Client)
                .time(1_000, 6_000)
                .status(StatusCode::Error)
                .build(),
        ])
        .unwrap()
    }

    #[test]
    fn encoding_shapes_and_values() {
        let mut f = Featurizer::new(8);
        let enc = f.encode(&small_trace(1));
        assert_eq!(enc.len(), 2);
        assert_eq!(enc.sem_dim(), 8);
        // Root duration 10_000 µs scales to 0.
        assert!((enc.d_scaled[0]).abs() < 1e-6);
        assert_eq!(enc.e, vec![0.0, 1.0]);
        // Child is a leaf: exclusive duration == duration.
        assert_eq!(enc.d_star_scaled[1], enc.d_scaled[1]);
        // Child error is exclusive (no failed grandchildren).
        assert_eq!(enc.e_star, vec![0.0, 1.0]);
        assert_eq!(enc.parent, vec![None, Some(0)]);
    }

    #[test]
    fn same_operation_shares_embedding() {
        let mut f = Featurizer::new(8);
        let a = f.encode(&small_trace(1));
        let b = f.encode(&small_trace(2));
        assert_eq!(a.sem, b.sem);
    }

    #[test]
    fn a_table_miss_encodes_as_a_hit() {
        let t = small_trace(3);
        let mut fitted = Featurizer::new(8);
        let hit = fitted.encode(&t);
        let fresh = Featurizer::new(8);
        let ex_d = exclusive::exclusive_durations(&t);
        let ex_e = exclusive::exclusive_errors(&t);
        assert_eq!(fresh.encode_with(&t, &ex_d, &ex_e), hit);
        // Embeddings are those of the `service name` text.
        let text = SemanticEmbedder::new(8).embed("db query");
        assert_eq!(hit.sem_row(1), text.as_slice());
    }

    #[test]
    fn pack_concatenates_with_offsets() {
        let mut f = Featurizer::new(4);
        let e1 = f.encode(&small_trace(1));
        let e2 = f.encode(&small_trace(2));
        let batch = GraphBatch::pack(&[&e1, &e2]);
        assert_eq!(batch.n, 4);
        assert_eq!(batch.offsets, vec![0, 2]);
        assert_eq!(batch.x.shape(), &[4, 6]);
        assert_eq!(batch.x_star.shape(), &[4, 2]);
        assert_eq!(batch.child_nodes, vec![1, 3]);
        assert_eq!(batch.parent_of_child, vec![0, 2]);
        assert_eq!(batch.d_target.len(), 4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn pack_rejects_empty() {
        let _ = GraphBatch::pack(&[]);
    }
}
