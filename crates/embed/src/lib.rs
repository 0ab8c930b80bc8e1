//! Semantic text embeddings for span `service` and `name` attributes.
//!
//! The Sleuth paper encodes span text with a pre-trained sentence-BERT
//! model (§3.2.2) so that semantically similar operation names (e.g. two
//! different applications' Redis `GET`s) land close together in embedding
//! space, which is what enables zero-/few-shot transfer between
//! applications (§6.5–6.6).
//!
//! Shipping a BERT is out of scope for a pure-Rust reproduction, so this
//! crate provides a **deterministic semantic-hashing embedder** with the
//! properties the downstream model actually relies on:
//!
//! 1. identical strings map to identical vectors,
//! 2. strings sharing tokens or character n-grams ("GetUser" /
//!    "GetUserProfile") map to nearby vectors (cosine-wise),
//! 3. unrelated strings map to near-orthogonal vectors,
//! 4. one vector per *distinct* `(service, name)` pair is enough:
//!    `sleuth-gnn`'s featurizer stores one table row per pair,
//!    mirroring the paper's optimisation of keeping pointers per span
//!    instead of per-span vectors.
//!
//! The paper's text pre-processing is applied first: special characters
//! removed, camel-case split, long hex digit runs replaced with a
//! placeholder ([`preprocess::tokenize`]).
//!
//! # Example
//!
//! ```
//! use sleuth_embed::{cosine, SemanticEmbedder};
//!
//! let emb = SemanticEmbedder::new(64);
//! let a = emb.embed("GetUserProfile");
//! let b = emb.embed("GetUserSettings");
//! let c = emb.embed("FlushDiskCache");
//! assert!(cosine(&a, &b) > cosine(&a, &c));
//! ```

pub mod hashing;
pub mod preprocess;

pub use hashing::{cosine, SemanticEmbedder};
