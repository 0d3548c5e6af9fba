//! Parallel Cross-Encoder schema linking.
//!
//! The paper adapts RESDSQL's Cross-Encoder to wide financial schemas by
//! batching *per table*: instead of serialising the whole schema into one
//! sequence (which overflows BERT-context-sized models on 390-column
//! databases), each (question, table + column descriptions) pair is
//! scored independently, and all tables of a database are scored in
//! parallel.
//!
//! Our Cross-Encoder is a real trainable model: hashed lexical-overlap
//! features between the question and each table/column description feed a
//! logistic scorer per table and per column, trained with SGD on the
//! gold linking labels from the training split. Inference offers two
//! paths with bitwise-equal scores: per-question [`CrossEncoder::link`]
//! (one table at a time, features re-derived from strings, the
//! reference) and [`CrossEncoder::link_batch`], one sweep over a
//! precomputed [`SchemaFeatureMatrix`] that scores every table of every
//! question in a batch. The batched sweep is this crate's analogue of
//! the paper's parallel batch; the `linking_parallel` bench measures it
//! against the per-table path.

#![forbid(unsafe_code)]

pub mod features;
pub mod infer;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod train;

pub use infer::LinkedSchema;
pub use matrix::{QuestionFeatures, SchemaFeatureMatrix};
pub use model::CrossEncoder;
pub use train::{LinkExample, TrainConfig};
