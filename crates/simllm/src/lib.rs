//! The simulated LLM substrate.
//!
//! The paper fine-tunes LLaMA2/Baichuan2/T5/mT5 with LoRA on augmented
//! Text-to-SQL data. No GPUs or base checkpoints exist in this
//! environment, so this crate implements the closest substitute whose
//! *training dynamics* are real:
//!
//! - [`embed`]: a linear embedding model over hashed question features —
//!   the frozen "base model" `W0`.
//! - [`lora`]: genuine Low-Rank Adaptation (`h = W0ᵀx + BᵀAᵀx`, Gaussian
//!   `A`, zero `B`), trained with SGD ([`train`]) on a skeleton-anchor
//!   alignment objective, and merged across plugins by weighted summation
//!   exactly as the paper's Eq. 3–5.
//! - [`hub`]: the LoRA plugin hub (paper §7.2) with serialisable plugins.
//! - [`shape`]/[`slots`]: query-shape extraction from gold SQL and
//!   schema-grounded slot filling — the "generation" half: the adapted
//!   embedding retrieves the nearest skeleton prototype, and the slot
//!   filler instantiates it against the (schema-linked) prompt schema and
//!   the question's literal values.
//! - [`noise`]: a calibrated decoder-noise model that injects exactly the
//!   error classes of the paper's Figure 12 (typo columns, `==`, dangling
//!   `JOIN ON`, wrong table–column binding), which is what output
//!   calibration then repairs.
//! - [`profiles`]: per-base-model capability profiles standing in for the
//!   four LLMs.
//!
//! Everything downstream (EX accuracy, augmentation gains, LoRA-merge
//! transfer, calibration gains) emerges mechanically from these parts.

#![forbid(unsafe_code)]

pub mod embed;
pub mod generator;
pub mod hub;
pub mod lora;
pub mod noise;
pub mod profiles;
pub mod shape;
pub mod slots;
pub mod train;
pub mod values;

pub use embed::EmbeddingModel;
pub use generator::{BatchItem, GenConfig, GenCounters, PrototypeMatrix, SqlGenerator};
pub use hub::{LoraPlugin, PluginHub};
pub use lora::LoraModule;
pub use profiles::BaseModelProfile;
pub use shape::{shape_of, AggKind, ShapeKind};
pub use train::{train_plugin, ExampleKind, TrainExample, TrainOpts};
pub use values::ValueIndex;
