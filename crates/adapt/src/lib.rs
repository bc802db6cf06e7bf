//! Online DAgger-style adaptation for the iCOIL serving stack.
//!
//! The serving fleet is its own teacher: every frame the HSA arbiter
//! routes to constrained optimization already carries an expert action
//! for exactly the state distribution the IL policy visits — the
//! textbook DAgger correction, harvested for free from production
//! traffic. This crate closes that loop:
//!
//! * [`aggregate`] — the label aggregator capturing CO-mode and shed
//!   frames (BEV input, expert action, scenario family) from running
//!   engines;
//! * [`dataset`] — the versioned, checksummed on-disk dataset with
//!   deterministic per-family reservoir caps, so rare hard-family
//!   labels are never crowded out by easy-family traffic;
//! * [`retrain`] — the incremental retrainer: generation *g + 1* warm
//!   starts from generation *g* and continues on the grown aggregate,
//!   emitting versioned [`WeightArtifact`]s;
//! * [`store`] — the atomic versioned [`WeightStore`] engines hot-swap
//!   from: sessions pin the generation they started with for their
//!   whole episode, so mid-fleet publishes never change a trajectory
//!   mid-flight;
//! * [`safety`] — the per-frame [`SafetyProjector`] clamping IL-mode
//!   commands to the interval the nearby obstacles allow, so a stale or
//!   mid-update policy can never emit an infeasible action.
//!
//! The [`container`] module provides the stack's one checksummed binary
//! envelope (24-byte header, FNV-1a checksum): both artifact kinds here
//! (`ICDS`/`ICWT`) and the serving stack's `ICSN` session snapshots use
//! it.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aggregate;
pub mod container;
pub mod dataset;
pub mod retrain;
pub mod safety;
pub mod store;

pub use aggregate::LabelAggregator;
pub use container::{decode_container, encode_container, ContainerError};
pub use dataset::{AdaptDataset, DemoRecord, DATASET_MAGIC, DATASET_VERSION, NUM_FAMILIES};
pub use retrain::{retrain, WeightArtifact, WEIGHTS_MAGIC, WEIGHTS_VERSION};
pub use safety::{Projection, SafetyConfig, SafetyProjector};
pub use store::{fingerprint, WeightGeneration, WeightStore};
