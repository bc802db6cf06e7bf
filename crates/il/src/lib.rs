//! The imitation-learning (IL) module `f_IL` of iCOIL (§IV-A).
//!
//! IL is formulated as `M`-way classification over discretized actions:
//! a CNN (three conv+ReLU+max-pool blocks, four dense layers, softmax)
//! maps ego-centric BEV images to action classes. This crate provides the
//! whole IL lifecycle:
//!
//! * [`expert`] — the scripted demonstrator (hybrid A* + CO tracking on
//!   ground truth), standing in for the paper's human driver;
//! * [`collect`] — demonstration harvesting into an `icoil-nn`
//!   [`Dataset`](icoil_nn::Dataset) of (BEV image, action class) pairs;
//! * [`mod@train`] — the supervised trainer minimizing the cross-entropy
//!   loss (eqs. 2–3);
//! * [`IlModel`] — the trained artifact: network + action codec + BEV
//!   geometry, serializable to JSON and runnable at kHz rates.
//!
//! # Example
//!
//! ```no_run
//! use icoil_il::{collect, train, TrainConfig};
//! use icoil_perception::BevConfig;
//! use icoil_vehicle::ActionCodec;
//! use icoil_world::{Difficulty, ScenarioConfig};
//!
//! let codec = ActionCodec::default();
//! let bev = BevConfig::default();
//! let scenarios: Vec<_> = (0..10)
//!     .map(|s| ScenarioConfig::new(Difficulty::Easy, s))
//!     .collect();
//! let dataset = collect::collect_demonstrations(&scenarios, &codec, &bev, 60.0);
//! let (model, report) = train::train(&dataset, &codec, &bev, &TrainConfig::default());
//! println!("final accuracy {:.2}", report.final_accuracy());
//! # let _ = model;
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod collect;
pub mod dagger;
pub mod expert;
pub mod model;
pub mod train;

pub use collect::collect_demonstrations;
pub use dagger::{dagger_train, DaggerConfig, DaggerReport};
pub use expert::ExpertPolicy;
pub use model::{IlModel, IlScratch, InferResult};
pub use train::{train, train_incremental, TrainConfig, TrainReport};
