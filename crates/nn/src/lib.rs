//! From-scratch neural-network library for the iCOIL imitation-learning
//! module.
//!
//! The paper's IL DNN (§IV-A) is a feature-extraction network of three
//! convolution + ReLU + max-pool blocks followed by a state-action network
//! of four fully-connected layers and a softmax. This crate implements
//! exactly the pieces needed to train and run that architecture — nothing
//! else — with reverse-mode autodiff hand-derived per layer:
//!
//! * [`Tensor`] — dense row-major `f32` tensors;
//! * [`layer`] — `Dense`, `Conv2d` (im2col for training, a direct
//!   convolution fused with its ReLU and 2×2 pool for inference),
//!   `MaxPool2d`, `ReLU`, `Flatten`;
//! * [`Network`] — a sequential container with forward/backward;
//! * [`loss`] — softmax cross-entropy (eq. 3) and accuracy;
//! * [`optim`] — SGD with momentum and Adam;
//! * [`data`] — an in-memory classification dataset with seeded
//!   mini-batch shuffling.
//!
//! Determinism: initialization and shuffling take explicit seeds; a
//! training run is a pure function of `(dataset, seed, hyperparameters)`.
//!
//! # Example
//!
//! ```
//! use icoil_nn::{Network, Tensor, layer::LayerKind, loss, optim::{Sgd, Optimizer}};
//!
//! // Learn XOR with a tiny MLP.
//! let mut net = Network::new(vec![
//!     LayerKind::dense(2, 8, 1),
//!     LayerKind::relu(),
//!     LayerKind::dense(8, 2, 2),
//! ]);
//! let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
//! let y = [0usize, 1, 1, 0];
//! let mut opt = Sgd::new(0.5, 0.9);
//! for _ in 0..500 {
//!     let logits = net.forward(&x, true);
//!     let (_, grad) = loss::cross_entropy(&logits, &y);
//!     net.backward(&grad);
//!     opt.step(&mut net);
//!     net.zero_grad();
//! }
//! let logits = net.forward(&x, false);
//! assert_eq!(loss::accuracy(&logits, &y), 1.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod data;
pub mod init;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optim;
pub mod simd;
pub mod tensor;

pub use data::Dataset;
pub use network::{InferBuffers, Network};
pub use simd::KernelBackend;
pub use tensor::Tensor;
