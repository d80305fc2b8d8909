#![warn(missing_docs)]

//! # msd-mixer
//!
//! A from-scratch Rust implementation of **MSD-Mixer** — the Multi-Scale
//! Decomposition MLP-Mixer for time series analysis (Zhong et al., 2024).
//!
//! MSD-Mixer decomposes an input series `X ∈ R^{C×L}` into `k` components by
//! stacking `k` layers (Sec. III-B): layer `i` patches the running residual
//! `Z_{i-1}` at patch size `p_i` (Sec. III-C), encodes it into a
//! representation `E_i` with channel-wise / inter-patch / intra-patch MLP
//! blocks (Sec. III-D), decodes `E_i` back into a component `S_i`, and
//! subtracts: `Z_i = Z_{i-1} − S_i`. Task predictions are the sum of
//! per-layer linear heads on the `E_i` (Eq. 2), and training adds the
//! *Residual Loss* (Sec. III-E) that forces the final residual `Z_k` toward
//! white noise.
//!
//! ## Quick start
//!
//! ```
//! use msd_mixer::{MsdMixer, MsdMixerConfig, Task};
//! use msd_nn::{Adam, Ctx, Optimizer, ParamStore};
//! use msd_autograd::Graph;
//! use msd_tensor::{rng::Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let mut store = ParamStore::new();
//! let cfg = MsdMixerConfig {
//!     in_channels: 2,
//!     input_len: 24,
//!     patch_sizes: vec![6, 2, 1],
//!     d_model: 8,
//!     task: Task::Forecast { horizon: 12 },
//!     ..MsdMixerConfig::default()
//! };
//! let model = MsdMixer::new(&mut store, &mut rng, &cfg);
//!
//! // One training step on a random batch:
//! let x = Tensor::randn(&[4, 2, 24], 1.0, &mut rng);
//! let y = Tensor::randn(&[4, 2, 12], 1.0, &mut rng);
//! let g = Graph::new();
//! let ctx = Ctx::new(&g, &store, &mut rng);
//! let out = model.forward(&ctx, &x);
//! let loss = model.loss(&g, &out, &msd_mixer::Target::Series(y.clone()));
//! let grads = g.backward(loss);
//! let mut opt = Adam::with_lr(1e-3);
//! opt.step(&mut store, &grads);
//! ```

mod config;
mod decompose;
mod encdec;
mod heads;
mod layer;
mod model;
mod patching;
mod residual_loss;
pub mod summary;
pub mod variants;

pub use config::{MsdMixerConfig, Task};
pub use decompose::{decompose, Decomposition};
pub use encdec::{PatchDecoder, PatchEncoder};
pub use layer::{MsdLayer, PatchMode};
pub use model::MsdMixer;
pub use msd_nn::{Model, ModelOutput, Target};
pub use patching::{padded_len, patch, unpatch};
pub use residual_loss::residual_loss;
pub use summary::{describe, summarize, ModuleSummary};
