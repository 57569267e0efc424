//! A small neural-network substrate for the distributed-DRL service
//! coordination reproduction.
//!
//! The paper trains 2×256 tanh MLPs for actor and critic with the ACKTR
//! algorithm (RMSprop-flavored natural gradient via K-FAC; Sec. IV-C2 and
//! V-A2). The thin Rust ML ecosystem is substituted by this crate (see
//! DESIGN.md §2):
//!
//! - [`matrix`]: dense row-major `f32` matrices with shape-checked ops,
//! - [`linalg`]: damped symmetric inversion (Cholesky, `f64` internally),
//! - [`mlp`]: dense MLPs with manual forward/backward passes,
//! - [`dist`]: categorical policy heads (sampling, entropy, policy-gradient
//!   and Fisher-sampled logit gradients),
//! - [`optim`]: RMSprop / Adam,
//! - [`kfac`]: Kronecker-factored natural-gradient preconditioning with a
//!   KL trust region (the core of ACKTR),
//! - [`simd`]: runtime-detected AVX2/AVX-512 GEMM micro-kernels behind
//!   the `DOSCO_SIMD` switch (every kernel returns the scalar reference's
//!   bits, so the switch changes speed, never a result), and the AVX2 and
//!   AVX-512 builds of the `tanh` loop and the AVX2 build of the inversion
//!   loops,
//! - [`tanh()`] / [`tanh_in_place`]: the workspace's one `tanh`, an in-repo
//!   port of fdlibm's that returns glibc's bits on every host and
//!   vectorises,
//! - [`fork`]: the workspace's two ways to use more than one core —
//!   [`fork::fan_out`] over whole training and evaluation seeds, and one
//!   [`fork::Helper`] thread that runs the second half of an update or of
//!   a served batch beside the caller.
//!
//! The kernels themselves are serial: no thread runs inside a GEMM. Only
//! [`simd`] is exempt from this crate's `deny` on raw-pointer and
//! intrinsic code.
//!
//! Models serialize with serde, so trained policies can be copied to every
//! node for distributed inference (Fig. 4b) and shipped as JSON artifacts.
//!
//! # Example
//!
//! ```
//! use dosco_nn::{dist::Categorical, matrix::Matrix, mlp::Mlp};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let actor = Mlp::paper_arch(16, 4, &mut rng); // Δ_G = 3 -> 4 actions
//! let obs = Matrix::zeros(1, 16);
//! let dist = Categorical::new(&actor.forward(&obs));
//! let action = dist.argmax()[0];
//! assert!(action < 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod dist;
pub mod fork;
pub mod kfac;
pub mod linalg;
pub mod matrix;
pub mod mlp;
pub mod optim;
#[allow(unsafe_code)]
pub mod simd;
mod tanh;

pub use dist::Categorical;
pub use kfac::{Kfac, KfacConfig};
pub use matrix::Matrix;
pub use mlp::{Activation, ForwardCache, Gradients, Mlp};
pub use optim::{Adam, Optimizer, RmsProp};
pub use simd::GemmKernel;
pub use tanh::{tanh, tanh_in_place};
