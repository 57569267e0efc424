//! Runtime configuration.

/// Configuration of the actor–learner runtime. The runtime has one mode —
/// lockstep, bit-identical to the serial training loop — and no knobs, so
/// this type carries nothing; it stays in the signatures of [`crate::train`]
/// and its siblings so existing callers keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeConfig;

impl RuntimeConfig {
    /// The lockstep configuration (the only one).
    pub fn sync() -> Self {
        RuntimeConfig
    }
}
