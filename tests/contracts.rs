//! Tier-1 means the contracts hold: the root `cargo test -q` runs only the
//! root package, so the per-crate suites that pin the bit-identity
//! contracts are mounted here — sync actor–learner training ≡ the serial
//! loop for A2C, ACKTR and PPO, socket ≡ channel, and 1 shard ≡ N shards ≡
//! in-process serving. Each file is still its crate's own integration
//! test; nothing is copied.

#[path = "../crates/runtime/tests/integration.rs"]
mod runtime_sync_is_serial;

#[path = "../crates/runtime/tests/socket_equivalence.rs"]
mod socket_is_channel;

#[path = "../crates/serve/tests/bit_identity.rs"]
mod serve_shards_are_bit_identical;
