//! The workloads. Each is closed loop: one load-generating thread
//! that waits for every answer before asking for the next.

pub mod decide;
pub mod serve;
pub mod sim;
pub mod train;
