//! # campaignbench
//!
//! The end-to-end and per-layer benchmark of LLM4FP campaigns. One
//! command runs one workload for a fixed wall-clock window, checks every
//! result against a reference fingerprint, and prints one JSON line:
//!
//! ```text
//! campaignbench --workload suite-inproc --seed 7 --seconds 15 --trace 0
//! ```
//!
//! Every workload runs the same closed-loop round on its own campaigns
//! (see [`workload`]): a campaign phase, kill-after-barrier resumes and
//! reloads of persisted campaigns, and a diversity phase. With
//! `--trace 1` the run instead produces the per-layer ledger: each layer
//! is timed from outside, by wrapping calls into its public functions
//! ([`replay`], [`protocol`], [`frames`]).
//!
//! The benchmark drives the system only through public APIs and changes
//! nothing inside it.

#![deny(unsafe_code)]

pub mod fingerprint;
pub mod fixture;
pub mod frames;
pub mod ledger;
pub mod protocol;
pub mod replay;
pub mod report;
pub mod workload;

/// Shards (K) of every campaign the benchmark runs.
pub const SHARDS: usize = 4;
/// Feedback-exchange epochs (E) of every campaign the benchmark runs.
pub const EPOCHS: usize = 4;
