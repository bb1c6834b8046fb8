//! Workspace automation for sentinet: the project's static-analysis
//! suite, invoked as `cargo run -p xtask -- <command>`.
//!
//! - [`lint`] — a hand-rolled lint engine with ten project lints over
//!   the library crates (panic-family usage, float equality, unseeded
//!   RNG, crate-header hygiene, hot-path allocation, stray thread
//!   spawns), suppressible inline with
//!   `// sentinet-allow(lint-name): reason`;
//! - [`surface`] — the public-surface audit: `pub` items no other
//!   file names, their count pinned;
//! - [`protocol_check`] — a loom-style exhaustive explorer of the
//!   pipelined uplink's interleavings against the durability
//!   invariants;
//! - [`trajectory`] — `BENCH_trajectory.json`'s rows and their check,
//!   and `xtask ab`, the paired A/B runs that measure them;
//! - the `analyze` command additionally re-runs the numeric test
//!   suites with the `check-invariants` feature, turning every HMM
//!   matrix mutation and cluster update into a checked invariant.
//!
//! See DESIGN.md § "Static analysis" for the lint catalogue and the
//! rules for adding a lint.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod lint;
pub mod protocol_check;
pub mod surface;
pub mod trajectory;
