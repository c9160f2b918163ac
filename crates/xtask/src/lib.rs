//! Workspace invariant-audit tooling, as a library.
//!
//! The `xtask` binary (see `main.rs`) runs [`analyze`] — whole-workspace
//! semantic analysis (`cargo xtask analyze`): a parsed item model over
//! [`lexer`]-masked source, an intra-workspace call graph, and the
//! panic-reachability / transaction-discipline / lock-discipline / taint /
//! discarded-`Result` / `error-impl` analyses built on top of them. Two of
//! its rules ratchet through [`baseline`]. Rules that rustc or clippy can
//! check live in lint configuration instead (DESIGN.md §7).
//!
//! Everything lives in a library crate so the integration tests under
//! `crates/xtask/tests/` can drive the analyses over fixture mini-crates.

pub mod analyze;
pub mod baseline;
pub mod lexer;
pub mod walk;
