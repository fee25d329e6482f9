//! Workspace invariant linter.
//!
//! Every claim this repository makes — bit-identical lifetimes across
//! pruned and reference searches, grid runs == one-off runs, reproducible
//! golden tables — rests on invariants that `clippy` cannot see: total
//! float orderings, deterministic iteration, lossless state-word packing,
//! correctly ordered atomics in the hand-rolled worker pool. `xlint` makes
//! those invariants machine-checked: a hand-rolled Rust lexer (comments,
//! strings, raw strings, char-vs-lifetime disambiguation — no `syn`, no
//! dependencies at all) feeds a token-level rule engine that walks the
//! workspace and enforces the repo-specific rule set:
//!
//! | Rule id       | Group | What it flags |
//! |---------------|-------|---------------|
//! | `hash`        | D     | `HashMap`/`HashSet` in result-producing crates (iteration order is nondeterministic — use `BTreeMap`/`BTreeSet` or justify a keyed-lookup-only use) |
//! | `clock`       | D     | `Instant::now`/`SystemTime::now` outside the `bench` crate |
//! | `float-eq`    | D     | `==`/`!=` against a float literal |
//! | `partial-cmp` | D     | `partial_cmp(..).unwrap_or(Ordering::Equal)` — NaN-silencing; use `f64::total_cmp` |
//! | `panic`       | P     | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in library crates outside `#[cfg(test)]` |
//! | `cast`        | C     | lossy `as <integer>` casts in the numeric model crates — route through `dkibam::checked` helpers |
//! | `ordering`    | A     | an atomic `Ordering::...` use site without an adjacent `// ordering:` justification comment |
//!
//! A site that is genuinely sound can carry an **escape comment** on the
//! same line or the line directly above:
//!
//! ```text
//! // xlint: allow(panic) -- the fleet validated this index at construction
//! ```
//!
//! The reason after ` -- ` is mandatory; escapes are counted and reported
//! (see [`Report::allows`]) so reviewers can audit the full list, and an
//! escape that no longer suppresses anything is itself flagged so stale
//! justifications cannot accumulate.

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{lint_source, CrateContext, FileReport, Finding, RuleId};
pub use walk::{lint_workspace, Report};
