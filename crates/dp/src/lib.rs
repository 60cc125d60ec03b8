//! # pb-dp — differential privacy mechanisms
//!
//! The building blocks of §2.1 of the PrivBasis paper:
//!
//! * the **Laplace mechanism** ([`laplace`]): adds `Lap(GS/ε)` noise to counts or frequencies,
//! * the **exponential mechanism** ([`exponential`]): samples a candidate with probability
//!   proportional to `exp(ε·q/(2·GS))`, with the one-sided variant (no factor 2) for quality
//!   functions that are monotone under tuple addition,
//! * sampling **without replacement** by repeated application of the exponential mechanism,
//! * a simple sequential-composition [`budget::PrivacyBudget`] accountant, plus its
//!   thread-safe sibling [`ledger::BudgetLedger`] for concurrent serving layers — with
//!   a [`ledger::DebitSink`] hook that makes every debit durable (journaled and
//!   fsynced) before the ε is released to a mechanism,
//! * an infinite-budget mode (`Epsilon::Infinite`) used by tests to check that the DP
//!   algorithms degrade to their exact counterparts when noise vanishes.
//!
//! All randomness flows through an explicit `&mut impl Rng`, so every mechanism is
//! reproducible under a seeded [`rand::rngs::StdRng`].
//!
//! Everything here is **central-model** DP: the curator holds exact data and
//! spends ε at release time, so the [`ledger::BudgetLedger`] is the enforcement
//! point. The *local* model — clients perturb before the data leaves the
//! device, and no ledger exists by construction — lives in the sibling
//! `pb-ldp` crate; the two budgets compose along different axes (central ε
//! across queries, local ε across one client's reports) and must never be
//! mixed. The `pb-audit` `ldp-no-debit` lint enforces the separation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod epsilon;
pub mod exponential;
pub mod geometric;
pub mod laplace;
pub mod ledger;

pub use budget::PrivacyBudget;
pub use epsilon::Epsilon;
pub use exponential::{exponential_mechanism, sample_without_replacement, ExponentialScale};
pub use geometric::GeometricNoise;
pub use laplace::{laplace_mechanism, sample_laplace, LaplaceNoise};
pub use ledger::{BudgetLedger, DebitSink};

/// Errors produced by the DP layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// A privacy parameter (ε, sensitivity, scale) was not strictly positive.
    InvalidParameter(String),
    /// More budget was requested than remains in a [`PrivacyBudget`].
    BudgetExceeded {
        /// Amount requested.
        requested: f64,
        /// Amount still available.
        remaining: f64,
    },
    /// The exponential mechanism was invoked with an empty candidate set.
    EmptyCandidateSet,
    /// A journaled ledger could not make a debit durable; the debit was rolled back and
    /// no ε was released (see [`ledger::DebitSink`]).
    Persistence(String),
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            DpError::BudgetExceeded {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exceeded: requested {requested}, remaining {remaining}"
            ),
            DpError::EmptyCandidateSet => {
                write!(f, "exponential mechanism needs at least one candidate")
            }
            DpError::Persistence(msg) => write!(f, "budget persistence failed: {msg}"),
        }
    }
}

impl std::error::Error for DpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DpError::InvalidParameter("epsilon must be > 0".into());
        assert!(e.to_string().contains("epsilon"));
        let e = DpError::BudgetExceeded {
            requested: 1.0,
            remaining: 0.5,
        };
        assert!(e.to_string().contains("exceeded"));
        assert!(DpError::EmptyCandidateSet.to_string().contains("candidate"));
        let e = DpError::Persistence("fsync failed".into());
        assert!(e.to_string().contains("fsync failed"));
    }
}
