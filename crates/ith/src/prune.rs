//! Adaptive hop pruning — the A2P-MANN-style attention early exit.
//!
//! Multi-hop MemN2N inference refines the controller state once per hop,
//! but on easy questions the attention distribution collapses onto one
//! sentence after the first hop or two; the remaining hops re-read the
//! same row and barely move the answer. [`HopPrune`] models the
//! accelerator-side shortcut: when a hop's softmax output is already
//! confident — its maximum attention weight meets a convergence threshold
//! — the remaining MEM/READ hops are skipped and their streaming cycles
//! are never spent.
//!
//! Two safety rails keep the shortcut honest:
//!
//! * **Saturation veto** (the [`crate::ExitGuard`] discipline applied to
//!   attention): a Q16.16 score row that saturated can report a confident
//!   maximum that carries no information, so a prune whose winning
//!   attention weight was computed through flagged arithmetic is vetoed
//!   and the full hop schedule runs.
//! * **Determinism**: the criterion is a pure function of the hop's
//!   attention vector, so pruning decisions — like everything else in the
//!   simulator — replay byte-identically.
//!
//! The criterion is deliberately monotone in the threshold: raising it can
//! only prune later (or not at all), which the proptests pin down.

use serde::{Deserialize, Serialize};

/// Configuration for the adaptive hop-pruning early exit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HopPrune {
    /// When false, every configured hop runs — the exact seed datapath.
    pub enabled: bool,
    /// Convergence threshold on the maximum attention weight, in `(0, 1]`.
    /// A hop whose max softmax output is `>= threshold` is considered
    /// converged and the remaining hops are skipped.
    pub threshold: f32,
}

impl Default for HopPrune {
    fn default() -> Self {
        HopPrune {
            enabled: false,
            threshold: 1.0,
        }
    }
}

/// A malformed hop-prune spec (the serve CLI's `--hop-prune`). Invalid
/// values are rejected rather than silently falling back to the default.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
#[error("invalid hop-prune threshold {value:?}: expected `off` or a number in (0, 1]")]
pub struct HopPruneError {
    /// The rejected input.
    pub value: String,
}

impl HopPrune {
    /// An enabled criterion with the given convergence threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is in `(0, 1]`.
    pub fn with_threshold(threshold: f32) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "hop-prune threshold {threshold} outside (0, 1]"
        );
        HopPrune {
            enabled: true,
            threshold,
        }
    }

    /// Parses a CLI-style spec: `off` disables pruning, anything else must
    /// be a threshold in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HopPruneError`] for non-numeric input or a threshold
    /// outside `(0, 1]`.
    pub fn parse(s: &str) -> Result<Self, HopPruneError> {
        if s == "off" {
            return Ok(Self::default());
        }
        match s.parse::<f32>() {
            Ok(t) if t > 0.0 && t <= 1.0 => Ok(Self::with_threshold(t)),
            _ => Err(HopPruneError {
                value: s.to_owned(),
            }),
        }
    }

    /// Whether the criterion fires on a hop whose maximum attention weight
    /// is `max_attention`. A fired criterion can still be vetoed by the
    /// winning weight's saturation flag (see [`crate::ExitGuard`]).
    pub fn fires(&self, max_attention: f32) -> bool {
        self.enabled && max_attention >= self.threshold
    }
}

impl std::fmt::Display for HopPrune {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.enabled {
            write!(f, "{}", self.threshold)
        } else {
            write!(f, "off")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_never_fires() {
        let p = HopPrune::default();
        assert!(!p.enabled);
        assert!(!p.fires(1.0));
        assert!(!p.fires(f32::INFINITY));
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(HopPrune::parse("off"), Ok(HopPrune::default()));
        let p = HopPrune::parse("0.9").unwrap();
        assert_eq!(p, HopPrune::with_threshold(0.9));
        assert_eq!(HopPrune::parse(&p.to_string()), Ok(p));
        assert_eq!(
            HopPrune::parse(&HopPrune::default().to_string()),
            Ok(HopPrune::default())
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["", "of", "O.9", "0", "-0.5", "1.5", "NaN", "inf", "0.9x"] {
            let err = HopPrune::parse(bad).unwrap_err();
            assert!(err.to_string().contains(bad) || bad.is_empty(), "{bad}");
        }
    }

    #[test]
    fn criterion_is_monotone_in_threshold() {
        let weights = [0.2f32, 0.5, 0.85, 0.95, 1.0];
        let mut thresholds = [0.1f32, 0.3, 0.8, 0.9, 1.0];
        thresholds.sort_by(f32::total_cmp);
        for &w in &weights {
            let fired: Vec<bool> = thresholds
                .iter()
                .map(|&t| HopPrune::with_threshold(t).fires(w))
                .collect();
            // Once the criterion stops firing as the threshold rises, it
            // never fires again: `fired` is non-increasing.
            assert!(fired.windows(2).all(|w| w[0] || !w[1]), "{w}: {fired:?}");
        }
    }
}
