//! Exit guard for the inference-thresholding early exit.
//!
//! Algorithm 1 fires the moment a logit clears its class threshold θ_i. That
//! is sound only when the logit is numerically meaningful: a Q16.16 dot
//! product that saturated at `Fixed::MAX` clears *every* threshold while
//! carrying no information. The guard vetoes a speculative exit whose winning
//! logit carries a saturation flag — or, with a nonzero guard band, when any
//! band-adjacent logit computed so far carried one — and lets the sequential
//! MIPS continue to the exact argmax.
//!
//! The guard only consults whether each logit's computation recorded a
//! numeric event; it never changes a logit's value, so on a flag-free
//! inference a guarded search is bit-identical to an unguarded one.

use serde::{Deserialize, Serialize};

/// Configuration for the saturation-aware early-exit veto.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExitGuard {
    /// When false, early exits fire exactly as in the unguarded Algorithm 1.
    pub enabled: bool,
    /// Band (in logit units) around θ_i: with a positive band, an exit is
    /// also vetoed when *any* previously probed logit landed within the band
    /// of its own threshold while carrying a saturation flag. Zero restricts
    /// the veto to the winning logit's own flags.
    pub band: f32,
}

impl Default for ExitGuard {
    fn default() -> Self {
        ExitGuard {
            enabled: true,
            band: 0.0,
        }
    }
}

impl ExitGuard {
    /// A disabled guard: the unguarded Algorithm 1 behaviour.
    pub fn off() -> Self {
        ExitGuard {
            enabled: false,
            band: 0.0,
        }
    }

    /// An enabled guard with the given band (in logit units).
    pub fn with_band(band: f32) -> Self {
        ExitGuard {
            enabled: true,
            band,
        }
    }

    /// Whether a firing early exit must be vetoed.
    ///
    /// `winning_flagged` reports whether the winning logit's own
    /// computation recorded any numeric event; `band_flagged` reports
    /// whether any logit probed so far landed within the guard band of its
    /// threshold while flagged.
    pub fn vetoes(&self, winning_flagged: bool, band_flagged: bool) -> bool {
        self.enabled && (winning_flagged || (self.band > 0.0 && band_flagged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_guard_vetoes_flagged_winner_only() {
        let g = ExitGuard::default();
        assert!(g.vetoes(true, false));
        assert!(!g.vetoes(false, false));
        // Zero band: band-adjacent flags alone do not veto.
        assert!(!g.vetoes(false, true));
    }

    #[test]
    fn banded_guard_vetoes_adjacent_flags() {
        let g = ExitGuard::with_band(0.5);
        assert!(g.vetoes(false, true));
        assert!(!g.vetoes(false, false));
    }

    #[test]
    fn disabled_guard_never_vetoes() {
        let g = ExitGuard::off();
        assert!(!g.vetoes(true, true));
    }
}
