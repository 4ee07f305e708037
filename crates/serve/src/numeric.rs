//! Numeric-health policy for the serve stack.
//!
//! Every completion carries the accelerator's per-inference
//! [`mann_hw::NumericReport`] — the sticky saturation/clamp flags the
//! fixed-point datapath latched while computing it. A [`NumericPolicy`]
//! decides what the serving layer does about them:
//!
//! * [`NumericPolicy::Ignore`] — the default — does nothing; the serve
//!   path (and its report bytes) are identical to a build without the
//!   numeric layer.
//! * [`NumericPolicy::Flag`] marks stressed completions and publishes a
//!   [`NumericHealth`] section in the report.
//! * [`NumericPolicy::Failover`] additionally re-runs every stressed
//!   completion on the `f32` reference datapath ("precision failover"),
//!   replacing the fixed-point answer and paying the re-run's
//!   cycles/energy through the existing power model.
//!
//! The policy is applied per completion, after the event loop, as a pure
//! function of each completion's numeric report — so the resulting
//! [`NumericHealth`] is byte-identical across worker counts and cache
//! hit/miss paths.

use mann_core::report::TextTable;
use mann_linalg::NumericStatus;
use serde::{Deserialize, Serialize};

use crate::report::ReportSection;

/// What the serving layer does with numeric-event flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NumericPolicy {
    /// Drop the flags; report bytes stay identical to a build without
    /// the numeric layer.
    #[default]
    Ignore,
    /// Count and expose stressed completions, answers untouched.
    Flag,
    /// Re-run stressed completions on the `f32` reference datapath.
    Failover,
}

/// An unrecognized numeric-policy name (the serve CLI's
/// `--numeric-policy`). Invalid values are rejected rather than silently
/// falling back to the default.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
#[error("invalid numeric policy {value:?}: expected one of `ignore`, `flag`, `failover`")]
pub struct NumericPolicyError {
    /// The rejected input.
    pub value: String,
}

impl NumericPolicy {
    /// Parses a CLI-style policy name.
    ///
    /// # Errors
    ///
    /// Returns [`NumericPolicyError`] for anything but
    /// `ignore`/`flag`/`failover`.
    pub fn parse(s: &str) -> Result<Self, NumericPolicyError> {
        match s {
            "ignore" => Ok(Self::Ignore),
            "flag" => Ok(Self::Flag),
            "failover" => Ok(Self::Failover),
            _ => Err(NumericPolicyError {
                value: s.to_owned(),
            }),
        }
    }
}

impl std::fmt::Display for NumericPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Ignore => write!(f, "ignore"),
            Self::Flag => write!(f, "flag"),
            Self::Failover => write!(f, "failover"),
        }
    }
}

/// Numeric-health summary of one served trace.
///
/// `enabled == false` (the [`NumericPolicy::Ignore`] default) means every
/// other field is zero and the `numeric` key is absent from the JSON
/// report — zero-stress serves stay byte-identical to reports from before
/// the numeric layer existed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NumericHealth {
    /// Whether a non-ignore policy was active.
    pub enabled: bool,
    /// The active policy name (`flag` or `failover`).
    pub policy: String,
    /// Completions whose sticky flags were set (any saturation, clamp,
    /// or NaN-at-boundary event anywhere in the datapath).
    pub flagged: u64,
    /// ITH early exits vetoed by the saturation exit guard, summed over
    /// completions.
    pub vetoed: u64,
    /// Stressed completions re-answered on the `f32` reference datapath
    /// (failover policy only).
    pub failed_over: u64,
    /// Compute cycles the failover re-runs cost (each re-run is charged
    /// the completion's full fixed-point compute, the conservative model
    /// of an on-host reference replay).
    pub failover_cycles: u64,
    /// Activity-dependent fabric energy of the failover re-runs, joules.
    pub failover_energy_j: f64,
    /// Per-class event histogram summed over every completion's numeric
    /// report (add/sub/mul saturation, div-by-zero, quantize clamp,
    /// NaN-at-boundary).
    pub histogram: NumericStatus,
}

impl NumericHealth {
    /// Folds per-shard sections: the enabled ones' counters add and their
    /// histograms merge; every shard runs the same policy.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        for p in parts.into_iter().filter(|p| p.enabled) {
            m.enabled = true;
            m.policy.clone_from(&p.policy);
            m.flagged += p.flagged;
            m.vetoed += p.vetoed;
            m.failed_over += p.failed_over;
            m.failover_cycles += p.failover_cycles;
            m.failover_energy_j += p.failover_energy_j;
            m.histogram.merge(&p.histogram);
        }
        m
    }
}

impl ReportSection for NumericHealth {
    fn key(&self) -> &'static str {
        "numeric"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["numeric metric".into(), "value".into()]);
        t.row(vec!["policy".into(), self.policy.clone()]);
        t.row(vec!["flagged completions".into(), self.flagged.to_string()]);
        t.row(vec!["exit-guard vetoes".into(), self.vetoed.to_string()]);
        t.row(vec![
            "precision failovers".into(),
            format!(
                "{} ({} cycles, {} J)",
                self.failed_over,
                self.failover_cycles,
                mann_core::report::fnum(self.failover_energy_j, 3)
            ),
        ]);
        t.row(vec![
            "saturation (add/sub/mul)".into(),
            format!(
                "{} / {} / {}",
                self.histogram.add_sat, self.histogram.sub_sat, self.histogram.mul_sat
            ),
        ]);
        t.row(vec![
            "div-zero / quant-clamp / nan".into(),
            format!(
                "{} / {} / {}",
                self.histogram.div_zero, self.histogram.quant_clamp, self.histogram.nan_boundary
            ),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_policy() {
        for p in [
            NumericPolicy::Ignore,
            NumericPolicy::Flag,
            NumericPolicy::Failover,
        ] {
            assert_eq!(NumericPolicy::parse(&p.to_string()), Ok(p));
        }
        assert!(NumericPolicy::parse("strict").is_err());
        let err = NumericPolicy::parse("Failover").unwrap_err();
        assert!(err.to_string().contains("Failover"));
    }

    #[test]
    fn default_policy_is_ignore() {
        assert_eq!(NumericPolicy::default(), NumericPolicy::Ignore);
    }

    #[test]
    fn health_renders_every_counter() {
        let h = NumericHealth {
            enabled: true,
            policy: "failover".into(),
            flagged: 7,
            vetoed: 3,
            failed_over: 5,
            failover_cycles: 1234,
            failover_energy_j: 0.5,
            histogram: NumericStatus {
                add_sat: 11,
                sub_sat: 12,
                mul_sat: 13,
                div_zero: 14,
                quant_clamp: 15,
                nan_boundary: 16,
            },
        };
        let text = h.render();
        for needle in [
            "failover", "7", "3", "1234", "11", "12", "13", "14", "15", "16",
        ] {
            assert!(text.contains(needle), "render missing {needle}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let h = NumericHealth {
            enabled: true,
            policy: "flag".into(),
            flagged: 2,
            ..NumericHealth::default()
        };
        let v = Serialize::to_value(&h);
        let back: NumericHealth = Deserialize::from_value(&v).unwrap();
        assert_eq!(h, back);
    }
}
