//! Clock-domain arithmetic.

use serde::{Deserialize, Serialize};

/// A cycle count (newtype over `u64` so cycle math cannot silently mix with
/// byte counts or FLOPs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Wraps a raw count.
    pub fn new(count: u64) -> Self {
        Self(count)
    }

    /// The raw count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Cycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(c: u64) -> Self {
        Cycles(c)
    }
}

/// A point (or span) of simulated wall-clock time, in integer picoseconds.
///
/// The serving layer schedules events from several clock domains — fabric
/// compute at 25–100 MHz, PCIe transfers, request arrivals — onto one
/// timeline. Floating-point timestamps would make event ordering depend on
/// accumulated rounding; an integer picosecond timebase keeps every
/// comparison exact, so a discrete-event schedule replays byte-identically.
/// One picosecond resolves every paper clock (a 100 MHz cycle is 10⁴ ps)
/// and `u64` picoseconds span ~213 simulated days. A duration past that
/// range is an error, never a clamp: [`SimTime::from_s`] rejects it and
/// addition panics on overflow.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Picoseconds per second.
    pub const PS_PER_S: f64 = 1e12;

    /// Wraps a raw picosecond count.
    pub fn from_ps(ps: u64) -> Self {
        Self(ps)
    }

    /// Converts from seconds, rounding to the nearest picosecond; `None`
    /// when `seconds` is negative, not finite, or rounds to 2^64 ps or
    /// more.
    pub fn try_from_s(seconds: f64) -> Option<Self> {
        let ps = (seconds * Self::PS_PER_S).round();
        // `u64::MAX as f64` is 2^64; a NaN fails the first comparison.
        (seconds >= 0.0 && ps < u64::MAX as f64).then_some(Self(ps as u64))
    }

    /// Converts from seconds, rounding to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative, not finite, or rounds to 2^64 ps
    /// or more ([`SimTime::try_from_s`]).
    pub fn from_s(seconds: f64) -> Self {
        Self::try_from_s(seconds).unwrap_or_else(|| {
            panic!("SimTime needs a finite non-negative duration under 2^64 ps, got {seconds} s")
        })
    }

    /// The raw picosecond count.
    pub fn ps(self) -> u64 {
        self.0
    }

    /// The time in seconds.
    pub fn as_s(self) -> f64 {
        self.0 as f64 / Self::PS_PER_S
    }

    /// Saturating subtraction (spans never go negative).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if the sum reaches 2^64 ps, in release builds too.
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow past 2^64 ps"),
        )
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ps", self.0)
    }
}

/// An FPGA clock domain; the paper evaluates 25, 50, 75 and 100 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockDomain {
    freq_hz: f64,
}

impl ClockDomain {
    /// A clock at `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not positive.
    pub fn mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive");
        Self { freq_hz: mhz * 1e6 }
    }

    /// Frequency in hertz.
    pub fn freq_hz(self) -> f64 {
        self.freq_hz
    }

    /// Frequency in megahertz.
    pub fn freq_mhz(self) -> f64 {
        self.freq_hz / 1e6
    }

    /// Wall-clock seconds taken by `cycles` in this domain.
    pub fn seconds(self, cycles: Cycles) -> f64 {
        cycles.get() as f64 / self.freq_hz
    }

    /// Simulated time taken by `cycles` in this domain, rounded to the
    /// nearest picosecond (exact for the paper's 25/50/100 MHz points;
    /// 75 MHz rounds the ⅓-ps remainder).
    pub fn sim_time(self, cycles: Cycles) -> SimTime {
        SimTime::from_s(self.seconds(cycles))
    }

    /// The paper's four operating points.
    pub fn paper_frequencies() -> [ClockDomain; 4] {
        [
            Self::mhz(25.0),
            Self::mhz(50.0),
            Self::mhz(75.0),
            Self::mhz(100.0),
        ]
    }
}

impl Default for ClockDomain {
    /// 100 MHz, the paper's fastest configuration.
    fn default() -> Self {
        Self::mhz(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles::new(10) + Cycles::new(5);
        assert_eq!(a.get(), 15);
        let mut b = a;
        b += Cycles::new(1);
        assert_eq!(b.get(), 16);
        assert_eq!((Cycles::new(3) * 4).get(), 12);
        let s: Cycles = [Cycles::new(1), Cycles::new(2)].into_iter().sum();
        assert_eq!(s.get(), 3);
    }

    #[test]
    fn saturating_add_caps() {
        let max = Cycles::new(u64::MAX);
        assert_eq!(max.saturating_add(Cycles::new(1)), max);
    }

    #[test]
    fn seconds_conversion() {
        let clk = ClockDomain::mhz(25.0);
        assert!((clk.seconds(Cycles::new(25_000_000)) - 1.0).abs() < 1e-9);
        assert!((clk.freq_mhz() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn paper_frequencies_are_ascending() {
        let f = ClockDomain::paper_frequencies();
        assert_eq!(f.len(), 4);
        for w in f.windows(2) {
            assert!(w[0].freq_hz() < w[1].freq_hz());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::mhz(0.0);
    }

    #[test]
    fn sim_time_round_trips_and_orders() {
        let t = SimTime::from_s(130e-6);
        assert_eq!(t.ps(), 130_000_000);
        assert!((t.as_s() - 130e-6).abs() < 1e-18);
        assert!(SimTime::from_ps(1) > SimTime::ZERO);
        assert_eq!(
            SimTime::from_ps(3) + SimTime::from_ps(4),
            SimTime::from_ps(7)
        );
        assert_eq!(
            SimTime::from_ps(3).saturating_sub(SimTime::from_ps(9)),
            SimTime::ZERO
        );
        let s: SimTime = [SimTime::from_ps(1), SimTime::from_ps(2)].into_iter().sum();
        assert_eq!(s.ps(), 3);
    }

    #[test]
    fn clock_sim_time_is_exact_at_paper_frequencies() {
        // One cycle at 100 MHz is exactly 10_000 ps; 25 MHz is 40_000 ps.
        assert_eq!(
            ClockDomain::mhz(100.0).sim_time(Cycles::new(1)).ps(),
            10_000
        );
        assert_eq!(
            ClockDomain::mhz(25.0).sim_time(Cycles::new(3)).ps(),
            120_000
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sim_time_rejected() {
        let _ = SimTime::from_s(-1.0);
    }

    #[test]
    fn durations_past_the_clock_range_are_none() {
        // 2^64 ps is about 1.8e7 s.
        let last = SimTime::try_from_s(1.8e7).expect("1.8e7 s fits");
        assert_eq!(last.ps(), 18_000_000_000_000_000_000);
        for s in [1.85e7, 1e300, f64::INFINITY, f64::NAN, -1e-20] {
            assert_eq!(SimTime::try_from_s(s), None, "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "under 2^64 ps")]
    fn sim_time_past_the_range_rejected() {
        let _ = SimTime::from_s(1e300);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn sim_time_addition_overflow_panics() {
        let _: SimTime = [SimTime::from_ps(u64::MAX), SimTime::from_ps(1)]
            .into_iter()
            .sum();
    }
}
