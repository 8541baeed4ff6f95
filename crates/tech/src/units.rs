//! Dimensioned newtypes over `f64`.
//!
//! The electrical verifiers in this toolkit juggle resistances,
//! capacitances, currents and times in the same expressions; a plain `f64`
//! soup is exactly how real CAD bugs happen. Each quantity gets a zero-cost
//! newtype with the arithmetic that is dimensionally meaningful:
//! `Ohms * Farads = Seconds`, `Volts / Ohms = Amps`, `Volts * Amps = Watts`,
//! and so on. Scalar multiplication and same-unit addition are always
//! available.
//!
//! # Example
//!
//! ```
//! use cbv_tech::units::{Ohms, Farads, Seconds};
//!
//! let tau: Seconds = Ohms::new(1_000.0) * Farads::new(1e-12);
//! assert!((tau.seconds() - 1e-9).abs() < 1e-21);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $accessor:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw value expressed in the base SI unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// Returns the raw value in the base SI unit.
            #[inline]
            pub const fn $accessor(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// The smaller of two values.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// The larger of two values.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// True if the value is finite (neither NaN nor infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two same-unit quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4e} {}", self.0, $suffix)
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volts, volts, "V"
);
unit!(
    /// Electric current in amperes.
    Amps, amps, "A"
);
unit!(
    /// Resistance in ohms.
    Ohms, ohms, "Ω"
);
unit!(
    /// Capacitance in farads.
    Farads, farads, "F"
);
unit!(
    /// Time in seconds.
    Seconds, seconds, "s"
);
unit!(
    /// Power in watts.
    Watts, watts, "W"
);
unit!(
    /// Energy in joules.
    Joules, joules, "J"
);
unit!(
    /// Frequency in hertz.
    Hertz, hertz, "Hz"
);
unit!(
    /// Length in meters (device and wire geometry).
    Meters, meters, "m"
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius, celsius, "°C"
);

// --- Cross-unit arithmetic that is dimensionally meaningful. ---

impl Mul<Farads> for Ohms {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds::new(self.ohms() * rhs.farads())
    }
}

impl Mul<Ohms> for Farads {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Ohms) -> Seconds {
        rhs * self
    }
}

impl Div<Ohms> for Volts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Ohms) -> Amps {
        Amps::new(self.volts() / rhs.ohms())
    }
}

impl Div<Amps> for Volts {
    type Output = Ohms;
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms::new(self.volts() / rhs.amps())
    }
}

impl Mul<Amps> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts::new(self.volts() * rhs.amps())
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl Mul<Volts> for Farads {
    /// Charge `Q = C·V`, expressed as ampere-seconds; we return it as
    /// `Joules / Volts` is awkward, so charge uses `Amps * Seconds` via
    /// this product divided by time at the call site. For energy use
    /// [`Farads::energy`].
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs::new(self.farads() * rhs.volts())
    }
}

unit!(
    /// Electric charge in coulombs.
    Coulombs, coulombs, "C"
);

impl Mul<Volts> for Coulombs {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Volts) -> Joules {
        Joules::new(self.coulombs() * rhs.volts())
    }
}

impl Div<Seconds> for Coulombs {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Seconds) -> Amps {
        Amps::new(self.coulombs() / rhs.seconds())
    }
}

impl Mul<Seconds> for Amps {
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Seconds) -> Coulombs {
        Coulombs::new(self.amps() * rhs.seconds())
    }
}

impl Mul<Hertz> for Joules {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Hertz) -> Watts {
        Watts::new(self.joules() * rhs.hertz())
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.watts() * rhs.seconds())
    }
}

impl Hertz {
    /// The period `1/f`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Seconds {
        assert!(self.hertz() != 0.0, "zero frequency has no period");
        Seconds::new(1.0 / self.hertz())
    }
}

impl Seconds {
    /// The frequency `1/t`.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    #[inline]
    pub fn frequency(self) -> Hertz {
        assert!(self.seconds() != 0.0, "zero period has no frequency");
        Hertz::new(1.0 / self.seconds())
    }
}

/// Convenience constructor: picoseconds to [`Seconds`].
#[inline]
pub fn picoseconds(ps: f64) -> Seconds {
    Seconds::new(ps * 1e-12)
}

/// Convenience constructor: nanoseconds to [`Seconds`].
#[inline]
pub fn nanoseconds(ns: f64) -> Seconds {
    Seconds::new(ns * 1e-9)
}

/// Convenience constructor: megahertz to [`Hertz`].
#[inline]
pub fn megahertz(mhz: f64) -> Hertz {
    Hertz::new(mhz * 1e6)
}

/// Convenience constructor: milliwatts to [`Watts`].
#[inline]
pub fn milliwatts(mw: f64) -> Watts {
    Watts::new(mw * 1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_time() {
        let tau = Ohms::new(2_000.0) * Farads::new(3e-12);
        assert!((tau.seconds() - 6e-9).abs() < 1e-20);
    }

    #[test]
    fn ohms_law_round_trip() {
        let v = Volts::new(3.3);
        let r = Ohms::new(330.0);
        let i = v / r;
        assert!((i.amps() - 0.01).abs() < 1e-12);
        assert!(((v / i).ohms() - 330.0).abs() < 1e-9);
    }

    #[test]
    fn power_and_energy() {
        let p = Volts::new(2.0) * Amps::new(0.5);
        assert!((p.watts() - 1.0).abs() < 1e-12);
        let e = p * Seconds::new(2.0);
        assert!((e.joules() - 2.0).abs() < 1e-12);
        let back = e * Hertz::new(0.5);
        assert!((back.watts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_algebra() {
        let q = Farads::new(1e-12) * Volts::new(1.5);
        assert!((q.coulombs() - 1.5e-12).abs() < 1e-24);
        let i = q / Seconds::new(1e-9);
        assert!((i.amps() - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn period_frequency_round_trip() {
        let f = megahertz(200.0);
        let t = f.period();
        assert!((t.seconds() - 5e-9).abs() < 1e-18);
        assert!((t.frequency().hertz() - 2e8).abs() < 1e-3);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio = Meters::new(0.795e-6) / Meters::new(0.75e-6);
        assert!((ratio - 1.06).abs() < 1e-9);
    }

    #[test]
    fn min_max_abs() {
        let a = Seconds::new(-2.0);
        assert_eq!(a.abs(), Seconds::new(2.0));
        assert_eq!(a.min(Seconds::ZERO), a);
        assert_eq!(a.max(Seconds::ZERO), Seconds::ZERO);
    }

    #[test]
    fn sum_of_units() {
        let caps = [Farads::new(1e-15), Farads::new(2e-15), Farads::new(3e-15)];
        let total: Farads = caps.iter().copied().sum();
        assert!((total.farads() - 6e-15).abs() < 1e-27);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn zero_frequency_period_panics() {
        let _ = Hertz::ZERO.period();
    }

    #[test]
    fn display_has_suffix() {
        assert!(format!("{}", Volts::new(1.0)).ends_with(" V"));
        assert!(format!("{}", Ohms::new(1.0)).contains('Ω'));
    }
}
