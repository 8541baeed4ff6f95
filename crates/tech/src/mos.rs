//! Alpha-power-law MOSFET model.
//!
//! The paper's timing and electrical tools deliberately traded SPICE
//! accuracy for analyzable, conservative closed forms (§4.3: "timing models
//! for individual transistors and clumps of transistors are derived that
//! sacrifice accuracy for simulation efficiency"). We follow the same
//! philosophy with the Sakurai–Newton alpha-power law for on-current, a
//! standard exponential subthreshold model with DIBL for leakage, and a
//! linear threshold-vs-channel-length rolloff that reproduces the paper's
//! §3 observation that lengthening devices by 0.045 µm or 0.09 µm collapses
//! standby leakage.

use crate::corner::Corner;
use crate::units::{Amps, Farads, Ohms, Volts};

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MosKind {
    /// N-channel device (pulls down).
    Nmos,
    /// P-channel device (pulls up).
    Pmos,
}

impl MosKind {
    /// The opposite polarity.
    pub fn complement(self) -> MosKind {
        match self {
            MosKind::Nmos => MosKind::Pmos,
            MosKind::Pmos => MosKind::Nmos,
        }
    }
}

/// Analytical model parameters for one device polarity of a process.
///
/// All lengths are meters, voltages volts, capacitances farads.
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Polarity this model describes.
    pub kind: MosKind,
    /// Long-channel threshold voltage magnitude, volts.
    pub vt0: Volts,
    /// Transconductance coefficient `k'` in A/V^alpha per square
    /// (already includes mobility and Cox).
    pub k_prime: f64,
    /// Velocity-saturation exponent alpha (2.0 = long channel, ≈1.3 for
    /// sub-half-micron devices).
    pub alpha: f64,
    /// Gate oxide capacitance per unit area, F/m².
    pub cox: f64,
    /// Gate overlap capacitance per unit width, F/m.
    pub c_overlap: f64,
    /// Junction (diffusion) capacitance per unit area, F/m².
    pub c_junction_area: f64,
    /// Junction sidewall capacitance per unit perimeter, F/m.
    pub c_junction_perim: f64,
    /// Subthreshold leakage prefactor per square, A (I at Vgs = Vt).
    pub i_leak0: f64,
    /// Subthreshold swing factor `n` (slope = n · kT/q · ln 10).
    pub subthreshold_n: f64,
    /// DIBL coefficient: ΔVt per volt of Vds, dimensionless.
    pub dibl: f64,
    /// Threshold rolloff slope: dVt/dL, volts per meter. Negative length
    /// deltas (shorter channel) lower Vt; lengthening raises it. The paper's
    /// +0.045 µm / +0.09 µm lengthening exploits exactly this.
    pub vt_rolloff: f64,
    /// Drawn channel length at which `vt0` is specified, meters.
    pub l_nominal: f64,
}

/// Thermal voltage kT/q at approximately room temperature, volts.
pub const PHI_T_300K: f64 = 0.02585;

impl MosModel {
    /// Effective threshold voltage at a given drawn length, drain bias and
    /// corner: `Vt0 + rolloff·(L−Lnom) − DIBL·Vds + corner shift`.
    fn vt_effective(&self, l: f64, vds: Volts, corner: &Corner) -> Volts {
        let rolloff = self.vt_rolloff * (l - self.l_nominal);
        Volts::new(self.vt0.volts() + rolloff - self.dibl * vds.volts().abs()) + corner.vt_shift
    }

    /// Saturation drain current of a `w` × `l` device with full gate drive
    /// (`Vgs = Vdd`), via the alpha-power law.
    ///
    /// Returns zero if the device is below threshold at full drive.
    ///
    /// A NaN width or length is *not* rejected: it yields a NaN current,
    /// which propagates through resistance, delay and stress arithmetic
    /// until the verification layers (NaN-aware since they must report
    /// poisoned data as findings, never crash mid-flow) surface it.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is zero or negative.
    pub fn saturation_current(&self, w: f64, l: f64, corner: &Corner) -> Amps {
        assert!(
            (w > 0.0 || w.is_nan()) && (l > 0.0 || l.is_nan()),
            "device geometry must be positive"
        );
        let vt = self.vt_effective(l, corner.vdd, corner);
        let vgt = corner.vdd.volts() - vt.volts();
        if vgt <= 0.0 {
            return Amps::ZERO;
        }
        let id = corner.drive_factor * self.k_prime * (w / l) * vgt.powf(self.alpha);
        Amps::new(id)
    }

    /// Effective switching resistance for RC delay estimation:
    /// `R ≈ Vdd / (2·Idsat)` — the classic average of the saturated and
    /// half-swing operating points.
    ///
    /// # Panics
    ///
    /// Panics if the device has no drive at this corner (Vdd below Vt).
    pub fn effective_resistance(&self, w: f64, l: f64, corner: &Corner) -> Ohms {
        let id = self.saturation_current(w, l, corner);
        // NaN drive (poisoned geometry) passes through as NaN ohms; see
        // [`MosModel::saturation_current`].
        assert!(
            id.amps() > 0.0 || id.amps().is_nan(),
            "device has no drive at this corner (vdd {} below threshold)",
            corner.vdd
        );
        Ohms::new(corner.vdd.volts() / (2.0 * id.amps()))
    }

    /// Total gate capacitance: channel (`Cox·W·L`) plus source and drain
    /// overlap (`2·Cov·W`).
    pub fn gate_capacitance(&self, w: f64, l: f64) -> Farads {
        Farads::new(self.cox * w * l + 2.0 * self.c_overlap * w)
    }

    /// Drain/source diffusion capacitance for a contacted diffusion of the
    /// given width, assuming a diffusion extension of `2.5·L` (a standard
    /// layout-rule estimate when real layout is not yet available).
    pub fn diffusion_capacitance(&self, w: f64, l: f64) -> Farads {
        let ext = 2.5 * l;
        let area = w * ext;
        let perim = 2.0 * (w + ext);
        Farads::new(self.c_junction_area * area + self.c_junction_perim * perim)
    }

    /// Subthreshold (off-state) leakage current of a `w` × `l` device with
    /// `Vgs = 0` and `Vds = Vdd`.
    ///
    /// `I = I0 · (W/L) · 10^(−Vt_eff / S)` where `S = n · φt · ln 10` and
    /// temperature raises φt. Lengthening the channel raises `Vt_eff`
    /// through the rolloff term, which is why a 0.045 µm stretch buys an
    /// order of magnitude.
    pub fn subthreshold_leakage(&self, w: f64, l: f64, corner: &Corner) -> Amps {
        // NaN geometry propagates as NaN current, like
        // [`MosModel::saturation_current`].
        assert!(
            (w > 0.0 || w.is_nan()) && (l > 0.0 || l.is_nan()),
            "device geometry must be positive"
        );
        let phi_t = PHI_T_300K * (corner.temperature.celsius() + 273.15) / 300.0;
        let vt = self.vt_effective(l, corner.vdd, corner);
        let swing = self.subthreshold_n * phi_t * std::f64::consts::LN_10;
        let i = self.i_leak0 * (w / l) * 10f64.powf(-vt.volts() / swing);
        Amps::new(i)
    }

    /// Gate input capacitance bounds reflecting logical context (§4.3:
    /// "Transistor gate input capacitance can also have a wide range of
    /// values, depending upon its logical context"). Returns `(min, max)`
    /// where min assumes the channel never forms (overlap only + 40 % of
    /// channel) and max assumes full channel plus Miller-doubled overlap.
    pub fn gate_capacitance_bounds(&self, w: f64, l: f64) -> (Farads, Farads) {
        let channel = self.cox * w * l;
        let overlap = 2.0 * self.c_overlap * w;
        let min = Farads::new(0.4 * channel + overlap);
        let max = Farads::new(channel + 2.0 * overlap);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;

    fn nmos_and_corner() -> (MosModel, Corner) {
        let p = Process::strongarm_035();
        let c = Corner::typical(&p);
        (p.mos(MosKind::Nmos).clone(), c)
    }

    #[test]
    fn current_scales_with_width() {
        let (m, c) = nmos_and_corner();
        let l = m.l_nominal;
        let i1 = m.saturation_current(1e-6, l, &c);
        let i2 = m.saturation_current(2e-6, l, &c);
        assert!((i2.amps() / i1.amps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn resistance_inverse_in_width() {
        let (m, c) = nmos_and_corner();
        let l = m.l_nominal;
        let r1 = m.effective_resistance(1e-6, l, &c);
        let r4 = m.effective_resistance(4e-6, l, &c);
        assert!((r1.ohms() / r4.ohms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_drops_with_channel_lengthening() {
        let (m, _) = nmos_and_corner();
        let p = Process::strongarm_035();
        let fast = Corner::fast(&p);
        let l0 = m.l_nominal;
        let base = m.subthreshold_leakage(10e-6, l0, &fast);
        let l45 = m.subthreshold_leakage(10e-6, l0 + 0.045e-6, &fast);
        let l90 = m.subthreshold_leakage(10e-6, l0 + 0.090e-6, &fast);
        assert!(l45.amps() < base.amps());
        assert!(l90.amps() < l45.amps());
        // Lengthening must be strongly (super-linearly) effective.
        assert!(
            base.amps() / l90.amps() > 5.0,
            "0.09 µm lengthening should cut leakage by well over 5x, got {}",
            base.amps() / l90.amps()
        );
    }

    #[test]
    fn fast_corner_leaks_more_than_slow() {
        let p = Process::strongarm_035();
        let m = p.mos(MosKind::Nmos);
        // The fast corner's lower Vt wins over its lower junction
        // temperature (which softens the subthreshold slope), so fast
        // must still leak noticeably more than slow.
        let lf = m.subthreshold_leakage(10e-6, m.l_nominal, &Corner::fast(&p));
        let ls = m.subthreshold_leakage(10e-6, m.l_nominal, &Corner::slow(&p));
        assert!(
            lf.amps() > ls.amps() * 1.3,
            "fast/slow = {}",
            lf.amps() / ls.amps()
        );
    }

    #[test]
    fn gate_cap_bounds_bracket_nominal() {
        let (m, _) = nmos_and_corner();
        let nom = m.gate_capacitance(2e-6, m.l_nominal);
        let (lo, hi) = m.gate_capacitance_bounds(2e-6, m.l_nominal);
        assert!(lo.farads() < nom.farads());
        assert!(hi.farads() > nom.farads());
    }

    #[test]
    fn diffusion_cap_positive_and_scales() {
        let (m, _) = nmos_and_corner();
        let c1 = m.diffusion_capacitance(1e-6, m.l_nominal);
        let c3 = m.diffusion_capacitance(3e-6, m.l_nominal);
        assert!(c1.farads() > 0.0);
        assert!(c3.farads() > c1.farads());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let (m, c) = nmos_and_corner();
        let _ = m.saturation_current(0.0, m.l_nominal, &c);
    }

    #[test]
    fn complement_round_trip() {
        assert_eq!(MosKind::Nmos.complement(), MosKind::Pmos);
        assert_eq!(MosKind::Pmos.complement().complement(), MosKind::Pmos);
    }

    #[test]
    fn dibl_lowers_vt() {
        let (m, c) = nmos_and_corner();
        let hi = m.vt_effective(m.l_nominal, Volts::new(1.65), &c);
        let lo = m.vt_effective(m.l_nominal, Volts::ZERO, &c);
        assert!(hi.volts() < lo.volts());
    }
}
