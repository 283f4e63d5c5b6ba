//! Parameter-sweep points over one program template.
//!
//! Hybrid workloads (variational loops, phase-diagram scans, QAOA-style
//! parameter searches) run the *same* program shape many times with
//! different drive parameters. A [`SweepPoint`] is one such assignment and
//! [`SweepPoint::materialize`] turns it into an ordinary [`Sequence`]; running
//! the points is the runtime's job (`hpcqc_core::Runtime::run_sweep`: one
//! lease, one ordinary task per point).

use hpcqc_program::{Pulse, Sequence, TimedPulse};
use serde::{Deserialize, Serialize};

/// One parameter assignment of a sweep: a pointwise transform applied to a
/// template [`Sequence`]. Durations and geometry are never changed, so every
/// materialized program shares the template's register, schedule timing, and
/// Hamiltonian structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Multiplier on the Rabi amplitude waveform Ω(t).
    pub omega_scale: f64,
    /// Multiplier on the detuning waveform δ(t).
    pub delta_scale: f64,
    /// Additive offset on every pulse's carrier phase (rad).
    pub phase_offset: f64,
}

impl SweepPoint {
    /// The point that materializes the template unchanged.
    pub fn identity() -> Self {
        SweepPoint {
            omega_scale: 1.0,
            delta_scale: 1.0,
            phase_offset: 0.0,
        }
    }

    /// Apply this point to a template: scale amplitude and detuning
    /// waveforms pointwise, offset each pulse's phase. Channels, start
    /// times, durations, register, and measurement basis are untouched.
    pub fn materialize(&self, template: &Sequence) -> Sequence {
        Sequence {
            register: template.register.clone(),
            measurement_basis: template.measurement_basis.clone(),
            pulses: template
                .pulses
                .iter()
                .map(|tp| TimedPulse {
                    channel: tp.channel.clone(),
                    start: tp.start,
                    pulse: Pulse {
                        amplitude: tp.pulse.amplitude.scaled(self.omega_scale),
                        detuning: tp.pulse.detuning.scaled(self.delta_scale),
                        phase: tp.pulse.phase + self.phase_offset,
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::sequence::GLOBAL_CHANNEL;
    use hpcqc_program::{Register, SequenceBuilder, Waveform};

    /// QAOA-style all-constant template: alternating drive layers with
    /// distinct phases on a blockaded chain.
    fn constant_template(n: usize) -> Sequence {
        let reg = Register::linear(n, 10.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.1, 4.0, 1.0, 0.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.1, 3.0, -2.0, 0.7).unwrap());
        b.add_global_pulse(Pulse::constant(0.1, 4.0, 1.5, 1.9).unwrap());
        b.build().unwrap()
    }

    /// Template with ramps: sampled waveforms instead of stored constants.
    fn ramp_template(n: usize) -> Sequence {
        let reg = Register::linear(n, 10.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(
            Pulse::new(
                Waveform::ramp(0.2, 0.0, 4.0).unwrap(),
                Waveform::ramp(0.2, -2.0, 2.0).unwrap(),
                0.3,
            )
            .unwrap(),
        );
        b.build().unwrap()
    }

    #[test]
    fn identity_point_materializes_template_unchanged() {
        let tpl = constant_template(3);
        assert_eq!(SweepPoint::identity().materialize(&tpl), tpl);
        let tpl = ramp_template(3);
        assert_eq!(SweepPoint::identity().materialize(&tpl), tpl);
    }

    #[test]
    fn materialize_scales_values_not_timing() {
        let tpl = constant_template(2);
        let p = SweepPoint {
            omega_scale: 0.5,
            delta_scale: -2.0,
            phase_offset: 1.0,
        };
        let m = p.materialize(&tpl);
        assert_eq!(m.duration(), tpl.duration());
        assert_eq!(m.pulses.len(), tpl.pulses.len());
        for (a, b) in m.pulses.iter().zip(&tpl.pulses) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.pulse.duration(), b.pulse.duration());
            assert_eq!(a.pulse.phase, b.pulse.phase + 1.0);
        }
        let (o, d, _) = m.drive_at(GLOBAL_CHANNEL, 0.05);
        assert_eq!(o, 4.0 * 0.5);
        assert_eq!(d, 1.0 * -2.0);
    }
}
