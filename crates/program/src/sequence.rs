//! Pulse sequences: the executable part of an analog program.
//!
//! A [`Sequence`] owns a [`Register`] plus a time-ordered list of [`Pulse`]s
//! on a named channel. In the analog regime targeted here there is one global
//! Rydberg channel driving all atoms uniformly — matching the production
//! devices the paper integrates — but the IR keeps the channel name explicit
//! so local-addressing devices can be added without changing the format.

use crate::error::ProgramError;
use crate::register::Register;
use crate::waveform::Waveform;
use serde::{Deserialize, Serialize};

/// The global Rydberg channel name used by the standard analog device.
pub const GLOBAL_CHANNEL: &str = "rydberg_global";

/// One pulse: simultaneous amplitude (Ω), detuning (δ) and phase (φ) control
/// over a common duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pulse {
    /// Rabi frequency Ω(t) in rad/µs. Must be non-negative on hardware.
    pub amplitude: Waveform,
    /// Detuning δ(t) in rad/µs.
    pub detuning: Waveform,
    /// Carrier phase in radians, constant over the pulse.
    pub phase: f64,
}

impl Pulse {
    /// Build a pulse; amplitude and detuning must share a duration (within
    /// 1 ps tolerance) and the phase must be finite.
    pub fn new(amplitude: Waveform, detuning: Waveform, phase: f64) -> Result<Self, ProgramError> {
        let da = amplitude.duration();
        let dd = detuning.duration();
        if (da - dd).abs() > 1e-6 {
            return Err(ProgramError::InvalidPulse(format!(
                "amplitude duration {da} µs != detuning duration {dd} µs"
            )));
        }
        if !phase.is_finite() {
            return Err(ProgramError::InvalidPulse(format!(
                "phase must be finite, got {phase}"
            )));
        }
        Ok(Pulse {
            amplitude,
            detuning,
            phase,
        })
    }

    /// A pulse with constant amplitude and detuning — the workhorse of
    /// adiabatic-sweep style programs.
    pub fn constant(
        duration: f64,
        omega: f64,
        delta: f64,
        phase: f64,
    ) -> Result<Self, ProgramError> {
        Pulse::new(
            Waveform::constant(duration, omega)?,
            Waveform::constant(duration, delta)?,
            phase,
        )
    }

    /// Pulse duration in µs.
    pub fn duration(&self) -> f64 {
        self.amplitude.duration()
    }
}

/// A timed pulse on a channel within a sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedPulse {
    /// Channel the pulse plays on.
    pub channel: String,
    /// Start time in µs from sequence origin.
    pub start: f64,
    /// The pulse content.
    pub pulse: Pulse,
}

/// A complete analog program: register + scheduled pulses + measurement basis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequence {
    /// Atom geometry; defines qubit count and interaction graph.
    pub register: Register,
    /// Pulses sorted by start time (enforced by [`SequenceBuilder`]).
    pub pulses: Vec<TimedPulse>,
    /// Measurement basis label; `"ground-rydberg"` on the analog device.
    pub measurement_basis: String,
}

impl Sequence {
    /// Total program duration: the end of the last pulse, or 0 for an empty
    /// schedule.
    pub fn duration(&self) -> f64 {
        self.pulses
            .iter()
            .map(|tp| tp.start + tp.pulse.duration())
            .fold(0.0, f64::max)
    }

    /// Number of qubits (register size).
    pub fn num_qubits(&self) -> usize {
        self.register.len()
    }

    /// The drive values `(Ω, δ, φ)` on `channel` at absolute time `t`.
    /// Between pulses the drive is zero (Ω=0, δ=0, φ=0).
    pub fn drive_at(&self, channel: &str, t: f64) -> (f64, f64, f64) {
        for tp in &self.pulses {
            if tp.channel != channel {
                continue;
            }
            let end = tp.start + tp.pulse.duration();
            if t >= tp.start && t <= end {
                let local = t - tp.start;
                return (
                    tp.pulse.amplitude.sample(local),
                    tp.pulse.detuning.sample(local),
                    tp.pulse.phase,
                );
            }
        }
        (0.0, 0.0, 0.0)
    }

    /// Peak Rabi frequency over the whole schedule.
    pub fn max_amplitude(&self) -> f64 {
        self.pulses
            .iter()
            .map(|tp| tp.pulse.amplitude.max_value())
            .fold(0.0, f64::max)
    }

    /// Extremes of the detuning over the whole schedule `(min, max)`;
    /// `(0, 0)` for an empty schedule.
    pub fn detuning_range(&self) -> (f64, f64) {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for tp in &self.pulses {
            lo = lo.min(tp.pulse.detuning.min_value());
            hi = hi.max(tp.pulse.detuning.max_value());
        }
        (lo, hi)
    }

    /// A stable content fingerprint of the program (register + schedule),
    /// used for caching results and for reproducibility metadata in job
    /// records. FNV-1a over the canonical JSON encoding.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("sequence serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Incremental builder enforcing the sequence invariants: pulses on a channel
/// are appended back-to-back (no overlap on the same channel) and sorted by
/// start time.
#[derive(Debug, Clone)]
pub struct SequenceBuilder {
    register: Register,
    pulses: Vec<TimedPulse>,
    measurement_basis: String,
}

impl SequenceBuilder {
    /// Start a program on the given register.
    pub fn new(register: Register) -> Self {
        SequenceBuilder {
            register,
            pulses: Vec::new(),
            measurement_basis: "ground-rydberg".to_string(),
        }
    }

    /// End time of the last pulse on `channel` (0 if none yet).
    fn channel_end(&self, channel: &str) -> f64 {
        self.pulses
            .iter()
            .filter(|tp| tp.channel == channel)
            .map(|tp| tp.start + tp.pulse.duration())
            .fold(0.0, f64::max)
    }

    /// Append `pulse` to `channel` immediately after the channel's current
    /// end time.
    pub fn add_pulse(&mut self, channel: impl Into<String>, pulse: Pulse) -> &mut Self {
        let channel = channel.into();
        let start = self.channel_end(&channel);
        self.pulses.push(TimedPulse {
            channel,
            start,
            pulse,
        });
        self
    }

    /// Append a pulse to the global Rydberg channel.
    pub fn add_global_pulse(&mut self, pulse: Pulse) -> &mut Self {
        self.add_pulse(GLOBAL_CHANNEL, pulse)
    }

    /// Insert an idle gap of `duration` µs on `channel` (advances the channel
    /// clock without driving).
    pub fn add_delay(&mut self, channel: impl Into<String>, duration: f64) -> &mut Self {
        let channel = channel.into();
        let start = self.channel_end(&channel);
        // Represent the delay as a zero pulse so the schedule stays explicit.
        let zero = Pulse::constant(duration.max(1e-9), 0.0, 0.0, 0.0)
            .expect("zero pulse with positive duration is valid");
        self.pulses.push(TimedPulse {
            channel,
            start,
            pulse: zero,
        });
        self
    }

    /// Finalize; rejects an empty schedule.
    pub fn build(self) -> Result<Sequence, ProgramError> {
        if self.pulses.is_empty() {
            return Err(ProgramError::InvalidSequence(
                "sequence has no pulses; add at least one pulse before build()".into(),
            ));
        }
        let mut pulses = self.pulses;
        pulses.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite starts"));
        Ok(Sequence {
            register: self.register,
            pulses,
            measurement_basis: self.measurement_basis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(n: usize) -> Register {
        Register::linear(n, 6.0).unwrap()
    }

    #[test]
    fn pulse_duration_mismatch_rejected() {
        let a = Waveform::constant(1.0, 1.0).unwrap();
        let d = Waveform::constant(2.0, 0.0).unwrap();
        assert!(Pulse::new(a, d, 0.0).is_err());
    }

    #[test]
    fn pulse_nonfinite_phase_rejected() {
        let a = Waveform::constant(1.0, 1.0).unwrap();
        let d = Waveform::constant(1.0, 0.0).unwrap();
        assert!(Pulse::new(a, d, f64::NAN).is_err());
    }

    #[test]
    fn builder_appends_back_to_back() {
        let mut b = SequenceBuilder::new(reg(2));
        b.add_global_pulse(Pulse::constant(1.0, 2.0, 0.0, 0.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.5, 3.0, -1.0, 0.0).unwrap());
        let s = b.build().unwrap();
        assert_eq!(s.pulses.len(), 2);
        assert_eq!(s.pulses[0].start, 0.0);
        assert_eq!(s.pulses[1].start, 1.0);
        assert!((s.duration() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_rejected() {
        assert!(SequenceBuilder::new(reg(1)).build().is_err());
    }

    #[test]
    fn drive_at_returns_pulse_values_and_zero_between() {
        let mut b = SequenceBuilder::new(reg(2));
        b.add_global_pulse(Pulse::constant(1.0, 2.0, -0.5, 0.25).unwrap());
        b.add_delay(GLOBAL_CHANNEL, 1.0);
        b.add_global_pulse(Pulse::constant(1.0, 4.0, 0.5, 0.0).unwrap());
        let s = b.build().unwrap();

        let (o, d, p) = s.drive_at(GLOBAL_CHANNEL, 0.5);
        assert_eq!((o, d, p), (2.0, -0.5, 0.25));
        let (o, d, _) = s.drive_at(GLOBAL_CHANNEL, 1.5);
        assert_eq!((o, d), (0.0, 0.0), "delay drives nothing");
        let (o, _, _) = s.drive_at(GLOBAL_CHANNEL, 2.5);
        assert_eq!(o, 4.0);
        let (o, _, _) = s.drive_at("nonexistent", 0.5);
        assert_eq!(o, 0.0);
    }

    #[test]
    fn max_amplitude_and_detuning_range() {
        let mut b = SequenceBuilder::new(reg(2));
        b.add_global_pulse(
            Pulse::new(
                Waveform::ramp(1.0, 0.0, 6.0).unwrap(),
                Waveform::ramp(1.0, -4.0, 8.0).unwrap(),
                0.0,
            )
            .unwrap(),
        );
        let s = b.build().unwrap();
        assert_eq!(s.max_amplitude(), 6.0);
        assert_eq!(s.detuning_range(), (-4.0, 8.0));
    }

    #[test]
    fn fingerprint_stable_and_content_sensitive() {
        let mut b1 = SequenceBuilder::new(reg(2));
        b1.add_global_pulse(Pulse::constant(1.0, 2.0, 0.0, 0.0).unwrap());
        let s1 = b1.build().unwrap();

        let mut b2 = SequenceBuilder::new(reg(2));
        b2.add_global_pulse(Pulse::constant(1.0, 2.0, 0.0, 0.0).unwrap());
        let s2 = b2.build().unwrap();

        let mut b3 = SequenceBuilder::new(reg(2));
        b3.add_global_pulse(Pulse::constant(1.0, 2.5, 0.0, 0.0).unwrap());
        let s3 = b3.build().unwrap();

        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_ne!(s1.fingerprint(), s3.fingerprint());
    }

    #[test]
    fn multi_channel_clocks_are_independent() {
        let mut b = SequenceBuilder::new(reg(2));
        b.add_pulse("ch_a", Pulse::constant(2.0, 1.0, 0.0, 0.0).unwrap());
        b.add_pulse("ch_b", Pulse::constant(1.0, 1.0, 0.0, 0.0).unwrap());
        b.add_pulse("ch_b", Pulse::constant(1.0, 2.0, 0.0, 0.0).unwrap());
        let s = b.build().unwrap();
        let starts: Vec<(String, f64)> = s
            .pulses
            .iter()
            .map(|tp| (tp.channel.clone(), tp.start))
            .collect();
        assert!(starts.contains(&("ch_a".to_string(), 0.0)));
        assert!(starts.contains(&("ch_b".to_string(), 0.0)));
        assert!(starts.contains(&("ch_b".to_string(), 1.0)));
    }

    #[test]
    fn serde_roundtrip() {
        let mut b = SequenceBuilder::new(reg(3));
        b.add_global_pulse(
            Pulse::new(
                Waveform::blackman(1.0, std::f64::consts::PI).unwrap(),
                Waveform::ramp(1.0, -5.0, 5.0).unwrap(),
                0.1,
            )
            .unwrap(),
        );
        let s = b.build().unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: Sequence = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
