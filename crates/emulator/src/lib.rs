//! # hpcqc-emulator — classical emulators for analog neutral-atom programs
//!
//! Rust stand-in for the vendor's open-source emulator suite (paper ref [5]):
//!
//! * [`SvBackend`] — exact state-vector integration of the Rydberg
//!   Hamiltonian (RK4, matrix-free, chunk-parallel kernel), up to ~20 qubits.
//! * [`MpsBackend`] — matrix-product-state TEBD with a configurable bond
//!   dimension `χ`; `χ = 1` is the product-state "mock QPU" mode the paper's
//!   footnote 3 describes for end-to-end testing at arbitrary size.
//!
//! Both implement the [`Emulator`] trait and return the backend-independent
//! [`SampleResult`], so the QRMI layer and the runtime treat them exactly
//! like hardware.

pub mod backend;
pub mod batch;
pub mod hamiltonian;
pub mod linalg;
pub mod mps;
pub mod noise;
mod par;
pub mod result;
pub mod statevector;

pub use backend::{
    sampling_distribution, Emulator, EmulatorError, MpsBackend, SvBackend, SvPhaseTimings,
};
pub use batch::SweepPoint;
pub use hamiltonian::{DiscretizedDrive, RydbergHamiltonian};
pub use mps::{Mps, MpsConfig};
pub use noise::SpamNoise;
pub use result::{Counts, SampleResult};
pub use statevector::{
    evolve_sequence, evolve_sequence_ws, StateVector, SvConfig, SvWorkspace, SV_MAX_QUBITS,
};
