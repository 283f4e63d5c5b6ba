//! Integration: the Figure-1 portability guarantees across crates.
//!
//! One program, many execution environments; multiple SDKs, one IR; the
//! mock backend as a drift-safe validation target.

use hpcqc::core::{Runtime, RuntimeConfig, RuntimeError};
use hpcqc::emulator::{Emulator, SvBackend};
use hpcqc::middleware::{DaemonConfig, MiddlewareService, Site};
use hpcqc::program::{ProgramIr, Register};
use hpcqc::qpu::VirtualQpu;
use hpcqc::qrmi::{LocalEmulatorResource, QrmiConfig, ResourceConfig, ResourceType};
use hpcqc::sdk::{parse_program, AnalogProgram, Circuit, Gate};
use std::sync::Arc;

fn full_registry() -> Runtime {
    runtime_over(Vec::new())
}

/// Every local resource plus `extra`, built from configuration as `hpcqc`
/// builds them.
fn runtime_over(extra: Vec<ResourceConfig>) -> Runtime {
    let mut resources = vec![
        ResourceConfig {
            id: "emu-sv".into(),
            rtype: ResourceType::EmulatorLocal,
            params: [("backend".to_string(), "emu-sv".to_string())].into(),
        },
        ResourceConfig {
            id: "emu-mps".into(),
            rtype: ResourceType::EmulatorLocal,
            params: [
                ("backend".to_string(), "emu-mps".to_string()),
                ("chi".to_string(), "16".to_string()),
            ]
            .into(),
        },
        ResourceConfig {
            id: "mock".into(),
            rtype: ResourceType::EmulatorLocal,
            params: [("backend".to_string(), "emu-mps-mock".to_string())].into(),
        },
        ResourceConfig {
            id: "qpu".into(),
            rtype: ResourceType::QpuDirect,
            params: [("device".to_string(), "fresnel-1".to_string())].into(),
        },
        ResourceConfig {
            id: "cloud".into(),
            rtype: ResourceType::EmulatorCloud,
            params: [
                ("backend".to_string(), "emu-sv".to_string()),
                ("queue_polls".to_string(), "2".to_string()),
            ]
            .into(),
        },
    ];
    resources.extend(extra);
    let qrmi = QrmiConfig {
        resources,
        default_resource: Some("emu-sv".into()),
    };
    let qpus = vec![("fresnel-1".into(), VirtualQpu::new("fresnel-1", 8))];
    let config = RuntimeConfig {
        qrmi,
        qpu_selection: None,
    };
    config.build_runtime(31, qpus).unwrap()
}

fn blockade_program(shots: u32) -> ProgramIr {
    let reg = Register::linear(4, 6.0).unwrap();
    AnalogProgram::on(reg)
        .adiabatic_sweep(2.0, 6.0, -10.0, 10.0)
        .to_ir(shots)
        .unwrap()
}

/// One program, one `Runtime::run` call, every backend: the `--qpu` switch
/// alone picks an emulator, the QPU, or a live daemon.
#[test]
fn same_program_statistically_consistent_across_backends() {
    // the daemon fronts a state-vector emulator and runs its dispatcher; a
    // production session, so no development shot cap applies
    let emu = LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 3);
    let svc = MiddlewareService::new(Arc::new(emu), DaemonConfig::default());
    let site = Site::spawn(svc, 0).unwrap();
    let params = [("addr", site.addr()), ("class", "production".into())];
    let daemon = ResourceConfig {
        id: "daemon".into(),
        rtype: ResourceType::Daemon,
        params: params.map(|(k, v)| (k.to_string(), v)).into(),
    };
    let program = blockade_program(1500);
    let run = |id: &str| {
        runtime_over(vec![daemon.clone()])
            .with_qpu(id)
            .run(&program)
    };
    let reference = run("emu-sv").unwrap().result;
    for id in ["emu-mps", "qpu", "cloud", "daemon"] {
        let res = &run(id).unwrap_or_else(|e| panic!("{id}: {e}")).result;
        assert_eq!(res.shots, 1500, "{id}");
        let tv = reference.total_variation_distance(res);
        // emulators agree to shot noise; the QPU adds SPAM + calibration error
        let bound = if id == "qpu" { 0.25 } else { 0.1 };
        assert!(tv < bound, "{id}: TV={tv}");
        // the physical observable agrees more tightly everywhere
        assert!(
            (reference.mean_excitations() - res.mean_excitations()).abs() < 0.3,
            "{id}: excitations {} vs {}",
            res.mean_excitations(),
            reference.mean_excitations()
        );
    }
}

#[test]
fn mock_catches_hardware_violations_the_emulator_would_hide() {
    let rt = full_registry();
    // 3 µm spacing: fine for a generic emulator, illegal on hardware
    let reg = Register::linear(4, 3.0).unwrap();
    let program = AnalogProgram::on(reg)
        .resonant_pulse(0.5, 4.0)
        .to_ir(100)
        .unwrap();
    assert!(rt.run(&program).is_ok(), "permissive emulator accepts");
    let rt_mock = full_registry().with_qpu("mock");
    match rt_mock.run(&program) {
        Err(RuntimeError::Validation(v)) => assert!(!v.is_empty()),
        other => panic!("mock must reject hardware-invalid programs, got {other:?}"),
    }
    let rt_qpu = full_registry().with_qpu("qpu");
    assert!(
        matches!(rt_qpu.run(&program), Err(RuntimeError::Validation(_))),
        "and the mock verdict matches the real device's"
    );
}

#[test]
fn analog_and_text_sdks_produce_equivalent_programs() {
    // the same physical schedule written in two SDKs
    let reg = Register::linear(3, 6.0).unwrap();
    let from_analog = AnalogProgram::on(reg)
        .pulse(1.0, 5.0, -2.0, 0.0)
        .pulse(0.5, 3.0, 2.0, 0.0)
        .to_ir(800)
        .unwrap();
    let from_text = parse_program(
        "register linear 3 6.0\n\
         pulse duration=1.0 omega=5 delta=-2\n\
         pulse duration=0.5 omega=3 delta=2\n\
         shots 800\n",
    )
    .unwrap();
    assert_ne!(from_analog.sdk, from_text.sdk, "distinct SDK provenance");

    let rt = full_registry();
    let a = rt.run(&from_analog).unwrap().result;
    let b = rt.run(&from_text).unwrap().result;
    let tv = a.total_variation_distance(&b);
    assert!(tv < 0.08, "SDKs must agree physically: TV={tv}");
}

#[test]
fn circuit_sdk_lowers_through_the_same_runtime() {
    let mut circuit = Circuit::new(2);
    circuit.push(Gate::GlobalRx(std::f64::consts::PI)).unwrap();
    // far-separated atoms: no blockade, so the gate-model prediction holds
    let reg = Register::linear(2, 60.0).unwrap();
    let lowered = circuit.lower(&reg, 400).unwrap();
    // but 60 µm separation exceeds the production field of view: the QPU
    // rejects it while the emulator accepts — honest capability reporting
    let rt = full_registry();
    let emu = rt.run(&lowered).unwrap().result;
    assert!(emu.occupation(0) > 0.98 && emu.occupation(1) > 0.98);
    let native = circuit.simulate(400, 9).unwrap();
    assert!(emu.total_variation_distance(&native) < 0.05);
}

#[test]
fn provenance_survives_the_whole_path() {
    let rt = full_registry();
    let program = blockade_program(50);
    let report = rt.run(&program).unwrap();
    assert_eq!(report.program_fingerprint, program.fingerprint());
    assert_eq!(report.resource_id, "emu-sv");
    assert_eq!(report.spec_revision, 1);
    // identical rerun is identical (seeded stack)
    let report2 = full_registry().run(&program).unwrap();
    assert_eq!(report.result, report2.result);
}

#[test]
fn chi_convergence_toward_exact() {
    // χ=2 must be farther from the exact distribution than χ=16 on an
    // entangling sweep
    let reg = Register::linear(5, 6.0).unwrap();
    let ir = AnalogProgram::on(reg)
        .adiabatic_sweep(1.6, 6.0, -10.0, 10.0)
        .to_ir(1500)
        .unwrap();
    let exact = SvBackend::default().run(&ir, 3).unwrap();
    let chi = |c: usize| {
        use hpcqc::emulator::{MpsBackend, MpsConfig};
        MpsBackend {
            config: MpsConfig {
                chi_max: c,
                max_dt: 2e-3,
                ..MpsConfig::default()
            },
            ..MpsBackend::default()
        }
        .run(&ir, 4)
        .unwrap()
    };
    let tv2 = exact.total_variation_distance(&chi(2));
    let tv16 = exact.total_variation_distance(&chi(16));
    assert!(
        tv16 < tv2,
        "χ=16 (TV={tv16:.4}) must beat χ=2 (TV={tv2:.4})"
    );
    assert!(tv16 < 0.08, "χ=16 is near shot noise: {tv16}");
}
