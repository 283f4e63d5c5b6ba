//! `hpcqc` — the user-facing command-line client.
//!
//! Programs are written in the text SDK format (see `hpcqc-sdk::text`) and
//! run through the runtime on the resource `--qpu` names (the configured
//! default without it). A middleware daemon is such a resource too
//! (`QRMI_RESOURCE_<ID>_TYPE=daemon` with `_ADDR`, and optional `_USER` and
//! `_CLASS`), so one file and one command run on a laptop emulator, the QPU
//! or a site daemon — the `--qpu=<resource>` switch of §3.2 in executable
//! form.
//!
//! ```text
//! hpcqc target [--qpu RES]                   show the live device spec
//! hpcqc run FILE [--qpu RES] [--shots N]     execute a program
//! hpcqc validate FILE [--qpu RES] [--shots N] validate without running
//! hpcqc metrics [--qpu RES]                  scrape a daemon resource's metrics
//! hpcqc resources                            list configured resources
//! ```
//!
//! An option the command does not take exits 2 with the usage line.

use hpcqc::core::{DaemonClient, Runtime, RuntimeConfig};
use hpcqc::program::ProgramIr;
use hpcqc::sdk::parse_program;
use std::collections::BTreeMap;

const USAGE: &str =
    "usage: hpcqc <run|validate|target|metrics|resources> [FILE] [--qpu RES] [--shots N]";

struct Args {
    command: String,
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".into());
    let (mut positional, mut options) = (Vec::new(), BTreeMap::new());
    while let Some(a) = argv.next() {
        match a.strip_prefix("--") {
            Some(key) => {
                options.insert(key.to_string(), argv.next().unwrap_or_default());
            }
            None => positional.push(a),
        }
    }
    Args {
        command,
        positional,
        options,
    }
}

/// The options `command` takes; `None` for an unknown command.
fn options_of(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "run" | "validate" => Some(&["qpu", "shots"]),
        "target" | "metrics" => Some(&["qpu"]),
        "resources" => Some(&[]),
        _ => None,
    }
}

fn load_program(args: &Args) -> Result<ProgramIr, Box<dyn std::error::Error>> {
    let path = args
        .positional
        .first()
        .ok_or("missing program file argument")?;
    let text = std::fs::read_to_string(path)?;
    let mut ir = parse_program(&text)?;
    if let Some(shots) = args.options.get("shots") {
        ir.shots = shots.parse()?;
    }
    Ok(ir)
}

fn local_runtime(args: &Args) -> Result<Runtime, Box<dyn std::error::Error>> {
    let rt = RuntimeConfig::from_process_env()?.build_runtime(0x5eed, vec![])?;
    Ok(match args.options.get("qpu") {
        Some(sel) => rt.with_qpu(sel.clone()),
        None => rt,
    })
}

fn print_result(result: &hpcqc::emulator::SampleResult) {
    println!(
        "{} shots on {} ({} distinct outcomes, {:.1}s device time)",
        result.shots,
        result.backend,
        result.counts.len(),
        result.execution_secs
    );
    println!("mean excitations/shot: {:.3}", result.mean_excitations());
    println!("top outcomes:");
    for (bits, count) in result.top_k(8) {
        println!("  {}  x{count}", result.format_bitstring(bits));
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let ir = load_program(args)?;
    let report = local_runtime(args)?.run(&ir)?;
    println!(
        "resource {} (spec rev {}), fingerprint {:#018x}",
        report.resource_id, report.spec_revision, report.program_fingerprint
    );
    print_result(&report.result);
    Ok(())
}

fn main() {
    let args = parse_args();
    let known = options_of(&args.command);
    if known.is_none_or(|known| args.options.keys().any(|k| !known.contains(&k.as_str()))) {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let outcome: Result<(), Box<dyn std::error::Error>> = match args.command.as_str() {
        "run" => run(&args),
        "validate" => (|| {
            let ir = load_program(&args)?;
            let spec = local_runtime(&args)?.validate(&ir)?;
            println!(
                "OK: fits {} (spec rev {}), {} qubits, {:.2} µs",
                spec.name,
                spec.revision,
                ir.sequence.num_qubits(),
                ir.sequence.duration()
            );
            Ok(())
        })(),
        "target" => (|| {
            let spec = local_runtime(&args)?.target()?;
            println!("{}", serde_json::to_string_pretty(&spec)?);
            Ok(())
        })(),
        "metrics" => (|| {
            let res = local_runtime(&args)?.resource()?;
            let addr = res.metadata().remove("addr");
            let addr = addr.ok_or_else(|| format!("{} is not a daemon", res.resource_id()))?;
            print!("{}", DaemonClient::new(addr).metrics()?);
            Ok(())
        })(),
        _ => (|| {
            for id in local_runtime(&args)?.available_resources() {
                println!("{id}");
            }
            Ok(())
        })(),
    };
    if let Err(e) = outcome {
        eprintln!("hpcqc: {e}");
        std::process::exit(1);
    }
}
