//! `hpcqc` — the user-facing command-line client.
//!
//! Programs are written in the text SDK format (see `hpcqc-sdk::text`) and
//! run either locally through the runtime (`run --qpu <resource>`) or via a
//! middleware daemon session (`run --daemon host:port`). The same file works
//! in both modes — the CLI is the `--qpu=<resource>` switch of §3.2 in
//! executable form.
//!
//! ```text
//! hpcqc target  [--daemon ADDR]               show the live device spec
//! hpcqc run FILE [--qpu RES | --daemon ADDR]  execute a program
//!           [--user NAME] [--class production|test|development]
//!           [--hint qc-heavy|cc-heavy|qc-balanced] [--shots N]
//! hpcqc validate FILE [--qpu RES]             validate without running
//! hpcqc metrics [--daemon ADDR]               scrape the daemon metrics
//! hpcqc resources                             list configured resources
//! ```

use hpcqc::core::{DaemonClient, Runtime, RuntimeConfig};
use hpcqc::middleware::PriorityClass;
use hpcqc::program::ProgramIr;
use hpcqc::scheduler::PatternHint;
use hpcqc::sdk::parse_program;
use std::collections::BTreeMap;

struct Args {
    command: String,
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".into());
    let mut positional = Vec::new();
    let mut options = BTreeMap::new();
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = argv.next().unwrap_or_default();
            options.insert(key.to_string(), value);
        } else {
            positional.push(a);
        }
    }
    Args {
        command,
        positional,
        options,
    }
}

fn daemon_addr(args: &Args) -> String {
    args.options
        .get("daemon")
        .cloned()
        .or_else(|| std::env::var("HPCQC_DAEMON").ok())
        .unwrap_or_else(|| "127.0.0.1:7777".into())
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
    let env: BTreeMap<String, String> = std::env::vars().collect();
    let config = RuntimeConfig::from_map(&env)?;
    let rt = config.build_runtime(0x5eed, vec![])?;
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
    if args.options.contains_key("daemon") || std::env::var("HPCQC_DAEMON").is_ok() {
        let user = args.options.get("user").cloned().unwrap_or_else(whoami);
        let class = args
            .options
            .get("class")
            .map(|c| PriorityClass::parse(c).ok_or(format!("bad class {c:?}")))
            .transpose()?
            .unwrap_or(PriorityClass::Development);
        let hint = args
            .options
            .get("hint")
            .map(|h| PatternHint::parse(h).ok_or(format!("bad hint {h:?}")))
            .transpose()?
            .unwrap_or(PatternHint::None);
        let client = DaemonClient::new(daemon_addr(args));
        let session = client.open_session(&user, class)?;
        println!(
            "session {} ({user}/{}) on {}",
            session.token,
            class.as_str(),
            daemon_addr(args)
        );
        let result = session.run(&ir, hint)?;
        print_result(&result);
        session.close()?;
    } else {
        let rt = local_runtime(args)?;
        let report = rt.run(&ir)?;
        println!(
            "resource {} (spec rev {}), fingerprint {:#018x}",
            report.resource_id, report.spec_revision, report.program_fingerprint
        );
        print_result(&report.result);
    }
    Ok(())
}

fn whoami() -> String {
    std::env::var("USER").unwrap_or_else(|_| "anonymous".into())
}

fn main() {
    let args = parse_args();
    let outcome: Result<(), Box<dyn std::error::Error>> = match args.command.as_str() {
        "run" => run(&args),
        "validate" => (|| {
            let ir = load_program(&args)?;
            let rt = local_runtime(&args)?;
            match rt.validate(&ir) {
                Ok(spec) => {
                    println!(
                        "OK: fits {} (spec rev {}), {} qubits, {:.2} µs",
                        spec.name,
                        spec.revision,
                        ir.sequence.num_qubits(),
                        ir.sequence.duration()
                    );
                    Ok(())
                }
                Err(e) => Err(e.into()),
            }
        })(),
        "target" => (|| {
            if args.options.contains_key("daemon") || std::env::var("HPCQC_DAEMON").is_ok() {
                let spec = DaemonClient::new(daemon_addr(&args)).target()?;
                println!("{}", serde_json::to_string_pretty(&spec)?);
            } else {
                let spec = local_runtime(&args)?.target()?;
                println!("{}", serde_json::to_string_pretty(&spec)?);
            }
            Ok(())
        })(),
        "metrics" => (|| {
            print!("{}", DaemonClient::new(daemon_addr(&args)).metrics()?);
            Ok(())
        })(),
        "resources" => (|| {
            for id in local_runtime(&args)?.available_resources() {
                println!("{id}");
            }
            Ok(())
        })(),
        _ => {
            eprintln!(
                "usage: hpcqc <run|validate|target|metrics|resources> [FILE] \
                 [--qpu RES] [--daemon ADDR] [--user U] [--class C] [--hint H] [--shots N]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("hpcqc: {e}");
        std::process::exit(1);
    }
}
