//! Operator-side static-analysis report tool (§3.A: "MNOs can perform
//! static analysis on the MVNO scheduler plugin before deployment").
//!
//! For each module the tool runs the load-time analyzer — translation
//! validation of the register lowering plus worst-case resource bounds —
//! and prints one report line per function. A failed validation (a
//! lowering that cannot be proven equivalent to the flat IR) exits
//! nonzero: such a module must never reach a host.
//!
//! Usage:
//!   analyze --builtin          # every example/fig5 plugin in the repo
//!   analyze FILE...            # .wat (assembled here) or raw .wasm
//!   analyze --reg ...          # also list each module's register code
//!
//! `scripts/check.sh` diffs `analyze --builtin --reg` against
//! `crates/bench/analyze.golden`, so any change to the code the builtin
//! plugins execute, or to their static bounds, shows up as a diff hunk.

use std::process::ExitCode;

use waran_core::plugins::{self, faulty};
use waran_wasm::analysis::FuncReport;
use waran_wasm::disasm::disassemble_reg;
use waran_wasm::{load_module, wat};

fn print_report(name: &str, wasm: &[u8], reg: bool) -> Result<(), String> {
    let module = load_module(wasm).map_err(|e| format!("{name}: load failed: {e}"))?;
    let analysis = module
        .analysis()
        .map_err(|e| format!("{name}: translation validation FAILED: {e}"))?;
    println!(
        "{name}: {} functions, lowering proven equivalent",
        analysis.funcs.len()
    );
    for r in &analysis.funcs {
        println!("  {}", line(r));
    }
    if reg {
        print!("{}", disassemble_reg(&module));
    }
    Ok(())
}

/// One stable line per function: resource bounds first, flags last.
fn line(r: &FuncReport) -> String {
    let name = match &r.export {
        Some(e) => format!("$f{} (export \"{e}\")", r.func),
        None => format!("$f{}", r.func),
    };
    let mut flags = Vec::new();
    if r.dynamic_mem {
        flags.push("dynamic-mem");
    }
    if r.unbounded_loops {
        flags.push("unbounded-loops");
    }
    if r.recursive {
        flags.push("recursive");
    }
    format!(
        "{name}: fuel={} stack={} frames={} regs={} mem_high={}{}",
        r.fuel,
        r.stack,
        r.frames,
        r.regs,
        r.mem_high,
        if flags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", flags.join(", "))
        }
    )
}

fn builtin() -> Vec<(String, Vec<u8>)> {
    vec![
        ("rr".into(), plugins::rr_wasm().to_vec()),
        ("pf".into(), plugins::pf_wasm().to_vec()),
        ("mt".into(), plugins::mt_wasm().to_vec()),
        (
            "faulty/leaky".into(),
            plugins::compile_faulty(faulty::LEAKY),
        ),
        (
            "faulty/null-deref".into(),
            plugins::compile_faulty(faulty::NULL_DEREF),
        ),
    ]
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let reg = args.iter().any(|a| a == "--reg");
    args.retain(|a| a != "--reg");
    let modules: Vec<(String, Vec<u8>)> = if args.is_empty() || args[0] == "--builtin" {
        builtin()
    } else {
        let mut v = Vec::new();
        for path in &args {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // WAT sources are assembled in-process; anything starting
            // with the Wasm magic is taken as a binary module.
            let wasm = if bytes.starts_with(b"\0asm") {
                bytes
            } else {
                match wat::assemble(&String::from_utf8_lossy(&bytes)) {
                    Ok(w) => w,
                    Err(e) => {
                        eprintln!("{path}: assembly failed: {e:?}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            v.push((path.clone(), wasm));
        }
        v
    };

    let mut failed = false;
    for (name, wasm) in &modules {
        if let Err(e) = print_report(name, wasm, reg) {
            eprintln!("{e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
