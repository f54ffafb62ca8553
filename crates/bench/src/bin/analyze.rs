//! Operator-side static-analysis report tool (§3.A: "MNOs can perform
//! static analysis on the MVNO scheduler plugin before deployment").
//!
//! For each module the tool prints its byte length and FNV-1a content
//! hash, then runs the load-time analyzer — translation
//! validation of the register lowering plus worst-case resource bounds —
//! and prints one report line per function. A failed validation (a
//! lowering whose blocks disagree with the reference the walk recorded) exits
//! nonzero: such a module must never reach a host.
//!
//! Usage:
//!   analyze --builtin          # every example/fig5 plugin in the repo,
//!                              # plus slotbench's two PlugC modules
//!   analyze FILE...            # Wasm binaries; anything else fails to
//!                              # load and the tool exits nonzero
//!   analyze --reg ...          # also list each module's register code
//!
//! `scripts/check.sh` diffs `analyze --builtin --reg` against
//! `crates/bench/analyze.golden`, so any change to the code the builtin
//! plugins execute, to their static bounds, or to the bytes PlugC emits for
//! them, shows up as a diff hunk.

use std::process::ExitCode;

use waran_core::plugins::{self, faulty};
use waran_host::fnv1a;
use waran_wasm::analysis::FuncReport;
use waran_wasm::disasm::disassemble_reg;
use waran_wasm::load_module;

fn print_report(name: &str, wasm: &[u8], reg: bool) -> Result<(), String> {
    let module = load_module(wasm).map_err(|e| format!("{name}: load failed: {e}"))?;
    let analysis = module
        .analysis()
        .map_err(|e| format!("{name}: translation validation FAILED: {e}"))?;
    println!(
        "{name}: {} bytes fnv1a={:016x}, {} functions, lowering checked",
        wasm.len(),
        fnv1a(wasm),
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
    if r.unbounded_loops {
        flags.push("unbounded-loops");
    }
    if r.recursive {
        flags.push("recursive");
    }
    format!(
        "{name}: fuel={} frames={} regs={}{}",
        r.fuel,
        r.frames,
        r.regs,
        if flags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", flags.join(", "))
        }
    )
}

/// Slotbench's `plugin_churn` template, whose cold push `setup_s`
/// measures, and its null scheduler. The template's `@TAG@` gets one fixed
/// value of the kind the workload draws (bit 30 set, same encoded width).
const CHURN_TEMPLATE: &str = include_str!("../../../slotbench/plugins/churn_template.plugc");
const CHURN_TAG: &str = "1073741824";
const NULL_SCHED: &str = include_str!("../../../slotbench/plugins/null_sched.plugc");

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
        (
            format!("slotbench/churn_template (tag {CHURN_TAG})"),
            waran_plugc::compile(&CHURN_TEMPLATE.replace("@TAG@", CHURN_TAG))
                .expect("churn template compiles"),
        ),
        (
            "slotbench/null_sched".into(),
            waran_plugc::compile(NULL_SCHED).expect("null scheduler compiles"),
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
            v.push((path.clone(), bytes));
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
