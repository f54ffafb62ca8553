//! The host's one front door is the Wasm binary format. Every stock binary
//! the repo ships — the three schedulers, the leaky §5.D plugin and the
//! §3.B power-widening adapter — decodes and re-encodes to the same bytes,
//! so nothing in a module is dropped or invented between `decode_module`
//! and `encode_module`.
//!
//! Structure-aware mutants of the stock schedulers and the §5.D fault
//! plugins go through the whole front door — load, admission, one call —
//! and each ends in an error or a trap, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins::{self, faulty};
use waran_host::{PluginError, SandboxPolicy, TemplateCache};
use waran_ric::adapter::POWER_WIDEN_PLUGC;
use waran_wasm::decode::decode_module;
use waran_wasm::encode::encode_module;
use waran_wasm::instance::Linker;
use waran_wasm::instr::Instr;
use waran_wasm::types::{BlockType, ValType};
use waran_wasm::validate::{ValidateError, ValidateErrorKind};
use waran_wasm::LoadError;

#[test]
fn stock_binaries_round_trip_byte_identical() {
    let stock = [
        ("rr", plugins::rr_wasm().to_vec()),
        ("pf", plugins::pf_wasm().to_vec()),
        ("mt", plugins::mt_wasm().to_vec()),
        ("faulty/leaky", plugins::compile_faulty(faulty::LEAKY)),
        (
            "adapter/power_widen",
            waran_plugc::compile(POWER_WIDEN_PLUGC).expect("adapter compiles"),
        ),
    ];
    for (name, wasm) in stock {
        let module = decode_module(&wasm).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
        assert_eq!(
            encode_module(&module),
            wasm,
            "{name}: decode → encode changed the {}-byte binary",
            wasm.len()
        );
    }
}

/// SplitMix64, one stream per mutant.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn structured(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Block { .. } | Instr::Loop { .. } | Instr::If { .. } | Instr::Else | Instr::End
    )
}

/// A fresh `block`, `loop`, `if`, `else` or `end`.
fn fresh_structured(rng: &mut Rng) -> Instr {
    let ty = [BlockType::Empty, BlockType::Value(ValType::I32)][rng.below(2)];
    match rng.below(5) {
        0 => Instr::Block { ty },
        1 => Instr::Loop { ty },
        2 => Instr::If { ty },
        3 => Instr::Else,
        _ => Instr::End,
    }
}

/// One edit of one body: drop, duplicate or insert a structured
/// instruction, or swap two adjacent instructions. Returns its name.
fn edit(code: &mut Vec<Instr>, rng: &mut Rng) -> &'static str {
    let blocks: Vec<usize> = (0..code.len()).filter(|&i| structured(&code[i])).collect();
    let pick = blocks[rng.below(blocks.len())];
    match rng.below(4) {
        0 => {
            code.remove(pick);
            "drop"
        }
        1 => {
            let copy = code[pick].clone();
            code.insert(pick, copy);
            "duplicate"
        }
        3 if code.len() >= 2 => {
            let at = rng.below(code.len() - 1);
            code.swap(at, at + 1);
            "swap"
        }
        _ => {
            let at = rng.below(code.len() + 1);
            code.insert(at, fresh_structured(rng));
            "insert"
        }
    }
}

/// The fixed request every mutant that builds is called on.
fn request() -> SchedRequest {
    SchedRequest {
        slot: 7,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..20)
            .map(|i| UeInfo {
                ue_id: 100 + i,
                cqi: 9,
                mcs: (8 + i % 20) as u8,
                flags: 0,
                buffer_bytes: 20_000 + 1000 * i,
                avg_tput_bps: 1e6 + 1e5 * i as f64,
                prb_capacity_bits: 300.0 + 10.0 * i as f64,
            })
            .collect(),
    }
}

/// How one mutant left the front door.
enum Outcome {
    /// Refused by `load_module`; whether for its block nesting.
    RefusedAtLoad {
        nesting: bool,
    },
    RefusedAtAdmission,
    /// Built and was called; whether the call answered.
    Ran {
        answered: bool,
    },
}

/// Build the mutant through a fresh cache under the realtime class and,
/// when it builds, call it once. Any `Err` or trap is an outcome.
fn front_door(bytes: &[u8], req: &SchedRequest) -> Outcome {
    let cache = TemplateCache::new(Linker::<()>::new());
    match cache.get_or_build(bytes, SandboxPolicy::realtime()) {
        Err(PluginError::Load(e)) => Outcome::RefusedAtLoad {
            nesting: matches!(
                e,
                LoadError::Validate(ValidateError {
                    kind: ValidateErrorKind::ControlUnderflow | ValidateErrorKind::ElseWithoutIf,
                    ..
                })
            ),
        },
        Err(_) => Outcome::RefusedAtAdmission,
        Ok(pre) => Outcome::Ran {
            answered: pre
                .instantiate(())
                .and_then(|mut plugin| plugin.call_sched(req))
                .is_ok(),
        },
    }
}

/// ROADMAP 3(c), first slice: seeded `Instr`-level edits of the stock
/// schedulers and the §5.D fault plugins, re-encoded and taken through
/// load → admit → call. No mutant panics the host; enough are refused at
/// load, for their nesting and otherwise, to exercise the type-checking
/// walk, and enough build to reach the executor, answering or trapping.
#[test]
fn mutated_stock_binaries_never_panic_the_host() {
    const PER_BINARY: u64 = 64;
    let stock = [
        ("rr", plugins::rr_wasm().to_vec()),
        ("pf", plugins::pf_wasm().to_vec()),
        ("mt", plugins::mt_wasm().to_vec()),
        (
            "faulty/null_deref",
            plugins::compile_faulty(faulty::NULL_DEREF),
        ),
        (
            "faulty/oob_access",
            plugins::compile_faulty(faulty::OOB_ACCESS),
        ),
        (
            "faulty/double_free",
            plugins::compile_faulty(faulty::DOUBLE_FREE),
        ),
        (
            "faulty/fuel_burner",
            plugins::compile_faulty(faulty::FUEL_BURNER),
        ),
        ("faulty/leaky", plugins::compile_faulty(faulty::LEAKY)),
    ];
    let req = request();
    let (mut at_load, mut nesting, mut at_admission) = (0, 0, 0);
    let (mut ran, mut answered) = (0, 0);
    let mut panicked = Vec::new();
    for (b, (name, wasm)) in (0u64..).zip(&stock) {
        let module = decode_module(wasm).unwrap_or_else(|e| panic!("{name}: {e}"));
        for seed in 0..PER_BINARY {
            let rng = &mut Rng(b << 32 | seed);
            let mut mutant = module.clone();
            let func = rng.below(mutant.funcs.len());
            let what = edit(&mut mutant.funcs[func].code, rng);
            let bytes = encode_module(&mutant);
            match catch_unwind(AssertUnwindSafe(|| front_door(&bytes, &req))) {
                Ok(Outcome::RefusedAtLoad { nesting: n }) => {
                    at_load += 1;
                    nesting += n as u64;
                }
                Ok(Outcome::RefusedAtAdmission) => at_admission += 1,
                Ok(Outcome::Ran { answered: ok }) => {
                    ran += 1;
                    answered += ok as u64;
                }
                Err(_) => panicked.push(format!("{name} seed {seed}: {what} in func {func}")),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "mutants panicked the host: {panicked:?}"
    );
    let total = stock.len() as u64 * PER_BINARY;
    assert_eq!(at_load + at_admission + ran, total);
    // Seeded and exact: 443 refused at load (222 of them for their
    // nesting), none at admission, 69 built and ran (43 answered).
    assert!(
        at_load >= 350 && nesting >= 150 && ran >= 40 && answered >= 20,
        "{at_load} refused at load ({nesting} for nesting), {at_admission} at admission, \
         {ran} ran ({answered} answered) of {total}"
    );
}
