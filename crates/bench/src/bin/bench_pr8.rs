//! PR 8 evidence run: the load-time static analysis pass on the
//! admission path — translation validation of the register lowering
//! plus worst-case resource bounds — timed over every builtin plugin.
//!
//! The analyzer runs once per module *load*, i.e. on the operator's
//! admission path for every plugin push, so its latency bounds how fast
//! an MNO can vet and install an MVNO scheduler. This bench measures the
//! full admission step (decode + validate + prove the lowering + bound
//! resources) per builtin module and writes the quantiles to
//! `BENCH_PR8.json`.
//!
//! The artifact intentionally carries **no** `gate` object: the numbers
//! are microseconds-scale and jitter-prone in CI. The regression gates
//! (`bench_pr7/9/10 -- gate`) fail closed on an artifact without one, so
//! `scripts/check.sh` never hands them this file.
//!
//! Run with: `cargo run -p waran-bench --release --bin bench_pr8`

use std::time::Instant;

use waran_abi::sjson::Json;
use waran_bench::{banner, table};
use waran_core::plugins::{self, faulty};
use waran_host::ExactQuantiles;
use waran_wasm::load_module;

/// Timed admissions per module (after warmup).
const ITERS: u64 = 800;
const WARMUP: u64 = 100;

/// The same corpus `analyze --builtin` vets in `scripts/check.sh`.
fn corpus() -> Vec<(String, Vec<u8>)> {
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

struct ModuleTiming {
    name: String,
    wasm_bytes: usize,
    functions: usize,
    quantiles: ExactQuantiles,
}

/// Time the full admission step: decode the module and run the analyzer
/// (translation validation + resource bounds). The analysis result is
/// asserted valid every iteration — a lowering that fails its proof is a
/// bench failure, same as `analyze --builtin` exiting nonzero.
fn time_module(name: &str, wasm: &[u8]) -> ModuleTiming {
    let mut quantiles = ExactQuantiles::new();
    let mut functions = 0;
    for i in 0..(WARMUP + ITERS) {
        let start = Instant::now();
        let module = load_module(wasm).expect("builtin module loads");
        let analysis = module.analysis().expect("lowering proven equivalent");
        let elapsed = start.elapsed();
        functions = analysis.funcs.len();
        if i >= WARMUP {
            quantiles.record_duration(elapsed);
        }
    }
    ModuleTiming {
        name: name.to_string(),
        wasm_bytes: wasm.len(),
        functions,
        quantiles,
    }
}

fn main() {
    banner(
        "BENCH_PR8",
        "load-time static analysis: translation validation + resource bounds on the admission path",
    );
    println!("{ITERS} timed admissions per module ({WARMUP} warmup)…\n");

    let mut timings = Vec::new();
    let mut pool = ExactQuantiles::new();
    for (name, wasm) in corpus() {
        let t = time_module(&name, &wasm);
        pool.merge(&t.quantiles);
        timings.push(t);
    }

    let rows: Vec<Vec<String>> = timings
        .iter_mut()
        .map(|t| {
            vec![
                t.name.clone(),
                t.wasm_bytes.to_string(),
                t.functions.to_string(),
                format!("{:.1}", t.quantiles.quantile(0.50)),
                format!("{:.1}", t.quantiles.quantile(0.99)),
            ]
        })
        .collect();
    table(
        &["module", "wasm bytes", "funcs", "p50 us", "p99 us"],
        &rows,
    );
    println!(
        "\npooled admission latency: p50 {:.1} us, p99 {:.1} us over {} samples",
        pool.quantile(0.50),
        pool.quantile(0.99),
        timings.len() as u64 * ITERS,
    );

    let num3 = |v: f64| Json::Num((v * 1000.0).round() / 1000.0);
    let modules_json = timings
        .iter_mut()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::Str(t.name.clone())),
                ("wasm_bytes", Json::Num(t.wasm_bytes as f64)),
                ("functions", Json::Num(t.functions as f64)),
                ("admission_p50_us", num3(t.quantiles.quantile(0.50))),
                ("admission_p99_us", num3(t.quantiles.quantile(0.99))),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("pr", Json::Num(8.0)),
        (
            "title",
            Json::Str(
                "Load-time static analysis: translation validation + worst-case resource \
                 bounds for admission control"
                    .into(),
            ),
        ),
        ("iterations_per_module", Json::Num(ITERS as f64)),
        ("modules", Json::Arr(modules_json)),
        (
            "pooled",
            Json::obj(vec![
                ("admission_p50_us", num3(pool.quantile(0.50))),
                ("admission_p99_us", num3(pool.quantile(0.99))),
            ]),
        ),
    ]);
    std::fs::write("BENCH_PR8.json", json.encode_pretty()).expect("write BENCH_PR8.json");
    println!("\n[json written to BENCH_PR8.json]");
    println!("\nresult: OK — every builtin lowering proven equivalent on the admission path");
}
