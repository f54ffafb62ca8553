//! Ablation: the production register-form executor vs the reference
//! instruction walker, on the fig. 5d scheduler workload (one full plugin
//! call — serialize → sandbox → deserialize — per iteration).
//!
//! `ExecMode::Reference` is the pre-compilation interpreter (decoded
//! `Instr` tree, runtime label stack, per-instruction metering);
//! `ExecMode::Reg` is what every plugin runs (a 1:1 flat IR with
//! side-table branches and basic-block metering, lowered to register
//! form, where every superinstruction is formed). Same module bytes, same
//! sandbox policy, same requests — the measured delta is pure dispatch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins;
use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_host::{Linker as HostLinker, TemplateCache};
use waran_wasm::instance::{ExecMode, Linker};

fn request(n_ues: usize) -> SchedRequest {
    SchedRequest {
        slot: 1,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..n_ues)
            .map(|i| UeInfo {
                ue_id: 70 + i as u32,
                cqi: 8 + (i % 8) as u8,
                mcs: 12 + (i % 16) as u8,
                flags: 0,
                buffer_bytes: 50_000,
                avg_tput_bps: 1e6 * (1.0 + i as f64),
                prb_capacity_bits: 300.0 + 20.0 * i as f64,
            })
            .collect(),
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dispatch");
    for (name, wasm) in [
        ("mt", plugins::mt_wasm()),
        ("pf", plugins::pf_wasm()),
        ("rr", plugins::rr_wasm()),
    ] {
        for n_ues in [1usize, 10, 20] {
            for mode in [ExecMode::Reference, ExecMode::Reg] {
                let mut plugin =
                    Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default())
                        .expect("plugin instantiates");
                plugin.instance_mut().set_exec_mode(mode);
                let req = request(n_ues);
                let id = BenchmarkId::new(format!("{name}/{mode:?}"), n_ues);
                group.bench_with_input(id, &req, |b, req| {
                    b.iter(|| {
                        plugin
                            .call_sched(std::hint::black_box(req))
                            .expect("schedules")
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_install(c: &mut Criterion) {
    // Fig. 5b companion: cold install (decode + validate + lazy compile on
    // first call) vs a template-cached re-install of identical bytecode.
    let mut group = c.benchmark_group("ablation_install");
    let wasm = plugins::pf_wasm();
    let req = request(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut p = Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default())
                .expect("plugin instantiates");
            p.call_sched(std::hint::black_box(&req)).expect("schedules")
        })
    });
    let cache = TemplateCache::new();
    let linker = HostLinker::<()>::new();
    group.bench_function("cached", |b| {
        b.iter(|| {
            let mut p = cache
                .get_or_build(&linker, wasm, SandboxPolicy::default())
                .and_then(|pre| pre.instantiate(()))
                .expect("plugin instantiates");
            p.call_sched(std::hint::black_box(&req)).expect("schedules")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_install);
criterion_main!(benches);
