//! Ablation A1 — the sandbox tax: the same scheduling policy executed
//! natively vs as a Wasm plugin (including ABI serialization and fuel
//! metering, which every hosted call pays), across UE counts. The paper's
//! §6.C discusses exactly this overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins;
use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_ransim::sched::{MaxThroughput, ProportionalFair, RoundRobin, SliceScheduler};
use waran_wasm::instance::Linker;

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

fn bench_native_vs_wasm(c: &mut Criterion) {
    for n_ues in [1usize, 10, 50] {
        let req = request(n_ues);
        let mut group = c.benchmark_group(format!("a1_native_vs_wasm/{n_ues}ues"));

        let natives: Vec<(&str, Box<dyn SliceScheduler>)> = vec![
            ("rr", Box::new(RoundRobin::new())),
            ("pf", Box::new(ProportionalFair::new())),
            ("mt", Box::new(MaxThroughput::new())),
        ];
        for (name, mut sched) in natives {
            group.bench_with_input(BenchmarkId::new("native", name), &req, |b, req| {
                b.iter(|| {
                    sched
                        .schedule(std::hint::black_box(req))
                        .expect("schedules")
                })
            });
        }

        for (name, wasm) in [
            ("rr", plugins::rr_wasm()),
            ("pf", plugins::pf_wasm()),
            ("mt", plugins::mt_wasm()),
        ] {
            let mut plugin = Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default())
                .expect("plugin instantiates");
            group.bench_with_input(BenchmarkId::new("wasm", name), &req, |b, req| {
                b.iter(|| {
                    plugin
                        .call_sched(std::hint::black_box(req))
                        .expect("schedules")
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_native_vs_wasm);
criterion_main!(benches);
