//! Ablation A2 — what deterministic metering costs: the PF plugin with
//! fuel off and fuel on (the production sandbox policy).

use criterion::{criterion_group, criterion_main, Criterion};

use waran_abi::sched::{SchedRequest, UeInfo};
use waran_core::plugins;
use waran_host::plugin::{Plugin, SandboxPolicy};
use waran_wasm::instance::Linker;

fn request() -> SchedRequest {
    SchedRequest {
        slot: 1,
        prbs_granted: 52,
        slice_id: 0,
        ues: (0..20)
            .map(|i| UeInfo {
                ue_id: 70 + i as u32,
                cqi: 10,
                mcs: 15,
                flags: 0,
                buffer_bytes: 50_000,
                avg_tput_bps: 1e6 * (1.0 + i as f64),
                prb_capacity_bits: 400.0,
            })
            .collect(),
    }
}

fn bench_fuel(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_metering_overhead");
    let req = request();

    let configs: [(&str, SandboxPolicy); 2] = [
        ("unmetered", SandboxPolicy::unmetered()),
        ("fuel_only", SandboxPolicy::default()),
    ];

    for (name, policy) in configs {
        let mut plugin = Plugin::new(plugins::pf_wasm(), &Linker::<()>::new(), (), policy)
            .expect("plugin instantiates");
        group.bench_function(name, |b| {
            b.iter(|| {
                plugin
                    .call_sched(std::hint::black_box(&req))
                    .expect("schedules")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fuel);
criterion_main!(benches);
