//! The scheduler ABI layout, checked by behaviour on both sides of the
//! sandbox. (a) A plugin built on the PlugC prelude echoes every request
//! field the prelude or the stock policies read back through allocation
//! records, so the rendered offsets and the Rust codec must agree byte for
//! byte. (b) The sources that spell the layout out in literals — the §5.D
//! leaky plugin and slotbench's churn template and null scheduler — must
//! each answer a request encoded from the field table sensibly.

use waran_abi::sched::{plugc_prelude, ue, Allocation, SchedRequest, SchedResponse, UeInfo};
use waran_core::plugins::faulty;
use waran_host::{Plugin, SandboxPolicy};
use waran_wasm::instance::Linker;

const CHURN_TEMPLATE: &str = include_str!("../../slotbench/plugins/churn_template.plugc");
const NULL_SCHED: &str = include_str!("../../slotbench/plugins/null_sched.plugc");

fn plugin(wasm: &[u8]) -> Plugin<()> {
    Plugin::new(wasm, &Linker::<()>::new(), (), SandboxPolicy::default())
        .expect("plugin instantiates")
}

/// Five UEs on which every field, read or not, differs per UE; the floats
/// are whole numbers so the echo can carry them as integers.
fn request() -> SchedRequest {
    SchedRequest {
        slot: 77,
        prbs_granted: 273,
        slice_id: 1000,
        ues: (0..5u16)
            .map(|i| UeInfo {
                ue_id: 4000 + u32::from(i),
                cqi: 1 + i as u8,
                mcs: 20 - i as u8,
                flags: 0x100 + i,
                buffer_bytes: 50_000 + 97 * u32::from(i),
                avg_tput_bps: 2e6 + 1013.0 * f64::from(i),
                prb_capacity_bits: 300.0 + 7.0 * f64::from(i),
            })
            .collect(),
    }
}

#[test]
fn a_prelude_plugin_reads_every_field_the_rust_codec_writes() {
    // Three allocation records per UE: (id, n_ues), (buffer, prbs) and
    // (avg, cap), tagged 0, 1, 2 in the priority byte. `r` is the record.
    let [id, buffer] = [ue::ID, ue::BUFFER].map(|f| format!("load_i32({})", f.addr("r")));
    let [avg, cap] = [ue::AVG_TPUT, ue::PRB_CAPACITY].map(|f| format!("load_f64({})", f.addr("r")));
    let echo = format!(
        r#"
export fn schedule(req: i32, len: i32) -> i64 {{
    var n: i32 = req_n(req);
    var out: i32 = wrn_alloc(8 + n * 24);
    var i: i32 = 0;
    while (i < n) {{
        var r: i32 = rec(req, i);
        write_alloc(out, 3 * i, {id}, n, 0);
        write_alloc(out, 3 * i + 1, {buffer}, req_prbs(req), 1);
        write_alloc(out, 3 * i + 2, {avg} as i32, {cap} as i32, 2);
        i = i + 1;
    }}
    write_header(out, 3 * n);
    return pack(out, 8 + n * 24);
}}
"#
    );
    let wasm = waran_plugc::compile(&format!("{}{echo}", plugc_prelude())).expect("compiles");
    let req = request();
    let out = plugin(&wasm).call("schedule", &req.encode()).expect("runs");
    let resp = SchedResponse::decode(&out, 3 * req.ues.len()).expect("the echo decodes");
    let n = req.ues.len() as u16;
    let want: Vec<Allocation> = req
        .ues
        .iter()
        .flat_map(|u| {
            [
                (u.ue_id, n, 0),
                (u.buffer_bytes, req.prbs_granted as u16, 1),
                (u.avg_tput_bps as u32, u.prb_capacity_bits as u16, 2),
            ]
        })
        .map(|(ue_id, prbs, priority)| Allocation {
            ue_id,
            prbs,
            priority,
        })
        .collect();
    assert_eq!(resp.allocs, want);
}

#[test]
fn literal_layout_plugins_answer_a_table_encoded_request() {
    let churn = CHURN_TEMPLATE.replace("@TAG@", "1073741824");
    let sources = [
        ("faulty::LEAKY", faulty::LEAKY),
        ("churn template", churn.as_str()),
        ("null scheduler", NULL_SCHED),
    ];
    let req = request();
    for (name, src) in sources {
        let wasm = waran_plugc::compile(src).expect("compiles");
        let resp = plugin(&wasm)
            .call_sched(&req)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for a in &resp.allocs {
            assert!(
                req.ues.iter().any(|u| u.ue_id == a.ue_id),
                "{name}: UE {} was not requested",
                a.ue_id
            );
        }
        assert!(
            resp.total_prbs() <= req.prbs_granted,
            "{name}: {} PRBs of a {}-PRB grant",
            resp.total_prbs(),
            req.prbs_granted
        );
    }
}
