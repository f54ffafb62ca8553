//! Cross-crate integration tests for the RIC side: plugin-wrapped
//! communication, Wasm xApps with host functions, and the vendor-mismatch
//! adapter in the message path.

use std::time::Duration;

use wa_ran::host::SlotState;
use wa_ran::ric::bus::RecvOutcome;
use wa_ran::ric::bus::{DeliveryMode, RicBus};
use wa_ran::ric::comm::{CommCodec, JsonCodec, PbCodec, TlvCodec, WasmCommPlugin};
use wa_ran::ric::e2::{ControlAction, Indication, KpiReport};
use wa_ran::ric::ric::{NearRtRic, TrafficSteering};

fn kpi(ue: u32, slice: u32, cqi: u8, tput: f64) -> KpiReport {
    KpiReport {
        ue_id: ue,
        slice_id: slice,
        cqi,
        mcs: cqi * 2,
        buffer_bytes: 5_000,
        tput_bps: tput,
    }
}

#[test]
fn wasm_xapp_emits_control_actions() {
    // A PlugC xApp: hand over any UE reporting CQI < 5.
    let src = r#"
        export fn on_indication(ptr: i32, len: i32) -> i64 {
            var n: i32 = load_i32(ptr + 8);
            var out: i32 = wrn_alloc(n * 16);
            var written: i32 = 0;
            var i: i32 = 0;
            while (i < n) {
                var rec: i32 = ptr + 16 + i * 24;
                var cqi: i32 = load_u8(rec + 8);
                if (cqi < 5) {
                    var act: i32 = out + written * 16;
                    store_u8(act, 2);              // HANDOVER tag
                    store_u8(act + 1, 0); store_u8(act + 2, 0); store_u8(act + 3, 0);
                    store_i32(act + 4, load_i32(rec));  // ue_id
                    store_i32(act + 8, 7);              // target cell
                    store_i32(act + 12, 0);
                    written = written + 1;
                }
                i = i + 1;
            }
            return pack(out, written * 16);
        }
    "#;
    let wasm = wa_ran::plugc::compile(src).expect("xapp compiles");
    let mut ric = NearRtRic::new();
    ric.add_wasm_xapp("steer", &wasm).expect("loads");

    let actions = ric.handle_indication(&Indication {
        slot: 5,
        reports: vec![
            kpi(70, 0, 12, 8e6),
            kpi(71, 0, 3, 0.2e6),
            kpi(72, 0, 4, 0.3e6),
        ],
    });
    assert_eq!(
        actions,
        vec![
            ControlAction::Handover {
                ue_id: 71,
                target_cell: 7
            },
            ControlAction::Handover {
                ue_id: 72,
                target_cell: 7
            },
        ]
    );
}

#[test]
fn wasm_xapps_message_each_other_via_host_functions() {
    // Sender xApp: posts a one-byte message to "sink" on each indication.
    let sender_src = r#"
        extern fn xapp_send(dst: i32, dst_len: i32, msg: i32, msg_len: i32);
        export fn on_indication(ptr: i32, len: i32) -> i64 {
            store_u8(0, 115); store_u8(1, 105); store_u8(2, 110); store_u8(3, 107); // "sink"
            store_u8(16, 42);
            xapp_send(0, 4, 16, 1);
            return pack(0, 0);
        }
    "#;
    // Sink xApp: counts received bytes; emits one CQI-table action per
    // message so the test can observe deliveries.
    let sink_src = r#"
        extern fn xapp_recv(buf: i32, cap: i32) -> i32;
        export fn on_indication(ptr: i32, len: i32) -> i64 {
            var out: i32 = wrn_alloc(64 * 16);
            var written: i32 = 0;
            while (1) {
                var n: i32 = xapp_recv(128, 64);
                if (n < 0) { break; }
                var act: i32 = out + written * 16;
                store_u8(act, 3);          // SET_CQI_TABLE tag
                store_u8(act + 1, 0); store_u8(act + 2, 0); store_u8(act + 3, 0);
                store_i32(act + 4, 99);    // ue
                store_u8(act + 8, load_u8(128));
                written = written + 1;
            }
            return pack(out, written * 16);
        }
    "#;
    let mut ric = NearRtRic::new();
    for (name, src) in [("sender", sender_src), ("sink", sink_src)] {
        let wasm = wa_ran::plugc::compile(src).expect("compiles");
        ric.add_wasm_xapp(name, &wasm).expect("loads");
    }

    let ind = Indication {
        slot: 0,
        reports: vec![],
    };
    // Indication 1: sender posts; sink's mailbox is still empty this round.
    let a1 = ric.handle_indication(&ind);
    assert!(a1.is_empty());
    // Indication 2: sink drains the message and reacts.
    let a2 = ric.handle_indication(&ind);
    assert_eq!(
        a2,
        vec![ControlAction::SetCqiTable {
            ue_id: 99,
            table: 42
        }]
    );
}

#[test]
fn wasm_comm_plugin_passthrough_wire() {
    // A comm plugin whose wire format IS the xApp ABI layout (identity
    // transform) — the minimal vendor codec.
    let src = r#"
        export fn encode_indication(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
        export fn decode_indication(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
        export fn encode_actions(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
        export fn decode_actions(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
    "#;
    let wasm = wa_ran::plugc::compile(src).expect("compiles");
    let codec = WasmCommPlugin::new(&wasm, "identity").expect("loads");

    let ind = Indication {
        slot: 77,
        reports: vec![kpi(1, 0, 9, 3e6), kpi(2, 1, 11, 5e6)],
    };
    let bytes = codec.encode_indication(&ind);
    assert_eq!(codec.decode_indication(&bytes).expect("roundtrips"), ind);

    let actions = vec![ControlAction::Handover {
        ue_id: 1,
        target_cell: 2,
    }];
    let bytes = codec.encode_actions(&actions);
    assert_eq!(
        codec.decode_actions(&bytes).expect("roundtrips"),
        (actions, 0)
    );
}

#[test]
fn trapping_comm_plugin_is_quarantined_and_the_bus_keeps_answering() {
    // The xApp-ABI identity codec, except that `encode_actions` traps.
    let src = r#"
        export fn encode_indication(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
        export fn decode_indication(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
        export fn encode_actions(ptr: i32, len: i32) -> i64 { trap(); return pack(ptr, len); }
        export fn decode_actions(ptr: i32, len: i32) -> i64 { return pack(ptr, len); }
    "#;
    let wasm = wa_ran::plugc::compile(src).expect("compiles");
    let codec = |name| WasmCommPlugin::new(&wasm, name).expect("loads");
    let steering = || {
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(TrafficSteering::new(5, 1, 3)));
        ric
    };

    // Eight consecutive faults — besteffort's strike budget — quarantine
    // the codec; each faulted encode is an empty frame, not a panic.
    let struck = codec("struck");
    let actions = [ControlAction::Handover {
        ue_id: 1,
        target_cell: 2,
    }];
    for _ in 0..8 {
        assert!(struck.encode_actions(&actions).is_empty());
    }
    let struck_host = struck.plugins().clone();
    assert_eq!(struck_host.state("struck"), Some(SlotState::Quarantined));

    // On the bus, cell 0's service codec is the quarantined one and cell
    // 1's is a fresh copy that traps inside `CellPort::publish`, which
    // serves each indication, on every reply. Both cells get an answer to every indication.
    let fresh = codec("fresh");
    let fresh_host = fresh.plugins().clone();
    let mut bus = RicBus::new(4, DeliveryMode::Deterministic);
    let ports = [
        bus.register(0, Box::new(struck), steering()),
        bus.register(1, Box::new(fresh), steering()),
    ];
    let service = bus.start();
    let node = codec("node");
    const INDICATIONS: u64 = 12;
    for slot in 0..INDICATIONS {
        for port in &ports {
            let frame = node.encode_indication(&Indication {
                slot,
                reports: vec![kpi(70, 0, 2, 0.1e6)],
            });
            assert!(port.publish(slot, frame), "service alive at slot {slot}");
            let RecvOutcome::Msg(batch) = port.await_reply(Duration::from_secs(5)) else {
                panic!("the bus must answer cell {} at slot {slot}", port.cell_id);
            };
            assert_eq!(batch.answers_slot, slot);
            assert_eq!(node.decode_actions(&batch.frame), Ok((Vec::new(), 0)));
        }
    }
    // Folds every cell's service state into the report. Serving runs
    // inside `publish`, so a panic there would have failed the loop above.
    let report = service.stop();
    assert_eq!(report.reply_frames_sent, 2 * INDICATIONS);
    // The quarantined codec refuses to decode (a decode error per frame)
    // and runs no guest code; its strikes stay at the budget.
    assert_eq!(report.decode_errors, INDICATIONS);
    let struck = struck_host.health("struck").expect("slot exists");
    assert_eq!((struck.strikes.trap, struck.calls_ok), (8, 0));
    // The fresh codec decodes every indication, so its xApp keeps acting,
    // and is struck once per reply. A decode that succeeds between two
    // faulted encodes ends the consecutive streak, so it stays active.
    assert_eq!(report.indications_handled, INDICATIONS);
    assert_eq!(report.actions_emitted, INDICATIONS);
    let fresh = fresh_host.health("fresh").expect("slot exists");
    assert_eq!(
        (fresh.strikes.trap, fresh.calls_ok),
        (INDICATIONS, INDICATIONS)
    );
    assert_eq!(fresh_host.state("fresh"), Some(SlotState::Active));
}

#[test]
fn semantic_interop_across_all_codecs() {
    // Any codec pair interoperates through the semantic model — encode
    // with X, decode with X, re-encode with Y, decode with Y.
    let ind = Indication {
        slot: 424242,
        reports: vec![kpi(70, 0, 15, 21.5e6), kpi(71, 2, 1, 0.01e6)],
    };
    let codecs: [&dyn CommCodec; 3] = [&TlvCodec, &PbCodec, &JsonCodec];
    for a in codecs {
        for b in codecs {
            let wire_a = a.encode_indication(&ind);
            let sem = a.decode_indication(&wire_a).expect("a decodes");
            let wire_b = b.encode_indication(&sem);
            let back = b.decode_indication(&wire_b).expect("b decodes");
            assert_eq!(back, ind, "{} -> {}", a.name(), b.name());
        }
    }
}
