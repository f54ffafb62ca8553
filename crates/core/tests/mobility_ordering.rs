//! Property tests for the mobility exchange ordering rule: the admission
//! sequence at a window boundary is a pure function of the *set* of
//! in-transit departures, never of the order workers happened to collect
//! them in. They drive `sort_departures`, the sort the exchange runs.

use std::collections::HashSet;

use proptest::prelude::*;

use waran_core::mobility::Departure;
use waran_core::{sort_departures, HandoverMsg};
use waran_ransim::channel::StaticChannel;
use waran_ransim::massive::splitmix64;
use waran_ransim::traffic::FullBuffer;
use waran_ransim::ue::UeState;

/// Handover messages with distinct admission keys: within one exchange
/// window a UE departs at most once, which is what makes the key unique.
fn arb_msgs() -> impl Strategy<Value = Vec<HandoverMsg>> {
    let msg =
        (0u64..400, 0u32..16, 0u32..16, 0u32..2048).prop_map(|(slot, src, dst, ue)| HandoverMsg {
            slot,
            src_cell: src,
            dst_cell: dst,
            ue_id: ue,
            forced: ue & 1 == 0,
        });
    proptest::collection::vec(msg, 0..64).prop_map(|mut msgs| {
        let mut seen = HashSet::new();
        msgs.retain(|m| seen.insert(m.admission_key()));
        msgs
    })
}

/// Fisher–Yates keyed off the generated seed, standing in for arbitrary
/// worker collection order.
fn shuffle(msgs: &mut [HandoverMsg], seed: u64) {
    for i in (1..msgs.len()).rev() {
        let j = (splitmix64(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        msgs.swap(i, j);
    }
}

/// Departures built from `msgs` in the given order, each carrying a UE
/// whose id is its message's, sorted as the exchange sorts them.
fn sorted_departures(msgs: &[HandoverMsg]) -> Vec<Departure> {
    let mut deps: Vec<Departure> = msgs
        .iter()
        .map(|&msg| Departure {
            msg,
            slice: format!("slice-{}", msg.ue_id % 3),
            ue: UeState::new(
                msg.ue_id,
                Box::new(StaticChannel::new(12)),
                Box::new(FullBuffer),
            ),
        })
        .collect();
    sort_departures(&mut deps);
    deps
}

/// The admission sequence: the sorted departures' messages, each checked
/// to still travel with its own UE and slice.
fn admitted(msgs: &[HandoverMsg]) -> Vec<HandoverMsg> {
    sorted_departures(msgs)
        .iter()
        .map(|d| {
            assert_eq!(
                d.ue.ue_id, d.msg.ue_id,
                "a UE was separated from its message"
            );
            assert_eq!(d.slice, format!("slice-{}", d.msg.ue_id % 3));
            d.msg
        })
        .collect()
}

proptest! {
    #[test]
    fn admission_sequence_is_arrival_order_independent(
        msgs in arb_msgs(),
        seed in 0u64..u64::MAX,
    ) {
        let canonical = admitted(&msgs);

        let mut shuffled = msgs.clone();
        shuffle(&mut shuffled, seed);

        prop_assert_eq!(canonical, admitted(&shuffled));
    }

    #[test]
    fn sorted_sequence_is_totally_ordered_by_admission_key(msgs in arb_msgs()) {
        let sorted = admitted(&msgs);
        for pair in sorted.windows(2) {
            prop_assert!(
                pair[0].admission_key() < pair[1].admission_key(),
                "admission keys out of order: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        // The sort only reorders — the multiset of handovers survives.
        let mut expected = msgs;
        expected.sort_by_key(HandoverMsg::admission_key);
        prop_assert_eq!(sorted, expected);
    }
}
