//! The command-line contract, driven through the real binary: what the
//! last line of standard output is, and what the exit code says.

use std::process::{Command, Output};

use waran_abi::sjson::Json;

fn slotbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slotbench"))
        .args(args)
        .output()
        .expect("slotbench runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn run_prints_the_result_object_last_and_exits_zero() {
    for (trace, expect, absent) in [
        ("0", "slots_per_s", "host.call_us_p50"),
        ("1", "host.call_us_p50", "slots_per_s"),
    ] {
        let out = slotbench(&[
            "run",
            "--workload",
            "mvno_cell",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let j = Json::decode(&last_line(&out)).expect("last line is JSON");
        let Json::Obj(keys) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("failed").and_then(Json::as_num), Some(0.0));
        assert!(j.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
        let metrics = j.get("metrics").unwrap();
        let m = metrics
            .get(expect)
            .unwrap_or_else(|| panic!("no `{expect}`"));
        assert!(m.get("value").and_then(Json::as_num).unwrap() > 0.0);
        assert!(m.get("unit").and_then(Json::as_str).is_some());
        assert!(
            metrics.get(absent).is_none(),
            "`{absent}` leaked into --trace {trace}"
        );
    }
}

#[test]
fn broken_oracle_exits_non_zero_and_prints_no_metrics() {
    for (workload, inject) in [("mvno_cell", "digest"), ("plugin_churn", "hostile")] {
        let out = slotbench(&[
            "run",
            workload,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
            "--inject",
            inject,
        ]);
        assert_eq!(out.status.code(), Some(1), "{workload} --inject {inject}");
        assert!(
            out.stdout.is_empty(),
            "metrics were printed despite the failure"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("failed op(s); no metrics reported"), "{err}");
        assert!(err.contains("FAILED"), "{err}");
    }
}

#[test]
fn bad_usage_exits_two() {
    for args in [
        &["run"][..],
        &["run", "no_such_workload"],
        &["run", "mvno_cell", "--trace", "7"],
        &["compare", "only-one.json"],
        &[],
    ] {
        assert_eq!(slotbench(args).status.code(), Some(2), "{args:?}");
    }
}
