//! `slotbench compare A.json B.json`: apply the registry's bounds to two
//! result artifacts. Exact counts (and the digest) first, then timings.
//!
//! * a workload or metric of A that B lacks is **missing** — a failure,
//!   never a skip;
//! * an exact count that differs is **changed** — a failure;
//! * a bounded metric whose two halves of one run already disagree by
//!   more than its bound is **unresolved**, not unchanged: the run could
//!   not have seen a bound-sized difference;
//! * otherwise it is **regressed** (worse by more than the bound — a
//!   failure), **improved**, or **unchanged**.

use waran_abi::sjson::Json;

use crate::metrics::{Better, Class, Measured, WorkloadResult};

/// What `compare` concluded about one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound both ways.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The runs' own reproducibility is wider than the bound.
    Unresolved,
    /// An exact count (or the digest) differs.
    Changed,
    /// Present in A, absent from B.
    Missing,
    /// Per-layer timing: reported, not judged.
    Info,
}

impl Verdict {
    /// Does this verdict fail the comparison?
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Changed | Verdict::Missing
        )
    }
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Workload.
    pub workload: String,
    /// Metric (or `digest`, or `*` for a whole missing workload).
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable evidence.
    pub detail: String,
}

/// Relative worsening of `new` against `base` (positive = worse).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

fn judge(a: &Measured, b: &Measured) -> (Verdict, String) {
    let worse = worsening(a.def.better, a.value, b.value);
    let change = format!(
        "{} -> {} {} ({:+.1} % {})",
        a.value,
        b.value,
        a.def.unit,
        100.0 * worse.abs(),
        if worse > 0.0 { "worse" } else { "better" }
    );
    match a.def.class {
        Class::Exact if a.value == b.value => (Verdict::Unchanged, format!("{} (exact)", a.value)),
        Class::Exact => (Verdict::Changed, change),
        Class::Info => (Verdict::Info, change),
        Class::Bounded(bound) => {
            let gap = a.split_gap.unwrap_or(0.0).max(b.split_gap.unwrap_or(0.0));
            let verdict = if gap > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else if worse < -bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            (
                verdict,
                format!("{change}; bound {bound}, split-half gap {:.3}", gap),
            )
        }
    }
}

/// Compare result set `b` against baseline `a`. Exact rows come first.
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<Line> {
    let mut exact = Vec::new();
    let mut timed = Vec::new();
    for wa in a {
        let line = |metric: &str, verdict, detail: String| Line {
            workload: wa.workload.clone(),
            metric: metric.to_string(),
            verdict,
            detail,
        };
        let Some(wb) = b.iter().find(|w| w.workload == wa.workload) else {
            exact.push(line("*", Verdict::Missing, "workload absent".into()));
            continue;
        };
        exact.push(if wa.digest == wb.digest {
            line("digest", Verdict::Unchanged, format!("{:016x}", wa.digest))
        } else {
            line(
                "digest",
                Verdict::Changed,
                format!("{:016x} -> {:016x}", wa.digest, wb.digest),
            )
        });
        if wb.failed_ops > 0 {
            exact.push(line(
                "failed_ops",
                Verdict::Changed,
                format!("{} -> {}", wa.failed_ops, wb.failed_ops),
            ));
        }
        for ma in &wa.metrics {
            let Some(mb) = wb.metrics.iter().find(|m| m.def.name == ma.def.name) else {
                exact.push(line(ma.def.name, Verdict::Missing, "metric absent".into()));
                continue;
            };
            let (verdict, detail) = judge(ma, mb);
            let row = line(ma.def.name, verdict, detail);
            match ma.def.class {
                Class::Exact => exact.push(row),
                _ => timed.push(row),
            }
        }
    }
    exact.extend(timed);
    exact
}

/// Exit code for a comparison: 1 on any failing row, 2 when nothing
/// failed but something is unresolved, else 0.
pub fn exit_code(lines: &[Line]) -> u8 {
    if lines.iter().any(|l| l.verdict.fails()) {
        1
    } else if lines.iter().any(|l| l.verdict == Verdict::Unresolved) {
        2
    } else {
        0
    }
}

/// Render the rows, failures and unresolved rows marked.
pub fn render(lines: &[Line]) -> String {
    let mut out = String::new();
    for l in lines {
        let mark = match l.verdict {
            v if v.fails() => "FAIL",
            Verdict::Unresolved => "????",
            _ => "    ",
        };
        out.push_str(&format!(
            "{mark} {:<20} {:<28} {:<10} {}\n",
            l.workload,
            l.metric,
            format!("{:?}", l.verdict).to_lowercase(),
            l.detail
        ));
    }
    out
}

/// The artifact: `{"schema": 1, "workloads": [...]}`.
pub fn encode_results(results: &[WorkloadResult]) -> String {
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ])
    .encode_pretty()
}

/// Parse an artifact; fails closed on any malformed part.
pub fn decode_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let j = Json::decode(text).map_err(|e| format!("not JSON: {e}"))?;
    if j.get("schema").and_then(Json::as_num) != Some(1.0) {
        return Err("unknown or missing `schema`".into());
    }
    j.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing `workloads`")?
        .iter()
        .map(WorkloadResult::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;
    use crate::stats::Summary;

    fn result(slots_per_s: f64, gap: f64, fuel: f64) -> WorkloadResult {
        WorkloadResult {
            workload: "mvno_cell".into(),
            seed: 7,
            workers: 1,
            host_cpus: 2,
            repetitions: 5,
            ops: 1000,
            failed_ops: 0,
            digest: 0xabc,
            metrics: vec![
                Measured {
                    def: def("slots_per_s").unwrap(),
                    value: slots_per_s,
                    summary: Summary::of(&[slots_per_s]),
                    split_gap: Some(gap),
                },
                Measured {
                    def: def("wasm.fuel_per_call").unwrap(),
                    value: fuel,
                    summary: None,
                    split_gap: None,
                },
                Measured {
                    def: def("host.call_us_p50").unwrap(),
                    value: 9.0,
                    summary: None,
                    split_gap: None,
                },
            ],
        }
    }

    fn verdict_of(lines: &[Line], metric: &str) -> Verdict {
        lines.iter().find(|l| l.metric == metric).unwrap().verdict
    }

    #[test]
    fn same_results_agree() {
        let a = [result(20_000.0, 0.01, 3000.0)];
        let lines = compare(&a, &a);
        assert_eq!(exit_code(&lines), 0);
        assert_eq!(verdict_of(&lines, "slots_per_s"), Verdict::Unchanged);
        assert_eq!(verdict_of(&lines, "host.call_us_p50"), Verdict::Info);
        // Exact rows are listed before timings.
        assert_eq!(lines[0].metric, "digest");
        assert_eq!(lines[1].metric, "wasm.fuel_per_call");
    }

    #[test]
    fn injected_two_x_slowdown_is_flagged() {
        let a = [result(20_000.0, 0.01, 3000.0)];
        let b = [result(10_000.0, 0.01, 3000.0)];
        let lines = compare(&a, &b);
        assert_eq!(verdict_of(&lines, "slots_per_s"), Verdict::Regressed);
        assert_eq!(exit_code(&lines), 1);
        // ...and the other way round it is an improvement, not a failure.
        let lines = compare(&b, &a);
        assert_eq!(verdict_of(&lines, "slots_per_s"), Verdict::Improved);
        assert_eq!(exit_code(&lines), 0);
    }

    #[test]
    fn changed_exact_count_is_flagged() {
        let a = [result(20_000.0, 0.01, 3000.0)];
        let b = [result(20_000.0, 0.01, 3001.0)];
        let lines = compare(&a, &b);
        assert_eq!(verdict_of(&lines, "wasm.fuel_per_call"), Verdict::Changed);
        assert_eq!(exit_code(&lines), 1);
        let mut c = result(20_000.0, 0.01, 3000.0);
        c.digest ^= 1;
        assert_eq!(verdict_of(&compare(&a, &[c]), "digest"), Verdict::Changed);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = [result(20_000.0, 0.30, 3000.0)];
        let b = [result(19_900.0, 0.01, 3000.0)];
        let lines = compare(&a, &b);
        assert_eq!(verdict_of(&lines, "slots_per_s"), Verdict::Unresolved);
        assert_eq!(exit_code(&lines), 2);
    }

    #[test]
    fn missing_metric_or_workload_fails() {
        let a = [result(20_000.0, 0.01, 3000.0)];
        let mut b = result(20_000.0, 0.01, 3000.0);
        b.metrics.remove(0);
        let lines = compare(&a, &[b]);
        assert_eq!(verdict_of(&lines, "slots_per_s"), Verdict::Missing);
        assert_eq!(exit_code(&lines), 1);
        let lines = compare(&a, &[]);
        assert_eq!(verdict_of(&lines, "*"), Verdict::Missing);
    }

    #[test]
    fn artifact_round_trips_and_fails_closed() {
        let a = vec![result(20_000.5, 0.01, 3000.0)];
        assert_eq!(decode_results(&encode_results(&a)).unwrap(), a);
        assert!(decode_results("{}").is_err());
        assert!(decode_results("{\"schema\":1}").is_err());
        assert!(decode_results("nope").is_err());
    }
}
