//! The metric registry: every number the benchmark prints, with its unit,
//! direction, regression bound and comparison class — and the result
//! model (`WorkloadResult`) that carries measured values to the printer,
//! the JSON artifact and `compare`.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `benchmark_json_matches_registry` test keeps the two in step.

use waran_abi::sjson::Json;

use crate::stats::Summary;

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` treats a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// End-to-end: may worsen by at most this share of the baseline.
    Bounded(f64),
    /// A count the program makes that must repeat bit-for-bit.
    Exact,
    /// A per-layer timing or ratio: reported, never gated.
    Info,
}

/// One registry row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name (`layer.metric` for per-layer rows).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Comparison class.
    pub class: Class,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Bounded(bound),
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        class: Class::Exact,
    }
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Info,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (the driver's `--trace 0`
/// set, and `BENCHMARK.json`'s `end_to_end`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("slots_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_slot", "us", Lower, 0.25),
    e2e("sched_call_us_p50", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Load-path metrics only `plugin_churn` produces. `compare` bounds them
/// like end-to-end metrics; the driver sees them in the per-layer list
/// (its end-to-end list must be reportable by every workload).
pub const LOAD_PATH: &[MetricDef] = &[
    e2e("cold_load_us_p50", "us", Lower, 0.10),
    e2e("warm_swap_us_p50", "us", Lower, 0.15),
    e2e("first_call_us_p50", "us", Lower, 0.15),
];

/// Per-layer metrics (the driver's `--trace 1` set together with
/// [`LOAD_PATH`]). A workload that does not exercise a layer reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Tail latency of the plugin call: too preemption-bound on a shared
    // 2-vCPU host to carry a bound (see README "Demoted").
    info("sched_call_us_p99", "us", Lower),
    info("sched_call_p99_slot_pct", "%", Lower),
    // wasm
    info("wasm.guest_us_per_call", "us", Lower),
    exact("wasm.fuel_per_call", "count"),
    exact("wasm.instrs_per_call", "count"),
    info("wasm.load_us_p50", "us", Lower),
    info("wasm.precompile_us_p50", "us", Lower),
    info("wasm.analysis_us_p50", "us", Lower),
    exact("wasm.module_bytes", "B"),
    // plugc
    info("plugc.compile_us_p50", "us", Lower),
    exact("plugc.wasm_bytes", "B"),
    // abi
    info("abi.encode_us_per_call", "us", Lower),
    info("abi.decode_us_per_call", "us", Lower),
    exact("abi.req_bytes_per_call", "B"),
    exact("abi.resp_bytes_per_call", "B"),
    // host
    info("host.call_us_p50", "us", Lower),
    info("host.call_us_p99", "us", Lower),
    info("host.crossing_us_p50", "us", Lower),
    info("host.call_share_pct", "%", Lower),
    exact("host.calls_per_slot", "count"),
    exact("host.faults", "count"),
    exact("host.fallback_slots", "count"),
    exact("host.strikes", "count"),
    exact("host.rollbacks", "count"),
    info("host.stamp_us_p50", "us", Lower),
    // ransim
    info("ransim.self_us_per_slot", "us", Lower),
    info("ransim.self_share_pct", "%", Lower),
    info("ransim.native_us_per_slot", "us", Lower),
    exact("ransim.bg_bytes_per_slot", "B"),
    exact("ransim.promotions", "count"),
    exact("ransim.demotions", "count"),
    exact("ransim.prb_utilization", "%"),
    // ric
    info("ric.roundtrip_us_p50", "us", Lower),
    info("ric.codec_us_per_ind", "us", Lower),
    exact("ric.indications", "count"),
    exact("ric.action_batches", "count"),
    exact("ric.applied_handovers", "count"),
    exact("ric.rejected_actions", "count"),
    // Depends on thread timing, not on the simulation: a gauge.
    info("ric.ingress_max_depth", "count", Lower),
    exact("ric.drops", "count"),
    // core
    info("core.slot_us_p50", "us", Lower),
    info("core.slot_us_p99", "us", Lower),
    info("core.chunk_us_p50", "us", Lower),
    info("core.chunk_us_p99", "us", Lower),
    info("core.worker_busy_pct", "%", Higher),
    info("core.engine_us_per_slot", "us", Lower),
    info("core.build_us_per_cell", "us", Lower),
    exact("core.handovers", "count"),
    exact("core.a3_departures", "count"),
    exact("core.forced_departures", "count"),
    exact("core.rejected_admissions", "count"),
    // tracing itself
    info("trace.overhead_pct", "%", Lower),
];

/// Look a metric up by name across all three tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(LOAD_PATH)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// One measured metric: the reported value plus, for timings, the
/// summary of the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Registry row.
    pub def: &'static MetricDef,
    /// The reported statistic.
    pub value: f64,
    /// Sample summary (count, quartiles, tail) when the value is a
    /// statistic over samples; `None` for plain counts.
    pub summary: Option<Summary>,
    /// Within-run reproducibility of the statistic: it is recomputed on
    /// the even- and the odd-numbered samples, and this is the two
    /// halves' distance as a share of the value. `compare` calls a
    /// metric *unresolved* when this exceeds its bound.
    pub split_gap: Option<f64>,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Worker threads used (`min(2, host_cpus)`).
    pub workers: usize,
    /// CPUs visible to the process.
    pub host_cpus: usize,
    /// Untraced repetitions measured.
    pub repetitions: usize,
    /// Operations attempted (scheduler calls, installs, swaps, cells).
    pub ops: u64,
    /// Operations that failed plus oracle checks that failed.
    pub failed_ops: u64,
    /// Digest every repetition (and the traced one) agreed on.
    pub digest: u64,
    /// Measured metrics, registry order.
    pub metrics: Vec<Measured>,
}

impl WorkloadResult {
    /// Value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// The artifact form (`--out`, `compare`).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut row = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.def.unit.into())),
                ];
                if let Some(gap) = m.split_gap {
                    row.push(("split_gap", Json::Num(gap)));
                }
                if let Some(s) = &m.summary {
                    row.push(("n", Json::Num(s.n as f64)));
                    row.push(("q1", Json::Num(s.q1)));
                    row.push(("median", Json::Num(s.median)));
                    row.push(("q3", Json::Num(s.q3)));
                    if let Some((p, v)) = s.tail {
                        row.push(("tail_pct", Json::Num(p)));
                        row.push(("tail", Json::Num(v)));
                    }
                }
                (m.def.name.to_string(), Json::obj(row))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            // Seeds and digests are full 64-bit values; JSON numbers are
            // f64, so they travel as hex strings.
            ("seed", Json::Str(format!("{:x}", self.seed))),
            ("workers", Json::Num(self.workers as f64)),
            ("host_cpus", Json::Num(self.host_cpus as f64)),
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("failed_ops", Json::Num(self.failed_ops as f64)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Parse the artifact form back. Fails closed: an unknown metric
    /// name or a missing field is an error, never a skipped row.
    pub fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_num()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let hex = |k: &str| {
            let s = field(k)?
                .as_str()
                .ok_or_else(|| format!("`{k}` is not a string"))?;
            u64::from_str_radix(s, 16).map_err(|e| format!("`{k}`: {e}"))
        };
        let Json::Obj(rows) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::with_capacity(rows.len());
        for (name, row) in rows {
            let def = def(name).ok_or_else(|| format!("unknown metric `{name}`"))?;
            let get = |k: &str| row.get(k).and_then(Json::as_num);
            let value = get("value").ok_or_else(|| format!("`{name}` has no value"))?;
            let summary = match (get("n"), get("q1"), get("median"), get("q3")) {
                (Some(n), Some(q1), Some(median), Some(q3)) => Some(Summary {
                    n: n as usize,
                    q1,
                    median,
                    q3,
                    tail: get("tail_pct").zip(get("tail")),
                }),
                _ => None,
            };
            metrics.push(Measured {
                def,
                value,
                summary,
                split_gap: get("split_gap"),
            });
        }
        Ok(WorkloadResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: hex("seed")?,
            workers: num("workers")? as usize,
            host_cpus: num("host_cpus")? as usize,
            repetitions: num("repetitions")? as usize,
            ops: num("ops")? as u64,
            failed_ops: num("failed_ops")? as u64,
            digest: hex("digest")?,
            metrics,
        })
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// metrics of one table set, each `{value, unit}`. Every end-to-end
    /// metric must have been measured; a per-layer metric of a layer this
    /// workload does not exercise is reported as 0, so the per-layer set
    /// is always complete.
    pub fn driver_line(&self, tables: &[&[MetricDef]]) -> Result<String, String> {
        let mut rows = Vec::new();
        for d in tables.iter().flat_map(|t| t.iter()) {
            let value = match self.value(d.name) {
                Some(v) => v,
                None if END_TO_END.contains(d) => {
                    return Err(format!("metric `{}` was not measured", d.name))
                }
                None => 0.0,
            };
            rows.push((
                d.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(d.unit.into())),
                ]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.failed_ops == 0)),
            ("attempted", Json::Num(self.ops.max(1) as f64)),
            ("failed", Json::Num(self.failed_ops as f64)),
            ("metrics", Json::Obj(rows)),
        ])
        .encode())
    }

    /// Human-readable table: name, unit, n, median, quartiles, tail.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} == seed {:#x}  workers {} / host_cpus {}  repetitions {}  ops {}  failed_ops {}  digest {:016x}\n",
            self.workload,
            self.seed,
            self.workers,
            self.host_cpus,
            self.repetitions,
            self.ops,
            self.failed_ops,
            self.digest
        );
        out.push_str(&format!(
            "{:<28} {:>6} {:>14} {:>7} {:>14} {:>14} {:>14}  {}\n",
            "metric", "unit", "value", "n", "q1", "median", "q3", "tail"
        ));
        for m in &self.metrics {
            let (n, q1, med, q3, tail) = match &m.summary {
                Some(s) => (
                    s.n.to_string(),
                    fmt_num(s.q1),
                    fmt_num(s.median),
                    fmt_num(s.q3),
                    s.tail
                        .map(|(p, v)| format!("p{p}={}", fmt_num(v)))
                        .unwrap_or_default(),
                ),
                None => (
                    "1".into(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ),
            };
            let gate = match m.def.class {
                Class::Bounded(b) => format!(
                    " [{} better, bound {b}, split-half gap {:.3}]",
                    m.def.better.label(),
                    m.split_gap.unwrap_or(0.0)
                ),
                Class::Exact => " [exact]".to_string(),
                Class::Info => String::new(),
            };
            out.push_str(&format!(
                "{:<28} {:>6} {:>14} {:>7} {:>14} {:>14} {:>14}  {}{}\n",
                m.def.name,
                m.def.unit,
                fmt_num(m.value),
                n,
                q1,
                med,
                q3,
                tail,
                gate
            ));
        }
        out
    }
}

/// Compact number formatting for the table (full precision lives in the
/// JSON artifact and the driver line).
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "mvno_cell".into(),
            seed: 0xdead_beef_cafe_f00d,
            workers: 1,
            host_cpus: 2,
            repetitions: 5,
            ops: 180_000,
            failed_ops: 0,
            digest: 0xb5ab_1ccf_17b4_3389,
            metrics: vec![
                Measured {
                    def: def("slots_per_s").unwrap(),
                    value: 20_417.25,
                    summary: Summary::of(&[20_000.5, 20_417.25, 21_000.0]),
                    split_gap: Some(0.0123),
                },
                Measured {
                    def: def("wasm.fuel_per_call").unwrap(),
                    value: 3_071.0,
                    summary: None,
                    split_gap: None,
                },
                Measured {
                    def: def("host.call_us_p50").unwrap(),
                    value: 9.5,
                    summary: Summary::of(&(1..=2000).map(f64::from).collect::<Vec<_>>()),
                    split_gap: None,
                },
            ],
        }
    }

    #[test]
    fn result_json_round_trips_through_sjson() {
        let r = sample();
        let text = r.to_json().encode_pretty();
        let back = WorkloadResult::from_json(&Json::decode(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_fails_closed() {
        let mut j = sample().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "digest");
        }
        assert!(WorkloadResult::from_json(&j)
            .unwrap_err()
            .contains("digest"));
        let j = Json::decode(
            r#"{"workload":"x","seed":"1","workers":1,"host_cpus":1,"repetitions":1,
                "ops":1,"failed_ops":0,"digest":"0","metrics":{"no.such":{"value":1,"unit":"s"}}}"#,
        )
        .unwrap();
        assert!(WorkloadResult::from_json(&j)
            .unwrap_err()
            .contains("no.such"));
    }

    #[test]
    fn driver_line_requires_every_metric() {
        let r = sample();
        assert!(r
            .driver_line(&[END_TO_END])
            .unwrap_err()
            .contains("setup_s"));
        let only: &[MetricDef] = &[*def("slots_per_s").unwrap()];
        let line = r.driver_line(&[only]).unwrap();
        let j = Json::decode(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_num), Some(180_000.0));
        assert_eq!(
            j.get("metrics")
                .and_then(|m| m.get("slots_per_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num),
            Some(20_417.25)
        );
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .chain(LOAD_PATH)
            .chain(PER_LAYER)
            .collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(all[..i].iter().all(|e| e.name != d.name), "dup {}", d.name);
        }
        assert!(LOAD_PATH.len() + PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_matches_registry() {
        let text = include_str!("../../../BENCHMARK.json");
        let j = Json::decode(text).unwrap();
        let names = |key: &str| -> Vec<(String, String, Option<String>, Option<f64>)> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str).map(str::to_string),
                        m.get("bound").and_then(Json::as_num),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                let Class::Bounded(b) = d.class else { panic!() };
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    Some(d.better.label().to_string()),
                    Some(b),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<_> = LOAD_PATH
            .iter()
            .chain(PER_LAYER)
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    Some(d.better.label().to_string()),
                    None,
                )
            })
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
