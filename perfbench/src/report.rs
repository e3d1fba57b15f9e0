//! Metric declarations, the layer → end-to-end mapping, and the output
//! formats (human-readable lines, then one JSON result line).

/// End-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("atom_steps_per_s", "atom-steps/s"),
    ("op_s.p50", "s"),
    ("peak_rss_mb", "MB"),
];

/// Atom counts of the per-size (`.n<atoms>`) metric variants.
pub const SIZES: [usize; 3] = [2048, 4096, 8192];

/// Per-layer metrics of the traced run, with units. Every workload emits
/// every one; a layer that does no work on a workload reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| out.push((name, unit));
    for n in SIZES {
        add(format!("shared_eval.host_row.eval_s.n{n}"), "s");
    }
    add("shared_eval.cell_row.eval_s".into(), "s");
    add("shared_eval.gpu_texel.eval_s".into(), "s");
    for n in SIZES {
        add(format!("shared_eval.interacting_ratio.n{n}"), "ratio");
    }
    let device_metrics = |layer: &str, sfx: &str| {
        [
            (format!("{layer}.prime_s{sfx}"), "s"),
            (format!("{layer}.step_s{sfx}"), "s"),
            (format!("{layer}.replay_share{sfx}"), "ratio"),
            (format!("{layer}.host_ns_per_event{sfx}"), "ns/event"),
        ]
    };
    for layer in ["cell-be", "gpu", "mta"] {
        out.extend(device_metrics(layer, ""));
    }
    for n in SIZES {
        out.extend(device_metrics("opteron", &format!(".n{n}")));
    }
    for n in SIZES {
        out.push((format!("memsim.accesses_per_s.n{n}"), "accesses/s"));
        out.push((format!("memsim.cold_replay_s.n{n}"), "s"));
    }
    for (name, unit) in [
        ("supervisor.self_s", "s"),
        ("supervisor.device_s", "s"),
        ("supervisor.run_calls", "count"),
        ("supervisor.overhead_ratio", "ratio"),
        ("checkpoint.codec_s", "s"),
        ("sim-obs.ledger_events", "count"),
        ("sim-obs.ledger_overhead_s", "s"),
        ("sim-cluster.recover_s", "s"),
        ("sim-cluster.overhead_ratio", "ratio"),
        ("sim-sweep.points_executed", "count"),
        ("sim-sweep.points_cached", "count"),
        ("sim-sweep.busy_share", "ratio"),
        ("sim-sweep.longest_point_s", "s"),
        ("sim-sweep.shared_physics_points", "count"),
        ("sim-sweep.cache.load_s", "s"),
        ("sim-sweep.cache.store_s", "s"),
        ("trace.overhead_s", "s"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Which end-to-end metrics each layer metric should move, on which
/// workload, and where it is predicted to leave them flat. Printed by every
/// traced run; ratios name their base.
pub const MAPPING: [(&str, &str, &str, &str); 9] = [
    (
        "shared_eval.{host_row,cell_row,gpu_texel}.eval_s (one full evaluation over the op's positions), shared_eval.interacting_ratio (interactions / pairs examined)",
        "atom_steps_per_s, op_s.p50",
        "accel-2048 (host_row also opteron-cliff)",
        "cell_row, gpu_texel on opteron-cliff",
    ),
    (
        "{cell-be,gpu,mta}.{prime_s,step_s,replay_share,host_ns_per_event}; replay_share = 1 - 11 evals x eval_s / run(10) s",
        "atom_steps_per_s",
        "accel-2048",
        "opteron-cliff",
    ),
    (
        "opteron.{prime_s,step_s,replay_share,host_ns_per_event}.n<atoms>",
        "atom_steps_per_s",
        "opteron-cliff",
        "accel-2048",
    ),
    (
        "memsim.accesses_per_s (cold all-pairs gather replay), memsim.cold_replay_s (opteron run(1) - 2 x host_row eval_s)",
        "atom_steps_per_s, op_s.p50",
        "opteron-cliff",
        "accel-2048",
    ),
    (
        "supervisor.{self_s,device_s,run_calls}, supervisor.overhead_ratio (supervised / plain build+run, same devices and input), checkpoint.codec_s",
        "atom_steps_per_s, op_s.p50",
        "supervised",
        "accel-2048, opteron-cliff, campaign",
    ),
    (
        "sim-obs.ledger_events, sim-obs.ledger_overhead_s (ledger-attached - ledger-free supervised ops)",
        "op_s.p50",
        "supervised",
        "accel-2048, opteron-cliff, campaign",
    ),
    (
        "sim-cluster.recover_s (node-kill - fault-free cluster op), sim-cluster.overhead_ratio (4-node fault-free / supervised 1-node Opteron)",
        "op_s.p50",
        "supervised",
        "accel-2048, opteron-cliff, campaign",
    ),
    (
        "sim-sweep.{points_executed,points_cached,shared_physics_points,longest_point_s,cache.load_s,cache.store_s}, sim-sweep.busy_share (serial per-point host s / (cores x wall of a cold sweep with one worker per core))",
        "wall_s, atom_steps_per_s",
        "campaign",
        "accel-2048, opteron-cliff, supervised",
    ),
    (
        "trace.overhead_s (traced pass wall - untraced pass wall)",
        "none (tracing is off for end-to-end runs)",
        "all",
        "-",
    ),
];

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark process reports.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Is `name` a legal metric or workload name?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "wall_s".into(),
                value: 0.25,
                unit: "s",
            }],
        };
        let doc = sim_perf::parse_json(&r.to_json()).expect("valid JSON");
        let sim_perf::JsonValue::Object(keys) = doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
