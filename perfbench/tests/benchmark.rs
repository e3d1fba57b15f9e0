//! The benchmark's own tests: declared names, emitted metrics, the
//! correctness gate, and where the campaign writes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check::{Goldens, Tally, BENCH_SEED_JSON, SUBSTRATE_SEED_JSON};
use perfbench::report::{per_layer, valid_name, END_TO_END};
use perfbench::workloads::{Campaign, Ctx, DeviceWorkload, Kind, Workload, ACCEL_2048};
use perfbench::{run, Args};
use sim_perf::{parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::time::Instant;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The `name` fields of one array of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_name_is_legal_and_matches_the_code() {
    let workloads = declared("workloads");
    let end_to_end = declared("end_to_end");
    let layers = declared("per_layer");
    for name in workloads.iter().chain(&end_to_end).chain(&layers) {
        assert!(valid_name(name), "illegal name {name:?}");
    }
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(end_to_end, e2e);
    let code_layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(layers, code_layers);
}

fn run_workload(kind: Kind, trace: bool) -> perfbench::RunResult {
    let args = Args {
        workload: kind,
        seed: 0,
        seconds: 0.0,
        trace,
        out_dir: scratch(&format!("emit-{}-{trace}", kind.name())),
    };
    run(&args, Instant::now())
}

/// Each workload, traced and untraced, emits exactly the declared metrics
/// and passes its correctness gate at the default seed.
fn emits_declared_metrics(kind: Kind) {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run_workload(kind, trace);
        let names: Vec<&str> = out.report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared(key), "{} trace={trace}", kind.name());
        assert_eq!(out.report.failed, 0, "{} trace={trace}", kind.name());
        assert!(out.report.attempted > 0);
        let line = out.report.to_json();
        let doc = parse_json(&line).expect("result line is JSON");
        assert!(matches!(doc.get("correct"), Some(JsonValue::Bool(true))));
        if !trace {
            for m in &out.report.metrics {
                assert!(m.value > 0.0, "{}: {} must never be 0", kind.name(), m.name);
            }
        }
    }
}

#[test]
fn accel_2048_emits_declared_metrics() {
    emits_declared_metrics(Kind::Accel2048);
}

#[test]
fn opteron_cliff_emits_declared_metrics() {
    emits_declared_metrics(Kind::OpteronCliff);
}

#[test]
fn campaign_emits_declared_metrics() {
    emits_declared_metrics(Kind::Campaign);
}

#[test]
fn supervised_emits_declared_metrics() {
    emits_declared_metrics(Kind::Supervised);
}

#[test]
fn a_wrong_golden_is_a_counted_failure() {
    // Flip one bit of the Cell run's pinned simulated seconds.
    let pinned = "\"cell-8spe\": {\"sim_seconds\": \"0x3fb422e5f056b712\"";
    assert!(
        SUBSTRATE_SEED_JSON.contains(pinned),
        "golden layout changed"
    );
    let wrong = SUBSTRATE_SEED_JSON.replace(pinned, &pinned.replace("b712\"", "b713\""));
    let goldens = Goldens::parse(&wrong, BENCH_SEED_JSON).expect("still parses");
    let ctx = Ctx {
        seed: 0,
        out_dir: scratch("wrong-golden"),
    };
    let mut tally = Tally::default();
    let mut w = DeviceWorkload::new(&ctx, &mut tally, &ACCEL_2048, Some(goldens));
    let before = tally.failed;
    let pass = w.pass(&mut tally, None);
    assert_eq!(pass.ops.len(), 3, "every op still ran");
    assert_eq!(tally.failed, before + 1, "exactly the Cell op failed");
    assert_eq!(
        pass.atom_steps,
        (2 * 2048 * 10) as f64,
        "failed ops do not count as work"
    );
}

/// Every file under `dir`, recursively; empty when `dir` is absent.
fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(listing(&p));
            } else {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn the_campaign_writes_only_under_its_scratch_dir() {
    let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let local_results = Path::new("results");
    let before = (listing(&repo_results), local_results.exists());
    let out_dir = scratch("campaign-cache");
    let ctx = Ctx {
        seed: 0,
        out_dir: out_dir.clone(),
    };
    let mut tally = Tally::default();
    let mut w = Campaign::new(&ctx, &mut tally);
    let pass = w.pass(&mut tally, None);
    assert_eq!(tally.failed, 0);
    assert!(pass.ops.iter().any(|o| o.key == "warm"));
    assert_eq!((listing(&repo_results), local_results.exists()), before);
    w.cleanup();
    assert!(
        listing(&out_dir).is_empty(),
        "cleanup removes the temp caches"
    );
}
