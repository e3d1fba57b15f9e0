//! Correctness gate: every op's simulated outputs are checked, and every
//! failure is counted rather than raised.
//!
//! Simulated seconds, energies and the final state are behaviour, pinned
//! bitwise. At the default seed they must equal the committed goldens; at
//! any seed, repeating an op (across passes, and between the traced and
//! untraced runs) must reproduce them exactly.

use md_core::checkpoint::{fnv1a, SystemCheckpoint};
use md_core::device::DeviceRun;
use md_core::observables::EnergyReport;
use sim_perf::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// Goldens committed with the repository, compiled into the benchmark.
pub const SUBSTRATE_SEED_JSON: &str = include_str!("../../tests/golden/substrate_seed.json");
pub const BENCH_SEED_JSON: &str = include_str!("../../BENCH_seed.json");

/// Failure counts for one benchmark process.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Failure messages printed before the rest are only counted.
const MAX_REPORTED: u64 = 20;

impl Tally {
    /// Count one op; `Err` carries why it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= MAX_REPORTED {
                eprintln!("perfbench: FAILED {what}: {why}");
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The bit patterns one op's simulated outputs reduce to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub sim_seconds: u64,
    /// kinetic, potential, total, temperature.
    pub energies: [u64; 4],
    /// FNV-1a over the final checkpoint's coordinate payload.
    pub state_fnv1a: u64,
    /// Any further simulated statistics (attribution, derived metrics,
    /// counters, recovery counts), as bits.
    pub extra: Vec<u64>,
}

impl Outcome {
    pub fn new(sim_seconds: f64, energies: &EnergyReport, state: &SystemCheckpoint) -> Self {
        Self {
            sim_seconds: sim_seconds.to_bits(),
            energies: [
                energies.kinetic.to_bits(),
                energies.potential.to_bits(),
                energies.total.to_bits(),
                energies.temperature.to_bits(),
            ],
            state_fnv1a: state_hash(state),
            extra: Vec::new(),
        }
    }

    /// Everything a plain device run reports that is simulated.
    pub fn of_run(run: &DeviceRun) -> Self {
        let mut out = Self::new(run.sim_seconds, &run.energies, &run.checkpoint);
        out.extra
            .extend(run.attribution.iter().map(|(_, v)| v.to_bits()));
        out.extra
            .extend(run.derived.iter().map(|(_, v)| v.to_bits()));
        out.extra.push(run.ops.to_bits());
        out.extra.push(run.bytes_moved.to_bits());
        out
    }

    #[must_use]
    pub fn with_extra(mut self, extra: impl IntoIterator<Item = u64>) -> Self {
        self.extra.extend(extra);
        self
    }

    /// Same trajectory as `other`: energies and final state, ignoring the
    /// simulated clock (supervision and clustering add simulated time).
    pub fn same_physics(&self, other: &Outcome) -> Result<(), String> {
        if self.energies != other.energies {
            return Err("energies differ from the plain fault-free run".into());
        }
        if self.state_fnv1a != other.state_fnv1a {
            return Err(format!(
                "state hash {:#018x} differs from the plain run's {:#018x}",
                self.state_fnv1a, other.state_fnv1a
            ));
        }
        Ok(())
    }

    pub fn matches_golden(&self, g: &Golden) -> Result<(), String> {
        if self.sim_seconds != g.sim_seconds {
            return Err(format!(
                "sim_seconds {} != golden {}",
                f64::from_bits(self.sim_seconds),
                f64::from_bits(g.sim_seconds)
            ));
        }
        if let Some(e) = g.energies {
            if self.energies != e {
                return Err("energies differ from the golden bits".into());
            }
        }
        if let Some(h) = g.state_fnv1a {
            if self.state_fnv1a != h {
                return Err(format!(
                    "state hash {:#018x} != golden {h:#018x}",
                    self.state_fnv1a
                ));
            }
        }
        Ok(())
    }
}

pub fn state_hash(cp: &SystemCheckpoint) -> u64 {
    fnv1a(&cp.encode_domain(0, cp.n()))
}

/// First-seen outcome per op key; later executions must repeat it bitwise.
#[derive(Default)]
pub struct Repeats(BTreeMap<String, Outcome>);

impl Repeats {
    /// Remember `got` on first sight; afterwards it must repeat exactly.
    pub fn check(&mut self, key: &str, got: &Outcome) -> Result<(), String> {
        match self.0.get(key) {
            None => {
                self.0.insert(key.to_string(), got.clone());
                Ok(())
            }
            Some(first) if first == got => Ok(()),
            Some(first) => Err(format!(
                "repeat differs from the first execution (sim_seconds {} vs {}, state {:#018x} vs {:#018x})",
                f64::from_bits(got.sim_seconds),
                f64::from_bits(first.sim_seconds),
                got.state_fnv1a,
                first.state_fnv1a
            )),
        }
    }
}

/// One pinned result. Entries from `BENCH_seed.json` pin only simulated
/// seconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Golden {
    pub sim_seconds: u64,
    pub energies: Option<[u64; 4]>,
    pub state_fnv1a: Option<u64>,
}

/// Goldens keyed by (device label, atoms), plus the full `BENCH_seed.json`
/// table keyed by (figure, device label, atoms).
#[derive(Clone, Debug, Default)]
pub struct Goldens {
    pub devices: BTreeMap<(String, usize), Golden>,
    pub seed_table: BTreeMap<(String, String, usize), u64>,
}

impl Goldens {
    pub fn committed() -> Result<Self, String> {
        Self::parse(SUBSTRATE_SEED_JSON, BENCH_SEED_JSON)
    }

    /// Parse `tests/golden/substrate_seed.json` (every field, 2048 atoms)
    /// and `BENCH_seed.json` (simulated seconds; its `fig7` Opteron rows
    /// pin the larger Opteron sizes).
    pub fn parse(substrate: &str, bench_seed: &str) -> Result<Self, String> {
        let mut out = Self::default();
        let doc = parse_json(substrate)?;
        let n = doc
            .get("n_atoms")
            .and_then(JsonValue::as_number)
            .ok_or("substrate golden: no n_atoms")? as usize;
        let JsonValue::Object(devices) =
            doc.get("devices").ok_or("substrate golden: no devices")?
        else {
            return Err("substrate golden: devices is not an object".into());
        };
        for (label, rec) in devices {
            let hex = |field: &str| -> Result<u64, String> {
                let s = rec
                    .get(field)
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("{label}: no {field}"))?;
                let digits = s
                    .strip_prefix("0x")
                    .ok_or(format!("{label}.{field}: not hex"))?;
                u64::from_str_radix(digits, 16).map_err(|e| format!("{label}.{field}: {e}"))
            };
            out.devices.insert(
                (label.clone(), n),
                Golden {
                    sim_seconds: hex("sim_seconds")?,
                    energies: Some([
                        hex("kinetic")?,
                        hex("potential")?,
                        hex("total")?,
                        hex("temperature")?,
                    ]),
                    state_fnv1a: Some(hex("state_fnv1a")?),
                },
            );
        }

        let doc = parse_json(bench_seed)?;
        let rows = doc
            .get("benchmarks")
            .and_then(JsonValue::as_array)
            .ok_or("BENCH_seed: no benchmarks array")?;
        for row in rows {
            let text = |k: &str| row.get(k).and_then(JsonValue::as_str).map(str::to_string);
            let num = |k: &str| row.get(k).and_then(JsonValue::as_number);
            let (Some(figure), Some(device), Some(n), Some(s)) = (
                text("figure"),
                text("device"),
                num("n_atoms"),
                num("sim_seconds"),
            ) else {
                return Err("BENCH_seed: malformed row".into());
            };
            let n = n as usize;
            if figure == "fig7" && device == "opteron" {
                out.devices.entry((device.clone(), n)).or_insert(Golden {
                    sim_seconds: s.to_bits(),
                    energies: None,
                    state_fnv1a: None,
                });
            }
            out.seed_table.insert((figure, device, n), s.to_bits());
        }
        Ok(out)
    }

    pub fn get(&self, label: &str, n_atoms: usize) -> Option<&Golden> {
        self.devices.get(&(label.to_string(), n_atoms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_cover_the_pinned_ops() {
        let g = Goldens::committed().expect("goldens parse");
        for label in ["cell-8spe", "gpu-7900gtx", "mta2-full-mt", "opteron"] {
            let rec = g.get(label, 2048).expect("2048-atom record");
            assert!(rec.state_fnv1a.is_some(), "{label}");
        }
        for n in [4096, 8192] {
            let rec = g.get("opteron", n).expect("fig7 opteron row");
            assert!(rec.state_fnv1a.is_none());
        }
        assert!(!g.seed_table.is_empty());
    }

    #[test]
    fn repeats_flag_a_changed_bit() {
        let mut r = Repeats::default();
        let a = Outcome {
            sim_seconds: 1,
            energies: [0; 4],
            state_fnv1a: 9,
            extra: vec![],
        };
        assert_eq!(r.check("op", &a), Ok(()));
        assert_eq!(r.check("op", &a), Ok(()));
        let b = Outcome {
            state_fnv1a: 10,
            ..a
        };
        assert!(r.check("op", &b).is_err());
    }
}
