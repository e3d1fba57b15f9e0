//! Regenerates Figure 7: GPU vs Opteron runtime across atom counts
//! (GPU startup excluded; per-step PCIe transfers included).
//!
//! Flags (see `sim_sweep::figures::figure_main`): `--no-cache` executes
//! every point without touching the result cache; `--host-threads N` runs
//! each point's simulated lanes on N host threads.

use sim_sweep::{figures, spec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    figures::figure_main(&spec::fig7(), figures::render_fig7, &args)
}
