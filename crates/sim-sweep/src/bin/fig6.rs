//! Regenerates Figure 6: SPE thread-launch overhead on the MD kernel,
//! respawn-every-step vs launch-once, 1 vs 8 SPEs.
//!
//! Flags (see `sim_sweep::figures::figure_main`): `--no-cache` executes
//! every point without touching the result cache; `--host-threads N` runs
//! each point's simulated lanes on N host threads.

use sim_sweep::{figures, spec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    figures::figure_main(&spec::fig6(), figures::render_fig6, &args)
}
