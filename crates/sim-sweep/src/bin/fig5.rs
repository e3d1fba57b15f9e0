//! Regenerates Figure 5: SIMD optimization ladder for the MD kernel on one
//! SPE (runtime of the acceleration computation, 2048 atoms). Warm-cache
//! runs render without executing any device simulation.
//!
//! Flags (see `sim_sweep::figures::figure_main`): `--no-cache` executes
//! every point without touching the result cache; `--host-threads N` runs
//! each point's simulated lanes on N host threads.

use sim_sweep::{figures, spec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    figures::figure_main(&spec::fig5(), figures::render_fig5, &args)
}
