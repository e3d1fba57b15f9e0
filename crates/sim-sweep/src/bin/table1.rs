//! Regenerates Table 1: performance comparison of the MD calculation,
//! Opteron vs Cell (1 SPE / 8 SPEs / PPE only), 2048 atoms, 10 time steps.
//!
//! Flags (see `sim_sweep::figures::figure_main`): `--no-cache` executes
//! every point without touching the result cache; `--host-threads N` runs
//! each point's simulated lanes on N host threads.

use sim_sweep::{figures, spec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    figures::figure_main(&spec::table1(), figures::render_table1, &args)
}
