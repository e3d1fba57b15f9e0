//! Regenerates Figure 9: increase in runtime relative to the 256-atom run,
//! MTA-2 vs Opteron. Its absolute-runtime points are shared with fig7/fig8
//! where the grids overlap, so a prior fig7+fig8 run leaves most of this
//! figure warm. CI's `host-parallel` job diffs a `--host-threads 8`
//! render against a serial one byte for byte.
//!
//! Flags (see `sim_sweep::figures::figure_main`): `--no-cache` executes
//! every point without touching the result cache; `--host-threads N` runs
//! each point's simulated lanes on N host threads.

use sim_sweep::{figures, spec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    figures::figure_main(&spec::fig9(), figures::render_fig9, &args)
}
