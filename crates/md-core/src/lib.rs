//! Molecular-dynamics core library.
//!
//! This crate implements the MD kernel the paper studies (section 3.4/3.5):
//!
//! - the 6-12 Lennard-Jones potential with a radial cutoff ([`lj`]),
//! - velocity-Verlet integration ([`verlet`]), following the five-step
//!   structure of the paper's Figure 4,
//! - the deliberately cache-unfriendly O(N²) all-pairs force evaluation with
//!   distances computed on the fly ([`forces`]) — the paper explicitly does
//!   *not* use pairlists on the device ports,
//! - plus the cache-friendly techniques the paper names but declines to use,
//!   as extensions: Verlet neighbor lists ([`neighbor`]) and cell lists
//!   ([`celllist`]),
//! - a host-parallel kernel built on rayon ([`parallel`]) for real
//!   modern-hardware measurements,
//! - workload generation: cubic/FCC lattices and Maxwell-Boltzmann velocity
//!   initialization ([`init`]), with a deterministic RNG ([`rng`]).
//!
//! Everything is generic over [`vecmath::Real`] so the same kernel code runs
//! in `f32` (the precision the paper uses on the Cell and GPU) and `f64` (the
//! MTA-2 and Opteron reference precision).
//!
//! # Quick start
//!
//! ```
//! use md_core::prelude::*;
//!
//! // 256 atoms of LJ "argon" in reduced units at liquid density.
//! let mut sim = Simulation::<f64>::prepare(SimConfig::reduced_lj(256));
//! let e0 = sim.total_energy();
//! sim.run(100);
//! let e1 = sim.total_energy();
//! assert!(((e1 - e0) / e0).abs() < 1e-2, "NVE energy is conserved");
//! ```

pub mod analysis;
pub mod bonded;
pub mod celllist;
pub mod checkpoint;
pub mod device;
pub mod driver;
pub mod forces;
pub mod init;
pub mod io;
pub mod lj;
pub mod neighbor;
pub mod observables;
pub mod parallel;
pub mod params;
pub mod rng;
pub mod scenario;
pub mod shared_eval;
pub mod sim;
pub mod system;
pub mod thermostat;
pub mod verlet;

pub mod prelude {
    //! Glob-import surface for the common types.
    pub use crate::analysis::{BlockAverage, DisplacementTracker, VelocityAutocorrelation};
    pub use crate::bonded::{Angle, Bond, BondedTopology};
    pub use crate::celllist::CellListKernel;
    pub use crate::checkpoint::SystemCheckpoint;
    pub use crate::device::{
        slab_domains, DeviceError, DeviceRun, DomainRegion, HostParallelism, MdDevice, RunOptions,
    };
    pub use crate::forces::{AllPairsFullKernel, AllPairsHalfKernel, ForceKernel, PairVisitor};
    pub use crate::init::{lattice_box_len, Lattice};
    pub use crate::lj::LjParams;
    pub use crate::neighbor::NeighborListKernel;
    pub use crate::observables::EnergyReport;
    pub use crate::parallel::RayonKernel;
    pub use crate::params::SimConfig;
    pub use crate::rng::SplitMix64;
    pub use crate::scenario::{
        Ensemble, PairPotential, Potential, PrecisionPolicy, ScenarioSpec, Substrate,
    };
    pub use crate::sim::Simulation;
    pub use crate::system::ParticleSystem;
    pub use crate::thermostat::VelocityRescale;
    pub use crate::verlet::VelocityVerlet;
    pub use vecmath::{Real, Vec3};
}
