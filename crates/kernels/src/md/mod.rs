//! A real molecular-dynamics engine: the reproduction's stand-in for
//! GROMACS. Lennard-Jones particles, linked-cell neighbour search,
//! velocity-Verlet integration, optional Berendsen thermostat, and frame
//! production every *stride* steps.

pub mod cell_list;
pub mod forces;
pub mod frame;
pub mod integrator;
pub mod min_image;
pub mod sim;
pub mod system;
pub mod thermostat;

pub use cell_list::CellList;
pub use forces::{compute_forces, compute_forces_full, pressure, ForceResult, LjParams};
pub use frame::{Frame, FrameDecodeError};
pub use integrator::velocity_verlet_step;
pub use min_image::MinImage;
pub use sim::{MdConfig, MdSimulation};
pub use system::{MolecularSystem, Vec3};
pub use thermostat::Berendsen;
