//! Every bit of an MD trajectory and of the collective variables computed
//! from it, pinned to the force loop as it stood before the reused cell
//! list and the exact min-image helper (`c9e6a81`).
//!
//! `fixtures/md_golden.txt` is what that commit produced for every case
//! built below, one line per record. Scalars are their `to_bits` hex;
//! each per-atom array (positions, velocities, forces) and each staged
//! frame is an FNV-1a digest over the `to_bits` of every component in
//! atom order, so one changed bit anywhere changes the line. To
//! re-capture after a deliberate change to the dynamics: check out the
//! parent, drop this file in, and write what every writer in `SECTIONS`
//! produces, in order, over `fixtures/md_golden.txt` — before touching
//! any code.

use std::fmt::Write as _;

use ensemble_core::ConfigId;
use kernels::md::{
    compute_forces, compute_forces_full, velocity_verlet_step, LjParams, MdConfig, MdSimulation,
    MolecularSystem, Vec3,
};
use runtime::{run_threaded, KernelChoice, ThreadRunConfig};

/// FNV-1a over `bytes`.
fn digest(bytes: impl IntoIterator<Item = u8>) -> String {
    let h = bytes
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3));
    format!("{h:016x}")
}

/// FNV-1a over the little-endian `to_bits` of every value.
fn bits_digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> String {
    digest(values.into_iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

fn array_digest(values: &[Vec3]) -> String {
    bits_digest(values.iter().flatten())
}

fn system_line(out: &mut String, system: &MolecularSystem) {
    write!(
        out,
        " positions={} velocities={} forces={}",
        array_digest(&system.positions),
        array_digest(&system.velocities),
        array_digest(&system.forces),
    )
    .unwrap();
}

/// Strides of the simulation driver at `side³` atoms: {NVE, Berendsen}
/// × stride {1, 8}, recorded at the first stride boundary at or past MD
/// steps 1, 10 and 500.
fn md_records(out: &mut String, side: usize) {
    for thermostat_tau in [None, Some(0.1)] {
        for stride in [1u64, 8] {
            let cfg =
                MdConfig { atoms_per_side: side, stride, thermostat_tau, ..MdConfig::default() };
            let mut sim = MdSimulation::new(&cfg);
            for checkpoint in [1u64, 10, 500] {
                let mut frame = sim.snapshot();
                while sim.step_index() < checkpoint {
                    frame = sim.advance_stride();
                }
                // The potential and virial of the current positions,
                // from a fresh evaluation on a copy of the system.
                let mut copy = sim.system().clone();
                let fresh = compute_forces_full(&mut copy, &LjParams { cutoff: cfg.cutoff });
                write!(
                    out,
                    "md atoms={} thermostat={} stride={stride} step={} potential={:016x} \
                     virial={:016x} energy={:016x} frame={}",
                    side * side * side,
                    if thermostat_tau.is_some() { "berendsen" } else { "nve" },
                    sim.step_index(),
                    fresh.potential.to_bits(),
                    fresh.virial.to_bits(),
                    sim.total_energy().to_bits(),
                    digest(frame.to_bytes().iter().copied()),
                )
                .unwrap();
                system_line(out, sim.system());
                write!(out, " fresh_forces={}", array_digest(&copy.forces)).unwrap();
                out.push('\n');
            }
        }
    }
}

/// The bare integrator: `compute_forces` once, then NVE velocity-Verlet
/// steps, returning each step's potential.
fn verlet_records(out: &mut String) {
    for side in [3usize, 4] {
        let mut system = MolecularSystem::lattice(side, 0.8, 1.0, 77);
        let params = LjParams::default();
        let mut potentials = vec![compute_forces(&mut system, &params)];
        for _ in 0..10 {
            potentials.push(velocity_verlet_step(&mut system, &params, 0.002));
        }
        write!(
            out,
            "verlet atoms={} steps=10 potentials={}",
            system.len(),
            bits_digest(&potentials),
        )
        .unwrap();
        system_line(out, &system);
        out.push('\n');
    }
}

/// One threaded `C_c` run of 200 in situ steps at 27 atoms per analysis
/// kernel: every collective-variable value.
fn cv_records(out: &mut String) {
    let kernels = [
        ("radius_of_gyration", KernelChoice::RadiusOfGyration),
        ("eigen", KernelChoice::Eigen { group: 8, sigma: 1.2 }),
        ("msd", KernelChoice::Msd),
        ("contact_count", KernelChoice::ContactCount { group: 8, cutoff: 1.5 }),
    ];
    for (name, kernel) in kernels {
        let cfg = ThreadRunConfig {
            spec: ConfigId::Cc.build(),
            md: MdConfig { atoms_per_side: 3, stride: 1, ..MdConfig::default() },
            n_steps: 200,
            kernel: Some(kernel),
            ..ThreadRunConfig::default()
        };
        let exec = run_threaded(&cfg).expect("fault-free run");
        assert_eq!(exec.cv_series.len(), 1, "C_c has one analysis");
        let series = exec.cv_series.values().next().expect("one series");
        assert_eq!(series.len(), 200);
        for (row, values) in series.chunks(8).enumerate() {
            write!(out, "cv kernel={name} from={}", row * 8).unwrap();
            for v in values {
                write!(out, " {:016x}", v.to_bits()).unwrap();
            }
            out.push('\n');
        }
    }
}

/// Appends one section's records.
pub type Writer = fn(&mut String);

/// The fixture's sections, each produced by one writer. Each section is
/// its own test, so the large systems run beside the small ones. (The
/// `staging_throughput` bench includes this file and checks them all
/// before it times anything.)
pub const SECTIONS: [(&str, Writer); 6] = [
    ("md atoms=27 ", |out| md_records(out, 3)),
    ("md atoms=64 ", |out| md_records(out, 4)),
    ("md atoms=125 ", |out| md_records(out, 5)),
    ("md atoms=512 ", |out| md_records(out, 8)),
    ("verlet ", verlet_records),
    ("cv ", cv_records),
];

/// Recomputes section `prefix` and asserts it equals the fixture's lines.
pub fn check_section(prefix: &str) {
    let (_, write) = SECTIONS.iter().find(|(p, _)| *p == prefix).expect("a known section");
    let mut got = String::new();
    write(&mut got);
    let want: Vec<&str> = include_str!("fixtures/md_golden.txt")
        .lines()
        .filter(|line| line.starts_with(prefix))
        .collect();
    for (i, (w, g)) in want.iter().zip(got.lines()).enumerate() {
        assert_eq!(g, *w, "record {} of section `{prefix}` differs from the golden", i + 1);
    }
    assert_eq!(got.lines().count(), want.len(), "record count of section `{prefix}` differs");
}

#[test]
fn md_27_atoms_matches_the_golden_bits() {
    check_section("md atoms=27 ");
}

#[test]
fn md_64_atoms_matches_the_golden_bits() {
    check_section("md atoms=64 ");
}

#[test]
fn md_125_atoms_matches_the_golden_bits() {
    check_section("md atoms=125 ");
}

#[test]
fn md_512_atoms_matches_the_golden_bits() {
    check_section("md atoms=512 ");
}

#[test]
fn bare_integrator_matches_the_golden_bits() {
    check_section("verlet ");
}

#[test]
fn threaded_collective_variables_match_the_golden_bits() {
    check_section("cv ");
}

#[test]
fn every_fixture_line_belongs_to_a_section() {
    let text = include_str!("fixtures/md_golden.txt");
    assert!(text.lines().all(|l| SECTIONS.iter().any(|(p, _)| l.starts_with(p))));
    assert_eq!(text.lines().count(), 4 * 12 + 2 + 4 * 25, "records in the fixture");
}
