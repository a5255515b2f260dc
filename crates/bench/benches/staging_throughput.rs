//! What a staged in situ step costs, kernel by kernel: the MD stride at
//! three system sizes with its allocation and pair counts, and the
//! threaded coupling around it (a whole `run_threaded` call, the frame
//! hand-off between two threads, and the spawn and join of a run).
//!
//! Plain `main` + `std::time::Instant`, like the other three benches.
//! Results land in `BENCH_staging.json` at the workspace root (override
//! with `ENSEMBLE_BENCH_OUT`); `ENSEMBLE_STAGING_BENCH_QUICK=1` shrinks
//! the repetitions for CI smoke runs. The committed file also carries
//! `parent_commit` / `parent_rows`: the bench as it stands at the parent
//! commit, run alternately with this one on the same host, several runs
//! a side (`runs_per_side`), each row the median of its side's runs. A
//! column the parent's bench did not print is absent from its rows.
//!
//! Rows:
//! 1. `md/stride_us/{27,125,512}` — `MdSimulation::advance_stride` at
//!    stride 1 (the `staging_threaded` shape at 27 atoms): one
//!    velocity-Verlet step, its force evaluation and the frame. Beside
//!    the time, `allocs_per_stride` (heap allocations counted by this
//!    binary's allocator, the frame's own `Vec` included),
//!    `pairs_per_stride` (the pairs the force loop visits: each atom
//!    against every other atom of its cell neighbourhood, counted here
//!    from the visiting rule over the public `CellList`) and
//!    `pair_evals_per_stride` (the pairs it computes, as the force loop
//!    counts them in `ForceResult::pairs`: each atom against the
//!    higher-indexed atoms of its neighbourhood, `N(N − 1)/2` at these
//!    sizes);
//! 2. `run_threaded/C_c_200_ms` — one `run_threaded` call of the e2e
//!    `staging_threaded` workload: `C_c`, 27 atoms, a frame staged every
//!    MD step, 200 steps, radius-of-gyration analysis; `puts` / `gets`
//!    per call. `run_threaded/C1_5_200_ms` (2 members) and
//!    `run_threaded/8_members_200_ms` (8 one-analysis members) are the
//!    same call with 4 and 16 busy threads: oversubscribed on a host of
//!    fewer cores, where a waiter that holds its core starves the
//!    thread it waits for;
//! 3. `staging/handoff_us` — per step, a writer thread putting one
//!    27-atom frame per step through a one-slot variable and the main
//!    thread getting it: the lock both ways, and a condvar wake when
//!    the waiting side had parked;
//! 4. `thread_exec/spawn_join_us` — a one-step `run_threaded` call,
//!    which is mostly starting and joining its threads.
//!
//! Before anything is timed, the MD golden (`kernels/tests/md_golden.rs`)
//! is recomputed and checked bit for bit, and every `md/stride_us` row
//! must allocate at most once per stride and compute half the pairs it
//! visits: every visited pair is reached from both of its atoms, so the
//! lower-indexed one can compute it for both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dtl::protocol::ReaderId;
use dtl::VariableSpec;
use ensemble_core::{ComponentSpec, ConfigId, EnsembleSpec, MemberSpec};
use kernels::md::{compute_forces_full, CellList, Frame, LjParams, MdConfig, MdSimulation};
use runtime::{KernelChoice, ThreadRunConfig};

#[path = "../../kernels/tests/md_golden.rs"]
mod md_golden;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Row {
    name: String,
    reps: usize,
    value: f64,
    /// Deterministic work counts printed beside the time.
    counts: Vec<(&'static str, f64)>,
}

/// Median over `reps` timings of `op`, divided by the `units` it
/// reports, in `scale` units per second (1e6: µs).
fn measure(name: &str, reps: usize, scale: f64, mut op: impl FnMut() -> u64) -> Row {
    let mut units = op(); // warm-up, untimed
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        units = black_box(op());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let value = times[times.len() / 2] * scale / units as f64;
    Row { name: name.to_string(), reps, value, counts: Vec::new() }
}

/// The MD system of the e2e `staging_threaded` workload, `side³` atoms.
fn staged_md(side: usize) -> MdConfig {
    MdConfig { atoms_per_side: side, stride: 1, ..MdConfig::default() }
}

/// The pairs one force evaluation of `sim`'s current positions visits
/// (every atom against every other atom of its neighbourhood, from the
/// visiting rule) and computes (as the force loop counts them).
fn pairs_per_evaluation(sim: &MdSimulation, cutoff: f64) -> (u64, u64) {
    let system = sim.system();
    let cells = CellList::build(system, cutoff);
    let mut visited = 0;
    for (i, p) in system.positions.iter().enumerate() {
        for &c in cells.neighbourhood(p, system.box_len) {
            visited += cells.cell(c).iter().filter(|&&j| j as usize != i).count() as u64;
        }
    }
    let computed = compute_forces_full(&mut system.clone(), &LjParams { cutoff }).pairs;
    (visited, computed)
}

/// `md/stride_us/{atoms}` with its counts; `batch` strides per timing.
fn md_row(side: usize, reps: usize, batch: u64) -> Row {
    let cfg = staged_md(side);
    let mut sim = MdSimulation::new(&cfg);
    let atoms = sim.num_atoms();
    let mut row = measure(&format!("md/stride_us/{atoms}"), reps, 1e6, || {
        for _ in 0..batch {
            black_box(sim.advance_stride());
        }
        batch
    });
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..batch {
        black_box(sim.advance_stride());
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / batch as f64;
    let (pairs, evals) = pairs_per_evaluation(&sim, cfg.cutoff);
    row.counts = vec![
        ("allocs_per_stride", allocs),
        ("pairs_per_stride", (pairs * cfg.stride) as f64),
        ("pair_evals_per_stride", (evals * cfg.stride) as f64),
    ];
    row
}

fn staged_run(spec: EnsembleSpec, steps: u64) -> ThreadRunConfig {
    ThreadRunConfig {
        spec,
        md: staged_md(3),
        n_steps: steps,
        staging_capacity: 1,
        kernel: Some(KernelChoice::RadiusOfGyration),
        ..ThreadRunConfig::default()
    }
}

/// A writer thread hands `steps` frames to this thread through a
/// one-slot variable.
fn handoff(frame: &Frame, steps: u64) -> u64 {
    let staging = Arc::new(dtl::staging::dimes());
    let spec = VariableSpec { name: "bench/trajectory".into(), expected_readers: 1, home_node: 0 };
    let var = staging.register(spec).expect("register");
    let payload = frame.to_bytes();
    std::thread::scope(|scope| {
        let writer = {
            let staging = Arc::clone(&staging);
            let payload = payload.clone();
            scope.spawn(move || {
                for step in 0..steps {
                    let chunk = dtl::Chunk::new(var, step, 0, "frame", payload.clone());
                    staging.put(chunk).expect("put");
                }
            })
        };
        for step in 0..steps {
            black_box(staging.get(var, step, ReaderId(0)).expect("get").len());
        }
        writer.join().expect("writer");
    });
    steps
}

fn main() {
    let quick = std::env::var("ENSEMBLE_STAGING_BENCH_QUICK").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("staging_throughput: host_cores={host_cores} quick={quick}");
    let reps = |full: usize| if quick { (full / 10).max(3) } else { full };

    // The kernel must produce the golden bits before its time means
    // anything.
    for (prefix, _) in md_golden::SECTIONS {
        md_golden::check_section(prefix);
    }

    let mut rows = vec![md_row(3, reps(30), 200), md_row(5, reps(30), 20), md_row(8, reps(20), 4)];
    for row in &rows {
        let [(_, allocs), (_, pairs), (_, evals)] = row.counts[..] else { unreachable!() };
        assert!(allocs <= 1.0, "{}: {allocs} allocations per stride", row.name);
        assert_eq!(
            evals * 2.0,
            pairs,
            "{}: not every visited pair is seen from both atoms",
            row.name
        );
    }

    let eight_members = EnsembleSpec::new(
        (0..8)
            .map(|node| {
                MemberSpec::new(
                    ComponentSpec::simulation(16, node),
                    vec![ComponentSpec::analysis(8, node)],
                )
            })
            .collect(),
    );
    for (name, spec, members) in [
        ("run_threaded/C_c_200_ms", ConfigId::Cc.build(), 1),
        ("run_threaded/C1_5_200_ms", ConfigId::C1_5.build(), 2),
        ("run_threaded/8_members_200_ms", eight_members, 8),
    ] {
        let cfg = staged_run(spec, 200);
        let exec = runtime::run_threaded(&cfg).expect("threaded run");
        let (puts, gets) = (exec.staging_stats.puts, exec.staging_stats.gets);
        assert_eq!((puts, gets), (200 * members, 200 * members), "{name}: every step once");
        let mut run = measure(name, reps(30), 1e3, || {
            black_box(runtime::run_threaded(&cfg).expect("threaded run").trace.len());
            1
        });
        run.counts = vec![("puts", puts as f64), ("gets", gets as f64)];
        rows.push(run);
    }

    let frame = MdSimulation::new(&staged_md(3)).advance_stride();
    rows.push(measure("staging/handoff_us", reps(30), 1e6, || handoff(&frame, 200)));

    let one_step = staged_run(ConfigId::Cc.build(), 1);
    rows.push(measure("thread_exec/spawn_join_us", reps(50), 1e6, || {
        black_box(runtime::run_threaded(&one_step).expect("threaded run").trace.len());
        1
    }));

    let rendered: Vec<String> = rows
        .iter()
        .map(|row| {
            eprintln!("  {:<28} {:>10.2}  ({} reps)", row.name, row.value, row.reps);
            let counts: String =
                row.counts.iter().map(|(name, value)| format!(", \"{name}\": {value}")).collect();
            format!(
                "    {{\"name\": \"{}\", \"reps\": {}, \"value\": {:.3}{counts}}}",
                row.name, row.reps, row.value
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"staging_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"commit\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        bench::git_commit(),
        rendered.join(",\n")
    );
    let out = std::env::var("ENSEMBLE_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_staging.json").to_string()
    });
    std::fs::write(&out, json).expect("write BENCH_staging.json");
    eprintln!("wrote {out}");
}
