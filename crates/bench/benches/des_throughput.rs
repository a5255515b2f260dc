//! What a simulated `run` costs, layer by layer: the DES engine per
//! event, `sim_exec` per run through each of its two sinks, and the
//! report builder.
//!
//! Plain `main` + `std::time::Instant`, like `scan_throughput` and
//! `svc_throughput`. Results land in `BENCH_des.json` at the workspace
//! root (override with `ENSEMBLE_BENCH_OUT`); `ENSEMBLE_DES_BENCH_QUICK=1`
//! shrinks the repetitions for CI smoke runs. The committed file also
//! carries `parent_commit` / `parent_rows`: this bench run at the parent
//! commit in the same session, merged in by hand (the parent has no
//! summary sink, so its copy of this file drops the `*/summary_us` rows).
//!
//! Rows:
//! 1. `engine/sleep_ns_per_event` — ten sleeping processes sharing the
//!    clock, 100 000 wake-ups (the shape of the e2e `sim-des.engine`
//!    probe): the queue alone;
//! 2. `engine/signal_ns_per_event` — two members, each a producer and
//!    two consumers rendezvousing through one signal per step, which is
//!    what `sim_exec` runs: waiter lists and emits on top of the queue;
//! 3. `run/full_trace_us`, `run/summary_us`, `report/build_us` — the 13
//!    two-member configurations × {paper, small} at 225 steps (the mean
//!    `run` of the e2e `run_des` workload): mean per run of
//!    `run_simulated`, of `run_summarized`, and of `build_report` on the
//!    full trace; `events_per_run` is the mean number of DES events;
//! 4. `op/full_trace_us`, `op/summary_us` — the same runs, each followed
//!    by its report (`run_simulated` + `build_report` against
//!    `run_summarized` + `build_summary_report`): what a reducing caller
//!    pays per `run`, and so what keeping the second sink buys.
//!
//! Before anything is timed, the summary sink's report is checked to be
//! `Debug`-identical to the full trace's for every pair.

use std::hint::black_box;
use std::time::Instant;

use ensemble_core::{ConfigId, WarmupPolicy};
use runtime::{SimRunConfig, WorkloadMap};
use sim_des::{Context, Engine, Poll, Process, Signal, SimDuration};

/// A process that sleeps a fixed interval `n` times.
struct Ticker {
    remaining: u64,
}

impl Process<u64> for Ticker {
    fn poll(&mut self, state: &mut u64, _ctx: &mut Context) -> Poll {
        *state += 1;
        if self.remaining == 0 {
            return Poll::Done;
        }
        self.remaining -= 1;
        Poll::Sleep(SimDuration::from_micros(10))
    }
}

fn sleep_events(events: u64) -> u64 {
    let mut engine = Engine::new(0u64);
    for _ in 0..10 {
        engine.spawn(Box::new(Ticker { remaining: events / 10 }));
    }
    engine.run();
    engine.events_fired()
}

const CONSUMERS: usize = 2;

/// One member's rendezvous: the step the producer has written and the
/// step each consumer has read (a one-slot synchronous coupling).
#[derive(Default)]
struct Slot {
    written: u64,
    read: [u64; CONSUMERS],
}

struct Producer {
    member: usize,
    steps: u64,
    computing: bool,
}

impl Process<Vec<Slot>> for Producer {
    fn poll(&mut self, slots: &mut Vec<Slot>, ctx: &mut Context) -> Poll {
        let slot = &mut slots[self.member];
        if self.computing {
            // The step is computed; it is written once every consumer has
            // read the one before.
            if slot.read.iter().any(|&r| r < slot.written) {
                return Poll::WaitSignal(Signal(self.member as u64));
            }
            slot.written += 1;
            self.computing = false;
            ctx.emit(Signal(self.member as u64));
        }
        if slot.written == self.steps {
            return Poll::Done;
        }
        self.computing = true;
        Poll::Sleep(SimDuration::from_micros(10))
    }
}

struct Consumer {
    member: usize,
    reader: usize,
    steps: u64,
    reading: bool,
}

impl Process<Vec<Slot>> for Consumer {
    fn poll(&mut self, slots: &mut Vec<Slot>, ctx: &mut Context) -> Poll {
        let slot = &mut slots[self.member];
        if self.reading {
            slot.read[self.reader] += 1;
            self.reading = false;
            ctx.emit(Signal(self.member as u64));
        }
        if slot.read[self.reader] == self.steps {
            return Poll::Done;
        }
        if slot.written == slot.read[self.reader] {
            return Poll::WaitSignal(Signal(self.member as u64));
        }
        self.reading = true;
        Poll::Sleep(SimDuration::from_micros(3))
    }
}

fn signal_events(steps: u64) -> u64 {
    let members = 2;
    let mut engine = Engine::new((0..members).map(|_| Slot::default()).collect::<Vec<_>>());
    for member in 0..members {
        engine.spawn(Box::new(Producer { member, steps, computing: false }));
        for reader in 0..CONSUMERS {
            engine.spawn(Box::new(Consumer { member, reader, steps, reading: false }));
        }
    }
    engine.run();
    assert!(engine.all_finished(), "the rendezvous deadlocked");
    engine.events_fired()
}

/// The 26 configuration/workload pairs of the e2e `run_des` workload at
/// its mean step count, jitter on for every other pair.
fn run_configs() -> Vec<SimRunConfig> {
    let configs = ConfigId::set_one_pairs().into_iter().chain(ConfigId::set_two());
    configs
        .flat_map(|id| [true, false].map(|small| (id, small)))
        .enumerate()
        .map(|(i, (id, small))| {
            let mut cfg = SimRunConfig::paper(id.build());
            if small {
                cfg.workloads = WorkloadMap::small_defaults();
            }
            cfg.n_steps = 225;
            cfg.jitter = if i % 2 == 0 { 0.0 } else { 0.05 };
            cfg.seed = 7 + i as u64;
            cfg
        })
        .collect()
}

struct Row {
    name: &'static str,
    reps: usize,
    value: f64,
}

/// Median over `reps` timings of `op`, divided by the `units` it
/// reports (events, runs), in `scale` units per second (1e9: ns).
fn measure(name: &'static str, reps: usize, scale: f64, mut op: impl FnMut() -> u64) -> Row {
    let mut units = op(); // warm-up, untimed
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        units = black_box(op());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let row = Row { name, reps, value: times[times.len() / 2] * scale / units as f64 };
    eprintln!("  {:<28} {:>10.2}  ({} reps)", row.name, row.value, row.reps);
    row
}

fn main() {
    let quick = std::env::var("ENSEMBLE_DES_BENCH_QUICK").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("des_throughput: host_cores={host_cores} quick={quick}");
    let reps = |full: usize| if quick { (full / 10).max(3) } else { full };
    let warmup = WarmupPolicy::default();
    let configs = run_configs();
    let runs = configs.len() as u64;

    // Both sinks must agree before either is worth timing.
    let mut events = 0u64;
    for cfg in &configs {
        let exec = runtime::run_simulated(cfg).expect("simulated run");
        let full = runtime::build_report("bench", &cfg.spec, &exec, cfg.n_steps, warmup);
        let summarized = runtime::run_summarized(cfg, &mut |_, _| {}).expect("summarized run");
        events += summarized.events;
        let summary =
            runtime::build_summary_report("bench", &cfg.spec, &summarized, cfg.n_steps, warmup);
        assert_eq!(
            format!("{:?}", summary.expect("summary report")),
            format!("{:?}", full.expect("full report")),
            "summary sink and full trace disagree"
        );
    }

    let mut rows = vec![
        measure("engine/sleep_ns_per_event", reps(30), 1e9, || sleep_events(100_000)),
        measure("engine/signal_ns_per_event", reps(30), 1e9, || signal_events(5_000)),
        measure("run/full_trace_us", reps(40), 1e6, || {
            for cfg in &configs {
                black_box(runtime::run_simulated(black_box(cfg)).expect("run").trace.len());
            }
            runs
        }),
        measure("run/summary_us", reps(40), 1e6, || {
            for cfg in &configs {
                let exec = runtime::run_summarized(black_box(cfg), &mut |_, _| {}).expect("run");
                black_box(exec.stages.members.len());
            }
            runs
        }),
    ];
    let execs: Vec<_> =
        configs.iter().map(|cfg| runtime::run_simulated(cfg).expect("simulated run")).collect();
    rows.push(measure("report/build_us", reps(40), 1e6, || {
        for (cfg, exec) in configs.iter().zip(&execs) {
            let report = runtime::build_report("bench", &cfg.spec, black_box(exec), 225, warmup);
            black_box(report.expect("report").ensemble_makespan);
        }
        runs
    }));
    // What the second sink is for: a whole `run` as its four reducing
    // callers execute it, against the same through the full trace.
    rows.push(measure("op/full_trace_us", reps(40), 1e6, || {
        for cfg in &configs {
            let exec = runtime::run_simulated(black_box(cfg)).expect("run");
            let report = runtime::build_report("bench", &cfg.spec, &exec, 225, warmup);
            black_box(report.expect("report").ensemble_makespan);
        }
        runs
    }));
    rows.push(measure("op/summary_us", reps(40), 1e6, || {
        for cfg in &configs {
            let exec = runtime::run_summarized(black_box(cfg), &mut |_, _| {}).expect("run");
            let report = runtime::build_summary_report("bench", &cfg.spec, &exec, 225, warmup);
            black_box(report.expect("report").ensemble_makespan);
        }
        runs
    }));
    rows.push(Row { name: "events_per_run", reps: 1, value: events as f64 / runs as f64 });

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"reps\": {}, \"value\": {:.3}}}",
                r.name, r.reps, r.value
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"des_throughput\",\n  \"host_cores\": {host_cores},\n  \"quick\": {quick},\n  \"commit\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        bench::git_commit(),
        rendered.join(",\n"),
    );
    let out = std::env::var("ENSEMBLE_BENCH_OUT").unwrap_or_else(|_| {
        // cargo bench runs with the package as cwd; anchor the default
        // at the workspace root instead.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json").into()
    });
    std::fs::write(&out, &json).expect("write bench output");
    eprintln!("wrote {out}");
}
