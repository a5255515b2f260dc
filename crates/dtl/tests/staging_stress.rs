//! Multi-threaded stress tests for the sharded staging area: many
//! writers and readers over many variables, all at once. An ensemble of
//! N members is N independent `W₀ R₀ W₁ R₁ …` couplings; per-variable
//! locking must keep them independent in practice — correct ordering,
//! consistent stats, no deadlock, and no payload kept once consumed.

use std::sync::Arc;
use std::time::Duration;

use dtl::staging::{self, SyncStaging};
use dtl::{Chunk, DtlError, ReaderId, VariableId, VariableSpec};

const VARIABLES: usize = 12;
const STEPS: u64 = 64;
const READERS: u32 = 3;
const TIMEOUT: Duration = Duration::from_secs(30);

fn payload(var: VariableId, step: u64) -> Arc<[u8]> {
    // Distinct, checkable content per (variable, step).
    let tag = (var.0 as u64) << 32 | step;
    Arc::from(tag.to_le_bytes().to_vec())
}

/// Streams `STEPS` chunks through each of `vars` to `READERS` readers,
/// then checks that the area holds none of the payloads it staged.
fn run_ensemble(staging: &Arc<SyncStaging>, vars: &[VariableId]) {
    let staged: Vec<_> =
        vars.iter().flat_map(|&v| (0..STEPS).map(move |s| payload(v, s))).collect();
    std::thread::scope(|scope| {
        for (&var, payloads) in vars.iter().zip(staged.chunks(STEPS as usize)) {
            let s = Arc::clone(staging);
            scope.spawn(move || {
                for (step, data) in (0..STEPS).zip(payloads) {
                    let c = Chunk::new(var, step, 0, "raw", data.clone());
                    s.put_timeout(c, TIMEOUT).unwrap();
                }
            });
            for reader in 0..READERS {
                let s = Arc::clone(staging);
                scope.spawn(move || {
                    for step in 0..STEPS {
                        let c = s.get_timeout(var, step, ReaderId(reader), TIMEOUT).unwrap();
                        assert_eq!(c.id.variable, var);
                        assert_eq!(c.id.step, step, "reads must arrive in protocol order");
                        assert_eq!(c.data, payload(var, step), "no cross-variable bleed");
                    }
                });
            }
        }
    });
    for payload in &staged {
        assert_eq!(Arc::strong_count(payload), 1, "the area still holds a consumed payload");
    }
}

#[test]
fn many_writers_and_readers_no_deadlock_and_stats_balance() {
    let staging = Arc::new(staging::dimes());
    let vars: Vec<VariableId> = (0..VARIABLES)
        .map(|i| {
            staging
                .register(VariableSpec {
                    name: format!("var{i}"),
                    expected_readers: READERS,
                    home_node: 0,
                })
                .unwrap()
        })
        .collect();

    run_ensemble(&staging, &vars);

    let stats = staging.stats();
    let puts = (VARIABLES as u64) * STEPS;
    assert_eq!(stats.puts, puts);
    assert_eq!(stats.gets, puts * READERS as u64, "gets == puts × readers_per_chunk");
    assert_eq!(stats.bytes_served, stats.bytes_staged * READERS as u64);
}

#[test]
fn pipelined_capacity_stress_keeps_per_variable_fifo() {
    let staging = Arc::new(SyncStaging::with_capacity(4));
    let vars: Vec<VariableId> = (0..VARIABLES)
        .map(|i| {
            staging
                .register(VariableSpec {
                    name: format!("var{i}"),
                    expected_readers: READERS,
                    home_node: 0,
                })
                .unwrap()
        })
        .collect();

    run_ensemble(&staging, &vars);

    let stats = staging.stats();
    assert_eq!(stats.puts, (VARIABLES as u64) * STEPS);
    assert_eq!(stats.gets, stats.puts * READERS as u64);
}

#[test]
fn stalled_variable_does_not_stall_its_neighbors() {
    // One member's consumer never shows up; its writer times out. Every
    // other member keeps streaming at full rate meanwhile — per-variable
    // locking means a stuck coupling is contained.
    let staging = Arc::new(staging::dimes());
    let stuck = staging
        .register(VariableSpec { name: "stuck".into(), expected_readers: 1, home_node: 0 })
        .unwrap();
    let vars: Vec<VariableId> = (0..8)
        .map(|i| {
            staging
                .register(VariableSpec {
                    name: format!("live{i}"),
                    expected_readers: 1,
                    home_node: 0,
                })
                .unwrap()
        })
        .collect();

    std::thread::scope(|scope| {
        // The stuck writer: first put lands, second must time out because
        // nobody consumes step 0.
        let s = Arc::clone(&staging);
        scope.spawn(move || {
            s.put_timeout(Chunk::new(stuck, 0, 0, "raw", payload(stuck, 0)), TIMEOUT).unwrap();
            let err = s
                .put_timeout(
                    Chunk::new(stuck, 1, 0, "raw", payload(stuck, 1)),
                    Duration::from_millis(300),
                )
                .unwrap_err();
            assert!(matches!(err, DtlError::Timeout { operation: "put", .. }), "{err}");
        });
        // Healthy couplings stream while the stuck writer waits.
        for &var in &vars {
            let s = Arc::clone(&staging);
            scope.spawn(move || {
                for step in 0..STEPS {
                    s.put_timeout(Chunk::new(var, step, 0, "raw", payload(var, step)), TIMEOUT)
                        .unwrap();
                }
            });
            let s = Arc::clone(&staging);
            scope.spawn(move || {
                for step in 0..STEPS {
                    let c = s.get_timeout(var, step, ReaderId(0), TIMEOUT).unwrap();
                    assert_eq!(c.id.step, step);
                }
            });
        }
    });

    let stats = staging.stats();
    assert_eq!(stats.puts, 8 * STEPS + 1, "healthy members all completed");
    assert_eq!(stats.gets, 8 * STEPS);
}

#[test]
fn timeout_reader_can_resume_when_data_arrives_late() {
    let staging = Arc::new(staging::dimes());
    let var = staging
        .register(VariableSpec { name: "late".into(), expected_readers: 1, home_node: 0 })
        .unwrap();

    // The reader times out first (writer not there yet) …
    let err = staging.get_timeout(var, 0, ReaderId(0), Duration::from_millis(30)).unwrap_err();
    assert!(matches!(err, DtlError::Timeout { operation: "get", .. }));

    // … and succeeds on retry once the writer catches up; a timeout
    // consumes nothing.
    staging.put_timeout(Chunk::new(var, 0, 0, "raw", payload(var, 0)), TIMEOUT).unwrap();
    let c = staging.get_timeout(var, 0, ReaderId(0), TIMEOUT).unwrap();
    assert_eq!(c.data, payload(var, 0));
    assert_eq!(staging.stats().gets, 1);
}
