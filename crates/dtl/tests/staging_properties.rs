//! Property and stress tests of the staging area: the synchronous
//! protocol's ordering guarantees must survive arbitrary thread
//! interleavings and payload shapes.

use std::sync::Arc;
use std::time::Duration;

use dtl::protocol::ReaderId;
use dtl::staging::{dimes, SyncStaging};
use dtl::{Chunk, VariableSpec};
use testkit::check;

fn spec(name: &str, readers: u32) -> VariableSpec {
    VariableSpec { name: name.into(), expected_readers: readers, home_node: 0 }
}

#[test]
fn payloads_arrive_intact_in_order() {
    check(16, |g| {
        let expected: Vec<Arc<[u8]>> =
            g.vec(1..24, |g| g.vec(0..512, |g| g.range(0u8..=255)).into());
        let (readers, capacity) = (g.range(1u32..4), g.range(1u64..4));
        let staging = Arc::new(SyncStaging::with_capacity(capacity));
        let var = staging.register(spec("t", readers)).unwrap();

        let producer = {
            let staging = Arc::clone(&staging);
            let expected = expected.clone();
            std::thread::spawn(move || {
                for (step, payload) in expected.into_iter().enumerate() {
                    staging
                        .put_timeout(
                            Chunk::new(var, step as u64, 0, "raw", payload),
                            Duration::from_secs(30),
                        )
                        .unwrap();
                }
            })
        };
        let consumers: Vec<_> = (0..readers)
            .map(|r| {
                let staging = Arc::clone(&staging);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for (step, want) in expected.iter().enumerate() {
                        let got = staging
                            .get_timeout(var, step as u64, ReaderId(r), Duration::from_secs(30))
                            .unwrap();
                        assert_eq!(&got.data, want, "payload corrupted at step {step}");
                    }
                })
            })
            .collect();
        producer.join().unwrap();
        for c in consumers {
            c.join().unwrap();
        }
        let stats = staging.stats();
        assert_eq!(stats.puts, expected.len() as u64);
        assert_eq!(stats.gets, expected.len() as u64 * readers as u64);
        // Every byte staged was served to every reader.
        let bytes: u64 = expected.iter().map(|p| p.len() as u64).sum();
        assert_eq!(stats.bytes_staged, bytes);
        assert_eq!(stats.bytes_served, bytes * readers as u64);
    });
}

#[test]
fn memory_is_fully_reclaimed() {
    check(16, |g| {
        let (steps, payload_len) = (g.range(1u64..32), g.range(1usize..2048));
        let staging = dimes();
        let var = staging.register(spec("t", 1)).unwrap();
        for step in 0..steps {
            let payload: Arc<[u8]> = Arc::from(vec![7u8; payload_len]);
            staging.put(Chunk::new(var, step, 0, "raw", payload.clone())).unwrap();
            staging.get(var, step, ReaderId(0)).unwrap();
            assert_eq!(Arc::strong_count(&payload), 1, "step {step}'s chunk must be released");
        }
    });
}

#[test]
fn many_members_interleave_without_cross_talk() {
    // 8 members, each with its own variable and reader, all through one
    // staging area concurrently.
    let staging: Arc<SyncStaging> = Arc::new(dimes());
    let vars: Vec<_> =
        (0..8).map(|m| staging.register(spec(&format!("m{m}"), 1)).unwrap()).collect();
    let mut handles = Vec::new();
    for (m, &var) in vars.iter().enumerate() {
        let staging_w = Arc::clone(&staging);
        handles.push(std::thread::spawn(move || {
            for step in 0..40u64 {
                let payload = Arc::from(vec![m as u8; 32]);
                staging_w.put(Chunk::new(var, step, m, "raw", payload)).unwrap();
            }
        }));
        let staging_r = Arc::clone(&staging);
        handles.push(std::thread::spawn(move || {
            for step in 0..40u64 {
                let c = staging_r.get(var, step, ReaderId(0)).unwrap();
                assert!(c.data.iter().all(|&b| b == m as u8), "cross-talk at member {m}");
                assert_eq!(c.meta.home_node, m);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(staging.stats().puts, 8 * 40);
}

#[test]
fn pipelined_capacity_preserves_fifo_under_load() {
    let staging = Arc::new(SyncStaging::with_capacity(3));
    let var = staging.register(spec("t", 1)).unwrap();
    let producer = {
        let staging = Arc::clone(&staging);
        std::thread::spawn(move || {
            for step in 0..200u64 {
                staging
                    .put(Chunk::new(var, step, 0, "raw", Arc::from(step.to_le_bytes().to_vec())))
                    .unwrap();
            }
        })
    };
    for step in 0..200u64 {
        let c = staging.get(var, step, ReaderId(0)).unwrap();
        assert_eq!(u64::from_le_bytes(c.data[..].try_into().unwrap()), step);
    }
    producer.join().unwrap();
}
