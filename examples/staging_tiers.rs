//! Compare the DTL's staging tiers with a real producer/consumer pair:
//! DIMES-like in-memory staging, a buffered (burst-buffer-like) queue,
//! and the parallel file system — the storage hierarchy of the paper's
//! Figure 2.
//!
//! ```text
//! cargo run --release --example staging_tiers
//! ```

use insitu_ensembles::dtl::protocol::ReaderId;
use insitu_ensembles::dtl::staging::SyncStaging;
use insitu_ensembles::dtl::{staging, Chunk, VariableSpec};
use std::sync::Arc;
use std::time::Instant;

const STEPS: u64 = 64;
const CHUNK_BYTES: usize = 1 << 20; // 1 MiB frames

fn drive<B: insitu_ensembles::dtl::staging::ChunkStore + 'static>(
    staging: Arc<SyncStaging<B>>,
) -> (f64, u64) {
    let var = staging
        .register(VariableSpec { name: "trajectory".into(), expected_readers: 1, home_node: 0 })
        .expect("register");
    let started = Instant::now();
    let producer = {
        let staging = Arc::clone(&staging);
        std::thread::spawn(move || {
            let payload: Arc<[u8]> = vec![7u8; CHUNK_BYTES].into();
            for step in 0..STEPS {
                staging.put(Chunk::new(var, step, 0, "raw", payload.clone())).expect("put");
            }
        })
    };
    let mut bytes = 0u64;
    for step in 0..STEPS {
        bytes += staging.get(var, step, ReaderId(0)).expect("get").len() as u64;
    }
    producer.join().expect("producer");
    (started.elapsed().as_secs_f64(), bytes)
}

fn main() {
    println!("staging tiers under the synchronous in situ protocol");
    println!("=====================================================\n");
    println!("{STEPS} steps of {} KiB chunks, one producer, one consumer\n", CHUNK_BYTES / 1024);

    let (t_mem, b) = drive(Arc::new(staging::dimes()));
    println!(
        "in-memory (DIMES-like, capacity 1): {:>8.2} ms  ({:.1} MiB/s)",
        t_mem * 1e3,
        b as f64 / t_mem / (1024.0 * 1024.0)
    );

    let (t_buf, b) = drive(Arc::new(staging::burst_buffer(4)));
    println!(
        "in-memory buffered (capacity 4):    {:>8.2} ms  ({:.1} MiB/s)",
        t_buf * 1e3,
        b as f64 / t_buf / (1024.0 * 1024.0)
    );

    let dir = std::env::temp_dir().join(format!("staging-tiers-{}", std::process::id()));
    let (t_pfs, b) = drive(Arc::new(staging::pfs(&dir).expect("pfs staging")));
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "parallel file system (real files):  {:>8.2} ms  ({:.1} MiB/s)",
        t_pfs * 1e3,
        b as f64 / t_pfs / (1024.0 * 1024.0)
    );

    println!(
        "\nmemory staging is {:.1}x faster than the file system here — the gap in situ \
         processing exploits.",
        t_pfs / t_mem
    );
}
