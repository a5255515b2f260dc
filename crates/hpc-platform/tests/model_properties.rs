//! Property-based tests of the platform models: monotonicity and
//! conservation laws the interference machinery must obey for the
//! paper's comparisons to be meaningful.

use hpc_platform::cache::CacheContender;
use hpc_platform::{
    BindPolicy, CacheModel, InterferenceModel, MemoryModel, NetworkSpec, PlacedWorkload, Platform,
    Workload,
};
use testkit::{check, Gen};

fn workload(g: &mut Gen) -> Workload {
    Workload {
        instructions_per_step: g.range(1e8f64..1e12),
        base_cpi: g.range(0.3f64..2.0),
        llc_refs_per_instr: g.range(0.0f64..0.2),
        base_miss_ratio: g.range(0.0f64..0.3),
        working_set_bytes: g.range(1e6f64..5e8),
        parallel_fraction: g.range(0.5f64..1.0),
        streaming_bytes_per_instr: g.range(0.0f64..4.0),
        mlp_overlap: g.range(0.0f64..0.95),
    }
}

const CASES: u32 = 64;

#[test]
fn cache_partition_conserves_capacity() {
    check(CASES, |g| {
        let llc = g.range(1e6f64..1e8);
        let model = CacheModel::default();
        let contenders: Vec<CacheContender> = g.vec(1..6, |g| CacheContender {
            refs_per_sec: g.range(1e6f64..1e10),
            working_set_bytes: g.range(1e6f64..1e9),
            base_miss_ratio: 0.05,
        });
        let shares = model.partition(llc, &contenders);
        let total: f64 = shares.iter().sum();
        // Shares never exceed capacity (surplus may stay unassigned when
        // everyone's working set is already satisfied).
        assert!(total <= llc * (1.0 + 1e-9), "total {total} > llc {llc}");
        assert!(shares.iter().all(|s| *s >= 0.0));
        // Nobody gets more than their working set plus rounding.
        for (share, c) in shares.iter().zip(&contenders) {
            assert!(*share <= c.working_set_bytes.max(llc) + 1e-6);
        }
    });
}

#[test]
fn miss_ratio_is_monotone_in_share() {
    check(CASES, |g| {
        let (ws, base) = (g.range(1e6f64..1e9), g.range(0.0f64..0.5));
        let (a, b) = (g.range(0.0f64..1.0), g.range(0.0f64..1.0));
        let model = CacheModel::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let m_lo = model.miss_ratio(lo * ws, ws, base);
        let m_hi = model.miss_ratio(hi * ws, ws, base);
        assert!(m_lo >= m_hi - 1e-12, "more cache cannot miss more");
        assert!((0.0..=1.0).contains(&m_lo) && (0.0..=1.0).contains(&m_hi));
    });
}

#[test]
fn bandwidth_pressure_is_monotone() {
    check(CASES, |g| {
        let bw = g.range(1e9f64..1e11);
        let (d1, d2) = (g.range(0.0f64..2e11), g.range(0.0f64..2e11));
        let model = MemoryModel::default();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(model.pressure_multiplier(lo, bw) <= model.pressure_multiplier(hi, bw) + 1e-12);
        assert!(model.pressure_multiplier(lo, bw) >= 1.0);
    });
}

#[test]
fn adding_a_neighbour_never_speeds_you_up() {
    check(CASES, |g| {
        let (w1, w2) = (workload(g), workload(g));
        let spec = hpc_platform::cori::cori_node();
        let net = hpc_platform::cori::aries_network();
        let model = InterferenceModel::default();

        let mut alone = Platform::new(1, spec.clone(), net.clone());
        let a = PlacedWorkload {
            alloc: alone.allocate(0, 16, BindPolicy::Spread).unwrap(),
            workload: w1.clone(),
        };
        let est_alone = model.solve_node(&spec, std::slice::from_ref(&a), &[])[0].clone();

        let mut shared = Platform::new(1, spec.clone(), net);
        let b = PlacedWorkload {
            alloc: shared.allocate(0, 16, BindPolicy::Spread).unwrap(),
            workload: w1,
        };
        let c = PlacedWorkload {
            alloc: shared.allocate(0, 16, BindPolicy::Spread).unwrap(),
            workload: w2,
        };
        let est_shared = model.solve_node(&spec, &[b, c], &[])[0].clone();
        assert!(
            est_shared.seconds_per_step >= est_alone.seconds_per_step * (1.0 - 1e-6),
            "neighbour sped us up: {} vs {}",
            est_shared.seconds_per_step,
            est_alone.seconds_per_step
        );
        assert!(est_shared.llc_miss_ratio >= est_alone.llc_miss_ratio - 1e-9);
    });
}

#[test]
fn estimates_are_always_finite_and_sane() {
    check(CASES, |g| {
        let (w, cores) = (workload(g), g.range(1u32..33));
        let spec = hpc_platform::cori::cori_node();
        let model = InterferenceModel::default();
        let mut p = Platform::new(1, spec.clone(), hpc_platform::cori::aries_network());
        let placed = PlacedWorkload {
            alloc: p.allocate(0, cores, BindPolicy::Spread).unwrap(),
            workload: w,
        };
        for est in model.solve_node(&spec, &[placed], &[]) {
            assert!(est.seconds_per_step.is_finite() && est.seconds_per_step > 0.0);
            assert!((0.0..=1.0).contains(&est.llc_miss_ratio));
            assert!(est.cpi > 0.0 && est.ipc > 0.0);
            assert!(est.llc_misses_per_step <= est.llc_refs_per_step + 1e-6);
            assert!(est.peak_bw_pressure >= 1.0);
        }
    });
}

#[test]
fn network_latency_respects_identity_and_symmetry() {
    check(CASES, |g| {
        let (a, b) = (g.range(0usize..1000), g.range(0usize..1000));
        let net = NetworkSpec::default();
        assert_eq!(net.transfer_time(a, a, 12345), 0.0);
        let ab = net.transfer_time(a, b, 1 << 20);
        let ba = net.transfer_time(b, a, 1 << 20);
        assert!((ab - ba).abs() < 1e-15, "dragonfly routes are symmetric here");
        if a != b {
            assert!(ab > 0.0);
        }
    });
}

#[test]
fn allocation_release_restores_platform() {
    check(CASES, |g| {
        let requests = g.vec(1..5, |g| g.range(1u32..17));
        let spec = hpc_platform::cori::cori_node();
        let mut p = Platform::new(2, spec, hpc_platform::cori::aries_network());
        let before: Vec<u32> = (0..2).map(|n| p.free_cores(n).unwrap()).collect();
        let mut allocs = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            if let Ok(a) = p.allocate(i % 2, *r, BindPolicy::Spread) {
                allocs.push(a);
            }
        }
        for a in &allocs {
            p.release(a);
        }
        let after: Vec<u32> = (0..2).map(|n| p.free_cores(n).unwrap()).collect();
        assert_eq!(before, after);
    });
}
