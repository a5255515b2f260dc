//! Property-based tests (testkit) of the model's invariants.

use insitu_ensembles::model::{
    aggregate, coupling_efficiency, efficiency, efficiency_from_idle, idle_times, makespan,
    objective, placement_indicator, sigma_star, Aggregation, AnalysisStageTimes, ComponentSpec,
    IndicatorPath, MemberInputs, MemberSpec, MemberStageTimes,
};
use insitu_ensembles::model::{extract_steady_state, MemberStepSamples, WarmupPolicy};
use insitu_ensembles::prelude::Frame;
use testkit::{check, Gen};

const CASES: u32 = 256;

fn stage_time(g: &mut Gen) -> f64 {
    // Realistic stage durations: microseconds to hours.
    g.range(1e-6f64..1e4f64)
}

fn member_times(g: &mut Gen, max_k: usize) -> MemberStageTimes {
    let (s, w) = (stage_time(g), stage_time(g));
    let analyses = g.vec(1..=max_k, |g| AnalysisStageTimes { r: stage_time(g), a: stage_time(g) });
    MemberStageTimes::new(s, w, analyses).expect("positive times validate")
}

#[test]
fn sigma_star_is_max_of_busy_spans() {
    check(CASES, |g| {
        let t = member_times(g, 5);
        let sigma = sigma_star(&t);
        assert!(sigma >= t.sim_busy() - 1e-12);
        for a in &t.analyses {
            assert!(sigma >= a.busy() - 1e-12);
        }
        // And it equals one of them.
        let candidates: Vec<f64> =
            std::iter::once(t.sim_busy()).chain(t.analyses.iter().map(|a| a.busy())).collect();
        assert!(candidates.iter().any(|c| (c - sigma).abs() < 1e-12));
    });
}

/// Eq. 3 averages per-coupling efficiencies 1 − (Iˢ + Iᴬⁱ)/σ̄, each in
/// (−1, 1]: with K ≥ 2 a fast coupling in a member dominated by another
/// analysis can go negative (both idle spans approach σ̄), so the
/// member-level bound is (−1, 1].
fn assert_efficiency_is_bounded(t: &MemberStageTimes) {
    let e = efficiency(t);
    assert!(e > -1.0 && e <= 1.0 + 1e-12, "E = {e} for {t:?}");
}

#[test]
fn efficiency_is_bounded() {
    check(CASES, |g| assert_efficiency_is_bounded(&member_times(g, 5)));
}

/// The case that once broke the bound above when it read `E > 0`: a
/// microsecond member whose second analysis runs for half an hour.
#[test]
fn efficiency_is_bounded_when_one_analysis_dwarfs_the_member() {
    let analyses = vec![
        AnalysisStageTimes { r: 1e-6, a: 1e-6 },
        AnalysisStageTimes { r: 1e-6, a: 1552.3205831453338 },
    ];
    let t = MemberStageTimes::new(1e-6, 1e-6, analyses).expect("positive times validate");
    assert_efficiency_is_bounded(&t);
    assert!(efficiency(&t) < 0.0, "the fast coupling idles on both sides");
}

#[test]
fn single_coupling_efficiency_is_positive() {
    check(CASES, |g| {
        // With K = 1 the bottleneck side has zero idle, so
        // Iˢ + Iᴬ ≤ σ̄ and E ∈ (0, 1].
        let e = efficiency(&member_times(g, 1));
        assert!(e > 0.0 && e <= 1.0 + 1e-12, "E = {e}");
    });
}

#[test]
fn efficiency_closed_form_equals_idle_form() {
    check(CASES, |g| {
        let t = member_times(g, 5);
        let a = efficiency(&t);
        let b = efficiency_from_idle(&t);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    });
}

#[test]
fn efficiency_is_mean_of_coupling_efficiencies() {
    check(CASES, |g| {
        let t = member_times(g, 4);
        let per: f64 = (0..t.k()).map(|j| coupling_efficiency(&t, j)).sum::<f64>() / t.k() as f64;
        assert!((efficiency(&t) - per).abs() < 1e-9);
    });
}

#[test]
fn idle_times_are_nonnegative_and_one_is_zero() {
    check(CASES, |g| {
        let idle = idle_times(&member_times(g, 5));
        assert!(idle.sim_idle >= -1e-12);
        for v in &idle.analysis_idle {
            assert!(*v >= -1e-12);
        }
        // The slowest participant has zero idle.
        let min_idle = idle.analysis_idle.iter().copied().fold(idle.sim_idle, f64::min);
        assert!(min_idle.abs() < 1e-9);
    });
}

#[test]
fn makespan_is_linear_in_steps() {
    check(CASES, |g| {
        let (t, n) = (member_times(g, 3), g.range(1u64..1000));
        let m1 = makespan(&t, n);
        let m2 = makespan(&t, 2 * n);
        assert!((m2 - 2.0 * m1).abs() < 1e-6 * m1.max(1.0));
    });
}

#[test]
fn objective_never_exceeds_mean_and_equals_it_iff_uniform() {
    check(CASES, |g| {
        let mut values = g.vec(1..10, |g| g.range(1e-9f64..1.0));
        let f = objective(&values);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(f <= mean + 1e-12);
        let uniform = values.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15);
        if uniform {
            assert!((f - mean).abs() < 1e-12);
        }
        assert!(aggregate(&mut values, Aggregation::Min) <= mean + 1e-12);
    });
}

/// Every permutation of `values`, in place.
fn permutations(values: &mut Vec<f64>, k: usize, each: &mut impl FnMut(&[f64])) {
    if k == values.len() {
        each(values);
        return;
    }
    for i in k..values.len() {
        values.swap(k, i);
        permutations(values, k + 1, each);
        values.swap(k, i);
    }
}

#[test]
fn aggregation_is_blind_to_member_order() {
    let specials =
        [0.0, -0.0, 5e-324, -2.5e-310, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
    check(64, |g| {
        let scale = g.select(&[1e-6, 1e-3, 1.0, 1e3]);
        let spread = g.select(&[0.0, 1e-12, 1e-6, 0.5]);
        let centre = g.range(0.1f64..1.0);
        let mut values: Vec<f64> = Vec::new();
        for _ in 0..g.range(1usize..=7) {
            let value = match g.range(0u8..8) {
                0 => g.select(&specials),
                1 if !values.is_empty() => g.select(&values),
                _ => scale * (centre + spread * g.range(-1.0f64..1.0)),
            };
            values.push(value);
        }
        for how in [Aggregation::MeanMinusStd, Aggregation::Mean, Aggregation::Min] {
            let first = aggregate(&mut values.clone(), how).to_bits();
            permutations(&mut values, 0, &mut |v| {
                let folded = aggregate(&mut v.to_vec(), how).to_bits();
                assert_eq!(folded, first, "{how:?} over {v:?}");
            });
            if how == Aggregation::MeanMinusStd {
                assert_eq!(objective(&values).to_bits(), first, "{values:?}");
            }
        }
    });
}

#[test]
fn placement_indicator_bounds_and_colocation() {
    check(CASES, |g| {
        let sim_node = g.range(0usize..4);
        let ana_nodes = g.vec(1..4, |g| g.range(0usize..4));
        let member = MemberSpec::new(
            ComponentSpec::simulation(16, sim_node),
            ana_nodes.iter().map(|&n| ComponentSpec::analysis(8, n)).collect(),
        );
        let cp = placement_indicator(&member);
        assert!(cp > 0.0 && cp <= 1.0 + 1e-12, "CP = {cp}");
        let all_colocated = ana_nodes.iter().all(|&n| n == sim_node);
        if all_colocated {
            assert!((cp - 1.0).abs() < 1e-12);
        } else {
            assert!(cp < 1.0);
        }
    });
}

#[test]
fn indicator_paths_commute() {
    check(CASES, |g| {
        let inputs = MemberInputs {
            efficiency: g.range(1e-6f64..1.0),
            cores: g.range(1u32..128),
            cp: g.range(0.01f64..1.0),
            ensemble_nodes: g.range(1usize..16),
        };
        let uap = insitu_ensembles::model::indicator(&inputs, &IndicatorPath::uap());
        let upa = insitu_ensembles::model::indicator(&inputs, &IndicatorPath::upa());
        assert!((uap - upa).abs() <= 1e-15 * uap.abs().max(1.0));
        // Each stage only shrinks the value (CP ≤ 1, M ≥ 1).
        let u = insitu_ensembles::model::indicator(&inputs, &IndicatorPath::u());
        assert!(uap <= u + 1e-15);
    });
}

#[test]
fn steady_state_mean_lies_within_sample_range() {
    check(CASES, |g| {
        let mut s = g.vec(3..40, |g| g.range(0.1f64..10.0));
        let w = vec![0.01; s.len()];
        let r = vec![0.01; s.len()];
        let a = s.clone();
        let samples = MemberStepSamples { s: s.clone(), w, analyses: vec![(r, a)] };
        let t = extract_steady_state(&samples, WarmupPolicy::FixedSteps(2)).unwrap();
        s.sort_by(f64::total_cmp);
        assert!(t.s >= s[0] - 1e-12 && t.s <= s[s.len() - 1] + 1e-12);
    });
}

#[test]
fn frame_wire_format_roundtrips() {
    check(CASES, |g| {
        let frame = Frame {
            step: g.u64(),
            time: g.range(-1e6f64..1e6),
            box_len: g.range(0.1f32..1e4),
            positions: g.vec(0..200, |g| [(); 3].map(|()| g.range(-1e6f32..1e6))),
        };
        assert_eq!(Frame::from_bytes(&frame.to_bytes()).unwrap(), frame);
    });
}

#[test]
fn f64_codec_roundtrips() {
    use insitu_ensembles::dtl::{ChunkCodec, F64ArrayCodec};
    check(CASES, |g| {
        let values = g.vec(0..100, |g| g.range(-1e300f64..1e300));
        let codec = F64ArrayCodec;
        assert_eq!(codec.decode(codec.encode(&values)).unwrap(), values);
    });
}

#[test]
fn step_protocol_never_allows_overwrite() {
    use insitu_ensembles::dtl::{ReaderId, StepProtocol};
    check(CASES, |g| {
        let (readers, capacity) = (g.range(1u32..4), g.range(1u64..3));
        let ops = g.vec(1..60, |g| (g.range(0u8..2), g.range(0u32..4)));
        let mut p = StepProtocol::new(readers, capacity);
        let mut written = 0u64;
        let mut read_by: Vec<u64> = vec![0; readers as usize];
        for (kind, who) in ops {
            if kind == 0 {
                // Writer tries its next step.
                if p.record_write(written).is_ok() {
                    written += 1;
                }
            } else {
                let r = (who % readers) as usize;
                if p.record_read(ReaderId(r as u32), read_by[r]).is_ok() {
                    read_by[r] += 1;
                }
            }
            // Invariants: in-flight chunks never exceed capacity; no
            // reader is ahead of the writer.
            let oldest = read_by.iter().copied().min().unwrap();
            assert!(written - oldest <= capacity, "overwrite window exceeded");
            for &r in &read_by {
                assert!(r <= written, "reader ahead of writer");
            }
        }
    });
}
