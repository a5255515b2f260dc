//! Threaded in-transit execution: the simulation free-runs, staging
//! frames into a bounded queue; analyses consume what survives. Frames
//! dropped under backpressure are counted — the *lost frames* domain
//! metric of Taufer et al. (the paper's reference \[26\]).
//!
//! As in the synchronous mode, each member owns its variable and the
//! async staging area is sharded per variable, so members' queues are
//! fully independent: one member's backpressure (and frame loss) never
//! slows another member's producer.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dtl::protocol::ReaderId;
use dtl::staging::AsyncStaging;
use dtl::{ChunkCodec, VariableSpec};
use ensemble_core::{ComponentRef, StageKind};
use kernels::analysis::FrameKernel;
use kernels::md::MdSimulation;
use metrics::ExecutionTrace;

use crate::error::{RuntimeError, RuntimeResult};
use crate::frame_codec::FrameCodec;
use crate::stage_log::StageLog;
use crate::thread_exec::ThreadRunConfig;

/// What an in-transit run produces.
#[derive(Debug)]
pub struct InTransitExecution {
    /// Stage trace (wall-clock seconds from run start). Analyze stages
    /// carry the *frame* step they processed, so gaps mark lost frames.
    pub trace: ExecutionTrace,
    /// Collective-variable series per analysis, keyed by frame step.
    pub cv_series: HashMap<ComponentRef, Vec<(u64, f64)>>,
    /// Frames dropped per member.
    pub lost_frames: Vec<u64>,
    /// Frames produced per member.
    pub produced_frames: Vec<u64>,
}

/// Runs the ensemble with real kernels under in-transit coupling.
/// `cfg.staging_capacity` is the retained-frame queue depth.
pub fn run_threaded_in_transit(cfg: &ThreadRunConfig) -> RuntimeResult<InTransitExecution> {
    cfg.spec.validate(None)?;
    if cfg.n_steps == 0 {
        return Err(RuntimeError::NoSamples);
    }
    let staging = Arc::new(AsyncStaging::new(cfg.staging_capacity.max(1) as usize));
    let epoch = Instant::now();

    let mut variables = Vec::with_capacity(cfg.spec.members.len());
    for (i, member) in cfg.spec.members.iter().enumerate() {
        let home_node = *member.simulation.nodes.iter().next().ok_or_else(|| {
            RuntimeError::Model(ensemble_core::ModelError::EmptyNodeSet {
                member: i,
                component: "simulation".into(),
            })
        })?;
        variables.push(staging.register(VariableSpec {
            name: format!("trajectory/member{i}"),
            expected_readers: member.k() as u32,
            home_node,
        })?);
    }

    // Each worker records into its own log and hands it back at join.
    type Harvest = (ComponentRef, Vec<(u64, f64)>, StageLog);
    let harvested: Vec<Harvest> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, member) in cfg.spec.members.iter().enumerate() {
            let var = variables[i];
            let home_node = *member.simulation.nodes.iter().next().expect("validated");
            // --- Free-running simulation worker. ---
            {
                let staging = Arc::clone(&staging);
                let mut md_cfg = cfg.md.clone();
                md_cfg.seed = cfg.md.seed.wrapping_add(i as u64);
                let n_steps = cfg.n_steps;
                let sim_ref = ComponentRef::simulation(i);
                handles.push((
                    sim_ref,
                    scope.spawn(move || -> RuntimeResult<(Vec<(u64, f64)>, StageLog)> {
                        let mut log = StageLog::new(sim_ref, n_steps);
                        let mut sim = MdSimulation::new(&md_cfg);
                        let codec = FrameCodec;
                        for step in 0..n_steps {
                            let t0 = epoch.elapsed().as_secs_f64();
                            let frame = sim.advance_stride();
                            let t1 = epoch.elapsed().as_secs_f64();
                            log.record(StageKind::Simulate, step, t0, t1);
                            let chunk = dtl::Chunk::new(
                                var,
                                step,
                                home_node,
                                codec.encoding(),
                                codec.encode(&frame),
                            );
                            staging.put(chunk)?;
                            let t2 = epoch.elapsed().as_secs_f64();
                            log.record(StageKind::Write, step, t1, t2);
                        }
                        staging.finish(var)?;
                        Ok((Vec::new(), log))
                    }),
                ));
            }
            // --- Analysis workers draining the queue. ---
            for j in 1..=member.k() {
                let ana_ref = ComponentRef::analysis(i, j);
                let staging = Arc::clone(&staging);
                let timeout = cfg.timeout;
                let n_steps = cfg.n_steps;
                let choice =
                    cfg.kernel.clone().unwrap_or(crate::thread_exec::KernelChoice::Eigen {
                        group: cfg.analysis_group_size,
                        sigma: cfg.analysis_sigma,
                    });
                handles.push((
                    ana_ref,
                    scope.spawn(move || -> RuntimeResult<(Vec<(u64, f64)>, StageLog)> {
                        let mut log = StageLog::new(ana_ref, n_steps);
                        let reader = ReaderId(j as u32 - 1);
                        let codec = FrameCodec;
                        let mut kernel: Option<Box<dyn FrameKernel>> = None;
                        let mut series = Vec::new();
                        loop {
                            let t0 = epoch.elapsed().as_secs_f64();
                            let Some(chunk) = staging.next(var, reader, timeout)? else {
                                break;
                            };
                            let t1 = epoch.elapsed().as_secs_f64();
                            let frame_step = chunk.id.step;
                            if t1 > t0 {
                                log.record(StageKind::AnaIdle, frame_step, t0, t1);
                            }
                            let frame = codec.decode(chunk.data)?;
                            let t2 = epoch.elapsed().as_secs_f64();
                            log.record(StageKind::Read, frame_step, t1, t2);
                            let k = kernel.get_or_insert_with(|| choice.build(frame.num_atoms()));
                            let cv = k.compute(&frame);
                            let t3 = epoch.elapsed().as_secs_f64();
                            log.record(StageKind::Analyze, frame_step, t2, t3);
                            series.push((frame_step, cv));
                        }
                        Ok((series, log))
                    }),
                ));
            }
        }
        // Join every worker before reporting on any of them.
        let joined: Vec<_> = handles.into_iter().map(|(cref, h)| (cref, h.join())).collect();
        joined
            .into_iter()
            .map(|(cref, result)| match result {
                Ok(harvest) => harvest.map(|(series, log)| (cref, series, log)),
                Err(_) => Err(RuntimeError::WorkerPanicked { component: cref.to_string() }),
            })
            .collect::<RuntimeResult<_>>()
    })?;

    let mut cv_series = HashMap::new();
    let mut intervals = Vec::new();
    for (cref, series, log) in harvested {
        if !cref.is_simulation() {
            cv_series.insert(cref, series);
        }
        intervals.extend(log.into_intervals());
    }
    let lost_frames: Vec<u64> = variables.iter().map(|&v| staging.lost_frames(v)).collect();
    let produced_frames: Vec<u64> = variables.iter().map(|&v| staging.produced_frames(v)).collect();
    staging.close();
    Ok(InTransitExecution {
        trace: ExecutionTrace::new(intervals),
        cv_series,
        lost_frames,
        produced_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_core::ConfigId;
    use kernels::md::MdConfig;
    use std::time::Duration;

    fn quick(steps: u64, capacity: u64) -> ThreadRunConfig {
        ThreadRunConfig {
            spec: ConfigId::Cc.build(),
            md: MdConfig { atoms_per_side: 4, stride: 5, ..Default::default() },
            analysis_group_size: 16,
            analysis_sigma: 1.0,
            n_steps: steps,
            staging_capacity: capacity,
            timeout: Duration::from_secs(60),
            kernel: None,
            fault_plan: None,
            retry: None,
            restart: None,
        }
    }

    #[test]
    fn frames_are_conserved() {
        let exec = run_threaded_in_transit(&quick(6, 2)).unwrap();
        let ana = ComponentRef::analysis(0, 1);
        let consumed = exec.cv_series[&ana].len() as u64;
        assert_eq!(exec.produced_frames[0], 6);
        assert!(consumed + exec.lost_frames[0] >= 6 - 2, "retained frames bounded by queue");
        assert!(consumed >= 1);
        // Frame steps strictly increase.
        let steps: Vec<u64> = exec.cv_series[&ana].iter().map(|(s, _)| *s).collect();
        assert!(steps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn slow_analysis_drops_frames_but_finishes() {
        // 512-atom bipartite analysis vs tiny MD steps → analysis slower
        // than production; with queue depth 1 frames must drop.
        let mut cfg = quick(12, 1);
        cfg.analysis_group_size = 32;
        cfg.md.stride = 1; // produce frames as fast as possible
        let exec = run_threaded_in_transit(&cfg).unwrap();
        assert_eq!(exec.produced_frames[0], 12);
        let consumed = exec.cv_series[&ComponentRef::analysis(0, 1)].len() as u64;
        assert!(consumed >= 1);
        assert!(
            consumed + exec.lost_frames[0] <= 12,
            "consumed {consumed} + lost {} must not exceed produced",
            exec.lost_frames[0]
        );
    }

    #[test]
    fn simulation_never_idles_in_transit() {
        let exec = run_threaded_in_transit(&quick(5, 1)).unwrap();
        let sim_idle = exec.trace.total_in_stage(ComponentRef::simulation(0), StageKind::SimIdle);
        assert_eq!(sim_idle, 0.0);
    }

    #[test]
    fn zero_steps_rejected() {
        assert!(run_threaded_in_transit(&quick(0, 1)).is_err());
    }

    #[test]
    fn members_lose_frames_independently() {
        // Four members with per-member queues: every member produces all
        // of its frames and each member's loss accounting closes on its
        // own, regardless of what its neighbors dropped.
        let mut cfg = quick(8, 2);
        cfg.spec = ensemble_core::EnsembleSpec::new(
            (0..4)
                .map(|node| {
                    ensemble_core::MemberSpec::new(
                        ensemble_core::ComponentSpec::simulation(16, node),
                        vec![ensemble_core::ComponentSpec::analysis(8, node)],
                    )
                })
                .collect(),
        );
        let exec = run_threaded_in_transit(&cfg).unwrap();
        for member in 0..4 {
            assert_eq!(exec.produced_frames[member], 8, "member {member}");
            let consumed = exec.cv_series[&ComponentRef::analysis(member, 1)].len() as u64;
            assert!(consumed >= 1, "member {member} must consume something");
            assert!(
                consumed + exec.lost_frames[member] <= 8,
                "member {member}: consumed {consumed} + lost {} > produced",
                exec.lost_frames[member]
            );
        }
    }
}
