//! The correctness oracle: what every reply must satisfy before any
//! number is printed. A reply that fails a check counts as a failed op,
//! like a transport error or an `overloaded` refusal.
//!
//! Cheap checks run on every op of the timed window (reply kind, echoed
//! id, the `cached` / `candidates_scanned` / `scan_workers` a cold scan
//! or a hit must carry, payload bytes of hits and attaches against what
//! was first returned). The checks that cost a second request (repeat a
//! request, fetch the full ranking behind a top-10, compare a run with
//! an in-process reference) run on sampled ops after the window closes.

use std::collections::{HashMap, VecDeque};

use crate::probes::{self, Reply, ReplyKind, Shape, StagedRun};
use crate::workload::{Kind, Op, FULL_HIT_STEPS};

/// What an endpoint returned for one op.
pub enum Outcome {
    /// The final reply frame of a request, without its newline.
    Line(String),
    /// The report of one threaded run.
    Staged(StagedRun),
}

/// `line` without its first `"key":value,` field.
fn without_field(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let Some(start) = line.find(&needle) else { return line.to_string() };
    let rest = &line[start + needle.len()..];
    let len = rest.find(',').map_or(rest.len(), |comma| comma + 1);
    format!("{}{}", &line[..start], &rest[len..])
}

/// The raw text of top-level scalar field `key` (fields before the
/// first array of a reply are all scalar).
pub fn scalar_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    rest.split([',', '}']).next()
}

/// A reply with the request id removed: everything the service computed
/// or stored, including the `elapsed_ms` an `attach` must return intact.
fn payload(line: &str) -> String {
    without_field(line, "id")
}

/// A reply with the request id and the wall-clock field removed: what
/// must repeat byte for byte when the same request is sent again.
fn repeatable(line: &str) -> String {
    without_field(&payload(line), "elapsed_ms")
}

/// The ranked rows of a `score_result`, from `"placements":` on.
fn placements_tail(line: &str) -> Result<&str, String> {
    line.find("\"placements\":").map(|at| &line[at..]).ok_or_else(|| "no placements".to_string())
}

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Per-client memory of what was returned before, for the checks that
/// compare a reply with an earlier one.
#[derive(Default)]
pub struct Checker {
    /// Placement rows first returned for each primed `(candidates, steps)`
    /// key, as raw text.
    primed_rows: HashMap<(u64, u64), String>,
    /// Payloads of this client's most recent runs, by job id.
    runs: VecDeque<(u64, String)>,
    /// The latest op of each kind with its reply, for the sampled checks.
    samples: HashMap<&'static str, (Op, String)>,
}

/// How many run payloads a client keeps: every run `attach` can still
/// target (the stream picks among its 32 most recent).
const KEPT_RUNS: usize = 48;

impl Checker {
    /// Remembers what the priming requests returned. Client 0 primes for
    /// everyone, so every client's checker is given the same replies.
    pub fn remember_priming(&mut self, op: &Op, line: &str) -> Result<(), String> {
        match op.kind {
            Kind::ScoreCold { shape, steps, .. } => {
                let rows = placements_tail(line)?.to_string();
                self.primed_rows.insert((shape.candidates(), steps), rows);
            }
            Kind::Run { .. } => self.remember_run(op.id, line),
            _ => {}
        }
        Ok(())
    }

    fn remember_run(&mut self, job: u64, line: &str) {
        if self.runs.iter().any(|(id, _)| *id == job) {
            return;
        }
        self.runs.push_back((job, payload(line)));
        if self.runs.len() > KEPT_RUNS {
            self.runs.pop_front();
        }
    }

    /// Checks one reply against its op. `Err` describes the first
    /// mismatch.
    pub fn check(&mut self, op: &Op, outcome: &Outcome) -> Result<(), String> {
        let line = match (outcome, op.kind) {
            (Outcome::Staged(run), Kind::Staged { steps }) => return check_staged(run, steps),
            (Outcome::Line(line), _) => line.as_str(),
            (Outcome::Staged(_), _) => return Err("threaded report for a request".into()),
        };
        if op.kind == Kind::ScoreHitFull {
            // 4 038 rows: compared as bytes, not decoded, so that checking
            // costs the client a memcmp and not a JSON parse per reply.
            return self.check_full_hit(op, line);
        }
        let reply = probes::decode_reply(line)?;
        expect("echoed id", reply.id, op.id)?;
        match op.kind {
            Kind::ScoreCold { shape, top_k, .. } => {
                expect_kind(&reply, ReplyKind::Score)?;
                expect("cached", reply.cached, false)?;
                expect("candidates_scanned", reply.candidates_scanned, shape.candidates())?;
                if reply.scan_workers == 0 {
                    return Err("a cold scan reported zero scan workers".into());
                }
                let rows = if top_k == 0 { shape.candidates() as usize } else { top_k };
                expect("ranked rows", reply.objectives.len(), rows)?;
                if reply.objectives.windows(2).any(|w| w[0] < w[1]) {
                    return Err("placements are not ranked best first".into());
                }
            }
            Kind::ScoreHit { shape, steps } => {
                expect_kind(&reply, ReplyKind::Score)?;
                expect_hit(&reply)?;
                let primed = self
                    .primed_rows
                    .get(&(shape.candidates(), steps))
                    .ok_or("hit on a key that was never primed")?;
                expect("rows of a hit", placements_tail(line)?, primed.as_str())?;
            }
            Kind::Run { .. } => {
                expect_kind(&reply, ReplyKind::Run)?;
                expect("members", reply.members, probes::RUN_MEMBERS)?;
                if !(reply.makespan.is_finite() && reply.makespan > 0.0) {
                    return Err(format!("ensemble makespan {}", reply.makespan));
                }
                self.remember_run(op.id, line);
            }
            Kind::Submit { shape, .. } => {
                expect_kind(&reply, ReplyKind::Submit)?;
                expect("members", reply.members, shape.members())?;
                expect("assignment length", reply.assignment.len(), shape.components())?;
                expect("residual nodes", reply.residual_len, 6)?;
                if !(reply.makespan.is_finite() && reply.makespan > 0.0) {
                    return Err(format!("ensemble makespan {}", reply.makespan));
                }
            }
            Kind::Attach { job } => {
                expect_kind(&reply, ReplyKind::Run)?;
                let original = self
                    .runs
                    .iter()
                    .find(|(id, _)| *id == job)
                    .map(|(_, payload)| payload.as_str())
                    .ok_or_else(|| format!("no remembered reply for job {job}"))?;
                expect("attached payload", payload(line).as_str(), original)?;
            }
            Kind::Metrics => {
                expect_kind(&reply, ReplyKind::Metrics)?;
                if reply.row("requests_completed").is_none() {
                    return Err("metrics reply without requests_completed".into());
                }
            }
            Kind::ScoreHitFull | Kind::Staged { .. } => unreachable!("handled above"),
        }
        self.samples.insert(sample_slot(&op.kind), (op.clone(), line.to_string()));
        Ok(())
    }

    fn check_full_hit(&self, op: &Op, line: &str) -> Result<(), String> {
        expect("reply type", scalar_field(line, "type"), Some("\"score_result\""))?;
        expect("echoed id", scalar_field(line, "id"), Some(op.id.to_string().as_str()))?;
        expect("cached", scalar_field(line, "cached"), Some("true"))?;
        expect("scan_workers", scalar_field(line, "scan_workers"), Some("0"))?;
        expect("candidates_scanned", scalar_field(line, "candidates_scanned"), Some("0"))?;
        let primed = self
            .primed_rows
            .get(&(Shape::M.candidates(), FULL_HIT_STEPS))
            .ok_or("full key not primed")?;
        if placements_tail(line)? != primed {
            return Err("rows of the full hit differ from the primed ranking".into());
        }
        Ok(())
    }

    /// The sampled ops the second-request checks run on.
    pub fn samples(&self) -> impl Iterator<Item = &(Op, String)> {
        self.samples.values()
    }
}

/// Runs are sampled separately by jitter: only a jitter-free run has an
/// in-process reference.
fn sample_slot(kind: &Kind) -> &'static str {
    match kind {
        Kind::Run { jitter, .. } if *jitter == 0.0 => "run_jitter_free",
        other => other.label(),
    }
}

fn expect_kind(reply: &Reply, want: ReplyKind) -> Result<(), String> {
    if reply.kind == want {
        Ok(())
    } else {
        Err(format!("reply kind {:?} ({}), expected {want:?}", reply.kind, reply.error))
    }
}

fn expect_hit(reply: &Reply) -> Result<(), String> {
    expect("cached", reply.cached, true)?;
    expect("scan_workers of a hit", reply.scan_workers, 0)?;
    expect("candidates_scanned of a hit", reply.candidates_scanned, 0)
}

fn check_staged(run: &StagedRun, steps: u64) -> Result<(), String> {
    expect("puts", run.puts, steps)?;
    expect("gets", run.gets, steps)?;
    expect("failed members", run.failed_members, 0)?;
    expect("full-length CV series", run.series_complete, true)
}

/// The second-request checks on one sampled op. `call` sends a request
/// and returns the reply line; `next_id` hands out unused ids. Returns
/// how many requests it made.
pub fn deep_check(
    op: &Op,
    first: &str,
    next_id: &mut u64,
    call: &mut dyn FnMut(&Op) -> Result<String, String>,
) -> Result<u64, String> {
    let mut fresh = |kind: Kind| {
        *next_id += 1;
        Op::new(*next_id, kind)
    };
    match op.kind {
        Kind::ScoreCold { shape, steps, .. } | Kind::ScoreHit { shape, steps } => {
            // Sent again, the request is a hit with the same rows.
            let again = call(&fresh(op.kind))?;
            expect_hit(&probes::decode_reply(&again)?)?;
            expect("rows of a repeated score", placements_tail(&again)?, placements_tail(first)?)?;
            // Its ten rows are the head of the full ranking of its key.
            let full = call(&fresh(Kind::ScoreCold { shape, steps, top_k: 0 }))?;
            let head = placements_tail(first)?.trim_end_matches("]}");
            if !placements_tail(&full)?.starts_with(head) {
                return Err("top-10 rows are not the head of the full ranking".into());
            }
            Ok(2)
        }
        Kind::Run { config, steps, jitter, small, .. } => {
            let again = call(&fresh(op.kind))?;
            expect("payload of a repeated run", repeatable(&again), repeatable(first))?;
            let attached = call(&fresh(Kind::Attach { job: op.id }))?;
            expect("attached payload", payload(&attached), payload(first))?;
            if jitter == 0.0 {
                let reference = probes::reference_run_line(op.id, config, steps, small)?;
                expect(
                    "run against its in-process reference",
                    repeatable(first),
                    repeatable(&reference),
                )?;
            }
            Ok(2)
        }
        _ => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "{\"type\":\"run_result\",\"id\":17,\"ensemble_makespan\":3.5,\"elapsed_ms\":0.25,\"members\":[{\"cp\":1}]}";

    #[test]
    fn payload_drops_only_the_id() {
        assert_eq!(
            payload(RUN),
            "{\"type\":\"run_result\",\"ensemble_makespan\":3.5,\"elapsed_ms\":0.25,\"members\":[{\"cp\":1}]}"
        );
        assert_eq!(
            repeatable(RUN),
            "{\"type\":\"run_result\",\"ensemble_makespan\":3.5,\"members\":[{\"cp\":1}]}"
        );
    }

    #[test]
    fn scalar_fields_are_read_raw() {
        assert_eq!(scalar_field(RUN, "id"), Some("17"));
        assert_eq!(scalar_field(RUN, "type"), Some("\"run_result\""));
        assert_eq!(scalar_field(RUN, "absent"), None);
    }

    #[test]
    fn a_short_staged_run_fails_the_check() {
        let good = StagedRun {
            puts: 200,
            gets: 200,
            retries: 0,
            failed_members: 0,
            series_complete: true,
            trace_records: 0,
        };
        assert!(check_staged(&good, 200).is_ok());
        assert!(check_staged(&good, 500).is_err());
        assert!(check_staged(&StagedRun { gets: 199, ..good }, 200).is_err());
        assert!(check_staged(&StagedRun { failed_members: 1, ..good }, 200).is_err());
    }
}
