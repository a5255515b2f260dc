//! Deterministic fault injection for the DTL and the service.
//!
//! A [`FaultPlan`] is a seeded, declarative description of the faults a
//! chaos run should experience: store-operation failures, added
//! latency, payload corruption — keyed by `(variable, step, op)` — plus
//! a kill schedule for whole ensemble members (interpreted by the
//! threaded runtime). A staging area applies the store-level part of a
//! plan itself (`SyncStaging::with_faults`): a `put` runs the payload
//! through the `store` rules before it is staged, and a `get` runs the
//! copy it serves through the `load` rules.
//!
//! The same plan carries the service's journal and stream faults, which
//! `svc` reads at its own kill points; staging and the member supervisor
//! read only the rules and the kills.
//!
//! # Determinism
//!
//! Every probabilistic decision is a pure function of
//! `(plan seed, rule index, variable, step, op, attempt)` via a
//! splitmix64 hash — no global RNG, no wall clock. Two runs with the
//! same plan and the same per-key operation sequence inject exactly the
//! same faults regardless of thread interleaving across variables.
//! (Attempt counters are per `(rule, variable, step, op)` key; with
//! several readers racing on one variable the attempt *order* within
//! that key follows the interleaving — use exact keys or
//! probability-only rules when that matters.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::chunk::ChunkId;
use crate::error::{DtlError, DtlResult};
use crate::locks::recover;

/// Which store operation a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Payload retrieval (the read path).
    Load,
    /// Payload persistence (the write path).
    Store,
}

impl FaultOp {
    fn tag(self) -> &'static str {
        match self {
            FaultOp::Load => "load",
            FaultOp::Store => "store",
        }
    }
}

/// What a matching rule does to the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails with an injected I/O error (transient from
    /// the caller's point of view: retrying may succeed).
    Fail,
    /// The operation succeeds after the given extra latency.
    Delay(Duration),
    /// The operation succeeds but one payload byte is flipped
    /// (deterministically, keyed by the chunk identity).
    Corrupt,
}

/// One injection rule. `None` selectors match anything; the attempt
/// window (`after`/`first`) and `probability` bound how often the rule
/// fires per `(variable, step, op)` key.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Variable selector (dense `VariableId` index), `None` = any.
    pub variable: Option<u32>,
    /// Step selector, `None` = any.
    pub step: Option<u64>,
    /// Operation selector, `None` = both.
    pub op: Option<FaultOp>,
    /// What to do when the rule fires.
    pub action: FaultAction,
    /// Probability of firing per matching attempt (decided by a seeded
    /// hash, so it is reproducible). 1.0 = always.
    pub probability: f64,
    /// Skip this many matching attempts per key before firing.
    pub after: u64,
    /// Fire for at most this many attempts per key (after `after`);
    /// `None` = unbounded. `first: Some(n)` models a transient fault
    /// that a retry eventually clears.
    pub first: Option<u64>,
}

impl FaultRule {
    /// A rule with the given action that matches every operation.
    pub fn new(action: FaultAction) -> Self {
        FaultRule {
            variable: None,
            step: None,
            op: None,
            action,
            probability: 1.0,
            after: 0,
            first: None,
        }
    }

    /// Shorthand: always-fail rule for `op`.
    pub fn fail(op: FaultOp) -> Self {
        FaultRule { op: Some(op), ..FaultRule::new(FaultAction::Fail) }
    }

    /// Restricts the rule to one variable (dense id index).
    pub fn on_variable(mut self, var: u32) -> Self {
        self.variable = Some(var);
        self
    }

    /// Restricts the rule to one step.
    pub fn at_step(mut self, step: u64) -> Self {
        self.step = Some(step);
        self
    }

    /// Fires with the given probability per attempt.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Skips the first `n` matching attempts per key.
    pub fn after_attempts(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fires for at most `n` attempts per key.
    pub fn first_attempts(mut self, n: u64) -> Self {
        self.first = Some(n);
        self
    }

    fn matches(&self, id: ChunkId, op: FaultOp) -> bool {
        self.variable.is_none_or(|v| v == id.variable.0)
            && self.step.is_none_or(|s| s == id.step)
            && self.op.is_none_or(|o| o == op)
    }
}

/// Kills one ensemble member at a step: its simulation worker errors
/// (or panics) before staging that step's frame. Interpreted by the
/// threaded runtime's supervisor, not by the store layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberKill {
    /// Member index.
    pub member: usize,
    /// Step at which the member dies.
    pub step: u64,
    /// Die by panic instead of by returned error (exercises the panic
    /// supervision path).
    pub panic: bool,
}

/// A seeded, deterministic fault plan: store-level rules, a member
/// kill schedule and the service's journal and stream faults. The
/// empty plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision (and the torn fragment).
    pub seed: u64,
    /// Store-operation rules, first match wins.
    pub rules: Vec<FaultRule>,
    /// Member kill schedule.
    pub kills: Vec<MemberKill>,
    /// The service's journal "crashes" (refuses appends) after its Nth.
    pub crash_after_append: Option<u64>,
    /// The crash also leaves a torn, unterminated final record.
    pub torn_tail: bool,
    /// Journal fsyncs after the Nth report failure (the write lands).
    pub fail_fsync_after: Option<u64>,
    /// The first replication stream drops after N record frames.
    pub drop_stream_after: Option<u64>,
    /// The first replication stream stalls (open, silent) after N frames.
    pub stall_stream_after: Option<u64>,
}

/// The clauses the service applies (its journal and its replication
/// stream); the threaded runtime applies the others.
pub const SERVICE_CLAUSES: [&str; 5] =
    ["crash_after", "torn", "fsync_fail", "drop_stream", "stall_stream"];

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Adds a store-operation rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a member kill.
    pub fn with_kill(mut self, kill: MemberKill) -> Self {
        self.kills.push(kill);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.clauses().is_empty()
    }

    /// The keyword of each clause the plan holds, `seed` aside, in the
    /// order [`Self::to_spec`] writes them.
    pub fn clauses(&self) -> Vec<&'static str> {
        let kills = self.kills.iter().map(|k| if k.panic { "panic" } else { "kill" });
        let rules = self.rules.iter().map(|r| match r.action {
            FaultAction::Fail => "fail",
            FaultAction::Delay(_) => "delay",
            FaultAction::Corrupt => "corrupt",
        });
        let service = SERVICE_CLAUSES.into_iter().zip(self.service_values());
        kills.chain(rules).chain(service.filter_map(|(clause, v)| v.map(|_| clause))).collect()
    }

    /// The value the spec writes after each of [`SERVICE_CLAUSES`]
    /// (`=N`, nothing for `torn`), `None` for a clause the plan lacks.
    fn service_values(&self) -> [Option<String>; 5] {
        let count = |n: Option<u64>| n.map(|n| format!("={n}"));
        [
            count(self.crash_after_append),
            self.torn_tail.then(String::new),
            count(self.fail_fsync_after),
            count(self.drop_stream_after),
            count(self.stall_stream_after),
        ]
    }

    /// The torn-fragment bytes written when [`Self::torn_tail`] fires:
    /// a plausible-looking record prefix with no closing brace and no
    /// newline, derived from the seed so crash images are reproducible.
    pub fn torn_fragment(&self) -> String {
        format!("{{\"rec\":\"score\",\"key\":\"torn-{:016x}", mix(&[self.seed, 0x7041]))
    }

    /// True once the `index`-th (1-based) fsync should report failure.
    pub fn fsync_fails(&self, index: u64) -> bool {
        self.fail_fsync_after.is_some_and(|n| index > n)
    }

    /// The kill scheduled for `member` at `step`, if any.
    pub fn kill_for(&self, member: usize, step: u64) -> Option<MemberKill> {
        self.kills.iter().copied().find(|k| k.member == member && k.step == step)
    }

    /// Parses the CLI spec format: `;`-separated clauses.
    ///
    /// ```text
    /// seed=42;kill=1@2;panic=0@1
    /// fail=load:var=0:step=2:first=1
    /// delay=any:ms=5:p=0.25;corrupt=store:var=1
    /// seed=42;crash_after=10;torn;fsync_fail=3;drop_stream=5;stall_stream=8
    /// ```
    ///
    /// Clauses: `seed=N`, `kill=M@S`, `panic=M@S`,
    /// `ACTION=OP[:var=V][:step=S][:p=F][:after=N][:first=N][:ms=D]`
    /// with `ACTION` ∈ {`fail`, `delay`, `corrupt`} and `OP` ∈
    /// {`load`, `store`, `any`} (`ms` is required for `delay`), and the
    /// service's `crash_after=N`, `torn` (a bare flag), `fsync_fail=N`,
    /// `drop_stream=N` and `stall_stream=N`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if clause == "torn" {
                plan.torn_tail = true;
                continue;
            }
            let (head, rest) = clause
                .split_once('=')
                .map(|(head, rest)| (head.trim(), rest.trim()))
                .ok_or_else(|| format!("clause '{clause}' is not KEY=VALUE"))?;
            let count = || rest.parse::<u64>().map_err(|e| format!("{head}: {e}"));
            match head {
                "seed" => plan.seed = count()?,
                "crash_after" => plan.crash_after_append = Some(count()?),
                "fsync_fail" => plan.fail_fsync_after = Some(count()?),
                "drop_stream" => plan.drop_stream_after = Some(count()?),
                "stall_stream" => plan.stall_stream_after = Some(count()?),
                "torn" => return Err(format!("torn is a flag and takes no value, got '{clause}'")),
                "kill" | "panic" => {
                    let (m, s) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("{head}: expected MEMBER@STEP, got '{rest}'"))?;
                    plan.kills.push(MemberKill {
                        member: m.parse().map_err(|e| format!("{head} member: {e}"))?,
                        step: s.parse().map_err(|e| format!("{head} step: {e}"))?,
                        panic: head == "panic",
                    });
                }
                "fail" | "delay" | "corrupt" => {
                    plan.rules.push(parse_rule(head, rest)?);
                }
                other => return Err(format!("unknown clause '{other}'")),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into the spec format `parse` accepts.
    pub fn to_spec(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        for k in &self.kills {
            parts.push(format!(
                "{}={}@{}",
                if k.panic { "panic" } else { "kill" },
                k.member,
                k.step
            ));
        }
        for r in &self.rules {
            let (action, ms) = match r.action {
                FaultAction::Fail => ("fail", None),
                FaultAction::Delay(d) => ("delay", Some(d.as_millis())),
                FaultAction::Corrupt => ("corrupt", None),
            };
            let mut s = format!("{action}={}", r.op.map_or("any", FaultOp::tag));
            if let Some(v) = r.variable {
                s.push_str(&format!(":var={v}"));
            }
            if let Some(step) = r.step {
                s.push_str(&format!(":step={step}"));
            }
            if let Some(ms) = ms {
                s.push_str(&format!(":ms={ms}"));
            }
            if r.probability < 1.0 {
                s.push_str(&format!(":p={}", r.probability));
            }
            if r.after > 0 {
                s.push_str(&format!(":after={}", r.after));
            }
            if let Some(first) = r.first {
                s.push_str(&format!(":first={first}"));
            }
            parts.push(s);
        }
        for (clause, value) in SERVICE_CLAUSES.into_iter().zip(self.service_values()) {
            parts.extend(value.map(|value| format!("{clause}{value}")));
        }
        parts.join(";")
    }
}

fn parse_rule(action: &str, rest: &str) -> Result<FaultRule, String> {
    let mut fields = rest.split(':');
    let op = match fields.next().unwrap_or("") {
        "load" => Some(FaultOp::Load),
        "store" => Some(FaultOp::Store),
        "any" => None,
        other => return Err(format!("{action}: unknown op '{other}' (load|store|any)")),
    };
    let mut rule = FaultRule {
        op,
        ..FaultRule::new(match action {
            "fail" => FaultAction::Fail,
            "corrupt" => FaultAction::Corrupt,
            // Delay duration is filled from the `ms` field below.
            _ => FaultAction::Delay(Duration::ZERO),
        })
    };
    let mut saw_ms = false;
    for field in fields {
        let (k, v) =
            field.split_once('=').ok_or_else(|| format!("{action}: field '{field}' is not K=V"))?;
        match k {
            "var" => rule.variable = Some(v.parse().map_err(|e| format!("{action} var: {e}"))?),
            "step" => rule.step = Some(v.parse().map_err(|e| format!("{action} step: {e}"))?),
            "p" => {
                rule.probability = v.parse().map_err(|e| format!("{action} p: {e}"))?;
                if !(0.0..=1.0).contains(&rule.probability) {
                    return Err(format!("{action} p: {v} outside [0, 1]"));
                }
            }
            "after" => rule.after = v.parse().map_err(|e| format!("{action} after: {e}"))?,
            "first" => {
                rule.first = Some(v.parse().map_err(|e| format!("{action} first: {e}"))?);
            }
            "ms" => {
                let ms: u64 = v.parse().map_err(|e| format!("{action} ms: {e}"))?;
                rule.action = FaultAction::Delay(Duration::from_millis(ms));
                saw_ms = true;
            }
            other => return Err(format!("{action}: unknown field '{other}'")),
        }
    }
    if action == "delay" && !saw_ms {
        return Err("delay: missing ms=N".into());
    }
    if action != "delay" && saw_ms {
        return Err(format!("{action}: ms only applies to delay"));
    }
    Ok(rule)
}

/// Counters of what an injector saw and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Load attempts observed.
    pub loads: u64,
    /// Store attempts observed.
    pub stores: u64,
    /// Failures injected.
    pub injected_failures: u64,
    /// Delays injected.
    pub injected_delays: u64,
    /// Payloads corrupted.
    pub injected_corruptions: u64,
}

impl FaultStats {
    /// Total faults of any kind injected.
    pub fn total_injected(&self) -> u64 {
        self.injected_failures + self.injected_delays + self.injected_corruptions
    }
}

/// SplitMix64: a tiny, high-quality mixing function — enough for fault
/// rolls and retry jitter, and dependency-free.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x51_7c_c1_b7_27_22_0a_95u64;
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// Uniform in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Applies the store-level rules of a [`FaultPlan`] at a staging area's
/// put and get points, and counts what it saw and did.
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Attempt counters per `(rule, variable, step, op)`.
    attempts: Mutex<HashMap<(usize, u32, u64, FaultOp), u64>>,
    loads: AtomicU64,
    stores: AtomicU64,
    failures: AtomicU64,
    delays: AtomicU64,
    corruptions: AtomicU64,
}

impl FaultInjector {
    /// An injector applying `plan`; the empty plan injects nothing.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            attempts: Mutex::new(HashMap::new()),
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// Snapshot of the injection counters.
    pub(crate) fn stats(&self) -> FaultStats {
        FaultStats {
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            injected_failures: self.failures.load(Ordering::Relaxed),
            injected_delays: self.delays.load(Ordering::Relaxed),
            injected_corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }

    /// One `op` attempt on chunk `id`, whose payload is `data`: the
    /// payload to stage (or serve), or the injected failure.
    pub(crate) fn apply(&self, op: FaultOp, id: ChunkId, data: Arc<[u8]>) -> DtlResult<Arc<[u8]>> {
        match op {
            FaultOp::Load => &self.loads,
            FaultOp::Store => &self.stores,
        }
        .fetch_add(1, Ordering::Relaxed);
        match self.decide(id, op) {
            None => Ok(data),
            Some(FaultAction::Fail) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                Err(DtlError::Io(std::io::Error::other(format!(
                    "injected {} failure (variable {}, step {})",
                    op.tag(),
                    id.variable.0,
                    id.step
                ))))
            }
            Some(FaultAction::Delay(d)) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
                Ok(data)
            }
            Some(FaultAction::Corrupt) => {
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                if data.is_empty() {
                    return Ok(data);
                }
                let mut bytes = data.to_vec();
                let idx = mix(&[self.plan.seed, u64::from(id.variable.0), id.step]) as usize
                    % bytes.len();
                bytes[idx] ^= 0xA5;
                Ok(Arc::from(bytes))
            }
        }
    }

    /// First matching rule's action for this attempt, if any fires.
    fn decide(&self, id: ChunkId, op: FaultOp) -> Option<FaultAction> {
        if self.plan.rules.is_empty() {
            return None;
        }
        let mut attempts = recover(self.attempts.lock());
        for (ri, rule) in self.plan.rules.iter().enumerate() {
            if !rule.matches(id, op) {
                continue;
            }
            let counter = attempts.entry((ri, id.variable.0, id.step, op)).or_insert(0);
            let attempt = *counter;
            *counter += 1;
            if attempt < rule.after {
                continue;
            }
            if rule.first.is_some_and(|first| attempt >= rule.after.saturating_add(first)) {
                continue;
            }
            if rule.probability < 1.0 {
                let roll = unit(mix(&[
                    self.plan.seed,
                    ri as u64,
                    u64::from(id.variable.0),
                    id.step,
                    op as u64,
                    attempt,
                ]));
                if roll >= rule.probability {
                    continue;
                }
            }
            return Some(rule.action);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::VariableId;

    fn id(var: u32, step: u64) -> ChunkId {
        ChunkId { variable: VariableId(var), step }
    }

    #[test]
    fn empty_plan_is_transparent() {
        // Service clauses alone leave staging as the empty plan does.
        let service_only =
            FaultPlan::parse("seed=9;crash_after=1;torn;fsync_fail=0;drop_stream=1;stall_stream=1")
                .unwrap();
        for plan in [FaultPlan::default(), service_only] {
            let inj = FaultInjector::new(plan);
            let staged = inj.apply(FaultOp::Store, id(0, 0), Arc::from(*b"x")).unwrap();
            let served = inj.apply(FaultOp::Load, id(0, 0), staged.clone()).unwrap();
            assert_eq!(served, Arc::from(*b"x"));
            assert_eq!(inj.stats().total_injected(), 0);
            assert_eq!((inj.stats().loads, inj.stats().stores), (1, 1));
        }
    }

    #[test]
    fn fail_first_then_recover() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::fail(FaultOp::Load).first_attempts(2));
        let inj = FaultInjector::new(plan);
        let staged = inj.apply(FaultOp::Store, id(0, 0), Arc::from(*b"frame")).unwrap();
        let load = || inj.apply(FaultOp::Load, id(0, 0), staged.clone());
        assert!(load().is_err());
        assert!(load().is_err());
        assert_eq!(load().unwrap(), Arc::from(*b"frame"));
        assert_eq!(inj.stats().injected_failures, 2);
    }

    #[test]
    fn attempt_window_skips_then_fires() {
        let rule = FaultRule::fail(FaultOp::Load).after_attempts(1).first_attempts(1);
        let inj = FaultInjector::new(FaultPlan::new(0).with_rule(rule));
        let load = || inj.apply(FaultOp::Load, id(0, 0), Arc::from(*b"a"));
        assert!(load().is_ok(), "attempt 0 is skipped");
        assert!(load().is_err(), "attempt 1 fires");
        assert!(load().is_ok(), "attempt 2 is past the window");
    }

    #[test]
    fn selectors_scope_rules() {
        let plan =
            FaultPlan::new(0).with_rule(FaultRule::fail(FaultOp::Store).on_variable(1).at_step(2));
        let inj = FaultInjector::new(plan);
        assert!(inj.apply(FaultOp::Store, id(0, 2), Arc::from(*b"a")).is_ok());
        assert!(inj.apply(FaultOp::Store, id(1, 1), Arc::from(*b"a")).is_ok());
        assert!(inj.apply(FaultOp::Store, id(1, 2), Arc::from(*b"a")).is_err());
    }

    #[test]
    fn corruption_is_deterministic_and_visible() {
        let plan = FaultPlan::new(7).with_rule(FaultRule {
            op: Some(FaultOp::Load),
            ..FaultRule::new(FaultAction::Corrupt)
        });
        let original: Arc<[u8]> = Arc::from(*b"payload-bytes");
        let load = |plan: FaultPlan| {
            FaultInjector::new(plan).apply(FaultOp::Load, id(0, 3), original.clone()).unwrap()
        };
        let (a, b) = (load(plan.clone()), load(plan));
        assert_ne!(a, original, "corruption must alter the payload");
        assert_eq!(a, b, "same plan, same key ⇒ same corruption");
    }

    #[test]
    fn probability_rolls_are_reproducible() {
        let plan =
            FaultPlan::new(99).with_rule(FaultRule::fail(FaultOp::Load).with_probability(0.5));
        let run = || -> Vec<bool> {
            let inj = FaultInjector::new(plan.clone());
            (0..32).map(|_| inj.apply(FaultOp::Load, id(0, 0), Arc::from(*b"x")).is_err()).collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let fired = a.iter().filter(|&&f| f).count();
        assert!((4..=28).contains(&fired), "p=0.5 over 32 rolls fired {fired} times");
    }

    #[test]
    fn delay_injects_latency() {
        let plan = FaultPlan::new(0).with_rule(FaultRule {
            op: Some(FaultOp::Store),
            ..FaultRule::new(FaultAction::Delay(Duration::from_millis(30)))
        });
        let inj = FaultInjector::new(plan);
        let t0 = std::time::Instant::now();
        inj.apply(FaultOp::Store, id(0, 0), Arc::from(*b"x")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(inj.stats().injected_delays, 1);
    }

    #[test]
    fn spec_round_trip() {
        let spec = "seed=42;kill=1@2;panic=0@1;fail=load:var=0:step=2:first=1;\
                    delay=any:ms=5:p=0.25;corrupt=store:var=1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(plan.kill_for(1, 2), Some(MemberKill { member: 1, step: 2, panic: false }));
        assert_eq!(plan.kill_for(0, 1), Some(MemberKill { member: 0, step: 1, panic: true }));
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].first, Some(1));
        assert_eq!(plan.rules[1].action, FaultAction::Delay(Duration::from_millis(5)));
        assert_eq!(plan.rules[1].probability, 0.25);
        let reparsed = FaultPlan::parse(&plan.to_spec()).unwrap();
        assert_eq!(reparsed, plan);

        let spec = "seed=42;crash_after=10;torn;fsync_fail=3;drop_stream=5;stall_stream=8";
        let plan = FaultPlan::parse(spec).unwrap();
        let want = FaultPlan {
            seed: 42,
            crash_after_append: Some(10),
            torn_tail: true,
            fail_fsync_after: Some(3),
            drop_stream_after: Some(5),
            stall_stream_after: Some(8),
            ..FaultPlan::default()
        };
        assert_eq!(plan, want);
        assert_eq!(plan.to_spec(), spec);
        // Pinned bytes: a crash image is byte-identical across builds.
        assert_eq!(plan.torn_fragment(), "{\"rec\":\"score\",\"key\":\"torn-99e6b27a289c06b9");
        let seeded = |seed| FaultPlan::new(seed).torn_fragment();
        assert_ne!(seeded(7), seeded(8));
        assert!(!seeded(7).ends_with('}') && !seeded(7).contains('\n'));
        let fsync = FaultPlan::parse("fsync_fail=2").unwrap();
        assert_eq!([1, 2, 3].map(|i| fsync.fsync_fails(i)), [false, false, true]);
        assert!(!FaultPlan::default().fsync_fails(100));

        // Every clause kind in one spec, in an order `to_spec` does not
        // write, with whitespace around the keys and values.
        let mixed = " stall_stream=8 ; corrupt=store:var=1;torn;seed = 3;panic=0@1;\
                     fsync_fail=3;delay=any:ms=5:p=0.25;crash_after=10;kill=1@2;\
                     drop_stream=5;fail=load:var=0:step=2:after=1:first=1";
        let plan = FaultPlan::parse(mixed).unwrap();
        let clauses = plan.clauses();
        assert_eq!(clauses[..5], ["panic", "kill", "corrupt", "delay", "fail"]);
        assert_eq!(clauses[5..], SERVICE_CLAUSES);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("kill=1").is_err());
        assert!(FaultPlan::parse("fail=fly").is_err());
        assert!(FaultPlan::parse("delay=load").is_err(), "delay needs ms");
        assert!(FaultPlan::parse("fail=load:ms=5").is_err(), "ms only applies to delay");
        assert!(FaultPlan::parse("fail=load:p=2").is_err(), "p outside [0,1]");
        assert!(FaultPlan::parse("seed").is_err());
        assert!(FaultPlan::parse("crash_after").is_err(), "a count needs =N");
        assert!(FaultPlan::parse("crash_after=x").is_err());
        assert!(FaultPlan::parse("torn=1").is_err(), "torn is a bare flag");
        assert!(FaultPlan::parse("drop_stream=-1").is_err());
    }

    #[test]
    fn empty_spec_parses_to_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
        let plan = FaultPlan::parse("crash_after=2").unwrap();
        assert_eq!(plan, FaultPlan { crash_after_append: Some(2), ..FaultPlan::default() });
        assert!(!plan.is_empty());
    }
}
