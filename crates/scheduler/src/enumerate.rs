//! Placement enumeration with node-relabeling symmetry reduction.
//!
//! A placement assigns each component of each member to one node. Nodes
//! are interchangeable (the platform is homogeneous), so placements that
//! differ only by a node permutation are equivalent; enumeration yields
//! one canonical representative per equivalence class.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard};

use ensemble_core::{ComponentSpec, EnsembleSpec, MemberSpec};

/// Structural description of the ensemble to place: per member, the
/// simulation core count and each analysis's core count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleShape {
    /// Per member: (simulation cores, per-analysis cores).
    pub members: Vec<(u32, Vec<u32>)>,
}

impl EnsembleShape {
    /// `n` identical members with `sim_cores` and `k` analyses of
    /// `ana_cores` each — the paper's shapes.
    pub fn uniform(n: usize, sim_cores: u32, k: usize, ana_cores: u32) -> Self {
        EnsembleShape { members: vec![(sim_cores, vec![ana_cores; k]); n] }
    }

    /// Total components (simulations + analyses).
    pub fn num_components(&self) -> usize {
        self.members.iter().map(|(_, a)| 1 + a.len()).sum()
    }

    /// Core demand of component `idx` in flattened order (member-major,
    /// simulation first).
    pub(crate) fn component_cores(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.num_components());
        for (sim, anas) in &self.members {
            v.push(*sim);
            v.extend(anas.iter().copied());
        }
        v
    }

    /// Materializes an [`EnsembleSpec`] from a flattened node assignment.
    pub fn materialize(&self, assignment: &[usize]) -> EnsembleSpec {
        assert_eq!(assignment.len(), self.num_components());
        let mut members = Vec::with_capacity(self.members.len());
        let mut slots = assignment.iter().copied();
        for (sim_cores, anas) in &self.members {
            let sim = ComponentSpec::simulation(*sim_cores, slots.next().expect("length checked"));
            let analyses = anas
                .iter()
                .map(|&c| ComponentSpec::analysis(c, slots.next().expect("length checked")))
                .collect();
            members.push(MemberSpec::new(sim, analyses));
        }
        EnsembleSpec::new(members)
    }
}

/// Canonicalizes an assignment by relabeling nodes in order of first
/// appearance: `[2, 0, 2, 1]` → `[0, 1, 0, 2]`.
///
/// Linear: one pass to size a node→label table, one pass to fill and
/// apply it.
pub fn canonicalize(assignment: &[usize]) -> Vec<usize> {
    const UNLABELED: usize = usize::MAX;
    let table_len = assignment.iter().max().map_or(0, |&m| m + 1);
    let mut label = vec![UNLABELED; table_len];
    let mut next = 0usize;
    assignment
        .iter()
        .map(|&n| {
            if label[n] == UNLABELED {
                label[n] = next;
                next += 1;
            }
            label[n]
        })
        .collect()
}

/// The most candidates a count may reach: 2⁵³, past which a JSON number
/// (an IEEE double) no longer carries every count exactly. A subtree
/// larger than this is never counted, and a skip that would carry an
/// enumeration index past it is walked instead.
pub const MAX_EXACT_COUNT: usize = 1 << 53;

/// Every canonical placement is one set partition of the components,
/// and Bell(22) < 2⁵³ < Bell(23): a shape of at most this many
/// components never holds more than [`MAX_EXACT_COUNT`] placements.
const ALWAYS_EXACT_COMPONENTS: usize = 22;

/// States the count of a whole space may expand: the paper's and the
/// benchmark's shapes need a few dozen to a few thousand.
const SPACE_COUNT_BUDGET: usize = 1 << 16;

/// Words of key the completions memo holds before it is cleared and
/// refills (the benchmark shapes need a few dozen keys; clearing costs
/// recounts, never a wrong count).
const COMPLETIONS_CAPACITY_WORDS: usize = 1 << 18;

/// Key words a count memo may hold when it is checked into a
/// [`WalkCache`]: one past this is emptied first, so a kept memo holds
/// at most 2¹³ keys (each at least two words), ~0.7 MiB.
const KEPT_COUNT_WORDS: usize = 1 << 14;

/// Block-end orbit decisions a walk remembers before it clears them and
/// refills (S/M/L make 73–385, six members alike about 1 100; clearing
/// costs searches, never a wrong decision): ~0.4 MiB at most.
const ORBIT_DECISIONS_CAPACITY: usize = 1 << 12;

/// Walk keys a [`WalkCache`] holds; a new one evicts the oldest.
const WALK_CACHE_SHAPES: usize = 8;

/// Hashes the walk's memo keys — depths, loads and packed prefixes the
/// walk builds itself — a word at a time with a rotate and a multiply,
/// where the default hasher costs tens of nanoseconds a key. Its flood
/// resistance would buy nothing here: the memos are capped, and a client
/// that wants a slow scan can already ask for a large space.
#[derive(Debug, Default, Clone, Copy)]
struct WalkHasher(u64);

impl WalkHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for WalkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A memo keyed by walk states.
type WalkMap<K, V> = HashMap<K, V, BuildHasherDefault<WalkHasher>>;

/// Subtrees a fill may skip per leaf it may hand out before it returns
/// short. A skip costs about what handing a leaf out does (a bound and a
/// memo lookup, ~50 ns), so a pull stays a few microseconds long however
/// little of it is leaves, without a return to the feed every few skips.
const SKIPS_PER_LEAF: usize = 8;

/// States one count may expand (each one level deeper at most, so this
/// also bounds its recursion). A subtree too big to count within it is
/// walked instead, its smaller subtrees counted one by one, so no single
/// fill stalls the scan's cancellation probe.
const COUNT_BUDGET: usize = 1024;

/// Sizes of subtrees of the canonical enumeration. Below a prefix the
/// completions depend only on the depth and on the *multiset* of the
/// open nodes' loads: which open node holds which load is a relabeling,
/// and the canonical rule lets the next component onto every open node
/// alike, or onto the next new one. So they are counted once per
/// `[depth, sorted loads…]` key, and open nodes of equal load are one
/// branch times their multiplicity. A count past [`MAX_EXACT_COUNT`] is
/// not a count: it comes back `None`, like one past its budget.
#[derive(Debug, Clone)]
struct Completions {
    cores: Vec<u32>,
    max_nodes: usize,
    cap: u32,
    memo: CountMemo,
    /// States expanded — counted, not found in the memo — so far.
    states: u64,
    /// The key being looked up.
    key: Vec<u32>,
}

/// Subtree counts by `[depth, sorted loads…]` key.
#[derive(Debug, Clone, Default)]
struct CountMemo {
    counts: WalkMap<Box<[u32]>, usize>,
    /// Key words held, against [`COMPLETIONS_CAPACITY_WORDS`].
    words: usize,
}

impl Completions {
    fn new(cores: &[u32], max_nodes: usize, cap: u32) -> Self {
        let memo = CountMemo::default();
        Completions { cores: cores.to_vec(), max_nodes, cap, memo, states: 0, key: Vec::new() }
    }

    /// Canonical completions of a prefix of `depth < cores.len()`
    /// components whose open nodes carry `loads`; `None` when there are
    /// more than [`MAX_EXACT_COUNT`], or when counting would expand more
    /// than `budget` states not counted before (those it did finish stay
    /// memoized).
    fn count(&mut self, depth: usize, loads: &[u32], mut budget: usize) -> Option<usize> {
        self.key.clear();
        self.key.push(depth as u32);
        self.key.extend_from_slice(loads);
        self.key[1..].sort_unstable();
        if let Some(&count) = self.memo.counts.get(&self.key[..]) {
            return Some(count);
        }
        self.expand(self.key.clone(), &mut budget)
    }

    /// Counts the completions below `key`, one branch per distinct open
    /// load and one for a new node.
    fn expand(&mut self, key: Vec<u32>, budget: &mut usize) -> Option<usize> {
        *budget = budget.checked_sub(1)?;
        self.states += 1;
        let (depth, loads) = (key[0] as usize, &key[1..]);
        let (c, cap) = (self.cores[depth], u64::from(self.cap));
        let fits = |load: u32| u64::from(load) + u64::from(c) <= cap;
        let mut sum = 0usize;
        for i in 0..=loads.len() {
            let weight = if i == loads.len() {
                (loads.len() < self.max_nodes && fits(0)).then_some(1)
            } else if (i == 0 || loads[i - 1] != loads[i]) && fits(loads[i]) {
                Some(loads[i..].iter().take_while(|&&l| l == loads[i]).count())
            } else {
                None
            };
            let Some(weight) = weight else { continue };
            let mut child = key.clone();
            child[0] += 1;
            match child.get_mut(1 + i) {
                Some(load) => *load += c,
                None => child.push(c),
            }
            child[1..].sort_unstable();
            let below = if depth + 1 == self.cores.len() {
                1
            } else if let Some(&count) = self.memo.counts.get(&child[..]) {
                count
            } else {
                self.expand(child, budget)?
            };
            sum = below.checked_mul(weight).and_then(|n| n.checked_add(sum))?;
            if sum > MAX_EXACT_COUNT {
                return None;
            }
        }
        if self.memo.words + key.len() > COMPLETIONS_CAPACITY_WORDS {
            self.memo.counts.clear();
            self.memo.words = 0;
        }
        self.memo.words += key.len();
        self.memo.counts.insert(key.into_boxed_slice(), sum);
        Some(sum)
    }
}

/// Marks a node label no relabeling has mapped yet.
const UNMAPPED: usize = usize::MAX;

/// Member-permutation symmetry of a shape. Members of one *class* (the
/// caller vouches that they are interchangeable: equal component kinds
/// and cores, and a score that does not see which of them is which) may
/// trade places, so a placement and every `canonicalize(π(placement))`
/// for a class-preserving member permutation `π` form one *orbit*. The
/// walk hands out only an orbit's least canonical placement — its
/// *representative* — and [`Orbits::copies`] lists the rest.
///
/// Enumeration order is lexicographic order of canonical assignments, so
/// "least" is in enumeration order, and the representative comes before
/// every copy of it.
#[derive(Debug, Clone)]
pub(crate) struct Orbits {
    /// Per member, its `[start, end)` block in the flat component order.
    blocks: Vec<(usize, usize)>,
    /// Per member, its class.
    class: Vec<usize>,
    /// Per member, the member before it in its class.
    prev_in_class: Vec<Option<usize>>,
    /// Per component, its member.
    member_of: Vec<usize>,
    /// Bits per node label in a [`Orbits::key`].
    bits: u32,
    // --- scratch of one search ----------------------------------------
    used: Vec<bool>,
    /// Old label → new label under the arrangement being built.
    map: Vec<usize>,
    /// Labels `map` assigned, so a branch can take them back.
    undo: Vec<usize>,
    /// Per member: no node of its block holds another member's component.
    isolated: Vec<bool>,
    /// Per member, the first member it is interchangeable with at any
    /// slot ([`Orbits::mark_twins`]).
    twin: Vec<usize>,
    /// Per label, how many members' blocks hold it.
    owners: Vec<u32>,
}

/// The distinct copies of one representative, filled by
/// [`Orbits::copies`]: copy `i` is `flat[i * width..][..width]`, in
/// enumeration order, and its [`Orbits::key`] is `keys[i]`.
#[derive(Debug, Default)]
pub(crate) struct Copies {
    pub(crate) flat: Vec<usize>,
    pub(crate) keys: Vec<u128>,
}

impl Orbits {
    /// The symmetry of `shape` on labels below `max_nodes` under
    /// `classes` (one class id per member); `None` when every class is a
    /// single member, when `classes` does not fit the shape, when two
    /// members of a class differ in their cores, or when a placement does
    /// not pack into a 128-bit [`Orbits::key`].
    fn new(shape: &EnsembleShape, max_nodes: usize, classes: &[usize]) -> Option<Self> {
        let members = shape.members.len();
        let bits = usize::BITS - max_nodes.saturating_sub(1).leading_zeros();
        let bits = bits.max(1);
        if classes.len() != members || shape.num_components() * bits as usize > 128 {
            return None;
        }
        let mut blocks = Vec::with_capacity(members);
        let mut member_of = Vec::with_capacity(shape.num_components());
        let mut prev_in_class = vec![None; members];
        let mut shared = false;
        for (j, (sim, anas)) in shape.members.iter().enumerate() {
            let start = member_of.len();
            member_of.extend(std::iter::repeat_n(j, 1 + anas.len()));
            blocks.push((start, member_of.len()));
            let prev = (0..j).rev().find(|&i| classes[i] == classes[j]);
            if let Some(i) = prev {
                if shape.members[i] != (*sim, anas.clone()) {
                    return None;
                }
                shared = true;
            }
            prev_in_class[j] = prev;
        }
        shared.then(|| Orbits {
            blocks,
            class: classes.to_vec(),
            prev_in_class,
            member_of,
            bits,
            used: Vec::new(),
            map: Vec::new(),
            undo: Vec::new(),
            isolated: Vec::new(),
            twin: Vec::new(),
            owners: Vec::new(),
        })
    }

    /// `a` packed into one number, first position most significant:
    /// keys order as placements do, lexicographically — in enumeration
    /// order.
    pub(crate) fn key(&self, a: &[usize]) -> u128 {
        a.iter().fold(0u128, |key, &label| key << self.bits | label as u128)
    }

    /// The placement of `width` components packed in `key`.
    pub(crate) fn unpack(&self, key: u128, width: usize) -> Vec<usize> {
        let mask = (1u128 << self.bits) - 1;
        (0..width).rev().map(|k| ((key >> (k as u32 * self.bits)) & mask) as usize).collect()
    }

    /// True when the component at `depth − 1` is the last of its member.
    fn ends_block(&self, depth: usize) -> bool {
        self.blocks[self.member_of[depth - 1]].1 == depth
    }

    /// True when a completion of the canonical `prefix` can still be the
    /// least of its orbit. False when the last member it touches has a
    /// block (or the placed part of one) that, moved to the slot of an
    /// earlier member of its class and relabeled there, precedes that
    /// member's block; or, at a complete block, when some rearrangement
    /// of the members placed so far precedes it: either way trading
    /// members gives a copy that precedes every completion.
    pub(crate) fn admits(&mut self, prefix: &[usize]) -> bool {
        let depth = prefix.len();
        let member = self.member_of[depth - 1];
        let (start, end) = self.blocks[member];
        let placed = &prefix[start..depth];
        let mut earlier = self.prev_in_class[member];
        while let Some(other) = earlier {
            let at = self.blocks[other].0;
            let seen = prefix[..at].iter().max().map_or(0, |&m| m + 1);
            if relabeled_below(placed, &prefix[at..at + placed.len()], seen) {
                return false;
            }
            earlier = self.prev_in_class[other];
        }
        depth != end || self.least(prefix, member + 1)
    }

    /// True when no arrangement of the first `members` members within
    /// their classes, relabeled by first appearance, precedes `a` (which
    /// holds exactly their blocks).
    fn least(&mut self, a: &[usize], members: usize) -> bool {
        self.twin.clear();
        self.used.clear();
        self.used.resize(members, false);
        self.map.clear();
        self.map.resize(a.iter().max().map_or(0, |&m| m + 1), UNMAPPED);
        !self.precedes(a, 0, members, 0)
    }

    /// Groups the first `members` members of `a` into twins: members of
    /// one class whose blocks are literally the same, or which are both
    /// isolated (no node of theirs holds another member's component) with
    /// the same pattern of equal nodes. Trading twins, nodes and all, is
    /// a symmetry of `a`, so at any slot a search tries one of them.
    fn mark_twins(&mut self, a: &[usize], members: usize) {
        self.owners.clear();
        self.owners.resize(a.iter().max().map_or(0, |&m| m + 1), 0);
        for &(start, end) in &self.blocks[..members] {
            for k in start..end {
                if !a[start..k].contains(&a[k]) {
                    self.owners[a[k]] += 1;
                }
            }
        }
        self.isolated.clear();
        for &(start, end) in &self.blocks[..members] {
            self.isolated.push(a[start..end].iter().all(|&l| self.owners[l] == 1));
        }
        self.twin.clear();
        for m in 0..members {
            let (s, e) = self.blocks[m];
            let twin = (0..m).find(|&o| {
                let start = self.blocks[o].0;
                let (x, y) = (&a[start..start + (e - s)], &a[s..e]);
                self.class[o] == self.class[m]
                    && (x == y || (self.isolated[o] && self.isolated[m] && same_pattern(x, y)))
            });
            self.twin.push(twin.unwrap_or(m));
        }
    }

    /// True when an earlier unused twin of member `cand` was tried at
    /// this slot already.
    fn repeats(&self, cand: usize) -> bool {
        (0..cand).any(|other| !self.used[other] && self.twin[other] == self.twin[cand])
    }

    /// Whether arranging the unused members into slots `slot..members`,
    /// relabeling on from `next` fresh labels, can precede `a` there
    /// (the slots before are equal to `a` already).
    fn precedes(&mut self, a: &[usize], slot: usize, members: usize, next: usize) -> bool {
        if slot == members {
            return false;
        }
        // A candidate whose block relabels below `a`'s here wins outright;
        // only the ties need the slots after.
        let mut ties = 0u128;
        for cand in 0..members {
            if self.used[cand] || self.class[cand] != self.class[slot] {
                continue;
            }
            let mark = self.undo.len();
            let (ord, _) = self.relabel(a, cand, slot, next);
            self.take_back(mark);
            if ord.is_lt() {
                return true;
            }
            if ord.is_eq() {
                ties |= 1 << cand;
            }
        }
        if ties != 0 {
            // A twin tried before it at this slot explored the same
            // arrangements (twins are grouped only once a tie needs it).
            if self.twin.is_empty() {
                self.mark_twins(a, members);
            }
            for cand in (0..members).filter(|&c| ties >> c & 1 == 1) {
                if self.repeats(cand) {
                    continue;
                }
                let mark = self.undo.len();
                let (_, fresh) = self.relabel(a, cand, slot, next);
                self.used[cand] = true;
                let beats = self.precedes(a, slot + 1, members, fresh);
                self.used[cand] = false;
                self.take_back(mark);
                if beats {
                    return true;
                }
            }
        }
        false
    }

    /// Relabels member `cand`'s block as if it went to `slot`, on from
    /// `next` fresh labels, and compares it with `a`'s block there:
    /// the order, and the next fresh label. The labels it mapped stay
    /// mapped until [`Orbits::take_back`].
    fn relabel(
        &mut self,
        a: &[usize],
        cand: usize,
        slot: usize,
        next: usize,
    ) -> (std::cmp::Ordering, usize) {
        let (s0, s1) = self.blocks[slot];
        let c0 = self.blocks[cand].0;
        let (mut fresh, mut ord) = (next, std::cmp::Ordering::Equal);
        for k in 0..s1 - s0 {
            let label = a[c0 + k];
            if self.map[label] == UNMAPPED {
                self.map[label] = fresh;
                self.undo.push(label);
                fresh += 1;
            }
            ord = self.map[label].cmp(&a[s0 + k]);
            if ord.is_ne() {
                break;
            }
        }
        (ord, fresh)
    }

    /// Unmaps the labels mapped since the undo list held `mark`.
    fn take_back(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let label = self.undo.pop().expect("above the mark");
            self.map[label] = UNMAPPED;
        }
    }

    /// Fills `out` with every distinct canonical copy of the
    /// representative `rep` other than itself, in enumeration order.
    pub(crate) fn copies(&mut self, rep: &[usize], out: &mut Copies) {
        let members = self.blocks.len();
        self.mark_twins(rep, members);
        self.used.clear();
        self.used.resize(members, false);
        self.map.clear();
        self.map.resize(rep.iter().max().map_or(0, |&m| m + 1), UNMAPPED);
        out.keys.clear();
        self.arrange(rep, 0, 0, 0, &mut out.keys);
        out.keys.sort_unstable();
        out.keys.dedup();
        let own = self.key(rep);
        out.keys.retain(|&key| key != own);
        out.flat.clear();
        for &key in &out.keys {
            out.flat.extend(self.unpack(key, rep.len()));
        }
    }

    /// Pushes onto `keys` every arrangement of the unused members into the
    /// slots from `slot` on, relabeled on from `next` fresh labels as each
    /// block lands onto `key` (the slots before, packed).
    fn arrange(
        &mut self,
        rep: &[usize],
        slot: usize,
        next: usize,
        key: u128,
        keys: &mut Vec<u128>,
    ) {
        let members = self.blocks.len();
        if slot == members {
            keys.push(key);
            return;
        }
        for cand in 0..members {
            if self.used[cand] || self.class[cand] != self.class[slot] || self.repeats(cand) {
                continue;
            }
            let mark = self.undo.len();
            let (start, end) = self.blocks[cand];
            let (mut fresh, mut longer) = (next, key);
            for &label in &rep[start..end] {
                if self.map[label] == UNMAPPED {
                    self.map[label] = fresh;
                    self.undo.push(label);
                    fresh += 1;
                }
                longer = longer << self.bits | self.map[label] as u128;
            }
            self.used[cand] = true;
            self.arrange(rep, slot + 1, fresh, longer, keys);
            self.used[cand] = false;
            self.take_back(mark);
        }
    }
}

/// True when `block`, relabeled as if it came right after a prefix that
/// used labels `0..seen` (its other labels numbered on from `seen` in
/// order of first appearance), precedes `other` lexicographically.
fn relabeled_below(block: &[usize], other: &[usize], seen: usize) -> bool {
    let new_at = |first: usize| {
        let fresh_before =
            (0..first).filter(|&p| block[p] >= seen && !block[..p].contains(&block[p])).count();
        seen + fresh_before
    };
    for (&label, &there) in block.iter().zip(other) {
        let new = if label < seen {
            label
        } else {
            new_at(block.iter().position(|&l| l == label).expect("label is in the block"))
        };
        if new != there {
            return new < there;
        }
    }
    false
}

/// True when `x` and `y` hold equal nodes at the same positions.
fn same_pattern(x: &[usize], y: &[usize]) -> bool {
    (0..x.len()).all(|k| (0..k).all(|l| (x[k] == x[l]) == (y[k] == y[l])))
}

/// One pull of leaves from a [`PlacementIter`], refilled in place: a
/// scan worker owns one and reuses its allocations chunk after chunk.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    /// The leaves' assignments end to end, `num_components` wide each.
    pub(crate) flat: Vec<usize>,
    /// Per leaf, its first-changed position relative to the leaf the
    /// iterator handed out just before it (meaningless for the first).
    pub(crate) hints: Vec<usize>,
    /// Per leaf, its enumeration index.
    pub(crate) indices: Vec<usize>,
    /// How many leaves the iterator had handed out before this chunk's
    /// first: leaf `j` is hand-out number `first + j`, and its hint holds
    /// for a worker whose previous leaf was number `first + j − 1`.
    pub(crate) first: usize,
}

/// Lazy, resumable enumerator of canonical feasible placements — the
/// streaming form of [`enumerate_placements`].
///
/// Depth-first with the canonical-prefix rule (component `i` may use
/// node `t` only if `t ≤ max-node-used-so-far + 1`), held as an explicit
/// backtracking stack so enumeration can pause after any assignment and
/// resume where it left off. Candidates are produced in exactly the
/// order the old recursive enumeration materialized them, one at a
/// time: no `O(candidates)` allocation up front, which is what lets the
/// parallel scan engine ([`crate::scan`]) stream chunks to workers at
/// paper scale (millions of candidates).
///
/// A bounded scan walks it with a floor and a prefix bound instead:
/// every subtree whose bound is strictly below the floor is skipped
/// unvisited, and its exact size — counted, not enumerated — is added
/// to the enumeration index, so every leaf handed out keeps the index
/// it has in the full enumeration.
#[derive(Debug, Clone)]
pub struct PlacementIter {
    cores: Vec<u32>,
    max_nodes: usize,
    cores_per_node: u32,
    /// Current (partial) assignment; positions `< depth` are placed.
    assignment: Vec<usize>,
    /// Core load per node under the current partial assignment.
    used: Vec<u32>,
    /// Per depth: the next node index to try when (re)entering it.
    next: Vec<usize>,
    /// Per depth: number of distinct nodes used by the prefix before it
    /// (the recursive formulation's `max_used` argument).
    prefix_max: Vec<usize>,
    depth: usize,
    /// True while `assignment` holds the just-yielded complete leaf.
    at_leaf: bool,
    done: bool,
    /// Candidates passed so far, handed out or skipped.
    yielded: usize,
    /// Leaves handed out so far.
    handed: usize,
    /// Candidates skipped unvisited, with their subtrees.
    skipped: usize,
    completions: Completions,
    /// Lowest depth the DFS backtracked to since the last yield — every
    /// position below it is unchanged from the previous assignment.
    low_water: usize,
    /// Member classes, when the walk hands out orbit representatives
    /// only ([`PlacementIter::set_classes`]).
    orbits: Option<Orbits>,
    /// [`Orbits::admits`] at the end of a member block, by `(depth,
    /// Orbits::key(prefix))`.
    decisions: WalkMap<(usize, u128), bool>,
    /// Block-end orbit checks computed, not found in `decisions`.
    orbit_searches: u64,
}

impl PlacementIter {
    /// Starts enumeration of `shape` onto at most `max_nodes` nodes of
    /// `cores_per_node` cores.
    ///
    /// `max_nodes` is clamped to the component count: the
    /// canonical-prefix rule never hands component `i` a node above
    /// `i`, so the enumeration is exactly the same, and a budget read
    /// off the wire cannot size the per-node state.
    pub fn new(shape: &EnsembleShape, max_nodes: usize, cores_per_node: u32) -> Self {
        let cores = shape.component_cores();
        let n = cores.len();
        let max_nodes = max_nodes.min(n);
        PlacementIter {
            assignment: vec![0; n],
            used: vec![0; max_nodes],
            next: vec![0; n + 1],
            prefix_max: vec![0; n + 1],
            depth: 0,
            at_leaf: false,
            done: max_nodes == 0,
            yielded: 0,
            handed: 0,
            skipped: 0,
            completions: Completions::new(&cores, max_nodes, cores_per_node),
            low_water: 0,
            orbits: None,
            decisions: WalkMap::default(),
            orbit_searches: 0,
            cores,
            max_nodes,
            cores_per_node,
        }
    }

    /// A walk of `shape` as [`new`](Self::new) starts it, reducing by
    /// `classes` ([`set_classes`](Self::set_classes)), with the memos an
    /// earlier walk of the same key checked into `cache` — what it would
    /// compute again, since they depend on that key alone.
    pub(crate) fn start(
        shape: &EnsembleShape,
        max_nodes: usize,
        cores_per_node: u32,
        classes: Option<&[usize]>,
        cache: Option<&WalkCache>,
    ) -> Self {
        let mut walk = PlacementIter::new(shape, max_nodes, cores_per_node);
        let key = (shape, walk.max_nodes, cores_per_node, classes);
        match cache.and_then(|cache| cache.check_out(key)) {
            Some(memo) => {
                walk.completions.memo = memo.counts;
                walk.orbits = memo.orbits;
                walk.decisions = memo.decisions;
            }
            None => {
                if let Some(classes) = classes {
                    walk.set_classes(shape, classes);
                }
            }
        }
        walk
    }

    /// Declares members of equal `classes` id interchangeable before the
    /// walk starts: from then on it hands out only the least canonical
    /// placement of each member-permutation orbit ([`Orbits`]) and skips
    /// the copies, counted like any skipped subtree. Singleton classes
    /// change nothing, and so does a space that cannot be counted
    /// exactly (the copies' indexes are counts). True when it took.
    pub(crate) fn set_classes(&mut self, shape: &EnsembleShape, classes: &[usize]) -> bool {
        assert_eq!(self.yielded, 0, "classes are declared before the walk starts");
        let exact = self.cores.len() <= ALWAYS_EXACT_COMPONENTS
            || self.completions.count(0, &[], SPACE_COUNT_BUDGET).is_some();
        self.orbits = Orbits::new(shape, self.max_nodes, classes).filter(|_| exact);
        self.orbits.is_some()
    }

    /// The member classes the walk reduces by, if any.
    pub(crate) fn orbits(&self) -> Option<&Orbits> {
        self.orbits.as_ref()
    }

    /// Block-end orbit checks this walk computed rather than remembered
    /// (each runs [`Orbits::least`] unless the cheaper block check
    /// refuses first).
    pub(crate) fn orbit_searches(&self) -> u64 {
        self.orbit_searches
    }

    /// Subtree-count states this walk expanded rather than remembered.
    pub(crate) fn count_states(&self) -> u64 {
        self.completions.states
    }

    /// [`Orbits::admits`] of the current prefix, true without classes. A
    /// decision at the end of a member block, where the rearrangement
    /// search runs, is a function of the prefix alone, so it is
    /// remembered by `(depth, key)`.
    fn admits(&mut self) -> bool {
        let Some(orbits) = self.orbits.as_mut() else { return true };
        let prefix = &self.assignment[..self.depth];
        if !orbits.ends_block(self.depth) {
            return orbits.admits(prefix);
        }
        let key = (self.depth, orbits.key(prefix));
        if let Some(&admitted) = self.decisions.get(&key) {
            return admitted;
        }
        self.orbit_searches += 1;
        let admitted = orbits.admits(prefix);
        if self.decisions.len() >= ORBIT_DECISIONS_CAPACITY {
            self.decisions.clear();
        }
        self.decisions.insert(key, admitted);
        admitted
    }

    /// The enumeration index of the canonical feasible placement `a`: the
    /// leaves of every subtree that precedes it, counted. Only for a walk
    /// with classes, whose space counts exactly.
    pub(crate) fn index_of(&mut self, a: &[usize]) -> usize {
        let n = self.cores.len();
        let mut loads = vec![0u32; self.max_nodes];
        let (mut open, mut index) = (0usize, 0usize);
        for (d, &node) in a.iter().enumerate() {
            let c = self.cores[d];
            for t in 0..node {
                if u64::from(loads[t]) + u64::from(c) > u64::from(self.cores_per_node) {
                    continue;
                }
                loads[t] += c;
                index += if d + 1 == n {
                    1
                } else {
                    self.completions
                        .count(d + 1, &loads[..open], usize::MAX)
                        .expect("a space with classes counts exactly")
                };
                loads[t] -= c;
            }
            loads[node] += c;
            open = open.max(node + 1);
        }
        index
    }

    /// Candidates passed so far, handed out or skipped — the
    /// enumeration index of the *next* assignment
    /// [`advance`](Self::advance) will return.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// Candidates a bounded walk skipped unvisited.
    pub(crate) fn skipped(&self) -> usize {
        self.skipped
    }

    /// True once the whole space has been handed out or skipped.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Advances to the next canonical feasible assignment. The returned
    /// slice aliases internal state and is valid until the next call;
    /// callers that keep it must copy it out.
    pub fn advance(&mut self) -> Option<&[usize]> {
        self.advance_delta().map(|(assignment, _)| assignment)
    }

    /// [`advance`](Self::advance), also reporting the first position at
    /// which the returned assignment differs from the previously
    /// returned one: `assignment[..first_changed]` is unchanged. The
    /// report is conservative (it is the lowest depth the DFS
    /// backtracked to, which may precede the first *actual* difference)
    /// and meaningless on the first yield, where there is no
    /// predecessor.
    pub fn advance_delta(&mut self) -> Option<(&[usize], usize)> {
        let mut skips = usize::MAX;
        let unbounded = |_: &[usize], _: usize| f64::INFINITY;
        let first_changed = self.walk(f64::NEG_INFINITY, &unbounded, &mut skips, 0)?;
        Some((&self.assignment, first_changed))
    }

    /// Moves the DFS to its next leaf and returns the leaf's
    /// first-changed position. With a `floor` above `−∞`, every subtree
    /// whose `bound(prefix, open_nodes)` is strictly below it is skipped
    /// unvisited and counted at its exact size, each skip using up one
    /// of `skips` — unless counting it would expand more than
    /// `count_budget` states, or carry the index past
    /// [`MAX_EXACT_COUNT`]: then the walk descends into it. `None` at the
    /// end of the space, or when `skips` runs out (the next call resumes
    /// there).
    fn walk(
        &mut self,
        floor: f64,
        bound: &impl Fn(&[usize], usize) -> f64,
        skips: &mut usize,
        count_budget: usize,
    ) -> Option<usize> {
        if self.done {
            return None;
        }
        let n = self.cores.len();
        if self.at_leaf {
            // Backtrack off the leaf yielded by the previous call.
            self.at_leaf = false;
            self.pop();
        }
        loop {
            if self.depth == n {
                self.at_leaf = true;
                self.yielded += 1;
                self.handed += 1;
                let first_changed = self.low_water;
                self.low_water = n;
                return Some(first_changed);
            }
            let limit = self.prefix_max[self.depth].min(self.max_nodes - 1);
            let mut t = self.next[self.depth];
            while t <= limit && self.used[t] + self.cores[self.depth] > self.cores_per_node {
                t += 1;
            }
            if t <= limit {
                self.used[t] += self.cores[self.depth];
                self.assignment[self.depth] = t;
                self.next[self.depth] = t + 1;
                self.prefix_max[self.depth + 1] = self.prefix_max[self.depth].max(t + 1);
                self.depth += 1;
                self.next[self.depth] = 0;
                let prefix = &self.assignment[..self.depth];
                let below =
                    floor > f64::NEG_INFINITY && bound(prefix, self.prefix_max[self.depth]) < floor;
                let skip = below || !self.admits();
                if skip {
                    let room = MAX_EXACT_COUNT.saturating_sub(self.yielded);
                    if let Some(size) = self.subtree_size(count_budget).filter(|&s| s <= room) {
                        self.yielded += size;
                        self.skipped += size;
                        self.pop();
                        *skips -= 1;
                        if *skips == 0 {
                            return None;
                        }
                    }
                }
            } else if self.depth == 0 {
                self.done = true;
                return None;
            } else {
                self.pop();
            }
        }
    }

    /// Takes the component at the top of the DFS back off its node.
    fn pop(&mut self) {
        self.depth -= 1;
        self.low_water = self.low_water.min(self.depth);
        self.used[self.assignment[self.depth]] -= self.cores[self.depth];
    }

    /// Leaves below the current prefix, if they can be counted within
    /// `budget` states.
    fn subtree_size(&mut self, budget: usize) -> Option<usize> {
        if self.depth == self.cores.len() {
            return Some(1);
        }
        let open = &self.used[..self.prefix_max[self.depth]];
        self.completions.count(self.depth, open, budget)
    }

    /// Refills `chunk` with up to `n` leaves, skipping every subtree
    /// whose `bound` is strictly below `floor` (as
    /// [`walk`](Self::walk) does); returns how many leaves it holds. Short
    /// at the end of the space, and after [`SKIPS_PER_LEAF`] skips per
    /// leaf of `n`, so one pull never runs long however much it skips
    /// ([`is_done`](Self::is_done) tells the two apart).
    pub(crate) fn fill_chunk(
        &mut self,
        chunk: &mut Chunk,
        n: usize,
        floor: f64,
        bound: &impl Fn(&[usize], usize) -> f64,
    ) -> usize {
        self.fill(chunk, n, floor, bound, COUNT_BUDGET)
    }

    /// [`fill_chunk`](Self::fill_chunk) with counts given up past
    /// `count_budget` states.
    fn fill(
        &mut self,
        chunk: &mut Chunk,
        n: usize,
        floor: f64,
        bound: &impl Fn(&[usize], usize) -> f64,
        count_budget: usize,
    ) -> usize {
        chunk.flat.clear();
        chunk.hints.clear();
        chunk.indices.clear();
        chunk.first = self.handed;
        let mut skips = n.saturating_mul(SKIPS_PER_LEAF);
        while chunk.hints.len() < n {
            let Some(first_changed) = self.walk(floor, bound, &mut skips, count_budget) else {
                break;
            };
            chunk.flat.extend_from_slice(&self.assignment);
            chunk.hints.push(first_changed);
            chunk.indices.push(self.yielded - 1);
        }
        chunk.hints.len()
    }
}

impl Iterator for PlacementIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.advance().map(<[usize]>::to_vec)
    }
}

/// A walk's structural key: the shape's member blocks, the clamped node
/// budget, the cores per node and the member classes it reduces by.
type WalkKey<'a> = (&'a EnsembleShape, usize, u32, Option<&'a [usize]>);

/// What a walk learned that depends on its [`WalkKey`] alone.
#[derive(Debug)]
struct WalkMemo {
    counts: CountMemo,
    orbits: Option<Orbits>,
    decisions: WalkMap<(usize, u128), bool>,
}

/// One key's memos; `None` while a walk has them checked out.
#[derive(Debug)]
struct WalkEntry {
    members: Vec<(u32, Vec<u32>)>,
    max_nodes: usize,
    cores_per_node: u32,
    classes: Option<Vec<usize>>,
    memo: Option<WalkMemo>,
}

impl WalkEntry {
    fn is(&self, (shape, max_nodes, cores_per_node, classes): WalkKey<'_>) -> bool {
        self.max_nodes == max_nodes
            && self.cores_per_node == cores_per_node
            && self.classes.as_deref() == classes
            && self.members == shape.members
    }
}

/// Memos of bounded walks that outlive the scan, by walk key: the
/// shape's member blocks, the node budget (clamped to the component
/// count), the cores per node and the member classes. A walk's subtree
/// counts depend only on the depth, the sorted open loads, the
/// components left, the node budget and the cores per node, and its
/// orbit decisions only on the prefix, the member blocks and the
/// classes. So what one scan of a key learned, a later scan of the same
/// key — whatever its floor, `top_k`, workloads or width — reuses as is:
/// the counts, the orbits it built and its block-end decisions. A scan
/// checks a key's memos out when its walk starts and back in when it
/// ends (one lock each); a scan of a key whose memos another scan holds
/// starts without them.
///
/// Bounded by constants: 8 keys, evicted oldest first; a count memo of
/// more than 2¹⁴ key words is emptied when it is checked in, and a walk
/// clears its decisions at 2¹². Worst case about 8 × (0.7 + 0.4) MiB,
/// ~9 MiB, beside what each walk holds while it runs.
#[derive(Debug, Default)]
pub struct WalkCache {
    entries: Mutex<VecDeque<WalkEntry>>,
}

impl WalkCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<WalkEntry>> {
        self.entries.lock().expect("a walk-cache holder panicked")
    }

    /// The memos held under `key`, if no walk has them checked out.
    fn check_out(&self, key: WalkKey<'_>) -> Option<WalkMemo> {
        self.lock().iter_mut().find(|entry| entry.is(key)).and_then(|entry| entry.memo.take())
    }

    /// Keeps what `walk`, started by [`PlacementIter::start`] with
    /// `shape` and `classes`, learned, for the next walk of its key.
    pub(crate) fn check_in(
        &self,
        shape: &EnsembleShape,
        classes: Option<&[usize]>,
        walk: PlacementIter,
    ) {
        let key = (shape, walk.max_nodes, walk.cores_per_node, classes);
        let mut counts = walk.completions.memo;
        if counts.words > KEPT_COUNT_WORDS {
            counts = CountMemo::default();
        }
        let memo = Some(WalkMemo { counts, orbits: walk.orbits, decisions: walk.decisions });
        let mut entries = self.lock();
        if let Some(entry) = entries.iter_mut().find(|entry| entry.is(key)) {
            entry.memo = memo;
            return;
        }
        if entries.len() >= WALK_CACHE_SHAPES {
            entries.pop_front();
        }
        entries.push_back(WalkEntry {
            members: shape.members.clone(),
            max_nodes: key.1,
            cores_per_node: key.2,
            classes: classes.map(<[usize]>::to_vec),
            memo,
        });
    }
}

/// Enumerates all canonical feasible placements of `shape` onto at most
/// `max_nodes` nodes of `cores_per_node` cores.
///
/// Returned assignments are flattened node indexes (member-major,
/// simulation first), each canonical under node relabeling, each
/// respecting per-node core capacity. Materializes the whole space —
/// prefer [`PlacementIter`] (or [`crate::scan`]) when the space is
/// large.
pub fn enumerate_placements(
    shape: &EnsembleShape,
    max_nodes: usize,
    cores_per_node: u32,
) -> Vec<Vec<usize>> {
    PlacementIter::new(shape, max_nodes, cores_per_node).collect()
}

/// True when the canonical placement space of `shape` on at most
/// `max_nodes` nodes of `cores_per_node` cores provably holds at most
/// [`MAX_EXACT_COUNT`] candidates, so every count and enumeration index a
/// scan of it reports is exact: always for a shape of up to 22
/// components, and otherwise when the whole space can be counted within
/// a fixed budget and the count stays within the limit.
pub fn space_counts_exactly(shape: &EnsembleShape, max_nodes: usize, cores_per_node: u32) -> bool {
    let cores = shape.component_cores();
    if cores.len() <= ALWAYS_EXACT_COMPONENTS {
        return true;
    }
    let mut completions = Completions::new(&cores, max_nodes.min(cores.len()), cores_per_node);
    completions.count(0, &[], SPACE_COUNT_BUDGET).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_examples() {
        assert_eq!(canonicalize(&[2, 0, 2, 1]), vec![0, 1, 0, 2]);
        assert_eq!(canonicalize(&[0, 0, 0]), vec![0, 0, 0]);
        assert_eq!(canonicalize(&[5]), vec![0]);
        assert!(canonicalize(&[]).is_empty());
    }

    #[test]
    fn enumeration_is_canonical_and_unique() {
        let shape = EnsembleShape::uniform(1, 16, 1, 8);
        let placements = enumerate_placements(&shape, 2, 32);
        // Two components, two nodes: {same node, different nodes}.
        assert_eq!(placements.len(), 2);
        for p in &placements {
            assert_eq!(p, &canonicalize(p), "must already be canonical");
        }
        let mut dedup = placements.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), placements.len());
    }

    #[test]
    fn capacity_prunes_infeasible() {
        // Two 16-core sims + two 8-core analyses can't all fit one
        // 32-core node.
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let placements = enumerate_placements(&shape, 1, 32);
        assert!(placements.is_empty(), "48 cores cannot fit a single node");
        let on_two = enumerate_placements(&shape, 2, 32);
        assert!(!on_two.is_empty());
        for p in &on_two {
            let mut load = [0u32; 2];
            let cores = [16u32, 8, 16, 8];
            for (c, &n) in cores.iter().zip(p) {
                load[n] += c;
            }
            assert!(load.iter().all(|&l| l <= 32), "{p:?} overloads a node");
        }
    }

    #[test]
    fn paper_set_one_space_is_covered() {
        // 2 members × (sim + 1 analysis) on ≤ 3 nodes of 32 cores. All
        // of C1.1–C1.5 must appear among the canonical placements.
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let placements = enumerate_placements(&shape, 3, 32);
        // Flattened order: [sim1, ana1, sim2, ana2].
        let expect = [
            canonicalize(&[0, 2, 1, 2]), // C1.1
            canonicalize(&[0, 1, 0, 2]), // C1.2
            canonicalize(&[0, 0, 1, 2]), // C1.3
            canonicalize(&[0, 1, 0, 1]), // C1.4
            canonicalize(&[0, 0, 1, 1]), // C1.5
        ];
        for (i, e) in expect.iter().enumerate() {
            assert!(placements.contains(e), "C1.{} missing from enumeration", i + 1);
        }
    }

    #[test]
    fn materialize_roundtrip() {
        let shape = EnsembleShape::uniform(2, 16, 2, 8);
        let spec = shape.materialize(&[0, 0, 0, 1, 1, 1]);
        assert_eq!(spec.n(), 2);
        assert_eq!(spec.members[0].simulation.nodes, std::collections::BTreeSet::from([0]));
        assert_eq!(spec.members[1].analyses[1].nodes, std::collections::BTreeSet::from([1]));
        spec.validate(Some(32)).unwrap();
    }

    #[test]
    fn component_count() {
        assert_eq!(EnsembleShape::uniform(2, 16, 2, 8).num_components(), 6);
    }

    #[test]
    fn placement_iter_streams_the_materialized_enumeration() {
        let shape = EnsembleShape::uniform(2, 16, 1, 8);
        let materialized = enumerate_placements(&shape, 3, 32);
        let streamed: Vec<Vec<usize>> = PlacementIter::new(&shape, 3, 32).collect();
        assert_eq!(streamed, materialized, "identical content in identical order");
    }

    #[test]
    fn flat_chunks_report_valid_first_changed_positions() {
        let shape = EnsembleShape::uniform(2, 16, 2, 8);
        let width = shape.num_components();
        let materialized = enumerate_placements(&shape, 4, 32);
        let unbounded = |_: &[usize], _: usize| f64::INFINITY;
        for chunk in [1usize, 2, 3, 7, 100] {
            let mut it = PlacementIter::new(&shape, 4, 32);
            let mut buf = Chunk::default();
            let mut seen = 0usize;
            loop {
                assert_eq!(it.yielded(), seen, "a chunk starts at the next enumeration index");
                let got = it.fill_chunk(&mut buf, chunk, f64::NEG_INFINITY, &unbounded);
                assert_eq!((buf.flat.len(), buf.hints.len()), (got * width, got));
                assert_eq!(buf.first, seen, "nothing skipped: hand-outs are indexes");
                for ((assignment, &fc), &index) in
                    buf.flat.chunks_exact(width).zip(&buf.hints).zip(&buf.indices)
                {
                    assert_eq!(index, seen);
                    assert_eq!(assignment, &materialized[seen][..], "chunk={chunk}");
                    if seen > 0 {
                        assert!(fc < width);
                        assert_eq!(
                            assignment[..fc],
                            materialized[seen - 1][..fc],
                            "hint must never skip a real change (chunk={chunk}, index={seen})"
                        );
                        // The hint is tight for this DFS: the position it
                        // names really did change.
                        assert_ne!(assignment[fc], materialized[seen - 1][fc], "index={seen}");
                    }
                    seen += 1;
                }
                if got < chunk {
                    break;
                }
            }
            assert_eq!(seen, materialized.len(), "chunk={chunk}");
            let drained = it.fill_chunk(&mut buf, chunk, f64::NEG_INFINITY, &unbounded);
            assert_eq!(drained, 0, "stays drained");
            assert!(it.is_done() && buf.flat.is_empty() && buf.hints.is_empty());
        }
    }

    /// Every canonical completion of `prefix`, by brute force: the full
    /// enumeration's leaves that start with it.
    fn completions_by_walk(shape: &EnsembleShape, max_nodes: usize, prefix: &[usize]) -> usize {
        PlacementIter::new(shape, max_nodes, 32).filter(|a| a.starts_with(prefix)).count()
    }

    #[test]
    fn completion_counts_equal_the_walk_below_every_prefix() {
        // Mixed core counts (equal loads on different nodes, full nodes,
        // a component that fits nowhere beside another) and budgets both
        // below and at the component count.
        let shapes = [
            EnsembleShape { members: vec![(16, vec![8, 4]), (4, vec![1]), (8, vec![8, 16])] },
            EnsembleShape::uniform(3, 8, 1, 4),
            EnsembleShape { members: vec![(32, vec![1]), (2, vec![2, 2, 2])] },
        ];
        for shape in &shapes {
            let n = shape.num_components();
            for max_nodes in [2, 3, n] {
                let cores = shape.component_cores();
                let mut memo = Completions::new(&cores, max_nodes.min(n), 32);
                let leaves = enumerate_placements(shape, max_nodes, 32);
                let mut prefixes: Vec<Vec<usize>> =
                    leaves.iter().flat_map(|a| (1..n).map(|d| a[..d].to_vec())).collect();
                prefixes.sort();
                prefixes.dedup();
                for prefix in &prefixes {
                    let mut loads = vec![0u32; n];
                    for (&node, &c) in prefix.iter().zip(&cores) {
                        loads[node] += c;
                    }
                    let open = prefix.iter().max().map_or(0, |&m| m + 1);
                    let counted = memo.count(prefix.len(), &loads[..open], COUNT_BUDGET);
                    let walked = completions_by_walk(shape, max_nodes, prefix);
                    assert_eq!(counted, Some(walked), "{shape:?} on {max_nodes}: {prefix:?}");
                }
            }
        }
    }

    #[test]
    fn a_bounded_walk_keeps_every_index_and_hints_against_the_last_leaf() {
        // Skip every subtree below a prefix with an analysis away from
        // its simulation: what is left must be exactly the leaves that
        // co-locate every member, each at its full-enumeration index,
        // each hint valid against the previous leaf handed out — also
        // when counts run out of budget and the walk descends into a
        // subtree it could not count, to skip its parts instead.
        let shape = EnsembleShape::uniform(3, 8, 1, 4);
        let width = shape.num_components();
        let all = enumerate_placements(&shape, 5, 32);
        let split = |p: &[usize]| p.chunks_exact(2).any(|m| m[0] != m[1]);
        let bound = |prefix: &[usize], _: usize| if split(prefix) { 0.0 } else { 2.0 };
        for (chunk, count_budget) in [(1usize, COUNT_BUDGET), (3, 0), (64, 1), (64, COUNT_BUDGET)] {
            let mut it = PlacementIter::new(&shape, 5, 32);
            let mut buf = Chunk::default();
            let mut handed: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            while !it.is_done() {
                it.fill(&mut buf, chunk, 1.0, &bound, count_budget);
                assert_eq!(buf.first, handed.len());
                for ((a, &hint), &index) in
                    buf.flat.chunks_exact(width).zip(&buf.hints).zip(&buf.indices)
                {
                    handed.push((index, a.to_vec(), hint));
                }
            }
            let kept: Vec<usize> =
                (0..all.len()).filter(|&i| (1..=width).all(|d| !split(&all[i][..d]))).collect();
            assert!(kept.len() > 1 && kept.len() < all.len());
            assert_eq!(handed.iter().map(|h| h.0).collect::<Vec<_>>(), kept, "chunk={chunk}");
            for w in handed.windows(2) {
                let (prev, (index, a, hint)) = (&w[0].1, (&w[1].0, &w[1].1, w[1].2));
                assert_eq!(a, &all[*index]);
                assert_eq!(
                    a[..hint],
                    prev[..hint],
                    "a hint is relative to the last leaf handed out"
                );
            }
            assert_eq!(it.yielded(), all.len());
            assert_eq!(it.skipped(), all.len() - kept.len());
        }
    }

    #[test]
    fn a_count_out_of_budget_gives_up_and_keeps_what_it_finished() {
        // 22 one-core components on up to 22 nodes: ~4 000 states, and
        // Bell(22) placements — just below 2⁵³.
        let mut memo = Completions::new(&[1; 22], 22, 32);
        assert_eq!(memo.count(1, &[1], COUNT_BUDGET), None);
        assert_eq!(memo.count(0, &[], 1 << 16), Some(4_506_715_738_447_323));
        // A small subtree, given up on once and then counted: the same
        // number the walk finds.
        let shape = EnsembleShape::uniform(2, 8, 2, 4);
        let mut memo = Completions::new(&shape.component_cores(), 6, 32);
        assert_eq!(memo.count(1, &[8], 0), None);
        assert_eq!(memo.count(1, &[8], 1), None);
        assert_eq!(memo.count(1, &[8], COUNT_BUDGET), Some(completions_by_walk(&shape, 6, &[0])));
    }

    #[test]
    fn counts_past_2_pow_53_are_refused_not_saturated() {
        // Bell(23) and Bell(24) are past 2⁵³: no count, at any budget.
        for n in [23usize, 24] {
            let mut memo = Completions::new(&vec![1; n], n, 32);
            assert_eq!(memo.count(0, &[], 1 << 16), None, "{n} components");
            assert_eq!(memo.count(1, &[1], usize::MAX), None, "{n} components");
        }
        // So a score over such a space is refused; up to 22 components
        // never need the count, and a wide shape whose nodes fit only
        // pairs of components (1.7 × 10¹³ placements) counts within it.
        let one_core = |members: usize| EnsembleShape::uniform(members, 1, 1, 1);
        assert!(!space_counts_exactly(&one_core(12), 24, 32));
        assert!(!space_counts_exactly(&EnsembleShape { members: vec![(1, vec![1; 22])] }, 23, 32));
        assert!(space_counts_exactly(&one_core(11), 22, 32));
        assert!(space_counts_exactly(&one_core(11), usize::MAX, 32));
        assert!(space_counts_exactly(&EnsembleShape::uniform(12, 16, 1, 16), 24, 32));
        let pairs = Completions::new(&[16; 24], 24, 32).count(0, &[], 1 << 16);
        assert_eq!(pairs, Some(17_492_190_577_600), "the involutions of 24");
        assert!(space_counts_exactly(&one_core(12), 0, 32), "an empty space");
    }

    #[test]
    fn node_budgets_beyond_the_component_count_change_nothing() {
        // Component `i` can never sit above node `i`, so every budget
        // from `components` up enumerates the same space — and the
        // enumerator must not size anything by the raw number, which
        // arrives off the wire as an unchecked `u64`.
        let shape = EnsembleShape::uniform(2, 8, 1, 4);
        let at_components = enumerate_placements(&shape, shape.num_components(), 32);
        for max_nodes in [5usize, 64, 4_000_000_000_000_000, usize::MAX] {
            assert_eq!(enumerate_placements(&shape, max_nodes, 32), at_components, "{max_nodes}");
        }
    }

    #[test]
    fn placement_iter_degenerate_spaces_are_empty() {
        let shape = EnsembleShape::uniform(1, 16, 1, 8);
        assert_eq!(PlacementIter::new(&shape, 0, 32).count(), 0, "zero nodes");
        let empty = EnsembleShape { members: vec![] };
        assert_eq!(PlacementIter::new(&empty, 3, 32).count(), 0, "zero components");
    }

    /// Every class-preserving rearrangement of `a`'s member blocks,
    /// canonicalized: its orbit, by brute force.
    fn orbit_by_brute_force(
        shape: &EnsembleShape,
        classes: &[usize],
        a: &[usize],
    ) -> Vec<Vec<usize>> {
        fn permute(
            classes: &[usize],
            slot: usize,
            order: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if slot == classes.len() {
                out.push(order.clone());
                return;
            }
            for m in 0..classes.len() {
                if classes[m] == classes[slot] && !order.contains(&m) {
                    order.push(m);
                    permute(classes, slot + 1, order, out);
                    order.pop();
                }
            }
        }
        let mut starts = vec![0];
        for (_, anas) in &shape.members {
            starts.push(starts.last().unwrap() + 1 + anas.len());
        }
        let mut orders = Vec::new();
        permute(classes, 0, &mut Vec::new(), &mut orders);
        let mut orbit: Vec<Vec<usize>> = orders
            .iter()
            .map(|order| {
                let literal: Vec<usize> =
                    order.iter().flat_map(|&m| a[starts[m]..starts[m + 1]].to_vec()).collect();
                canonicalize(&literal)
            })
            .collect();
        orbit.sort();
        orbit.dedup();
        orbit
    }

    #[test]
    fn a_walk_with_classes_hands_out_exactly_the_orbit_minima_and_lists_their_copies() {
        let shapes: [(EnsembleShape, Vec<usize>, usize); 6] = [
            (EnsembleShape::uniform(3, 8, 1, 4), vec![0, 0, 0], 5),
            (EnsembleShape::uniform(4, 16, 1, 8), vec![0, 0, 0, 0], 6),
            (EnsembleShape::uniform(3, 4, 2, 4), vec![0, 0, 0], 9),
            (EnsembleShape::uniform(4, 8, 1, 4), vec![0, 1, 0, 1], 8),
            (
                EnsembleShape { members: vec![(8, vec![4]), (4, vec![4, 4]), (8, vec![4])] },
                vec![0, 1, 0],
                7,
            ),
            (EnsembleShape::uniform(5, 16, 1, 16), vec![0, 0, 0, 0, 0], 6),
        ];
        for (shape, classes, max_nodes) in &shapes {
            let all = enumerate_placements(shape, *max_nodes, 32);
            let mut it = PlacementIter::new(shape, *max_nodes, 32);
            assert!(it.set_classes(shape, classes));
            let mut orbits = it.orbits().unwrap().clone();
            let handed: Vec<Vec<usize>> = it.by_ref().collect();
            assert_eq!(it.yielded(), all.len(), "{shape:?}: every leaf accounted for");
            let minima: Vec<Vec<usize>> = all
                .iter()
                .filter(|a| orbit_by_brute_force(shape, classes, a)[0] == **a)
                .cloned()
                .collect();
            assert_eq!(handed, minima, "{shape:?}");
            assert!(handed.len() < all.len());
            let width = shape.num_components();
            let mut copies = Copies::default();
            let mut covered = 0;
            for rep in &handed {
                orbits.copies(rep, &mut copies);
                let listed: Vec<Vec<usize>> =
                    copies.flat.chunks_exact(width).map(<[usize]>::to_vec).collect();
                let orbit = orbit_by_brute_force(shape, classes, rep);
                let others: Vec<Vec<usize>> = orbit.into_iter().filter(|a| a != rep).collect();
                assert_eq!(listed, others, "{shape:?}: copies of {rep:?}");
                covered += 1 + listed.len();
            }
            assert_eq!(covered, all.len(), "{shape:?}: the orbits partition the space");
            for (index, a) in all.iter().enumerate() {
                assert_eq!(it.index_of(a), index, "{shape:?}: {a:?}");
            }
        }
    }

    #[test]
    fn canonicalize_matches_first_appearance_reference() {
        // Reference: the old quadratic position-scan implementation.
        fn reference(assignment: &[usize]) -> Vec<usize> {
            let mut mapping: Vec<usize> = Vec::new();
            assignment
                .iter()
                .map(|&n| {
                    if let Some(pos) = mapping.iter().position(|&m| m == n) {
                        pos
                    } else {
                        mapping.push(n);
                        mapping.len() - 1
                    }
                })
                .collect()
        }
        for case in
            [vec![], vec![0], vec![9], vec![3, 3, 3], vec![2, 0, 2, 1], vec![7, 0, 7, 3, 3, 1, 0]]
        {
            assert_eq!(canonicalize(&case), reference(&case), "{case:?}");
        }
    }
}
