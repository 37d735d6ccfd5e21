//! Choice-scripted stepping: the simulator's nondeterminism surfaced
//! as an explicit oracle interface.
//!
//! A default [`simulate`](crate::sim::simulate) run resolves its three
//! sources of nondeterminism internally — per-job execution-time scales
//! from the seeded RNG, release jitter fixed at zero, and per-transfer
//! fault decisions from the [`FaultInjector`](rtmdm_mcusim::FaultInjector).
//! [`simulate_with_oracle`](crate::sim::simulate_with_oracle) instead
//! consults a caller-supplied [`SimOracle`] at every such point, in the
//! exact deterministic order the simulator processes events.
//!
//! Two consumers build on this:
//!
//! - the schedule-space explorer in `rtmdm-check` enumerates the answer
//!   lattice exhaustively, using the [`StateHash`] passed alongside each
//!   query to merge converging interleavings;
//! - [`ScriptOracle`] replays a recorded answer list verbatim — a
//!   violation witness is a `SimConfig` plus such a script, and replay
//!   reproduces the violating run step for step.

use serde::{Deserialize, Serialize};

use rtmdm_mcusim::Cycles;

/// A canonical 128-bit fingerprint of the simulator's dynamic state at
/// a choice point, computed over everything that determines future
/// behavior (clocks, job queues, resource occupancy, the pending-event
/// set) and nothing that does not (traces, statistics, metrics).
///
/// Equal hashes of states queried at the *same* [`ChoicePoint`] imply
/// identical future behavior under identical future answers, which is
/// what makes visited-state merging during exploration sound (up to the
/// 2⁻¹²⁸ collision probability, documented in `DESIGN.md` §2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateHash(
    /// The two FNV-1a lanes, concatenated.
    pub u128,
);

/// A streaming FNV-1a hasher with two independently seeded 64-bit
/// lanes, used to fingerprint simulator state. FNV is used instead of
/// `std`'s `DefaultHasher` because its output must be stable across
/// Rust releases — state hashes are compared against exploration
/// budgets and logged in witnesses.
#[derive(Debug, Clone)]
pub struct StableHash {
    lo: u64,
    hi: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHash {
    /// A fresh hasher.
    #[allow(clippy::new_without_default)]
    pub fn new() -> StableHash {
        StableHash {
            lo: FNV_OFFSET,
            // A distinct offset basis decorrelates the second lane.
            hi: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Feeds one 64-bit word.
    pub fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.lo = (self.lo ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a boolean as a full word (avoids ambiguity with adjacent
    /// small fields).
    pub fn mix_bool(&mut self, v: bool) {
        self.mix(u64::from(v));
    }

    /// Feeds an optional word, distinguishing `None` from `Some(0)`.
    pub fn mix_opt(&mut self, v: Option<u64>) {
        match v {
            None => self.mix(u64::MAX - 1),
            Some(x) => {
                self.mix(1);
                self.mix(x);
            }
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> StateHash {
        StateHash((u128::from(self.hi) << 64) | u128::from(self.lo))
    }
}

/// One nondeterministic decision the simulator is about to take.
///
/// The fields identify the decision site exactly (task index in the
/// simulated set's priority order, job id, and — for transfers — the
/// segment and retry attempt), so a recorded script can be audited
/// against the run it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChoicePoint {
    /// The execution-time scale of a job about to enter the system, in
    /// parts per million of WCET. Asked only when
    /// `SimConfig::exec_scale_min_ppm < 1_000_000`; the answer is
    /// clamped into `[min_ppm, 1_000_000]`.
    ExecScale {
        /// Task index.
        task: usize,
        /// Job id within the task.
        job: u64,
        /// Lower clamp, from `SimConfig::exec_scale_min_ppm`.
        min_ppm: u64,
    },
    /// Release jitter of a job: the job enters the system `jitter`
    /// cycles after its nominal release, while its absolute deadline
    /// stays anchored at the nominal release. Asked at every release
    /// when an oracle is attached; answering zero reproduces the
    /// default strictly-periodic arrival.
    ReleaseJitter {
        /// Task index.
        task: usize,
        /// Job id within the task.
        job: u64,
    },
    /// Whether the DMA transfer that just completed delivered corrupt
    /// data and must be re-issued. Asked only while the fault
    /// environment is active (`dma_fault_rate_ppm > 0`) and the attempt
    /// is below the retry budget — attempts at the budget never fault,
    /// mirroring the injector's contract.
    TransferFault {
        /// Task index.
        task: usize,
        /// Owning job id.
        job: u64,
        /// Segment being staged.
        seg: usize,
        /// 0-based retry attempt of the completed transfer.
        attempt: u32,
    },
}

/// An oracle's answer to one [`ChoicePoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Choice {
    /// Execution-time scale in parts per million of WCET.
    ExecScale(u64),
    /// Release jitter in cycles.
    ReleaseJitter(Cycles),
    /// Whether the transfer faulted.
    TransferFault(bool),
}

impl Choice {
    /// The scale answer, or `default` on a kind mismatch (a mismatched
    /// script degrades to the deterministic default rather than
    /// panicking mid-simulation).
    pub fn exec_scale_or(self, default: u64) -> u64 {
        match self {
            Choice::ExecScale(v) => v,
            _ => default,
        }
    }

    /// The jitter answer, or zero on a kind mismatch.
    pub fn release_jitter_or_zero(self) -> Cycles {
        match self {
            Choice::ReleaseJitter(v) => v,
            _ => Cycles::ZERO,
        }
    }

    /// The fault answer, or `false` on a kind mismatch.
    pub fn transfer_fault_or_false(self) -> bool {
        match self {
            Choice::TransferFault(v) => v,
            _ => false,
        }
    }

    /// The deterministic default answer for `point`: WCET scale, zero
    /// jitter, no fault — the spine every exploration starts from.
    pub fn default_for(point: &ChoicePoint) -> Choice {
        match point {
            ChoicePoint::ExecScale { .. } => Choice::ExecScale(1_000_000),
            ChoicePoint::ReleaseJitter { .. } => Choice::ReleaseJitter(Cycles::ZERO),
            ChoicePoint::TransferFault { .. } => Choice::TransferFault(false),
        }
    }
}

/// A recorded `(where, what)` pair — one line of a witness script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedChoice {
    /// The decision site, kept for auditability; replay matches answers
    /// to queries positionally, not by these fields.
    pub point: ChoicePoint,
    /// The answer given.
    pub value: Choice,
}

/// The interface the simulator consults at every nondeterministic
/// point when run through
/// [`simulate_with_oracle`](crate::sim::simulate_with_oracle).
///
/// `state` is the canonical fingerprint of the simulator's dynamic
/// state *at the query* (settled, so sub-cycle credits are canonical);
/// replay oracles ignore it, exploration oracles use it to merge
/// converging interleavings.
pub trait SimOracle {
    /// Answers one decision. Returning a mismatched [`Choice`] kind is
    /// tolerated and degrades to the deterministic default for the
    /// point.
    fn choose(&mut self, point: ChoicePoint, state: StateHash) -> Choice;
}

/// A replay oracle: answers queries from a fixed script in order, then
/// the deterministic default once the script is exhausted. This is the
/// witness-replay vehicle — the explorer serializes the choices that
/// led to a violation, and replaying them reproduces the violating run
/// exactly.
#[derive(Debug, Clone)]
pub struct ScriptOracle {
    script: Vec<ScriptedChoice>,
    cursor: usize,
}

impl ScriptOracle {
    /// An oracle replaying `script` positionally.
    pub fn new(script: Vec<ScriptedChoice>) -> ScriptOracle {
        ScriptOracle { script, cursor: 0 }
    }

    /// How many script entries were consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor.min(self.script.len())
    }
}

impl SimOracle for ScriptOracle {
    fn choose(&mut self, point: ChoicePoint, _state: StateHash) -> Choice {
        let answer = match self.script.get(self.cursor) {
            Some(entry) => entry.value,
            None => Choice::default_for(&point),
        };
        self.cursor += 1;
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_oracle_replays_then_defaults() {
        let script = vec![ScriptedChoice {
            point: ChoicePoint::ReleaseJitter { task: 0, job: 0 },
            value: Choice::ReleaseJitter(Cycles::new(17)),
        }];
        let mut o = ScriptOracle::new(script);
        let p = ChoicePoint::ReleaseJitter { task: 0, job: 0 };
        let h = StateHash(0);
        assert_eq!(o.choose(p, h), Choice::ReleaseJitter(Cycles::new(17)));
        assert_eq!(o.choose(p, h), Choice::ReleaseJitter(Cycles::ZERO));
        assert_eq!(o.consumed(), 1);
    }

    #[test]
    fn mismatched_choice_kinds_degrade_to_defaults() {
        let c = Choice::TransferFault(true);
        assert_eq!(c.exec_scale_or(1_000_000), 1_000_000);
        assert_eq!(c.release_jitter_or_zero(), Cycles::ZERO);
        assert!(c.transfer_fault_or_false());
        assert!(!Choice::ExecScale(5).transfer_fault_or_false());
    }

    #[test]
    fn stable_hash_is_order_sensitive_and_stable() {
        let mut a = StableHash::new();
        a.mix(1);
        a.mix(2);
        let mut b = StableHash::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = StableHash::new();
        c.mix(1);
        c.mix(2);
        assert_eq!(a.finish(), c.finish());
        // None must differ from Some(0) and from the empty feed.
        let mut n = StableHash::new();
        n.mix_opt(None);
        let mut s = StableHash::new();
        s.mix_opt(Some(0));
        assert_ne!(n.finish(), s.finish());
        assert_ne!(n.finish(), StableHash::new().finish());
    }
}
