//! The correctness check: every run is replayed through the sequential
//! `LocalRuntime` oracle.
//!
//! The generator holds one session, so the engine admits its calls in
//! session order: call id = first call id + sequence number. [`Ledger`]
//! checks that on every response and folds each response into a digest per
//! block of [`BLOCK`] sequence numbers, so keeping a run's answers costs a
//! few bytes per block instead of a record per call. [`replay`] regenerates
//! the same calls from the seed, runs them through the oracle in admission
//! order, folds the oracle's answers the same way, and compares block by
//! block and then the final states.

use crate::workload::{Workload, PAYLOAD_BYTES};
use stateful_entities::{CompiledProgram, EntityAddr, EntityState, Key, Value};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use workloads::account_init_args;

/// Sequence numbers per digest block.
const BLOCK: u64 = 256;

/// Hash of one answer at one sequence number.
fn answer_hash(seq: u64, result: &Result<Value, String>) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    seq.hash(&mut h);
    match result {
        Ok(Value::Int(v)) => (0u8, *v).hash(&mut h),
        Ok(Value::Bool(v)) => (1u8, *v).hash(&mut h),
        other => (2u8, format!("{other:?}")).hash(&mut h),
    }
    h.finish()
}

/// Order-independent record of a run's answers.
#[derive(Debug, Default)]
pub struct Ledger {
    digests: Vec<u64>,
    probes: Vec<u64>,
    first_call_id: Option<u64>,
    /// Calls submitted (the next sequence number).
    pub submitted: u64,
    /// Calls answered.
    pub answered: u64,
    /// Answers that were runtime errors.
    pub errors: u64,
    /// Responses whose call id broke session order.
    pub misordered: u64,
}

impl Ledger {
    /// Note a submitted call; `probe` marks a freshness probe.
    pub fn submitted(&mut self, seq: u64, probe: bool) {
        debug_assert_eq!(seq, self.submitted);
        self.submitted = seq + 1;
        if probe {
            self.probes.push(seq);
        }
    }

    /// Fold one response in.
    pub fn answer(&mut self, seq: u64, call_id: u64, result: &Result<Value, String>) {
        let first = *self.first_call_id.get_or_insert(call_id.wrapping_sub(seq));
        if call_id != first.wrapping_add(seq) {
            self.misordered += 1;
        }
        self.fold(seq, result);
        self.answered += 1;
        if result.is_err() {
            self.errors += 1;
        }
    }

    fn fold(&mut self, seq: u64, result: &Result<Value, String>) {
        let block = (seq / BLOCK) as usize;
        if self.digests.len() <= block {
            self.digests.resize(block + 1, 0);
        }
        self.digests[block] = self.digests[block].wrapping_add(answer_hash(seq, result));
    }
}

/// Outcome of the oracle replay.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// Digest blocks whose answers differ from the oracle's (each holds at
    /// least one divergent call).
    pub divergent_blocks: u64,
    /// The final entity states equal the oracle's.
    pub states_equal: bool,
    /// Calls replayed.
    pub replayed: u64,
    /// Wall time of the replay, in nanoseconds.
    pub replay_ns: u64,
}

/// Replay the run's calls through the oracle and compare.
pub fn replay(
    w: &Workload,
    seed: u64,
    program: &CompiledProgram,
    ledger: &Ledger,
    finals: &BTreeMap<EntityAddr, EntityState>,
) -> Result<Verdict, String> {
    let mut oracle = program.local_runtime();
    for i in 0..w.loaded_accounts() {
        oracle
            .create("Account", &account_init_args(i, PAYLOAD_BYTES))
            .map_err(|e| format!("oracle load failed: {e}"))?;
    }
    let ir = &program.ir;
    let mut stream = w.stream(seed);
    let mut probes = ledger.probes.iter().peekable();
    let mut expected = Ledger::default();
    let started = Instant::now();
    for seq in 0..ledger.submitted {
        let op = if probes.next_if_eq(&&seq).is_some() {
            w.probe_op()
        } else {
            stream.next().ok_or("operation streams are endless")?
        };
        let result = oracle.call_resolved(op.to_call(ir)).map_err(|e| e.message);
        expected.fold(seq, &result);
    }
    let replay_ns = started.elapsed().as_nanos() as u64;
    let blocks = ledger.digests.len().max(expected.digests.len());
    let digest = |l: &Ledger, b: usize| l.digests.get(b).copied().unwrap_or(0);
    let divergent_blocks = (0..blocks)
        .filter(|&b| digest(ledger, b) != digest(&expected, b))
        .count() as u64;
    let want: BTreeMap<Key, EntityState> = oracle.instances_of("Account").into_iter().collect();
    let have: BTreeMap<Key, EntityState> = finals
        .iter()
        .map(|(addr, state)| (addr.key().clone(), state.clone()))
        .collect();
    Ok(Verdict {
        divergent_blocks,
        states_equal: want == have,
        replayed: ledger.submitted,
        replay_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_ignore_arrival_order_but_not_answers() {
        let answers: Vec<Result<Value, String>> = (0..600)
            .map(|i| match i % 3 {
                0 => Ok(Value::Int(i)),
                1 => Ok(Value::Bool(i % 2 == 0)),
                _ => Err(format!("e{i}")),
            })
            .collect();
        let mut forward = Ledger::default();
        let mut backward = Ledger::default();
        for seq in 0..600u64 {
            forward.submitted(seq, false);
            backward.submitted(seq, false);
        }
        for (seq, a) in answers.iter().enumerate() {
            forward.answer(seq as u64, 10 + seq as u64, a);
        }
        for (seq, a) in answers.iter().enumerate().rev() {
            backward.answer(seq as u64, 10 + seq as u64, a);
        }
        assert_eq!(forward.digests, backward.digests);
        assert_eq!(forward.misordered, 0);
        assert_eq!(forward.errors, 200);

        let mut changed = Ledger::default();
        for (seq, a) in answers.iter().enumerate() {
            let a = if seq == 300 {
                Ok(Value::Bool(true))
            } else {
                a.clone()
            };
            changed.answer(seq as u64, 10 + seq as u64, &a);
        }
        let differing = (0..forward.digests.len())
            .filter(|&b| forward.digests[b] != changed.digests[b])
            .count();
        assert_eq!(differing, 1);
        // Int(1) and Bool(true) are different answers.
        assert_ne!(
            answer_hash(0, &Ok(Value::Int(1))),
            answer_hash(0, &Ok(Value::Bool(true)))
        );
    }

    #[test]
    fn out_of_session_order_call_ids_are_counted() {
        let mut l = Ledger::default();
        l.answer(0, 5, &Ok(Value::Int(0)));
        l.answer(2, 7, &Ok(Value::Int(0)));
        l.answer(1, 8, &Ok(Value::Int(0)));
        assert_eq!(l.misordered, 1);
    }
}
