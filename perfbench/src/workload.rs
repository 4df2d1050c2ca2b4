//! The three workloads and their seeded operation streams.
//!
//! Every workload runs the `Account` program with 64-byte payloads on two
//! shards, with every other `ShardConfig` field at its shipped default.
//! Operations come from `workloads::WorkloadSpec`, generated in fixed-size
//! chunks whose seeds derive from the run seed, so a stream of any length is
//! a pure function of the seed and can be regenerated for the oracle replay.

use workloads::{KeyDistribution, Operation, WorkloadMix, WorkloadSpec};

/// Operations per generated chunk of a stream.
const CHUNK: u64 = 1 << 15;

/// Payload bytes per account.
pub const PAYLOAD_BYTES: usize = 64;

/// Shards every workload runs on.
pub const SHARDS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Operation mix.
    pub mix: WorkloadMix,
    /// Key distribution over the accounts.
    pub distribution: KeyDistribution,
    /// Accounts in the key range (the probe accounts sit just past it).
    pub accounts: usize,
    /// Run on `ShardRuntime::new_durable` over a fresh directory.
    pub durable: bool,
    /// Arrival rate of the paced phase, in calls per second.
    pub paced_rps: u64,
    /// Point reads per second issued beside the paced calls.
    pub reads_per_sec: u64,
    /// Calls kept outstanding in the saturated phase.
    pub window: usize,
}

/// Every workload, in the order they are documented.
pub fn all() -> [Workload; 3] {
    [
        Workload {
            name: "hot-oltp",
            mix: WorkloadMix::service(),
            distribution: KeyDistribution::Zipfian,
            accounts: 1_000,
            durable: false,
            paced_rps: 5_000,
            reads_per_sec: 1_000,
            window: 512,
        },
        Workload {
            name: "big-state",
            mix: WorkloadMix::service(),
            distribution: KeyDistribution::Uniform,
            accounts: 100_000,
            durable: false,
            paced_rps: 1_000,
            reads_per_sec: 1_000,
            window: 512,
        },
        Workload {
            name: "durable-transfer",
            mix: WorkloadMix::ycsb_t(),
            distribution: KeyDistribution::Uniform,
            accounts: 10_000,
            durable: true,
            paced_rps: 2_000,
            reads_per_sec: 1_000,
            window: 512,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Account index the freshness probe credits (outside the key range).
    pub fn probe_target(&self) -> usize {
        self.accounts
    }

    /// Account index the freshness probe debits (outside the key range).
    pub fn probe_source(&self) -> usize {
        self.accounts + 1
    }

    /// Accounts loaded at set-up: the key range plus the two probe accounts.
    pub fn loaded_accounts(&self) -> usize {
        self.accounts + 2
    }

    /// A probe write: moves one unit from the probe source to the probe
    /// target, so the target's balance after the `n`-th probe is
    /// `INITIAL_BALANCE + n`, increasing with every probe.
    pub fn probe_op(&self) -> Operation {
        Operation::Transfer {
            from: self.probe_source(),
            to: self.probe_target(),
            amount: 1,
        }
    }

    /// The operation stream of a run with `seed`.
    pub fn stream(&self, seed: u64) -> OpStream {
        OpStream {
            spec: WorkloadSpec {
                mix: self.mix,
                distribution: self.distribution,
                record_count: self.accounts,
                requests_per_second: CHUNK,
                duration_secs: 1,
                seed: 0,
            },
            seed,
            chunk: 0,
            buf: Vec::new().into_iter(),
        }
    }
}

/// SplitMix64 finaliser: spreads a run seed and chunk index over 64 bits.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An endless, seeded stream of operations.
pub struct OpStream {
    spec: WorkloadSpec,
    seed: u64,
    chunk: u64,
    buf: std::vec::IntoIter<Operation>,
}

impl Iterator for OpStream {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if let Some(op) = self.buf.next() {
            return Some(op);
        }
        self.spec.seed = mix64(self.seed ^ mix64(self.chunk));
        self.chunk += 1;
        self.buf = self.spec.operations().into_iter();
        self.buf.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        for w in all() {
            let n = CHUNK as usize + 100; // crosses a chunk boundary
            let a: Vec<Operation> = w.stream(7).take(n).collect();
            let b: Vec<Operation> = w.stream(7).take(n).collect();
            let c: Vec<Operation> = w.stream(8).take(n).collect();
            assert_eq!(a, b, "{}: same seed must repeat", w.name);
            assert_ne!(a, c, "{}: another seed must differ", w.name);
            // Chunks differ from one another too.
            assert_ne!(a[..100], a[CHUNK as usize..]);
        }
    }

    #[test]
    fn streams_stay_in_the_key_range_and_mix() {
        for w in all() {
            for op in w.stream(1).take(20_000) {
                let keys = match op {
                    Operation::Read { key } | Operation::Update { key, .. } => vec![key],
                    Operation::Credit { key, .. } => vec![key],
                    Operation::Transfer { from, to, .. } => vec![from, to],
                    Operation::TransferAudited { .. } => panic!("no audited transfers"),
                };
                assert!(keys.iter().all(|k| *k < w.accounts), "{}: {op:?}", w.name);
                if w.name == "durable-transfer" {
                    assert!(matches!(op, Operation::Transfer { .. }));
                }
            }
            assert!(w.probe_target() >= w.accounts && w.probe_source() >= w.accounts);
            assert!(
                w.paced_rps > 0
                    && w.window < shard_runtime::ShardConfig::default().max_inflight_requests
            );
        }
    }

    #[test]
    fn names_resolve() {
        for w in all() {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
