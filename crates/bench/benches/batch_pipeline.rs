//! PR 4 — pipelined conflict-aware batches with precise read/write
//! footprints, measured on the real multi-threaded sharded runtime.
//!
//! Two sweeps:
//!
//! * **Read storm**: every request reads the same hot key. Read-only
//!   footprints let the whole storm commit batch-per-batch-size (read-read
//!   pairs don't conflict). The batch/deferral counts are
//!   schedule-independent evidence — they hold on any machine, 1 CPU or 64.
//! * **Pipelining**: uniform YCSB-B, where consecutive batches are mostly
//!   disjoint — pipelined dispatch vs the PR 3 full barrier per batch.
//!
//! CAVEAT (same as `shard_scaling`): on a single-CPU container the
//! wall-clock deltas mostly reflect the serial path, not overlap — see
//! BENCH_pr4.json for recorded numbers and the machine note.

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let requests = 30_000;
    println!(
        "=== Hot-key read storm: {requests} reads of ONE key, 4 shards, {cpus} CPU(s) visible ==="
    );
    println!("{}", se_bench::read_storm_row(requests, 4).to_table_row());

    let requests = 60_000;
    println!();
    println!("=== Pipelining ablation: YCSB-B uniform, {requests} requests, 4 shards ===");
    for row in se_bench::pipelining_rows(requests, 4) {
        println!("{}", row.to_table_row());
    }
}
