//! PR 3 — wall-clock throughput of the real multi-threaded sharded runtime
//! (`shard-runtime`), YCSB-B (95 % reads) over uniform keys, as the shard
//! count grows, plus the cross-shard mailbox traffic of the transfer-heavy
//! workload.
//!
//! Unlike the figure benches, nothing here is virtual time: the numbers are
//! real threads on real cores. The speedup at 4 shards therefore depends on
//! the CPUs actually available to the process — on a single-core container
//! the sweep degenerates to time-slicing and the per-shard event balance is
//! the evidence that the work *would* spread (see BENCH_pr3.json for the
//! recorded runs and the machine caveat).

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requests = 60_000;
    println!("=== Shard scaling: YCSB-B uniform, {requests} requests, {cpus} CPU(s) visible ===");
    println!("shards | elapsed ms | kreq/s | speedup vs 1 | events/shard");
    let rows = se_bench::shard_scaling_rows(&[1, 2, 4], requests);
    let base = rows[0].kreq_per_sec;
    for row in &rows {
        println!(
            "{:<6} | {:>10.1} | {:>6.1} | {:>12.2} | {:?}",
            row.shards,
            row.elapsed_ms,
            row.kreq_per_sec,
            row.kreq_per_sec / base,
            row.events_per_shard
        );
    }

    let requests = 30_000;
    println!();
    println!("=== Cross-shard mailboxes: YCSB-T uniform, {requests} requests, 4 shards ===");
    println!("kreq/s | cross-shard channel sends | events per send");
    let row = se_bench::transfer_mailbox_row(4, requests);
    println!(
        "{:>6.1} | {:>25} | {:>15.1}",
        row.kreq_per_sec,
        row.cross_shard_batches,
        row.cross_shard_events as f64 / row.cross_shard_batches.max(1) as f64
    );
}
