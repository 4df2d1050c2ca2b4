//! PR 7 — precision effect analysis: per-parameter write sets, commutative
//! commit classes, and frame-liveness pruning, measured on the real
//! multi-threaded sharded runtime.
//!
//! Three workloads, each pinning one lever by its schedule counters:
//!
//! * **Per-parameter write sets**, on audited YCSB-B (95 % reads, 5 %
//!   audited transfers sharing ONE audit-log account): per-parameter
//!   effects prove the log read-only, so the transfers do not serialize on
//!   it.
//! * **Commutative commit classes**, on the Zipfian θ=0.99 credit storm
//!   (100 % commutative increments over hot keys).
//! * **Frame liveness**, on YCSB+T (cross-shard transfers): dead locals
//!   are dropped at split points, measured as bytes/hop. The same table
//!   reports the per-partition key interner's savings.
//!
//! Batch, deferral, and byte counts are schedule-independent — identical on
//! any machine. CAVEAT (same as `batch_pipeline`): on a single-CPU container
//! wall-clock numbers mostly reflect the serial path; see BENCH_pr7.json.

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let requests = 30_000;
    println!(
        "=== Audited YCSB-B: {requests} requests, one shared audit log, 4 shards, {cpus} CPU(s) visible ==="
    );
    println!(
        "{}",
        se_bench::audited_ycsb_b_row(requests, 4).to_table_row()
    );

    // 60k requests to stay comparable with PR 4's pipelining ablation
    // (127 batches / 615 deferrals on the same spec).
    println!();
    println!("=== Plain YCSB-B uniform, 60000 requests (ROADMAP item 4 headline) ===");
    println!("{}", se_bench::ycsb_b_row(60_000, 4).to_table_row());

    println!();
    println!("=== Commutative hot-key storm: {requests} zipfian credits, 4 shards ===");
    println!(
        "{}",
        se_bench::commutative_storm_row(requests, 4).to_table_row()
    );

    let requests = 20_000;
    println!();
    println!("=== Frame liveness: YCSB+T zipfian, {requests} transfers, 4 shards ===");
    println!("{}", se_bench::hop_bytes_row(requests, 4).to_table_row());
}
