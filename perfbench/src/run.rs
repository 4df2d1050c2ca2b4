//! One pass of a workload: set-up (several times), a serve session driven
//! by the [`Generator`], a cold restart for the durable workload, and the
//! oracle check.

use crate::gen::{GenOutput, Generator};
use crate::procfs;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Workload, PAYLOAD_BYTES, SHARDS};
use shard_runtime::{DurableConfig, ShardConfig, ShardReport, ShardRuntime};
use stateful_entities::{CompileStats, CompiledProgram};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::account_init_args;

/// Fewest set-ups per pass; `setup_s` is their median.
const MIN_SETUPS: usize = 7;
/// Set-ups repeat until they have also taken this long, so a cheap set-up
/// is sampled hundreds of times, past the first moments of the process.
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Share of `--seconds` spent in the saturated phase; the paced phase gets
/// the rest.
const SATURATED_SHARE: f64 = 0.3;

/// What one pass is asked to do.
pub struct PassConfig<'a> {
    /// The workload.
    pub workload: Workload,
    /// Seed of the operation stream and the read keys.
    pub seed: u64,
    /// Measured time, split between the two phases.
    pub seconds: f64,
    /// Directory for durable state.
    pub out_dir: &'a Path,
    /// Record spans and count allocations.
    pub tracer: Option<&'a mut Tracer>,
}

/// Medians of the compiler's per-stage timings over the set-ups.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompileMedians {
    pub parse_us: f64,
    pub typecheck_us: f64,
    pub analysis_us: f64,
    pub split_us: f64,
    pub verify_us: f64,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub compile: CompileMedians,
    pub construct_ms: f64,
    pub load_ms: f64,
    /// What the load generator measured.
    pub gen: GenOutput,
    pub restart_s: Option<f64>,
    pub peak_rss_mb: f64,
    pub report: ShardReport,
    pub serve_wall_s: f64,
    pub encoded_entities: u64,
    pub decoded_entities: u64,
    pub write_bytes: u64,
    pub write_syscalls: u64,
    pub dir_bytes: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub divergent_blocks: u64,
    pub states_equal: bool,
    pub oracle_us_per_req: f64,
    pub steal_ms: f64,
}

impl Pass {
    /// Calls attempted at the front door.
    pub fn attempted(&self) -> u64 {
        let g = &self.gen;
        g.ledger.submitted + g.shed + g.submit_errors
    }

    /// Shed, refused, unanswered, erroring and oracle-divergent calls, and
    /// reads that found no value. A divergent digest block counts as one.
    pub fn failed(&self) -> u64 {
        let g = &self.gen;
        let l = &g.ledger;
        g.shed
            + g.submit_errors
            + g.bad_reads
            + (l.submitted - l.answered)
            + l.errors
            + l.misordered
            + self.divergent_blocks
    }

    /// Failures as a share of attempted calls.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// True when every check of the pass held.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.states_equal
            && self.gen.p99_ms.is_some()
            && self.gen.read_p99_us.is_some()
            && self.gen.fresh_samples > 0
    }
}

fn shard_config(dir: Option<&Path>) -> ShardConfig {
    let mut config = ShardConfig::with_shards(SHARDS);
    if let Some(dir) = dir {
        config.durable = Some(DurableConfig::new(dir));
    }
    config
}

/// Compile, verify, construct and bulk-load once. Returns the program, the
/// loaded runtime, the CPU time of the three steps and the compiler's own
/// (wall-clock) timings. Set-up runs on this one thread, and its CPU time,
/// unlike its wall time, does not grow with the host's steal time, which
/// varies from 0 to 40% between runs on a shared 2-CPU machine.
fn set_up_once(
    w: &Workload,
    dir: Option<&Path>,
) -> Result<(CompiledProgram, ShardRuntime, [Duration; 3], CompileStats), String> {
    let t0 = procfs::thread_cpu();
    // `account_program` parses, type-checks, analyses, splits and verifies.
    let program = workloads::account_program();
    let t1 = procfs::thread_cpu();
    let config = shard_config(dir);
    let mut rt = if dir.is_some() {
        ShardRuntime::new_durable(program.ir.clone(), config)
    } else {
        ShardRuntime::new(program.ir.clone(), config)
    }
    .map_err(|e| format!("runtime construction failed: {e}"))?;
    let t2 = procfs::thread_cpu();
    for i in 0..w.loaded_accounts() {
        rt.load_entity("Account", &account_init_args(i, PAYLOAD_BYTES))
            .map_err(|e| format!("load of account {i} failed: {e}"))?;
    }
    let t3 = procfs::thread_cpu();
    let stats = program.stats.clone();
    Ok((program, rt, [t1 - t0, t2 - t1, t3 - t2], stats))
}

/// Dropping a loaded runtime leaves the allocator's free lists full of
/// small chunks, which its next large request consolidates. Make that happen
/// here, outside the timed set-up, so it is not billed to the compiler.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 16)));
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    stats::median(&mut v)
}

/// Run one pass.
pub fn run_pass(cfg: PassConfig<'_>) -> Result<Pass, String> {
    let PassConfig {
        workload: w,
        seed,
        seconds,
        out_dir,
        mut tracer,
    } = cfg;
    let mut pass = Pass::default();
    let steal0 = procfs::steal_ns();
    let dir_for = |i: usize| -> PathBuf {
        out_dir.join(format!("durable-{}-{}-{i}", w.name, std::process::id()))
    };

    // Set up several times; the last set-up serves.
    let mut timings = Vec::new();
    let mut compiles = Vec::new();
    let started = Instant::now();
    let kept = loop {
        let i = timings.len();
        let dir = w.durable.then(|| dir_for(i));
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let span = tracer.is_some().then(Instant::now);
        let (program, rt, steps, compile) = set_up_once(&w, dir.as_deref())?;
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.end("setup", i as u64, 0, s);
        }
        timings.push(steps);
        compiles.push(compile);
        if timings.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET {
            break (program, rt, dir);
        }
        drop(rt);
        settle_allocator();
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    };
    let (program, mut rt, durable_dir) = kept;
    pass.setup_s = median_of(timings.iter().map(|s| (s[0] + s[1] + s[2]).as_secs_f64()));
    pass.construct_ms = median_of(timings.iter().map(|s| s[1].as_secs_f64() * 1e3));
    pass.load_ms = median_of(timings.iter().map(|s| s[2].as_secs_f64() * 1e3));
    pass.compile = CompileMedians {
        parse_us: median_of(compiles.iter().map(|c| c.parse_micros as f64)),
        typecheck_us: median_of(compiles.iter().map(|c| c.typecheck_micros as f64)),
        analysis_us: median_of(compiles.iter().map(|c| c.analysis_micros as f64)),
        split_us: median_of(compiles.iter().map(|c| c.splitting_micros as f64)),
        verify_us: median_of(compiles.iter().map(|c| c.verify_micros as f64)),
    };

    // Serve. The engine runs on a named thread so its CPU can be found.
    let saturated = Duration::from_secs_f64(seconds * SATURATED_SHARE);
    let paced = Duration::from_secs_f64(seconds * (1.0 - SATURATED_SHARE));
    let codec0 = state_backend::codec_stats::current();
    let io0 = procfs::WriteIo::now();
    crate::alloc::set_counting(tracer.is_some());
    let alloc0 = crate::alloc::counts();
    let serve_started = Instant::now();
    let ir = &program.ir;
    let gen_tracer = tracer.as_deref_mut();
    let served = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("bench-serve".to_string())
            .spawn_scoped(scope, move || {
                let coord_tid = procfs::current_tid();
                let served = rt.serve(move |handle| {
                    let mut gen = Generator::new(&w, seed, ir, handle, gen_tracer, serve_started);
                    gen.run(saturated, paced, coord_tid);
                    gen.finish()
                });
                (served, rt)
            })
            .map_err(|e| format!("spawning the serve thread failed: {e}"))?
            .join()
            .map_err(|_| "the serve thread panicked".to_string())
    })?;
    pass.serve_wall_s = serve_started.elapsed().as_secs_f64();
    let alloc = crate::alloc::counts().since(&alloc0);
    crate::alloc::set_counting(false);
    let io = procfs::WriteIo::now().since(&io0);
    let codec = state_backend::codec_stats::current().since(&codec0);
    pass.peak_rss_mb = procfs::peak_rss_kb() as f64 / 1024.0;
    let (served, rt) = served;
    let (report, gen) = served.map_err(|e| format!("serve failed: {e}"))?;
    pass.gen = gen?;
    pass.report = report;
    pass.encoded_entities = codec.encoded_entities;
    pass.decoded_entities = codec.decoded_entities;
    pass.write_bytes = io.bytes;
    pass.write_syscalls = io.syscalls;
    pass.allocs = alloc.allocs;
    pass.alloc_bytes = alloc.bytes;

    // The durable workload restarts cold from its directory alone; the
    // restarted deployment's states are the ones the oracle checks.
    let finals = match &durable_dir {
        Some(dir) => {
            pass.dir_bytes = procfs::dir_bytes(dir);
            let config = rt.config.clone();
            drop(rt);
            let span = tracer.is_some().then(Instant::now);
            let t = Instant::now();
            let restarted = ShardRuntime::new_durable(program.ir.clone(), config)
                .map_err(|e| format!("cold restart failed: {e}"))?;
            pass.restart_s = Some(t.elapsed().as_secs_f64());
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end("restart", 0, 0, s);
            }
            let finals = restarted.final_states();
            drop(restarted);
            let _ = std::fs::remove_dir_all(dir);
            finals
        }
        None => rt.final_states(),
    };

    let span = tracer.is_some().then(Instant::now);
    let verdict = crate::oracle::replay(&w, seed, &program, &pass.gen.ledger, &finals)?;
    if let (Some(t), Some(s)) = (tracer, span) {
        t.end("oracle", 0, 0, s);
    }
    pass.divergent_blocks = verdict.divergent_blocks;
    pass.states_equal = verdict.states_equal;
    pass.oracle_us_per_req = verdict.replay_ns as f64 / 1e3 / verdict.replayed.max(1) as f64;
    pass.steal_ms = procfs::steal_ns().saturating_sub(steal0) as f64 / 1e6;
    Ok(pass)
}
