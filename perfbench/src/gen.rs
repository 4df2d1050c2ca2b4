//! The load generator: one thread, one `ClientSession`, running inside the
//! client closure of `ShardRuntime::serve`.
//!
//! * **Saturated phase** — a closed loop keeping `Workload::window` calls
//!   outstanding (below the admission bound, so nothing is shed). Its
//!   throughput is the median over [`RATE_WINDOW`] slices, so a burst of
//!   host steal time moves a few slices rather than the whole figure.
//! * **Paced phase** — an open loop submitting at `Workload::paced_rps`.
//!   Each call is timed from its *due* time to its response, so a stall
//!   counts against every call due during it. The generator blocks in
//!   `recv_timeout` until the next due time and records how late it ran.
//!   Beside the calls it issues `read_field` point reads at
//!   `Workload::reads_per_sec` and a freshness probe every
//!   [`PROBE_INTERVAL`]. The phase is cut into slices of at least
//!   [`PACED_WINDOW`] and [`SLICE_CALLS`] due calls; latency, read,
//!   freshness and CPU figures are per-slice quantiles, reported as their
//!   median over the slices.
//!
//! A freshness probe is a write to a reserved account outside the key range
//! that raises its balance by one, so probe `n` is visible once
//! `read_field` shows a balance of at least `INITIAL_BALANCE + n`. Its
//! freshness is the time from its acknowledgement to that read.

use crate::oracle::Ledger;
use crate::procfs::{self, ThreadSample};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{OpStream, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_runtime::service::{ClientSession, ServiceHandle, SessionResponse, Subscription};
use shard_runtime::ShardError;
use stateful_entities::{DataflowIR, EntityAddr, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};
use workloads::{account_addr, KeyDistribution, Operation, Zipfian};

/// Slice length of the saturated phase's throughput.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Target slice length of the paced phase.
const PACED_WINDOW: Duration = Duration::from_secs(2);
/// Fewest due calls per paced slice: the p99 of 2,000 has 20 beyond it.
const SLICE_CALLS: u64 = 2_000;
/// Time between two freshness probe writes.
const PROBE_INTERVAL: Duration = Duration::from_millis(20);
/// How often acknowledged, not yet visible probes are polled.
const PROBE_POLL: Duration = Duration::from_micros(250);
/// Longest wait for the responses still outstanding at the end of a phase.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Span id of the saturated phase.
const SATURATED_SPAN: u64 = 1;
/// Span id of the paced phase.
const PACED_SPAN: u64 = 2;

/// One slice of the paced phase.
#[derive(Debug, Default)]
struct Slice {
    latencies_ms: Vec<f64>,
    reads_ns: Vec<f64>,
    fresh_ms: Vec<f64>,
    calls_due: u64,
    cpu_ns: u64,
}

/// What the generator measured.
#[derive(Debug, Default)]
pub struct GenOutput {
    pub ledger: Ledger,
    pub serve_start_ms: f64,
    pub throughput_rps: f64,
    pub paced_samples: usize,
    pub p50_ms: f64,
    /// `None` when a slice had fewer than ten samples beyond its p99.
    pub p99_ms: Option<f64>,
    pub cpu_us_per_req: f64,
    pub read_samples: usize,
    pub read_p50_ns: f64,
    /// `None` when a slice had fewer than ten reads beyond its p99.
    pub read_p99_us: Option<f64>,
    pub staleness_sum: u64,
    pub fresh_samples: usize,
    pub fresh_p50_ms: f64,
    pub submit_ns: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub shed: u64,
    pub submit_errors: u64,
    pub bad_reads: u64,
    pub engine_shed: u64,
    pub peak_queue: u64,
    pub coord_cpu_busy: f64,
    pub worker_cpu_busy_max: f64,
    /// CPU of all threads per call answered in the saturated phase.
    pub sat_cpu_us_per_req: f64,
}

/// Freshness probes in flight.
#[derive(Debug, Default)]
struct Probes {
    /// Probes written so far; the latest is probe number `written`.
    written: u64,
    /// `(sequence number, probe number)` of probes not yet acknowledged.
    unacked: Vec<(u64, u64)>,
    /// `(probe number, acknowledged at)` of probes not yet visible.
    acked: VecDeque<(u64, Instant)>,
}

pub struct Generator<'a> {
    w: &'a Workload,
    ir: &'a DataflowIR,
    handle: ServiceHandle,
    session: ClientSession,
    /// Change feed of the probe account: a CDC consumer beside the reads.
    feed: Subscription,
    stream: OpStream,
    /// A stream operation the front door refused, submitted next.
    refused: Option<Operation>,
    tracer: Option<&'a mut Tracer>,
    /// Due time per sequence number from `paced_base`, the first one of
    /// the paced phase (`u64::MAX` before it).
    due: Vec<Option<Instant>>,
    paced_base: u64,
    /// Submit instant per sequence number (traced runs only).
    submitted_at: Vec<Instant>,
    outstanding: usize,
    rng: StdRng,
    zipf: Option<Zipfian>,
    probes: Probes,
    probe_addr: EntityAddr,
    /// Paced-phase start and slice length, to place samples in slices.
    paced_start: Instant,
    slice_len: Duration,
    slices: Vec<Slice>,
    out: GenOutput,
    error: Option<String>,
}

impl<'a> Generator<'a> {
    pub fn new(
        w: &'a Workload,
        seed: u64,
        ir: &'a DataflowIR,
        handle: ServiceHandle,
        tracer: Option<&'a mut Tracer>,
        serve_started: Instant,
    ) -> Self {
        let session = handle.session();
        let probe_addr = account_addr(w.probe_target());
        let feed = handle.subscribe_entity(probe_addr.clone());
        Generator {
            w,
            ir,
            session,
            feed,
            stream: w.stream(seed),
            refused: None,
            tracer,
            due: Vec::new(),
            paced_base: u64::MAX,
            submitted_at: Vec::new(),
            outstanding: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_0F2E_AD00),
            zipf: (w.distribution == KeyDistribution::Zipfian).then(|| Zipfian::new(w.accounts)),
            probes: Probes::default(),
            probe_addr,
            handle,
            paced_start: Instant::now(),
            slice_len: PACED_WINDOW,
            slices: Vec::new(),
            out: GenOutput {
                serve_start_ms: serve_started.elapsed().as_secs_f64() * 1e3,
                ..GenOutput::default()
            },
            error: None,
        }
    }

    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Submit one call; `due` marks a paced call. Returns the sequence
    /// number, or `None` if the front door refused it.
    fn submit(&mut self, op: &Operation, probe: bool, due: Option<Instant>) -> Option<u64> {
        let call = op.to_call(self.ir);
        let t = Instant::now();
        let result = self.session.submit(call);
        if self.traced() {
            self.out.submit_ns.push(t.elapsed().as_nanos() as f64);
        }
        match result {
            Ok(seq) => {
                self.out.ledger.submitted(seq, probe);
                if seq >= self.paced_base {
                    self.due.push(due);
                }
                if self.traced() {
                    self.submitted_at.push(t);
                }
                self.outstanding += 1;
                Some(seq)
            }
            Err(ShardError::Overloaded { .. }) => {
                self.out.shed += 1;
                None
            }
            Err(_) => {
                self.out.submit_errors += 1;
                None
            }
        }
    }

    /// Submit the next operation of the stream. A refused one is kept and
    /// submitted next time, so the calls the engine admits stay the
    /// stream's prefix and the oracle can regenerate them.
    fn submit_next(&mut self, due: Option<Instant>) -> Option<u64> {
        let op = match self.refused.take() {
            Some(op) => op,
            None => self.stream.next().expect("operation streams are endless"),
        };
        let seq = self.submit(&op, false, due);
        if seq.is_none() {
            self.refused = Some(op);
        }
        seq
    }

    fn slice_of(&mut self, at: Instant) -> &mut Slice {
        let i = (at.saturating_duration_since(self.paced_start).as_nanos()
            / self.slice_len.as_nanos()) as usize;
        let last = self.slices.len() - 1;
        &mut self.slices[i.min(last)]
    }

    /// Record one response.
    fn absorb(&mut self, r: SessionResponse, at: Instant, phase_span: u64) {
        let seq = r.seq;
        self.out.ledger.answer(seq, r.call_id, &r.result);
        self.outstanding -= 1;
        if seq >= self.paced_base {
            if let Some(due) = self.due[(seq - self.paced_base) as usize] {
                let ms = (at - due).as_secs_f64() * 1e3;
                self.slice_of(due).latencies_ms.push(ms);
            }
        }
        if let Some(i) = self.probes.unacked.iter().position(|&(s, _)| s == seq) {
            let (_, n) = self.probes.unacked.swap_remove(i);
            let pos = self.probes.acked.partition_point(|&(m, _)| m < n);
            self.probes.acked.insert(pos, (n, at));
        }
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.span("call", seq, phase_span, self.submitted_at[seq as usize], at);
        }
    }

    /// Wait up to `wait` for one response. True if one arrived.
    fn recv(&mut self, wait: Duration, phase_span: u64) -> bool {
        match self.session.recv_timeout(wait) {
            Ok(r) => {
                self.absorb(r, Instant::now(), phase_span);
                true
            }
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => {
                self.error = Some("the service closed the session early".to_string());
                false
            }
        }
    }

    /// Wait for every outstanding response, up to [`DRAIN_LIMIT`].
    fn drain(&mut self, phase_span: u64) {
        let limit = Instant::now() + DRAIN_LIMIT;
        while self.outstanding > 0 && self.error.is_none() {
            let now = Instant::now();
            if now >= limit {
                self.error = Some(format!("{} calls unanswered", self.outstanding));
                return;
            }
            self.recv(limit - now, phase_span);
        }
    }

    /// Run both phases; `coord_tid` is the thread that called `serve`.
    pub fn run(&mut self, saturated: Duration, paced: Duration, coord_tid: Option<u32>) {
        let threads0 = procfs::threads();
        let t0 = Instant::now();
        self.saturated_phase(saturated);
        let wall = t0.elapsed().as_secs_f64();
        let threads1 = procfs::threads();
        // A thread born during the phase (shard workers may start after the
        // client closure does) counts from zero.
        let busy = |tid: &u32, s: &ThreadSample| -> f64 {
            let before = threads0.get(tid).map_or(0, |b| b.cpu_ns);
            s.cpu_ns.saturating_sub(before) as f64 / 1e9 / wall
        };
        if let Some((tid, s)) = coord_tid.and_then(|tid| threads1.get_key_value(&tid)) {
            self.out.coord_cpu_busy = busy(tid, s);
        }
        self.out.worker_cpu_busy_max = threads1
            .iter()
            .filter(|(_, s)| s.name.starts_with("shard-"))
            .map(|(tid, s)| busy(tid, s))
            .fold(0.0, f64::max);
        self.out.sat_cpu_us_per_req = procfs::cpu_between(&threads0, &threads1) as f64
            / 1e3
            / self.out.ledger.answered.max(1) as f64;
        if self.error.is_none() {
            self.paced_phase(paced);
        }
    }

    fn saturated_phase(&mut self, length: Duration) {
        let span = self.traced().then(Instant::now);
        let start = Instant::now();
        let slices = (length.as_nanos() / RATE_WINDOW.as_nanos()).max(1) as usize;
        let slice_len = length / slices as u32;
        let mut answered = vec![0u64; slices];
        loop {
            let elapsed = start.elapsed();
            if elapsed >= length || self.error.is_some() {
                break;
            }
            while self.outstanding < self.w.window {
                if self.submit_next(None).is_none() {
                    break;
                }
            }
            if self.recv(length - elapsed, SATURATED_SPAN) {
                let i = (start.elapsed().as_nanos() / slice_len.as_nanos()) as usize;
                if let Some(n) = answered.get_mut(i) {
                    *n += 1;
                }
            }
        }
        let mut rates: Vec<f64> = answered
            .iter()
            .map(|&n| n as f64 / slice_len.as_secs_f64())
            .collect();
        self.out.throughput_rps = stats::median(&mut rates);
        self.drain(SATURATED_SPAN);
        if let (Some(t), Some(s)) = (self.tracer.as_deref_mut(), span) {
            t.end("saturated", SATURATED_SPAN, 0, s);
        }
    }

    fn read_key(&mut self) -> usize {
        match &self.zipf {
            Some(z) => z.next(&mut self.rng),
            None => self.rng.gen_range(0..self.w.accounts),
        }
    }

    fn point_read(&mut self) {
        let addr = account_addr(self.read_key());
        let t = Instant::now();
        let read = self.handle.read_field(&addr, "balance");
        let done = Instant::now();
        let ns = (done - t).as_nanos() as f64;
        self.slice_of(t).reads_ns.push(ns);
        self.out.staleness_sum += read.staleness.lag();
        if !matches!(read.value, Some(Value::Int(_))) {
            self.out.bad_reads += 1;
        }
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.span("read_field", 0, PACED_SPAN, t, done);
        }
    }

    /// Read the probe account and retire every acknowledged probe the read
    /// view already shows.
    fn poll_probes(&mut self) {
        let read = self.handle.read_field(&self.probe_addr, "balance");
        let seen = Instant::now();
        let Some(Value::Int(balance)) = read.value else {
            self.out.bad_reads += 1;
            return;
        };
        let visible = balance - workloads::INITIAL_BALANCE;
        while let Some(&(n, acked)) = self.probes.acked.front() {
            if n as i64 > visible {
                break;
            }
            self.probes.acked.pop_front();
            let ms = (seen - acked).as_secs_f64() * 1e3;
            self.slice_of(acked).fresh_ms.push(ms);
            if let Some(tracer) = self.tracer.as_deref_mut() {
                tracer.span("fresh", n, PACED_SPAN, acked, seen);
            }
        }
        let _ = self.feed.drain();
    }

    fn paced_phase(&mut self, length: Duration) {
        let span = self.traced().then(Instant::now);
        let start = Instant::now();
        let deadline = start + length;
        // A slice holds at least SLICE_CALLS due calls, so its p99 has ten
        // samples beyond it.
        let min_len = PACED_WINDOW.max(Duration::from_secs_f64(
            SLICE_CALLS as f64 / self.w.paced_rps as f64,
        ));
        let n_slices = (length.as_nanos() / min_len.as_nanos()).max(1) as usize;
        self.paced_start = start;
        self.slice_len = length / n_slices as u32;
        self.slices = (0..n_slices).map(|_| Slice::default()).collect();
        self.paced_base = self.out.ledger.submitted;
        let interval = Duration::from_secs_f64(1.0 / self.w.paced_rps as f64);
        let read_interval = Duration::from_secs_f64(1.0 / self.w.reads_per_sec as f64);
        let mut cpu_marks: Vec<BTreeMap<u32, ThreadSample>> = vec![procfs::threads()];
        let mut next_mark = start + self.slice_len;
        let mut k = 0u32;
        let mut next_due = start;
        let mut next_read = start + read_interval / 2;
        let mut next_probe = start + PROBE_INTERVAL / 2;
        let mut next_poll = start;
        while self.error.is_none() {
            let now = Instant::now();
            if next_mark <= now && cpu_marks.len() < n_slices {
                cpu_marks.push(procfs::threads());
                next_mark += self.slice_len;
            }
            if next_due >= deadline && now >= deadline {
                break;
            }
            while next_due <= now && next_due < deadline {
                self.out
                    .lateness_ms
                    .push((now - next_due).as_secs_f64() * 1e3);
                self.slice_of(next_due).calls_due += 1;
                self.submit_next(Some(next_due));
                k += 1;
                next_due = start + interval * k;
            }
            if next_read <= now && next_read < deadline {
                self.point_read();
                next_read += read_interval;
            }
            if next_probe <= now && next_probe < deadline {
                let n = self.probes.written + 1;
                if let Some(seq) = self.submit(&self.w.probe_op(), true, None) {
                    self.probes.written = n;
                    self.probes.unacked.push((seq, n));
                }
                next_probe += PROBE_INTERVAL;
            }
            while let Some(r) = self.session.try_recv() {
                self.absorb(r, Instant::now(), PACED_SPAN);
            }
            if !self.probes.acked.is_empty() && next_poll <= Instant::now() {
                self.poll_probes();
                next_poll = Instant::now() + PROBE_POLL;
            }
            let mut wake = next_due.min(next_read).min(next_probe).min(deadline);
            if cpu_marks.len() < n_slices {
                wake = wake.min(next_mark);
            }
            if !self.probes.acked.is_empty() {
                wake = wake.min(next_poll);
            }
            let now = Instant::now();
            if wake > now {
                self.recv(wake - now, PACED_SPAN);
            }
        }
        // Calls due inside the phase may be answered after it; their
        // latency still counts.
        self.drain(PACED_SPAN);
        cpu_marks.push(procfs::threads());
        for (slice, pair) in self.slices.iter_mut().zip(cpu_marks.windows(2)) {
            slice.cpu_ns = procfs::cpu_between(&pair[0], &pair[1]);
        }
        self.summarise_slices();
        if let (Some(t), Some(s)) = (self.tracer.as_deref_mut(), span) {
            t.end("paced", PACED_SPAN, 0, s);
        }
    }

    /// Fold the slices into the reported paced-phase figures.
    fn summarise_slices(&mut self) {
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut cpu = Vec::new();
        let mut read_p99 = Vec::new();
        let mut fresh = Vec::new();
        let mut all_reads = Vec::new();
        let mut tails_ok = true;
        let mut read_tails_ok = true;
        for s in &mut self.slices {
            self.out.paced_samples += s.latencies_ms.len();
            self.out.fresh_samples += s.fresh_ms.len();
            if !s.latencies_ms.is_empty() {
                p50.push(stats::median(&mut s.latencies_ms));
            }
            match stats::tail_quantile(&mut s.latencies_ms, 0.99) {
                Some(v) => p99.push(v),
                None => tails_ok = false,
            }
            match stats::tail_quantile(&mut s.reads_ns, 0.99) {
                Some(v) => read_p99.push(v / 1e3),
                None => read_tails_ok = false,
            }
            if s.calls_due > 0 {
                cpu.push(s.cpu_ns as f64 / 1e3 / s.calls_due as f64);
            }
            if !s.fresh_ms.is_empty() {
                fresh.push(stats::median(&mut s.fresh_ms));
            }
            all_reads.extend_from_slice(&s.reads_ns);
        }
        self.out.p50_ms = stats::median(&mut p50);
        self.out.p99_ms = tails_ok.then(|| stats::median(&mut p99));
        self.out.cpu_us_per_req = stats::median(&mut cpu);
        self.out.read_p99_us = read_tails_ok.then(|| stats::median(&mut read_p99));
        self.out.fresh_p50_ms = stats::median(&mut fresh);
        self.out.read_samples = all_reads.len();
        self.out.read_p50_ns = stats::median(&mut all_reads);
    }

    /// Hand back the measurements, or the first error met.
    pub fn finish(mut self) -> Result<GenOutput, String> {
        let stats = self.handle.stats();
        self.out.engine_shed = stats.shed;
        self.out.peak_queue = stats.peak_queue_depth as u64;
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}
