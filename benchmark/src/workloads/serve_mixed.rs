//! `serve_mixed`: a durable Fréchet service (`FsyncPolicy::Always`, archive
//! generations on, default result cache) with a reader and a writer side
//! by side.
//!
//! * Phase A (the timed window): one reader client draws queries from a
//!   Zipf(0.8) pool of 16,384 (16 times the cache); beside it one writer
//!   client issues a write every `WRITE_EVERY` (90 % upserts, 10 %
//!   deletes) and calls `compact()` inline when `stats().delta_len`
//!   reaches 100 entries per second of window — two compaction cycles in
//!   an 18 s window. The end-to-end metrics are the reader's.
//! * Phase B: the writer alone, `BURST_WRITES` back-to-back upserts.
//! * Phase C: the service is dropped, `ReposeService::recover` attaches
//!   the archive and replays the WAL tail, and every acknowledged write is
//!   checked against the shadow set.
//!
//! Why: writes beside reads. Cache invalidation, delta-scan growth, WAL
//! fsync, compaction interference and cold start live only here, so a
//! read-path gain that costs the write path (or the reverse) shows.

use super::{
    closed_loop, plausible, timed_setups, total_points, us, validate, Done, EndToEnd, Inputs,
    Measured, Params, RunOutput, Scratch, Shadow, TRACED_REQUESTS,
};
use crate::probes;
use crate::stats::{rate_per_s, Latencies, SplitMix64, Zipf};
use crate::sut::{
    self, DurableDirs, FsyncPolicy, Hit, Measure, Point, ReposeService, TrajId, Trajectory,
};
use crate::trace::Tracer;
use serde_json::json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const MEASURE: Measure = Measure::Frechet;
/// Distinct queries the reader draws from (the cache holds 1,024).
pub const QUERY_POOL: usize = 16_384;
pub const ZIPF_S: f64 = 0.8;
pub const CACHE_CAPACITY: usize = 1_024;
/// The writer's pace: 400 writes a second.
pub const WRITE_EVERY: Duration = Duration::from_micros(2_500);
/// Buffered delta entries, per second of window, at which the writer
/// compacts. At 360 upserts a second and 18 s that is 1,800 entries: a
/// compaction about 4 s and 12 s in, each ~3 s long, and no third before
/// the window ends — so how much of the window runs beside a compaction
/// does not depend on where the window happens to stop.
pub const COMPACT_AT_PER_WINDOW_S: f64 = 100.0;
/// Phase B's back-to-back upserts.
pub const BURST_WRITES: usize = 2_000;
/// Acknowledged upserts looked up one by one after recovery.
const PRESENCE_CHECKS: usize = 64;

struct System {
    inputs: Inputs,
    writes: Vec<Trajectory>,
    service: ReposeService,
    index_bytes: usize,
    dirs: DurableDirs,
    _scratch: Scratch,
}

fn durable_config(dirs: &DurableDirs) -> sut::ServiceConfig {
    sut::service_config(
        CACHE_CAPACITY,
        sut::default_pool_threads(),
        Some((dirs, FsyncPolicy::Always)),
    )
}

fn set_up(p: &Params) -> System {
    let inputs = Inputs::generate(p.scale, p.seed);
    let writes = Inputs::write_pool(p.scale.min(10.0), p.seed);
    let repose = sut::build(&inputs.data, MEASURE);
    let index_bytes = sut::index_bytes(&repose);
    let scratch = Scratch::new(&p.out_dir, "serve");
    let dirs = DurableDirs {
        wal: scratch.0.join("wal"),
        archive: scratch.0.join("archive"),
    };
    let service = sut::start_service(repose, durable_config(&dirs));
    System {
        inputs,
        writes,
        service,
        index_bytes,
        dirs,
        _scratch: scratch,
    }
}

fn answer(service: &ReposeService, query: &[Point]) -> Option<Vec<Hit>> {
    let out = sut::service_query(service, query).ok()?;
    (!out.degraded).then_some(out.hits)
}

/// The writer's deterministic operation stream: nine upserts of fresh
/// trajectories, then one delete — alternately of a generated trajectory
/// (a tombstone over the frozen index) and of an earlier upsert.
struct WriteStream<'a> {
    fresh: std::slice::Iter<'a, Trajectory>,
    written: Vec<TrajId>,
    base_ids: usize,
    rng: SplitMix64,
    ops: usize,
    deletes: usize,
}

enum Write<'a> {
    Upsert(&'a Trajectory),
    Delete(TrajId),
}

impl<'a> WriteStream<'a> {
    fn new(writes: &'a [Trajectory], base_ids: usize, seed: u64) -> Self {
        WriteStream {
            fresh: writes.iter(),
            written: Vec::new(),
            base_ids,
            rng: SplitMix64::new(seed ^ 0x5752_4954),
            ops: 0,
            deletes: 0,
        }
    }

    /// `None` once the pool of fresh trajectories is used up.
    fn next(&mut self) -> Option<Write<'a>> {
        self.ops += 1;
        if self.ops.is_multiple_of(10) {
            self.deletes += 1;
            if self.deletes.is_multiple_of(2) && !self.written.is_empty() {
                let i = self.rng.below(self.written.len());
                return Some(Write::Delete(self.written.swap_remove(i)));
            }
            return Some(Write::Delete(self.rng.below(self.base_ids) as TrajId));
        }
        let t = self.fresh.next()?;
        self.written.push(t.id);
        Some(Write::Upsert(t))
    }
}

/// Applies one write and, once acknowledged, lays it over `shadow`.
/// Returns how long the service call took; `None` if it was refused.
fn apply(service: &ReposeService, shadow: &mut Shadow, write: &Write<'_>) -> Option<Duration> {
    match write {
        Write::Upsert(t) => {
            let owned = (*t).clone();
            let t0 = Instant::now();
            let took = sut::service_insert(service, owned)
                .ok()
                .map(|()| t0.elapsed())?;
            shadow.upsert(t);
            Some(took)
        }
        Write::Delete(id) => {
            let t0 = Instant::now();
            let took = sut::service_remove(service, *id)
                .ok()
                .map(|()| t0.elapsed())?;
            shadow.delete(*id);
            Some(took)
        }
    }
}

#[derive(Default)]
struct WriterLog {
    latency: Latencies,
    acked: u64,
    failed: u64,
    compactions: u64,
    compact_s: Vec<f64>,
}

/// Phase A's writer: one write every `WRITE_EVERY` until `stop`,
/// compacting inline once the delta is long enough. Slots that a
/// compaction (or a slow write) overran are skipped, not caught up, so the
/// write rate never exceeds the pace.
fn writer_loop(
    service: &ReposeService,
    stream: &mut WriteStream<'_>,
    shadow: &mut Shadow,
    compact_at: usize,
    stop: &AtomicBool,
) -> WriterLog {
    let mut log = WriterLog::default();
    let start = Instant::now();
    // `delta_len` is read back every `CHECK_EVERY` writes, not every one:
    // `stats()` sorts its latency reservoirs.
    const CHECK_EVERY: u64 = 100;
    while !stop.load(Ordering::Relaxed) {
        let Some(write) = stream.next() else { break };
        match apply(service, shadow, &write) {
            Some(took) => {
                log.latency.push(took);
                log.acked += 1;
            }
            None => log.failed += 1,
        }
        if log.acked % CHECK_EVERY == 0 && sut::service_stats(service).delta_len >= compact_at {
            let t0 = Instant::now();
            match sut::service_compact(service) {
                Ok(_) => log.compactions += 1,
                Err(_) => log.failed += 1,
            }
            log.compact_s.push(t0.elapsed().as_secs_f64());
        }
        let slot = (start.elapsed().as_nanos() / WRITE_EVERY.as_nanos()) as u32 + 1;
        let due = start + WRITE_EVERY * slot;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    log
}

/// The reader's query stream: Zipf draws from the pool.
struct ReadStream<'a> {
    pool: &'a [Trajectory],
    zipf: Zipf,
    rng: SplitMix64,
}

impl<'a> ReadStream<'a> {
    fn new(inputs: &'a Inputs, seed: u64) -> Self {
        let pool = &inputs.queries[..QUERY_POOL.min(inputs.queries.len())];
        ReadStream {
            pool,
            zipf: Zipf::new(pool.len(), ZIPF_S),
            rng: SplitMix64::new(seed ^ 0x5245_4144),
        }
    }

    fn next(&mut self) -> &'a [Point] {
        &self.pool[self.zipf.sample(&mut self.rng)].points
    }
}

/// The reader client; returns its window and how many replies came from
/// the cache.
fn reader_loop(
    service: &ReposeService,
    reads: &mut ReadStream<'_>,
    window: Duration,
) -> (Measured, usize) {
    let mut cache_hits = 0usize;
    let measured = closed_loop(window, || match sut::service_query(service, reads.next()) {
        Ok(out) if !out.degraded && plausible(&out.hits) => {
            cache_hits += usize::from(out.cache_hit);
            Done::Queries(1)
        }
        _ => Done::Failed,
    });
    (measured, cache_hits)
}

/// Reader and writer side by side for `window`.
fn phase_a(
    service: &ReposeService,
    reads: &mut ReadStream<'_>,
    stream: &mut WriteStream<'_>,
    shadow: &mut Shadow,
    compact_at: usize,
    window: Duration,
) -> ((Measured, usize), WriterLog) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| writer_loop(service, stream, shadow, compact_at, &stop));
        let reader = s.spawn(|| {
            let log = reader_loop(service, reads, window);
            stop.store(true, Ordering::Relaxed);
            log
        });
        let reader = reader.join().expect("reader client panicked");
        (reader, writer.join().expect("writer client panicked"))
    })
}

pub fn run(p: &Params) -> RunOutput {
    let (sys, setup_raw_s) = timed_setups(if p.trace { 1 } else { p.setup_reps }, || set_up(p));
    let mut shadow = Shadow::default();
    let mut mismatches = validate(
        &sys.inputs.data,
        &shadow,
        MEASURE,
        &sys.inputs.validation,
        |q| answer(&sys.service, q),
    );
    if p.trace {
        return traced(p, sys, mismatches);
    }

    let mut reads = ReadStream::new(&sys.inputs, p.seed);
    let mut stream = WriteStream::new(&sys.writes, sys.inputs.data.len(), p.seed);

    // Phase A, after a warm-up that runs both clients too.
    let compact_at = (p.window.as_secs_f64() * COMPACT_AT_PER_WINDOW_S) as usize;
    let service = &sys.service;
    phase_a(
        service,
        &mut reads,
        &mut stream,
        &mut shadow,
        compact_at,
        p.warmup,
    );
    let stats0 = sut::service_stats(service);
    let ((reader, cache_hits), writer) = phase_a(
        service,
        &mut reads,
        &mut stream,
        &mut shadow,
        compact_at,
        p.window,
    );
    let stats1 = sut::service_stats(&sys.service);

    // Phase B: the writer alone, back to back.
    let mut burst_failed = 0u64;
    let mut burst_acked = 0usize;
    let t0 = Instant::now();
    for t in sys.writes.iter().rev().take(BURST_WRITES) {
        if apply(&sys.service, &mut shadow, &Write::Upsert(t)).is_some() {
            burst_acked += 1;
        } else {
            burst_failed += 1;
        }
    }
    let burst_per_s = rate_per_s(burst_acked, t0.elapsed());

    // Phase C: crash (no compaction, no clean hand-over), recover, verify.
    let acked_seq =
        sut::service_stats(&sys.service).inserts + sut::service_stats(&sys.service).deletes;
    let System {
        inputs,
        writes,
        service,
        index_bytes,
        dirs,
        _scratch,
    } = sys;
    drop(service);
    let t0 = Instant::now();
    let recovered = sut::service_recover(MEASURE, durable_config(&dirs));
    let recover_s = t0.elapsed().as_secs_f64();
    let mut lost = 0u64;
    let mut recovery = json!(null);
    match &recovered {
        Err(_) => lost += 1,
        Ok((service, report)) => {
            // Every acknowledged write is in the recovered sequence ...
            lost += u64::from(report.last_seq != acked_seq);
            // ... the live set answers exactly as the shadow says ...
            mismatches += validate(&inputs.data, &shadow, MEASURE, &inputs.validation, |q| {
                answer(service, q)
            });
            // ... and sampled upserts are found at distance zero.
            let live: Vec<&Trajectory> = writes
                .iter()
                .filter(|t| matches!(shadow.overlay.get(&t.id), Some(Some(_))))
                .collect();
            for t in live.iter().step_by((live.len() / PRESENCE_CHECKS).max(1)) {
                let found = answer(service, &t.points)
                    .is_some_and(|hits| hits.iter().any(|h| h.id == t.id && h.dist == 0.0));
                lost += u64::from(!found);
            }
            recovery = json!({
                "from_archive": report.from_archive,
                "replayed_records": report.replayed_records,
                "last_seq": report.last_seq,
                "acknowledged_writes": acked_seq,
            });
        }
    }
    drop(recovered);

    let failed = reader.tally.failed + writer.failed + burst_failed + lost;
    let e2e = EndToEnd {
        setup_raw_s: &setup_raw_s,
        window: &reader,
        index_bytes,
        points: total_points(&inputs.data),
    };
    let (metrics, samples) = e2e.finish();
    let w = writer.latency.summary();
    RunOutput {
        correct: mismatches == 0 && failed == 0,
        attempted: reader.tally.attempted
            + writer.acked
            + writer.failed
            + BURST_WRITES as u64
            + 2 * inputs.validation.len() as u64,
        failed: failed + mismatches as u64,
        metrics,
        detail: json!({
            "samples": samples,
            "extra": json!({
                "raw_write_p50_us": w.map(|s| us(s.p50_ns)),
                "raw_write_tail_percentile": w.and_then(|s| s.tail.map(|t| t.0)),
                "raw_write_tail_us": w.and_then(|s| s.tail.map(|t| us(t.1))),
                "write_samples": w.map(|s| s.samples),
                "raw_write_burst_per_s": burst_per_s,
                "raw_recover_s": recover_s,
                "reader_cache_hit_rate": cache_hits as f64 / reader.tally.queries.max(1) as f64,
                "compactions": writer.compactions,
                "compact_s": writer.compact_s,
                "wal_fsyncs_per_write": (stats1.wal_fsyncs - stats0.wal_fsyncs) as f64
                    / (writer.acked.max(1)) as f64,
            }),
            "recovery": recovery,
            "lost_writes": lost,
            "validation_mismatches": mismatches,
        }),
    }
}

/// The traced pass runs both roles on one client so that counts repeat:
/// 45 reads from the Zipf stream, then 5 writes, over and over — untraced,
/// then again with a span around each real call. The replays come last:
/// reads go down to the kernels, upserts to a `Wal::append` of the same
/// record into a scratch WAL with the same fsync policy.
fn traced(p: &Params, sys: System, mismatches: usize) -> RunOutput {
    const READS_PER_ROUND: usize = 45;
    const ROUND: usize = 50;
    enum Replay<'a> {
        Read(&'a [Point], f64),
        Upsert(&'a Trajectory),
    }
    let mut failed = 0u64;
    let mut shadow = Shadow::default();
    let mut untraced = Latencies::default();
    let mut traced = Latencies::default();
    let mut tracer = Tracer::new();
    let mut replays: Vec<(u64, Replay<'_>)> = Vec::new();
    // Three passes over the same requests: one unmeasured (so the next two
    // run equally warm), one timed, one traced.
    for (measured, tracing) in [(false, false), (true, false), (true, true)] {
        let mut reads = ReadStream::new(&sys.inputs, p.seed);
        let mut stream = WriteStream::new(&sys.writes, sys.inputs.data.len(), p.seed);
        for rid in 0..TRACED_REQUESTS as u64 {
            if (rid as usize) % ROUND < READS_PER_ROUND {
                let q = reads.next();
                let t0 = Instant::now();
                if !tracing {
                    let ok = answer(&sys.service, q).is_some_and(|h| plausible(&h));
                    if measured {
                        untraced.push(t0.elapsed());
                        failed += u64::from(!ok);
                    }
                    continue;
                }
                let out = tracer.span("request", rid, |t| {
                    t.span("service.query", rid, |t| {
                        let out = sut::service_query(&sys.service, q);
                        if let Ok(o) = &out {
                            probes::count_search(t, &o.search);
                            t.count("cache_hit", u64::from(o.cache_hit));
                            t.count("delta_candidates", o.delta_candidates as u64);
                        }
                        out
                    })
                });
                traced.push(t0.elapsed());
                match out {
                    Ok(out) if !out.degraded && plausible(&out.hits) => {
                        replays.push((rid, Replay::Read(q, out.hits[sut::K - 1].dist)));
                    }
                    _ => failed += 1,
                }
            } else {
                let Some(write) = stream.next() else { continue };
                if !tracing {
                    failed += u64::from(apply(&sys.service, &mut shadow, &write).is_none());
                    continue;
                }
                let name = match write {
                    Write::Upsert(_) => "service.insert",
                    Write::Delete(_) => "service.remove",
                };
                let ok = tracer.span("request", rid, |t| {
                    t.span(name, rid, |_| {
                        apply(&sys.service, &mut shadow, &write).is_some()
                    })
                });
                failed += u64::from(!ok);
                if let Write::Upsert(traj) = write {
                    replays.push((rid, Replay::Upsert(traj)));
                }
            }
        }
    }

    let scratch = Scratch::new(&p.out_dir, "serve-wal");
    let mut wal = sut::wal_create(&scratch.0, FsyncPolicy::Always);
    for (rid, replay) in &replays {
        let rid = *rid;
        tracer.span("replay", rid, |t| match replay {
            Replay::Read(q, kth) => {
                probes::replay_distance(t, rid, MEASURE, q, *kth, &sys.inputs.data);
            }
            Replay::Upsert(traj) => t.span("durability.append", rid, |t| {
                let record = sut::upsert_record(rid + 1, traj);
                let (bytes0, syncs0) = sut::wal_counters(&wal);
                sut::wal_append(&mut wal, &record);
                let (bytes1, syncs1) = sut::wal_counters(&wal);
                t.count("bytes", bytes1 - bytes0);
                t.count("fsyncs", syncs1 - syncs0);
            }),
        });
    }
    drop(wal);
    drop(replays);

    let System {
        inputs, service, ..
    } = sys;
    drop(service);
    probes::finish_traced(
        p,
        "serve_mixed",
        &tracer,
        &untraced,
        &traced,
        inputs,
        Vec::new(),
        mismatches,
        failed,
    )
}
