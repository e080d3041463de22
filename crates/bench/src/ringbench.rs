//! Machine-readable ring-buffer benchmark (`BENCH_ring.json`).
//!
//! The criterion benches under `benches/` print human-oriented numbers; this
//! module measures the same event-streaming hot paths — disruptor ring vs
//! the discarded event-pump baseline at 1 and 3 followers, plus the shared
//! pool's allocation and read paths — and serialises them to a small JSON
//! file so future changes have a perf trajectory to regress against
//! (`figures --fig5` writes it, `figures --check-ring` validates it and CI
//! fails if the disruptor stops beating the pump).
//!
//! All measurements interleave the producer and consumers on one thread:
//! cross-thread spin throughput on a single-core CI box measures the
//! scheduler's yield quantum, not the synchronisation cost, whereas the
//! interleaved topology times the data plane itself (slot store/load,
//! gating, cursor publication, queue locks) deterministically.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use varan_core::monitor::replay_probe::ReplayProbe;
use varan_ring::{
    Event, EventKind, EventPump, JournalRecord, PoolAllocator, PumpQueue, RingBuffer,
    SharedRegion, WaitStrategy,
};

use crate::Scale;

/// Schema identifier stamped into the JSON so consumers can detect format
/// drift.  v2 added the `follower` section (zero-copy replay counters and
/// the copy-vs-borrow consume throughputs).
pub const SCHEMA: &str = "varan-bench-ring/v2";

/// Default output path, relative to the working directory.
pub const DEFAULT_PATH: &str = "BENCH_ring.json";

/// Events streamed per throughput measurement.
const QUICK_EVENTS: u64 = 262_144;
/// Ring/queue capacity used by every measurement.
const CAPACITY: usize = 1024;
/// Events per published batch / pump burst.
const CHUNK: u64 = 256;
/// Payload size for the pool measurements.
const PAYLOAD: usize = 4096;
/// Payload size of the journal frames in the spill measurement (a typical
/// syscall data payload: one read burst).
const SPILL_PAYLOAD: usize = 256;
/// Spill gate: checksummed frames per second must be at least this share
/// of the unchecksummed rate, i.e. the CRC32C may cost at most 3x the
/// frame encode it guards.
const SPILL_CRC_MIN_RATIO: f64 = 0.25;

/// Events-per-second results for the event-streaming data plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingBenchReport {
    /// Events streamed per measured series.
    pub events: u64,
    /// Disruptor ring, per-event publish + per-event consume, 1 follower.
    pub disruptor_1f: f64,
    /// Disruptor ring, per-event publish + per-event consume, 3 followers.
    pub disruptor_3f: f64,
    /// Disruptor ring, batched publish + batched drain, 1 follower.
    pub disruptor_batch_1f: f64,
    /// Disruptor ring, batched publish + batched drain, 3 followers.
    pub disruptor_batch_3f: f64,
    /// Event-pump baseline, 1 follower.
    pub pump_1f: f64,
    /// Event-pump baseline, 3 followers.
    pub pump_3f: f64,
    /// Pool alloc+free cycles per second.
    pub pool_alloc_free_per_sec: f64,
    /// `PoolAllocator::read` (fresh `Vec` per call) reads per second.
    pub pool_read_per_sec: f64,
    /// `PoolAllocator::read_into` (reused buffer) reads per second.
    pub pool_read_into_per_sec: f64,
    /// Journal frames encoded per second on the leader's spill path with
    /// the end-to-end CRC32C computed per frame (the production encoder).
    pub spill_crc_append_per_sec: f64,
    /// Journal frames encoded per second with checksumming skipped — the
    /// delta against `spill_crc_append_per_sec` is what durability costs
    /// the spill path (docs/DURABILITY.md).
    pub spill_nocrc_append_per_sec: f64,
    /// Batched follower consume, PR 2 copy-out discipline: every payload
    /// copied out of the pool before the gate advances.
    pub follower_copy_consume_per_sec: f64,
    /// Batched follower consume, zero-copy discipline: payloads processed
    /// in place under lap-based reclamation (`read_with` borrows), gate
    /// advanced per batch, lap advanced at replay completion.
    pub follower_zero_copy_consume_per_sec: f64,
    /// `follower_copy_bytes_saved` counter after the steady-state monitor
    /// replay scenario: payload bytes left pool-resident at staging time.
    pub follower_copy_bytes_saved: u64,
    /// `follower_copy_bytes` counter after the same scenario: staging-time
    /// copy-path bytes — the zero-payload-memcpy gate requires 0.
    pub follower_copy_path_bytes: u64,
    /// Replay windows certified by one fold comparison in the scenario.
    pub divergence_fast_path_hits: u64,
    /// `divergence_hash_mismatches` after a scenario with one planted
    /// argument divergence (same sysno — only the batch hash catches it):
    /// must be exactly 1, evidencing the localization slow path fired.
    pub planted_divergence_detected: u64,
}

/// Batched follower consume throughput over payload-carrying events, with
/// the producer's (unmeasured) publish and retire work interleaved so the
/// pool cycles exactly as it does under a live leader.  Only the follower's
/// peek → process → acknowledge section is on the stopwatch.
fn follower_consume_per_sec(events: u64, zero_copy: bool) -> f64 {
    let ring = Arc::new(RingBuffer::<Event>::new(CAPACITY, 1, WaitStrategy::Spin).unwrap());
    let producer = ring.producer();
    let mut consumer = ring.consumer(0).unwrap();
    if zero_copy {
        consumer.enable_lap_gate();
    }
    let pool = PoolAllocator::default();
    let payload = vec![0xabu8; PAYLOAD];
    let mut payload_window: VecDeque<(u64, SharedRegion)> = VecDeque::new();
    let mut events_buf: Vec<Event> = Vec::with_capacity(CHUNK as usize);
    let mut sigs_buf: Vec<u64> = Vec::with_capacity(CHUNK as usize);
    let mut scratch: Vec<Event> = Vec::with_capacity(CHUNK as usize);
    let mut consume_time = Duration::ZERO;
    for _ in 0..(events / CHUNK) {
        events_buf.clear();
        sigs_buf.clear();
        let mut regions = [None; CHUNK as usize];
        for (i, slot) in regions.iter_mut().enumerate() {
            let region = pool.alloc_and_write(&payload).unwrap();
            let event =
                Event::syscall(0, &[i as u64], PAYLOAD as i64).with_shared(region.ptr());
            sigs_buf.push(event.signature());
            events_buf.push(event);
            *slot = Some(region);
        }
        let first = producer
            .publish_batch_signed(&events_buf, &sigs_buf)
            .expect("chunk fits the ring");
        for (i, region) in regions.iter().enumerate() {
            payload_window.push_back((first + i as u64, region.expect("filled above")));
        }

        let start = Instant::now();
        scratch.clear();
        let base = consumer.next_sequence();
        let peeked = consumer.peek_batch(&mut scratch, usize::MAX);
        if zero_copy {
            // Execute against the pool-resident payload (borrow), then one
            // gate advance and one lap advance for the whole batch.
            for event in &scratch {
                pool.read_with(event.shared(), |bytes| {
                    std::hint::black_box((bytes[0], bytes[bytes.len() - 1]));
                });
            }
            consumer.advance(peeked);
            consumer.advance_lap_to(base + peeked as u64);
        } else {
            // PR 2 discipline: copy every payload out before acknowledging.
            for event in &scratch {
                std::hint::black_box(pool.read(event.shared()));
            }
            consumer.advance(peeked);
        }
        consume_time += start.elapsed();

        let horizon = producer.refresh_reclaim_horizon();
        while payload_window.front().is_some_and(|&(seq, _)| seq < horizon) {
            let (_, region) = payload_window.pop_front().unwrap();
            pool.free(region).unwrap();
        }
    }
    events as f64 / consume_time.as_secs_f64()
}

/// Counters from a steady-state monitor replay scenario driven through the
/// real drain/certify machinery ([`ReplayProbe`]): leader publishes signed
/// payload batches with lap-horizon retirement, the follower drains
/// zero-copy and replays every event.  With `plant_divergence`, one replay
/// mid-run substitutes a different argument word (same sysno — only the
/// batch hash can catch it), which must be detected and localized.
fn monitor_replay_counters(
    batches: u64,
    plant_divergence: bool,
) -> varan_obs::MetricsSnapshot {
    const BATCH: u64 = 64;
    const REPLAY_PAYLOAD: usize = 256;
    let ring: Arc<RingBuffer<Event>> =
        Arc::new(RingBuffer::new(CAPACITY, 1, WaitStrategy::Spin).unwrap());
    let producer = ring.producer();
    let pool = Arc::new(PoolAllocator::default());
    let obs = Arc::new(varan_obs::Registry::new());
    let mut probe = ReplayProbe::new(&ring, 0, Arc::clone(&pool), Arc::clone(&obs));
    let payload = vec![0x5au8; REPLAY_PAYLOAD];
    let mut payload_window: VecDeque<(u64, SharedRegion)> = VecDeque::new();
    for batch in 0..batches {
        for i in 0..BATCH {
            let region = pool.alloc_and_write(&payload).unwrap();
            let event = Event::syscall(3, &[batch, i], REPLAY_PAYLOAD as i64)
                .with_shared(region.ptr());
            let seq = producer.publish_signed(event, event.signature());
            payload_window.push_back((seq, region));
        }
        let drained = probe.drain();
        for i in 0..drained as u64 {
            if plant_divergence && batch == batches / 2 && i == BATCH / 2 {
                // Same sysno, different argument word.
                let divergent = Event::syscall(3, &[batch, i ^ 1], REPLAY_PAYLOAD as i64);
                probe.replay_next_as(0, divergent).unwrap();
            } else {
                probe.replay_next(0).unwrap();
            }
        }
        let horizon = producer.refresh_reclaim_horizon();
        while payload_window.front().is_some_and(|&(seq, _)| seq < horizon) {
            let (_, region) = payload_window.pop_front().unwrap();
            pool.free(region).unwrap();
        }
    }
    obs.metrics.snapshot()
}

fn disruptor_events_per_sec(followers: usize, events: u64, batched: bool) -> f64 {
    let ring =
        Arc::new(RingBuffer::<Event>::new(CAPACITY, followers, WaitStrategy::Spin).unwrap());
    let producer = ring.producer();
    let mut consumers: Vec<_> = (0..followers)
        .map(|slot| ring.consumer(slot).unwrap())
        .collect();
    let chunk_events: Vec<Event> = (0..CHUNK).map(Event::checkpoint).collect();
    let mut buffer: Vec<Event> = Vec::with_capacity(CAPACITY);
    let start = Instant::now();
    for _ in 0..(events / CHUNK) {
        if batched {
            producer.publish_batch(&chunk_events);
        } else {
            for event in &chunk_events {
                producer.publish(*event);
            }
        }
        for consumer in consumers.iter_mut() {
            if batched {
                buffer.clear();
                assert_eq!(consumer.try_next_batch(&mut buffer, usize::MAX) as u64, CHUNK);
            } else {
                for _ in 0..CHUNK {
                    std::hint::black_box(consumer.try_next().unwrap());
                }
            }
        }
    }
    events as f64 / start.elapsed().as_secs_f64()
}

fn pump_events_per_sec(followers: usize, events: u64) -> f64 {
    let leader = PumpQueue::new(CAPACITY);
    let follower_queues: Vec<PumpQueue<Event>> =
        (0..followers).map(|_| PumpQueue::new(CAPACITY)).collect();
    let mut pump = EventPump::new(leader.clone(), follower_queues.clone());
    let mut buffer: Vec<Event> = Vec::with_capacity(CAPACITY);
    let start = Instant::now();
    for chunk in 0..(events / CHUNK) {
        for i in 0..CHUNK {
            leader.push(Event::checkpoint(chunk * CHUNK + i));
        }
        pump.pump_until_empty();
        for queue in &follower_queues {
            buffer.clear();
            assert_eq!(queue.pop_batch(&mut buffer, usize::MAX) as u64, CHUNK);
        }
    }
    events as f64 / start.elapsed().as_secs_f64()
}

fn pool_throughputs(cycles: u64) -> (f64, f64, f64) {
    let pool = PoolAllocator::default();
    let region = pool.alloc_and_write(&vec![0xabu8; PAYLOAD]).unwrap();
    let ptr = region.ptr();

    let start = Instant::now();
    for _ in 0..cycles {
        let region = pool.alloc(PAYLOAD).unwrap();
        pool.free(std::hint::black_box(region)).unwrap();
    }
    let alloc_free = cycles as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..cycles {
        std::hint::black_box(pool.read(ptr));
    }
    let read = cycles as f64 / start.elapsed().as_secs_f64();

    let mut buffer = Vec::with_capacity(PAYLOAD);
    let start = Instant::now();
    for _ in 0..cycles {
        std::hint::black_box(pool.read_into(ptr, &mut buffer));
    }
    let read_into = cycles as f64 / start.elapsed().as_secs_f64();

    (alloc_free, read, read_into)
}

fn spill_record() -> JournalRecord {
    JournalRecord {
        kind: EventKind::Syscall,
        sysno: 0,
        tid: 1,
        clock: 42,
        result: SPILL_PAYLOAD as i64,
        args: [3, 0, SPILL_PAYLOAD as u64, 0, 0, 0],
        payload: Some(vec![0x5au8; SPILL_PAYLOAD]),
    }
}

/// Frames encoded per second into a reused buffer, with (`checked`) or
/// without the per-frame CRC32C — the same encoder the leader's spill path
/// runs per published event, minus the file I/O both variants share.
fn spill_encodes_per_sec(frames: u64, checked: bool) -> f64 {
    let record = spill_record();
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    let start = Instant::now();
    for _ in 0..frames {
        sink.clear();
        if checked {
            std::hint::black_box(record.encode_into(&mut sink));
        } else {
            record.encode_into_unchecked(&mut sink);
        }
        std::hint::black_box(sink.as_slice());
    }
    frames as f64 / start.elapsed().as_secs_f64()
}

/// Runs every measurement and returns the report.
#[must_use]
pub fn run(scale: Scale) -> RingBenchReport {
    let events = match scale {
        Scale::Quick => QUICK_EVENTS,
        Scale::Full => QUICK_EVENTS * 8,
    };
    let pool_cycles = events / 4;
    let (pool_alloc_free_per_sec, pool_read_per_sec, pool_read_into_per_sec) =
        pool_throughputs(pool_cycles);
    let steady = monitor_replay_counters(16, false);
    let planted = monitor_replay_counters(16, true);
    RingBenchReport {
        events,
        disruptor_1f: disruptor_events_per_sec(1, events, false),
        disruptor_3f: disruptor_events_per_sec(3, events, false),
        disruptor_batch_1f: disruptor_events_per_sec(1, events, true),
        disruptor_batch_3f: disruptor_events_per_sec(3, events, true),
        pump_1f: pump_events_per_sec(1, events),
        pump_3f: pump_events_per_sec(3, events),
        pool_alloc_free_per_sec,
        pool_read_per_sec,
        pool_read_into_per_sec,
        spill_crc_append_per_sec: spill_encodes_per_sec(pool_cycles, true),
        spill_nocrc_append_per_sec: spill_encodes_per_sec(pool_cycles, false),
        follower_copy_consume_per_sec: follower_consume_per_sec(pool_cycles, false),
        follower_zero_copy_consume_per_sec: follower_consume_per_sec(pool_cycles, true),
        follower_copy_bytes_saved: steady.follower_copy_bytes_saved,
        follower_copy_path_bytes: steady.follower_copy_bytes,
        divergence_fast_path_hits: steady.divergence_fast_path_hits,
        planted_divergence_detected: planted.divergence_hash_mismatches,
    }
}

impl RingBenchReport {
    /// Serialises the report to the `varan-bench-ring/v2` JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"events_per_sec\": {{");
        let _ = writeln!(out, "    \"disruptor_1f\": {:.1},", self.disruptor_1f);
        let _ = writeln!(out, "    \"disruptor_3f\": {:.1},", self.disruptor_3f);
        let _ = writeln!(
            out,
            "    \"disruptor_batch_1f\": {:.1},",
            self.disruptor_batch_1f
        );
        let _ = writeln!(
            out,
            "    \"disruptor_batch_3f\": {:.1},",
            self.disruptor_batch_3f
        );
        let _ = writeln!(out, "    \"pump_1f\": {:.1},", self.pump_1f);
        let _ = writeln!(out, "    \"pump_3f\": {:.1}", self.pump_3f);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"pool\": {{");
        let _ = writeln!(
            out,
            "    \"alloc_free_per_sec\": {:.1},",
            self.pool_alloc_free_per_sec
        );
        let _ = writeln!(out, "    \"read_per_sec\": {:.1},", self.pool_read_per_sec);
        let _ = writeln!(
            out,
            "    \"read_into_per_sec\": {:.1}",
            self.pool_read_into_per_sec
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"spill\": {{");
        let _ = writeln!(
            out,
            "    \"spill_crc_append_per_sec\": {:.1},",
            self.spill_crc_append_per_sec
        );
        let _ = writeln!(
            out,
            "    \"spill_nocrc_append_per_sec\": {:.1}",
            self.spill_nocrc_append_per_sec
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"follower\": {{");
        let _ = writeln!(
            out,
            "    \"follower_copy_consume_per_sec\": {:.1},",
            self.follower_copy_consume_per_sec
        );
        let _ = writeln!(
            out,
            "    \"follower_zero_copy_consume_per_sec\": {:.1},",
            self.follower_zero_copy_consume_per_sec
        );
        let _ = writeln!(
            out,
            "    \"follower_copy_bytes_saved\": {},",
            self.follower_copy_bytes_saved
        );
        let _ = writeln!(
            out,
            "    \"follower_copy_path_bytes\": {},",
            self.follower_copy_path_bytes
        );
        let _ = writeln!(
            out,
            "    \"divergence_fast_path_hits\": {},",
            self.divergence_fast_path_hits
        );
        let _ = writeln!(
            out,
            "    \"planted_divergence_detected\": {}",
            self.planted_divergence_detected
        );
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Renders a short human-readable summary for the `figures` output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Ring-buffer data plane ({} events/series):", self.events);
        let rows = [
            ("disruptor, per-event, 1 follower", self.disruptor_1f),
            ("disruptor, per-event, 3 followers", self.disruptor_3f),
            ("disruptor, batched,   1 follower", self.disruptor_batch_1f),
            ("disruptor, batched,   3 followers", self.disruptor_batch_3f),
            ("event pump baseline,  1 follower", self.pump_1f),
            ("event pump baseline,  3 followers", self.pump_3f),
        ];
        for (label, value) in rows {
            let _ = writeln!(out, "  {label:<36} {:>12.0} events/s", value);
        }
        let _ = writeln!(
            out,
            "  speedup vs pump at 3 followers: {:.1}x (batched {:.1}x)",
            self.disruptor_3f / self.pump_3f,
            self.disruptor_batch_3f / self.pump_3f,
        );
        let _ = writeln!(
            out,
            "  pool: alloc+free {:.0}/s, read {:.0}/s, read_into {:.0}/s",
            self.pool_alloc_free_per_sec, self.pool_read_per_sec, self.pool_read_into_per_sec,
        );
        let _ = writeln!(
            out,
            "  spill encode: {:.0} frames/s with CRC32C, {:.0} without (ratio {:.2}, \
             gate >= {SPILL_CRC_MIN_RATIO})",
            self.spill_crc_append_per_sec,
            self.spill_nocrc_append_per_sec,
            self.spill_crc_append_per_sec / self.spill_nocrc_append_per_sec,
        );
        let _ = writeln!(
            out,
            "  follower consume: copy {:.0}/s, zero-copy {:.0}/s ({:.1}x); \
             {} staged bytes pool-resident, {} copied",
            self.follower_copy_consume_per_sec,
            self.follower_zero_copy_consume_per_sec,
            self.follower_zero_copy_consume_per_sec / self.follower_copy_consume_per_sec,
            self.follower_copy_bytes_saved,
            self.follower_copy_path_bytes,
        );
        let _ = writeln!(
            out,
            "  divergence: {} windows certified by one u64 fold, planted divergence \
             detections {}",
            self.divergence_fast_path_hits, self.planted_divergence_detected,
        );
        out
    }
}

/// Extracts the number following `"key":` inside `json`. Minimal parser for
/// the flat `varan-bench-ring/v2` schema written by [`RingBenchReport`].
fn extract_number(json: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\"");
    let at = json
        .find(&needle)
        .ok_or_else(|| format!("missing key {key:?}"))?;
    let rest = &json[at + needle.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("malformed entry for {key:?} (no colon)"))?
        .trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|err| format!("malformed number for {key:?}: {err}"))
}

/// Validates a `BENCH_ring.json` file: schema marker present, every metric a
/// positive finite number, the disruptor strictly faster than the
/// event-pump baseline (per-event and batched), the checksummed spill
/// encode at least 0.25x the unchecksummed one, and the zero-copy follower
/// gates.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_file(path: impl AsRef<Path>) -> Result<(), String> {
    let path = path.as_ref();
    let json = fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("{}: missing schema marker {SCHEMA:?}", path.display()));
    }
    let keys = [
        "events",
        "disruptor_1f",
        "disruptor_3f",
        "disruptor_batch_1f",
        "disruptor_batch_3f",
        "pump_1f",
        "pump_3f",
        "alloc_free_per_sec",
        "read_per_sec",
        "read_into_per_sec",
        "spill_crc_append_per_sec",
        "spill_nocrc_append_per_sec",
        "follower_copy_consume_per_sec",
        "follower_zero_copy_consume_per_sec",
        "follower_copy_bytes_saved",
        "divergence_fast_path_hits",
        "planted_divergence_detected",
    ];
    for key in keys {
        let value = extract_number(&json, key).map_err(|err| format!("{}: {err}", path.display()))?;
        if !value.is_finite() || value <= 0.0 {
            return Err(format!(
                "{}: metric {key:?} must be positive and finite, got {value}",
                path.display()
            ));
        }
    }
    let disruptor = extract_number(&json, "disruptor_3f").expect("validated above");
    let batched = extract_number(&json, "disruptor_batch_3f").expect("validated above");
    let pump = extract_number(&json, "pump_3f").expect("validated above");
    if disruptor <= pump {
        return Err(format!(
            "{}: disruptor ({disruptor:.0} events/s) does not beat the event pump \
             ({pump:.0} events/s) at 3 followers",
            path.display()
        ));
    }
    if batched <= pump {
        return Err(format!(
            "{}: batched disruptor ({batched:.0} events/s) does not beat the event pump \
             ({pump:.0} events/s) at 3 followers",
            path.display()
        ));
    }
    let batched_1f = extract_number(&json, "disruptor_batch_1f").expect("validated above");
    let pump_1f = extract_number(&json, "pump_1f").expect("validated above");
    if batched_1f <= pump_1f {
        return Err(format!(
            "{}: batched disruptor ({batched_1f:.0} events/s) does not beat the event pump \
             ({pump_1f:.0} events/s) at 1 follower",
            path.display()
        ));
    }
    // Zero-payload-memcpy gate: the steady-state follower staging path must
    // stage every payload pool-resident — any copy-path bytes mean a queue
    // fell off the zero-copy path.
    let copy_path_bytes =
        extract_number(&json, "follower_copy_path_bytes").map_err(|err| format!("{}: {err}", path.display()))?;
    if copy_path_bytes != 0.0 {
        return Err(format!(
            "{}: steady-state follower staging copied {copy_path_bytes:.0} payload bytes \
             (zero-copy gate requires 0)",
            path.display()
        ));
    }
    // Spill gate: the per-frame CRC32C sits on the leader's syscall path,
    // so it must stay a small multiple of the frame encode it guards.
    let crc = extract_number(&json, "spill_crc_append_per_sec").expect("validated above");
    let nocrc = extract_number(&json, "spill_nocrc_append_per_sec").expect("validated above");
    if crc < nocrc * SPILL_CRC_MIN_RATIO {
        return Err(format!(
            "{}: spill encode with CRC32C ({crc:.0} frames/s) is below {SPILL_CRC_MIN_RATIO} x \
             the unchecksummed rate ({nocrc:.0} frames/s)",
            path.display()
        ));
    }
    let copy = extract_number(&json, "follower_copy_consume_per_sec").expect("validated above");
    let zero_copy =
        extract_number(&json, "follower_zero_copy_consume_per_sec").expect("validated above");
    if zero_copy < copy * 1.5 {
        return Err(format!(
            "{}: zero-copy follower consume ({zero_copy:.0} events/s) is not >= 1.5x the \
             copy-out baseline ({copy:.0} events/s)",
            path.display()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RingBenchReport {
        RingBenchReport {
            events: 1000,
            disruptor_1f: 30e6,
            disruptor_3f: 20e6,
            disruptor_batch_1f: 70e6,
            disruptor_batch_3f: 30e6,
            pump_1f: 3e6,
            pump_3f: 1.5e6,
            pool_alloc_free_per_sec: 8e6,
            pool_read_per_sec: 9e6,
            pool_read_into_per_sec: 12e6,
            spill_crc_append_per_sec: 5e6,
            spill_nocrc_append_per_sec: 6e6,
            follower_copy_consume_per_sec: 2e6,
            follower_zero_copy_consume_per_sec: 4e6,
            follower_copy_bytes_saved: 1 << 20,
            follower_copy_path_bytes: 0,
            divergence_fast_path_hits: 16,
            planted_divergence_detected: 1,
        }
    }

    #[test]
    fn json_round_trips_through_validation() {
        let dir = std::env::temp_dir().join("varan-ringbench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        sample().write_to(&path).unwrap();
        validate_file(&path).unwrap();
    }

    #[test]
    fn validation_rejects_a_losing_disruptor() {
        let mut report = sample();
        report.pump_3f = report.disruptor_3f * 2.0;
        let dir = std::env::temp_dir().join("varan-ringbench-test-losing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        report.write_to(&path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("does not beat"), "unexpected error: {err}");
    }

    #[test]
    fn validation_rejects_a_losing_batched_disruptor() {
        let mut report = sample();
        report.disruptor_batch_1f = report.pump_1f / 2.0;
        let dir = std::env::temp_dir().join("varan-ringbench-test-losing-batch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        report.write_to(&path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("1 follower"), "unexpected error: {err}");
    }

    #[test]
    fn validation_rejects_copy_path_bytes_on_the_follower() {
        let mut report = sample();
        report.follower_copy_path_bytes = 4096;
        let dir = std::env::temp_dir().join("varan-ringbench-test-copy-path");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        report.write_to(&path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("zero-copy gate"), "unexpected error: {err}");
    }

    #[test]
    fn validation_rejects_a_sub_1_5x_zero_copy_speedup() {
        let mut report = sample();
        report.follower_zero_copy_consume_per_sec = report.follower_copy_consume_per_sec * 1.2;
        let dir = std::env::temp_dir().join("varan-ringbench-test-slow-zero-copy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        report.write_to(&path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("1.5x"), "unexpected error: {err}");
    }

    #[test]
    fn validation_rejects_a_slow_spill_checksum() {
        let mut report = sample();
        report.spill_crc_append_per_sec = report.spill_nocrc_append_per_sec * 0.2;
        let dir = std::env::temp_dir().join("varan-ringbench-test-slow-spill-crc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        report.write_to(&path).unwrap();
        let err = validate_file(&path).unwrap_err();
        assert!(err.contains("unchecksummed"), "unexpected error: {err}");
    }

    #[test]
    fn replay_counter_scenarios_hit_the_gates() {
        let steady = monitor_replay_counters(4, false);
        assert!(steady.follower_copy_bytes_saved > 0);
        assert_eq!(steady.follower_copy_bytes, 0);
        assert_eq!(steady.divergence_fast_path_hits, 4);
        assert_eq!(steady.divergence_hash_mismatches, 0);
        let planted = monitor_replay_counters(4, true);
        assert_eq!(planted.divergence_hash_mismatches, 1);
        assert_eq!(planted.divergence_fast_path_hits, 3);
    }

    #[test]
    fn validation_rejects_malformed_json() {
        let dir = std::env::temp_dir().join("varan-ringbench-test-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ring.json");
        std::fs::write(&path, "{\"schema\": \"varan-bench-ring/v1\"}").unwrap();
        assert!(validate_file(&path).is_err());
        std::fs::write(&path, "not json at all").unwrap();
        assert!(validate_file(&path).is_err());
    }

    #[test]
    fn quick_measurement_is_sane() {
        // A tiny inline run (not the full quick scale) to keep the test fast
        // while still exercising the measurement plumbing end to end.
        let throughput = disruptor_events_per_sec(1, 4096, true);
        assert!(throughput > 0.0);
        let pump = pump_events_per_sec(1, 4096);
        assert!(pump > 0.0);
        assert!(spill_encodes_per_sec(4096, true) > 0.0);
        assert!(spill_encodes_per_sec(4096, false) > 0.0);
    }
}
