//! The repository benchmark: the in-tree kvstore served over one
//! connection, natively and under 1-follower NVX, on three payload mixes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is the
//! full report with provenance and sample counts.  `--trace 0` measures the
//! end-to-end metrics, `--trace 1` the per-layer split (see README.md).

mod arm;
mod gen;
mod host;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use arm::{Arm, Counters, Server};
use gen::{Generator, Mix, Rng};
use stats::{median, percentile, sorted, steal_limit, tail_is_supported, within, Window};
use trace::{split, Class, RequestSplit, Role, Span, SyscallSpan, Trace};

/// One traffic mix.  The server, the connection and the single follower
/// are the same in every workload.
struct Workload {
    name: &'static str,
    mix: Mix,
    /// NVX with the fleet journal in a fresh directory per launch.
    journal: bool,
    /// The open-loop arrival rate: a constant, never derived at run time.
    offered_rps: f64,
}

const WORKLOADS: [Workload; 3] = [
    // ~4 tiny syscalls per request: per-event costs dominate and the
    // journal is off.  The bypass workload for payload/journal changes.
    Workload {
        name: "kv-small",
        mix: Mix {
            get_percent: 90,
            value_len: 32,
            keys: 64,
        },
        journal: false,
        offered_rps: 5000.0,
    },
    // 4 KiB of ingress per request through the pool copy, the journal
    // append with its CRC32C, and follower delivery.
    Workload {
        name: "kv-set4k-journal",
        mix: Mix {
            get_percent: 0,
            value_len: 4000,
            keys: 64,
        },
        journal: true,
        offered_rps: 1000.0,
    },
    // The same layers the other way round: tiny ingress, 4 KiB leaving in
    // batched writes that the follower does not execute.
    Workload {
        name: "kv-get4k-journal",
        mix: Mix {
            get_percent: 100,
            value_len: 4000,
            keys: 64,
        },
        journal: true,
        offered_rps: 1000.0,
    },
];

/// Closed-loop windows alternate native and NVX launches so that a noisy
/// neighbour hits both arms alike.
const CLOSED_WINDOW: Duration = Duration::from_millis(250);
/// The share of an untraced run spent in closed loop, which gives the gated
/// metrics; the rest is open loop, for the latency percentiles.
const CLOSED_SHARE: f64 = 0.75;
/// Requests per open-loop window: 20 lie beyond its p99.
const OPEN_REQUESTS: u32 = 2000;
/// How long before a due send the open-loop generator stops sleeping.
const SPIN_MARGIN: Duration = Duration::from_micros(80);
/// Untimed requests after the preload of every launch.
const WARMUP_REQUESTS: usize = 300;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|err| format!("--seed: {err}"))?,
                )
            }
            "--seconds" => {
                let secs = value
                    .parse::<f64>()
                    .map_err(|err| format!("--seconds: {err}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(secs);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run accumulates across its launches.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    launches: usize,
    work_dir: PathBuf,
    // End-to-end samples, one per window.
    native_rps: Vec<Window>,
    nvx_rps: Vec<Window>,
    cpu_ms_per_kreq: Vec<Window>,
    /// Set-up samples carry the steal of their whole launch: set-up itself
    /// is too short to see a stolen tick.
    setup_s: Vec<Window>,
    launch_ns: Vec<Window>,
    first_reply_ns: Vec<Window>,
    /// Open-loop latency samples, and the fewest lying beyond p99 in any
    /// one window.
    open_samples: usize,
    fewest_beyond_p99: Option<usize>,
    window_p50_us: Vec<Window>,
    window_p90_us: Vec<Window>,
    window_p99_us: Vec<Window>,
    // Generator health (open loop).
    sends: u64,
    backlogged: u64,
    lateness_us: Vec<f64>,
    sleep_jitter_us: Vec<f64>,
    // Counters over every NVX launch, and the requests they served.
    counters: Counters,
    nvx_requests: u64,
    journal_bytes: u64,
    journal_requests: u64,
    // Traced closed-loop windows.
    traced_nvx_rps: Vec<Window>,
    native_splits: Vec<RequestSplit>,
    leader_splits: Vec<RequestSplit>,
    follower_splits: Vec<RequestSplit>,
    /// Raw spans of the first traced launch of each arm, as CSV.
    span_dump: String,
}

impl Run {
    /// The steal limit of the closed loop, where the two arms are compared.
    fn closed_limit(&self) -> u64 {
        steal_limit(&[&self.native_rps, &self.nvx_rps])
    }

    fn seed_for(&self, base: u64) -> u64 {
        let mut rng = Rng::new(base ^ (self.launches as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64()
    }

    /// Launches a server, preloads every key, warms up, runs `body`, reads
    /// every key back and closes.  Returns `false` once anything failed.
    fn launch(
        &mut self,
        workload: &Workload,
        seed: u64,
        arm: Arm,
        trace: Option<&Trace>,
        body: impl FnOnce(&mut Run, &mut Server, &mut Generator) -> Result<(), String>,
    ) -> bool {
        self.launches += 1;
        let journal_dir = (arm == Arm::Nvx && workload.journal)
            .then(|| self.work_dir.join(format!("journal-{}", self.launches)));
        let mut generator = Generator::new(workload.mix, self.seed_for(seed));
        let steal_before = host::steal_ticks();
        let mut server = match Server::start(arm, journal_dir, trace) {
            Ok(server) => server,
            Err(err) => {
                self.attempted += 1;
                self.failed += 1;
                self.problems.push(format!("{arm:?} launch: {err}"));
                return false;
            }
        };
        let setup = [server.launch_ns, server.first_reply_ns];
        let mut result = (|| {
            for op in generator.preload() {
                send(&mut server, generator.wire(&op))?;
            }
            for _ in 0..WARMUP_REQUESTS {
                send(&mut server, generator.next_exchange())?;
            }
            Ok(())
        })();
        if result.is_ok() {
            result = body(self, &mut server, &mut generator);
        }
        if result.is_ok() {
            result = (|| {
                for op in generator.verify_ops() {
                    send(&mut server, generator.wire(&op))?;
                }
                Ok(())
            })();
        }
        let finished = server.finish();
        let steal = host::steal_ticks().saturating_sub(steal_before);
        if arm == Arm::Nvx {
            let [launch_ns, first_reply_ns] = setup.map(|ns| Window {
                value: ns as f64,
                steal,
            });
            self.launch_ns.push(launch_ns);
            self.first_reply_ns.push(first_reply_ns);
            self.setup_s.push(Window {
                value: (launch_ns.value + first_reply_ns.value) / 1e9,
                steal,
            });
        }
        self.attempted += finished.requests;
        self.failed += finished.failed;
        if let Err(err) = &result {
            self.problems
                .push(format!("{arm:?} launch {}: {err}", self.launches));
        }
        for problem in &finished.problems {
            self.problems
                .push(format!("{arm:?} launch {}: {problem}", self.launches));
        }
        if arm == Arm::Nvx {
            self.counters.add(&finished.counters);
            self.nvx_requests += finished.requests;
            if workload.journal {
                self.journal_bytes += finished.journal_bytes;
                self.journal_requests += finished.requests;
            }
        }
        finished.problems.is_empty() && result.is_ok()
    }
}

/// One exchange whose wrong reply, like a lost connection, ends the launch.
fn send(server: &mut Server, (request, expected): (Vec<u8>, Vec<u8>)) -> Result<(), String> {
    if server.exchange(&request, &expected)? {
        Ok(())
    } else {
        Err("wrong reply".into())
    }
}

/// Closed loop for `window`: the next request goes out when the previous
/// reply is verified.  Returns completed requests per second, with the
/// steal during the window.  With `trace`, each request's span is pushed
/// to `spans`.
fn closed_loop(
    run: &mut Run,
    server: &mut Server,
    generator: &mut Generator,
    window: Duration,
    trace: Option<(&Trace, &mut Vec<Span>)>,
) -> Result<Window, String> {
    let mut trace = trace;
    let steal_before = host::steal_ticks();
    let cpu_before = host::server_cpu_ns();
    let started = Instant::now();
    let deadline = started + window;
    let mut completed = 0u64;
    while Instant::now() < deadline {
        let exchange = generator.next_exchange();
        let start = trace.as_ref().map(|(trace, _)| trace.now());
        send(server, exchange)?;
        if let (Some((trace, spans)), Some(start)) = (trace.as_mut(), start) {
            spans.push(Span {
                start,
                end: trace.now(),
            });
        }
        completed += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = host::server_cpu_ns().saturating_sub(cpu_before);
    let steal = host::steal_ticks().saturating_sub(steal_before);
    if server.arm() == Arm::Nvx && trace.is_none() {
        run.cpu_ms_per_kreq.push(Window {
            value: cpu as f64 / 1e6 / (completed as f64 / 1000.0),
            steal,
        });
    }
    Ok(Window {
        value: completed as f64 / wall,
        steal,
    })
}

/// Open loop of `requests` at `rate`: request *i* is due at
/// `start + i/rate` and its latency runs from that instant.  With one
/// request in flight, a request whose predecessor is still out when it
/// falls due goes out as soon as the reply is in (a backlogged send);
/// otherwise the generator sleeps until the due time, and how far it
/// oversleeps is its own jitter.
fn open_loop(
    run: &mut Run,
    server: &mut Server,
    generator: &mut Generator,
    requests: u32,
    rate: f64,
) -> Result<(), String> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut latencies = Vec::new();
    let steal_before = host::steal_ticks();
    let started = Instant::now();
    for i in 0..requests {
        let due = started + interval * i;
        let exchange = generator.next_exchange();
        let now = Instant::now();
        let backlogged = now > due;
        if !backlogged {
            // A sleep overshoots by the timer slack (tens of µs, longer
            // than a kv-small request), so the last stretch yields instead.
            if due - now > SPIN_MARGIN {
                std::thread::sleep(due - now - SPIN_MARGIN);
            }
            while Instant::now() < due {
                std::thread::yield_now();
            }
        }
        let fired = Instant::now();
        let late_us = (fired - due).as_secs_f64() * 1e6;
        run.sends += 1;
        run.lateness_us.push(late_us);
        if backlogged {
            run.backlogged += 1;
        } else {
            run.sleep_jitter_us.push(late_us);
        }
        send(server, exchange)?;
        latencies.push(due.elapsed().as_secs_f64() * 1e6);
    }
    let steal = host::steal_ticks().saturating_sub(steal_before);
    let latencies = sorted(latencies);
    if !tail_is_supported(&latencies, 0.99) {
        return Err(format!(
            "{} open-loop samples in a window: fewer than 10 beyond p99",
            latencies.len()
        ));
    }
    for (windows, q) in [
        (&mut run.window_p50_us, 0.50),
        (&mut run.window_p90_us, 0.90),
        (&mut run.window_p99_us, 0.99),
    ] {
        windows.extend(percentile(&latencies, q).map(|value| Window { value, steal }));
    }
    run.open_samples += latencies.len();
    let beyond = stats::beyond(&latencies, 0.99);
    run.fewest_beyond_p99 = Some(
        run.fewest_beyond_p99
            .map_or(beyond, |fewest| fewest.min(beyond)),
    );
    Ok(())
}

/// How long one open-loop window of the workload lasts.
fn open_window_s(workload: &Workload) -> f64 {
    f64::from(OPEN_REQUESTS) / workload.offered_rps
}

/// `windows` untraced NVX launches, each an open-loop window.
fn open_phase(workload: &Workload, seed: u64, windows: usize, run: &mut Run) -> bool {
    (0..windows).all(|_| {
        run.launch(workload, seed, Arm::Nvx, None, |run, server, generator| {
            open_loop(run, server, generator, OPEN_REQUESTS, workload.offered_rps)
        })
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(workload: &Workload, seed: u64, seconds: f64, run: &mut Run) -> Vec<Metric> {
    let pairs = ((seconds * CLOSED_SHARE) / (2.0 * CLOSED_WINDOW.as_secs_f64()))
        .round()
        .max(2.0) as usize;
    let opens = ((seconds * (1.0 - CLOSED_SHARE)) / open_window_s(workload))
        .round()
        .max(2.0) as usize;
    for pair in 0..pairs {
        let order = if pair % 2 == 0 {
            [Arm::Native, Arm::Nvx]
        } else {
            [Arm::Nvx, Arm::Native]
        };
        for arm in order {
            let ok = run.launch(workload, seed, arm, None, |run, server, generator| {
                let window = closed_loop(run, server, generator, CLOSED_WINDOW, None)?;
                match arm {
                    Arm::Native => run.native_rps.push(window),
                    Arm::Nvx => run.nvx_rps.push(window),
                }
                Ok(())
            });
            if !ok {
                return Vec::new();
            }
        }
    }
    if !open_phase(workload, seed, opens, run) {
        return Vec::new();
    }
    vec![
        (
            "overhead_x",
            undisturbed(&run.native_rps, run.closed_limit())
                / undisturbed(&run.nvx_rps, run.closed_limit()),
            "ratio",
        ),
        ("setup_s", undisturbed_alone(&run.setup_s), "s"),
        ("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB"),
    ]
}

fn traced(workload: &Workload, seed: u64, seconds: f64, run: &mut Run) -> Vec<Metric> {
    let rounds = ((seconds * 0.6) / (3.0 * CLOSED_WINDOW.as_secs_f64()))
        .round()
        .max(2.0) as usize;
    let opens = ((seconds * 0.4) / open_window_s(workload)).round().max(1.0) as usize;
    let epoch = Instant::now();
    for round in 0..rounds {
        // Native traced, NVX traced and NVX untraced; the untraced window
        // is the base of the trace overhead.
        let order: [(Arm, bool); 3] = if round % 2 == 0 {
            [(Arm::Native, true), (Arm::Nvx, true), (Arm::Nvx, false)]
        } else {
            [(Arm::Nvx, false), (Arm::Nvx, true), (Arm::Native, true)]
        };
        for (arm, with_trace) in order {
            let trace = with_trace.then(|| Trace::new(epoch));
            let mut requests = Vec::new();
            let ok = run.launch(
                workload,
                seed,
                arm,
                trace.as_ref(),
                |run, server, generator| {
                    let spans = trace.as_ref().map(|trace| (trace, &mut requests));
                    let window = closed_loop(run, server, generator, CLOSED_WINDOW, spans)?;
                    match (arm, with_trace) {
                        (Arm::Nvx, true) => run.traced_nvx_rps.push(window),
                        (Arm::Nvx, false) => run.nvx_rps.push(window),
                        (Arm::Native, _) => run.native_rps.push(window),
                    }
                    Ok(())
                },
            );
            if !ok {
                return Vec::new();
            }
            if let Some(trace) = trace {
                let first = match arm {
                    Arm::Native => run.native_splits.is_empty(),
                    Arm::Nvx => run.leader_splits.is_empty(),
                };
                let roles: &[Role] = match arm {
                    Arm::Native => &[Role::Native],
                    Arm::Nvx => &[Role::Leader, Role::Follower],
                };
                let spans: Vec<Vec<SyscallSpan>> =
                    roles.iter().map(|&role| trace.take(role)).collect();
                if first {
                    dump_spans(&mut run.span_dump, &requests, &spans);
                }
                match arm {
                    Arm::Native => run.native_splits.extend(split(&requests, &spans[0], None)),
                    Arm::Nvx => {
                        run.leader_splits.extend(split(&requests, &spans[0], None));
                        run.follower_splits
                            .extend(split(&requests, &spans[1], Some(&spans[0])));
                    }
                }
            }
        }
    }
    if !open_phase(workload, seed, opens, run) {
        return Vec::new();
    }
    layer_metrics(run)
}

/// Appends CSV rows (`kind,role,sysno,calls,bytes,start_ns,end_ns`) for
/// one launch's request and syscall spans.
fn dump_spans(out: &mut String, requests: &[Span], spans: &[Vec<SyscallSpan>]) {
    if out.is_empty() {
        out.push_str("kind,role,sysno,calls,bytes,start_ns,end_ns\n");
    }
    for request in requests {
        let _ = writeln!(out, "request,client,,1,,{},{}", request.start, request.end);
    }
    for span in spans.iter().flatten() {
        let _ = writeln!(
            out,
            "syscall,{:?},{:?},{},{},{},{}",
            span.role, span.sysno, span.calls, span.bytes, span.start, span.end
        );
    }
}

fn split_median(splits: &[RequestSplit], pick: impl Fn(&RequestSplit) -> u64) -> f64 {
    median(
        &splits
            .iter()
            .map(|split| pick(split) as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0)
}

fn per(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn layer_metrics(run: &Run) -> Vec<Metric> {
    let native = &run.native_splits;
    let leader = &run.leader_splits;
    let follower = &run.follower_splits;
    let class = |splits: &[RequestSplit], class: Class| {
        split_median(splits, |split| split.class_ns[class as usize])
    };
    let c = &run.counters;
    let requests = run.nvx_requests;
    let kernel_syscall = split_median(native, RequestSplit::syscall_ns);
    let leader_syscall = split_median(leader, RequestSplit::syscall_ns);
    let traced_limit = steal_limit(&[&run.traced_nvx_rps, &run.nvx_rps]);
    let traced_rps = undisturbed(&run.traced_nvx_rps, traced_limit);
    let untraced_rps = undisturbed(&run.nvx_rps, traced_limit);
    let leftover: u64 = leader.iter().map(|split| split.self_ns).sum();
    let spanned: u64 = leader.iter().map(|split| split.duration_ns).sum();
    let lateness = sorted(run.lateness_us.clone());
    vec![
        ("kernel.syscall_ns", kernel_syscall, "ns"),
        ("kernel.read_ns", class(native, Class::Read), "ns"),
        ("kernel.write_ns", class(native, Class::Write), "ns"),
        ("kernel.other_ns", class(native, Class::Other), "ns"),
        (
            "kernel.syscalls_per_req",
            per(
                native.iter().map(|split| split.calls).sum(),
                native.len() as u64,
            ),
            "count",
        ),
        ("core.leader_syscall_ns", leader_syscall, "ns"),
        ("core.leader_read_ns", class(leader, Class::Read), "ns"),
        ("core.leader_write_ns", class(leader, Class::Write), "ns"),
        ("core.leader_other_ns", class(leader, Class::Other), "ns"),
        (
            "core.capture_overhead_ns",
            leader_syscall - kernel_syscall,
            "ns",
        ),
        (
            "core.capture_ns",
            per(c.capture_ns_sum, c.capture_samples),
            "ns",
        ),
        (
            "core.events_per_req",
            per(c.events_published, requests),
            "count",
        ),
        (
            "core.follower_syscall_ns",
            split_median(follower, RequestSplit::syscall_ns),
            "ns",
        ),
        (
            "core.events_per_cert",
            per(c.events_replayed, c.fast_path_hits),
            "count",
        ),
        ("core.copy_bytes_per_req", per(c.copy_bytes, requests), "B"),
        (
            "core.copy_saved_bytes_per_req",
            per(c.copy_saved_bytes, requests),
            "B",
        ),
        ("core.launch_ns", undisturbed_alone(&run.launch_ns), "ns"),
        (
            "apps.first_reply_ns",
            undisturbed_alone(&run.first_reply_ns),
            "ns",
        ),
        (
            "journal.bytes_per_req",
            per(run.journal_bytes, run.journal_requests),
            "B",
        ),
        (
            "ring.events_per_publish",
            per(c.events_published, c.ring_publishes),
            "count",
        ),
        (
            "ring.gate_wait_ns_per_req",
            per(c.gate_wait_ns, requests),
            "ns",
        ),
        ("gen.late_frac", per(run.backlogged, run.sends), "ratio"),
        (
            "gen.lateness_us",
            percentile(&lateness, 0.99).unwrap_or(0.0),
            "us",
        ),
        (
            "gen.sleep_jitter_us",
            median(&run.sleep_jitter_us).unwrap_or(0.0),
            "us",
        ),
        (
            "obs.trace_overhead",
            1e6 / traced_rps - 1e6 / untraced_rps,
            "us/req",
        ),
        (
            "trace.leftover_ns",
            split_median(leader, |split| split.self_ns),
            "ns",
        ),
        ("trace.leftover_frac", per(leftover, spanned), "ratio"),
    ]
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ch if (ch as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", ch as u32);
            }
            ch => out.push(ch),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// Median of the windows that saw at most `limit` steal (0 with none).
fn undisturbed(windows: &[Window], limit: u64) -> f64 {
    median(&within(windows, limit)).unwrap_or(0.0)
}

/// [`undisturbed`] at the steal limit of `windows` compared with nothing.
fn undisturbed_alone(windows: &[Window]) -> f64 {
    undisturbed(windows, steal_limit(&[windows]))
}

fn join_numbers(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(json_number)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every window's figure and steal, the steal limit and how many windows
/// the median kept.
fn windows_json(windows: &[Window], limit: u64) -> String {
    format!(
        "{{\"steal_limit\": {limit}, \"kept\": {}, \"values\": [{}], \"steal_ticks\": [{}]}}",
        within(windows, limit).len(),
        join_numbers(windows.iter().map(|window| window.value)),
        join_numbers(windows.iter().map(|window| window.steal as f64)),
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    let work_dir = root
        .join(".perfbench_work")
        .join(std::process::id().to_string());
    if let Err(err) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {err}", work_dir.display());
        std::process::exit(1);
    }
    let workload = args.workload;
    let mut run = Run {
        work_dir: work_dir.clone(),
        ..Run::default()
    };
    let started = Instant::now();
    let steal_before = host::steal_ticks();
    let metrics = if args.trace {
        traced(workload, args.seed, args.seconds, &mut run)
    } else {
        end_to_end(workload, args.seed, args.seconds, &mut run)
    };
    let elapsed = started.elapsed().as_secs_f64();
    let steal = host::steal_ticks().saturating_sub(steal_before);
    let mut span_file = String::new();
    if !run.span_dump.is_empty() {
        let dir = root.join(".perfbench_out");
        let path = dir.join(format!("trace-{}-seed{}.csv", workload.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &run.span_dump)) {
            Ok(()) => span_file = path.display().to_string(),
            Err(err) => run
                .problems
                .push(format!("writing {}: {err}", path.display())),
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(root.join(".perfbench_work"));

    let all_finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    if !all_finite {
        run.problems.push("a metric is not a finite number".into());
    }
    let correct = run.problems.is_empty() && run.failed == 0 && !metrics.is_empty();
    for problem in &run.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }

    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"report\": {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"run_seconds\": {}, \"elapsed_s\": {}, \"steal_ticks\": {}, \
         \"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \"available_parallelism\": {}, \
         \"offered_rps\": {}, \"launches\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \
         \"samples\": {{\"native_windows\": {}, \"nvx_windows\": {}, \"traced_nvx_windows\": {}, \
         \"open_loop_latencies\": {}, \"open_loop_windows\": {}, \"fewest_beyond_p99_in_a_window\": {}, \"setup_launches\": {}, \"traced_requests\": {}}}, \
         \"counters\": {{\"events_published\": {}, \"events_replayed\": {}, \"ring_publishes\": {}, \
         \"ring_consumes\": {}, \"certified_batches\": {}}}, \"windows\": {{\"native_rps\": {}, \"nvx_rps\": {}, \"cpu_ms_per_kreq\": {}, \"p50_us\": {}}}, \"span_file\": {}, \"problems\": [{}], \"metrics\": {}, \"unsteady\": {}}}}}",
        json_string(workload.name),
        args.trace,
        args.seed,
        args.seconds,
        elapsed,
        steal,
        json_string(&host::commit()),
        json_string(&host::source_digest(&root)),
        json_string(&host::rustc_version()),
        host::available_parallelism(),
        workload.offered_rps,
        run.launches,
        run.attempted,
        run.failed,
        json_number(per(run.failed, run.attempted)),
        run.native_rps.len(),
        run.nvx_rps.len(),
        run.traced_nvx_rps.len(),
        run.open_samples,
        run.window_p99_us.len(),
        run.fewest_beyond_p99.unwrap_or(0),
        run.setup_s.len(),
        run.leader_splits.len(),
        run.counters.events_published,
        run.counters.events_replayed,
        run.counters.ring_publishes,
        run.counters.ring_consumes,
        run.counters.fast_path_hits,
        windows_json(&run.native_rps, run.closed_limit()),
        windows_json(&run.nvx_rps, run.closed_limit()),
        windows_json(&run.cpu_ms_per_kreq, run.closed_limit()),
        windows_json(&run.window_p50_us, steal_limit(&[&run.window_p50_us])),
        json_string(&span_file),
        run.problems.iter().map(|p| json_string(p)).collect::<Vec<_>>().join(", "),
        metrics_json(&metrics),
        metrics_json(&[
            (
                "throughput_rps",
                undisturbed(&run.nvx_rps, run.closed_limit()),
                "req/s",
            ),
            (
                "native_rps",
                undisturbed(&run.native_rps, run.closed_limit()),
                "req/s",
            ),
            ("p50_us", undisturbed_alone(&run.window_p50_us), "us"),
            ("p90_us", undisturbed_alone(&run.window_p90_us), "us"),
            ("p99_us", undisturbed_alone(&run.window_p99_us), "us"),
            (
                "cpu_ms_per_kreq",
                undisturbed(&run.cpu_ms_per_kreq, run.closed_limit()),
                "ms",
            ),
        ]),
    );
    println!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        metrics_json(&metrics)
    );
}
