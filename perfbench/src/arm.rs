//! One launch of the kvstore, natively or under 1-follower NVX, and the
//! client that drives it over its single connection.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use varan_apps::clients::connect_retry;
use varan_apps::servers::kvstore::KvServer;
use varan_apps::servers::ServerConfig;
use varan_core::program::run_native;
use varan_core::{
    FleetConfig, FleetController, NvxConfig, NvxReport, NvxSystem, ProgramExit, RunningNvx,
    VersionProgram,
};
use varan_kernel::net::Endpoint;
use varan_kernel::Kernel;
use varan_obs::MetricsSnapshot;

use crate::trace::{Role, Trace};

const PORT: u16 = 6380;
/// A request that gets no reply within this long counts as failed and ends
/// the launch: the server is stuck or dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the client polls for a reply before it blocks.  A client that
/// blocks at once lets its virtual CPU halt, and each reply then waits for
/// the hypervisor to wake it, a cost set by the load of the whole host.
/// 40 µs covers a kv-small reply but keeps the client off the CPUs during
/// the slow 4 KiB NVX requests, when the two versions need them.
const CLIENT_SPIN: Duration = Duration::from_micros(40);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Native,
    Nvx,
}

/// Differences of the global registry's counters across one NVX launch.
///
/// Ring counters always land in the global registry, whatever
/// `NvxConfig::obs` says, so the benchmark reads before/after diffs of the
/// global registry and runs one launch at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub events_published: u64,
    pub events_replayed: u64,
    pub ring_publishes: u64,
    pub ring_consumes: u64,
    pub fast_path_hits: u64,
    pub hash_mismatches: u64,
    pub divergences: u64,
    pub copy_bytes: u64,
    pub copy_saved_bytes: u64,
    pub gate_wait_ns: u64,
    pub capture_ns_sum: u64,
    pub capture_samples: u64,
}

impl Counters {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            events_published: d(
                after.events_published_total(),
                before.events_published_total(),
            ),
            events_replayed: d(
                after.events_replayed_total(),
                before.events_replayed_total(),
            ),
            ring_publishes: d(after.ring_publishes, before.ring_publishes),
            ring_consumes: d(after.ring_consumes, before.ring_consumes),
            fast_path_hits: d(
                after.divergence_fast_path_hits,
                before.divergence_fast_path_hits,
            ),
            hash_mismatches: d(
                after.divergence_hash_mismatches,
                before.divergence_hash_mismatches,
            ),
            divergences: d(after.divergences_allowed, before.divergences_allowed)
                + d(after.divergences_killed, before.divergences_killed),
            copy_bytes: d(after.follower_copy_bytes, before.follower_copy_bytes),
            copy_saved_bytes: d(
                after.follower_copy_bytes_saved,
                before.follower_copy_bytes_saved,
            ),
            gate_wait_ns: d(
                after.publish_gate_wait_nanos.sum,
                before.publish_gate_wait_nanos.sum,
            ),
            capture_ns_sum: d(
                after.syscall_capture_nanos.sum,
                before.syscall_capture_nanos.sum,
            ),
            capture_samples: d(
                after.syscall_capture_nanos.count,
                before.syscall_capture_nanos.count,
            ),
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.events_published += other.events_published;
        self.events_replayed += other.events_replayed;
        self.ring_publishes += other.ring_publishes;
        self.ring_consumes += other.ring_consumes;
        self.fast_path_hits += other.fast_path_hits;
        self.hash_mismatches += other.hash_mismatches;
        self.divergences += other.divergences;
        self.copy_bytes += other.copy_bytes;
        self.copy_saved_bytes += other.copy_saved_bytes;
        self.gate_wait_ns += other.gate_wait_ns;
        self.capture_ns_sum += other.capture_ns_sum;
        self.capture_samples += other.capture_samples;
    }
}

enum Running {
    Native(JoinHandle<ProgramExit>),
    Nvx {
        running: RunningNvx,
        before: Box<MetricsSnapshot>,
        fleet: Option<FleetController>,
    },
}

/// What one launch left behind once its connection closed.
#[derive(Debug, Default)]
pub struct Finished {
    /// Requests sent over the launch's connection, PING included.
    pub requests: u64,
    /// Of those, the ones that got a wrong reply or none.
    pub failed: u64,
    pub counters: Counters,
    pub journal_bytes: u64,
    /// Every check that failed, in words; empty when the launch was clean.
    pub problems: Vec<String>,
}

/// A launched server with the benchmark's one client connection.
pub struct Server {
    arm: Arm,
    endpoint: Endpoint,
    running: Running,
    journal_dir: Option<PathBuf>,
    /// `NvxSystem::launch` itself (0 for the native arm).
    pub launch_ns: u64,
    /// Launch return to the first correct reply.
    pub first_reply_ns: u64,
    pub requests: u64,
    pub failed: u64,
    buffer: Vec<u8>,
}

fn kvstore() -> Box<dyn VersionProgram> {
    Box::new(KvServer::new(
        ServerConfig::on_port(PORT).with_connections(1),
    ))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|err| format!("clearing {}: {err}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|err| format!("creating {}: {err}", dir.display()))
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |meta| meta.len()),
            Err(_) => 0,
        })
        .sum()
}

impl Server {
    /// Launches the kvstore on `arm`; `journal_dir` turns on the fleet
    /// journal in that (fresh) directory.  With `trace`, every version's
    /// calls are recorded.
    pub fn start(
        arm: Arm,
        journal_dir: Option<PathBuf>,
        trace: Option<&Trace>,
    ) -> Result<Server, String> {
        let kernel = Kernel::new();
        let wrap = |role| match trace {
            Some(trace) => trace.wrap(kvstore(), role),
            None => kvstore(),
        };
        let (running, launch_ns, launched) = match arm {
            Arm::Native => {
                let mut program = wrap(Role::Native);
                let native_kernel = kernel.clone();
                let handle = std::thread::Builder::new()
                    .name("perfbench-native".into())
                    .spawn(move || run_native(&native_kernel, program.as_mut()).0)
                    .map_err(|err| format!("spawning the native server: {err}"))?;
                (Running::Native(handle), 0, Instant::now())
            }
            Arm::Nvx => {
                let mut config = NvxConfig::default();
                if let Some(dir) = &journal_dir {
                    fresh_dir(dir)?;
                    config = config.with_fleet(FleetConfig::new(dir.clone()));
                }
                let before = Box::new(varan_obs::global().snapshot());
                let started = Instant::now();
                let running = NvxSystem::launch(
                    &kernel,
                    vec![wrap(Role::Leader), wrap(Role::Follower)],
                    config,
                )
                .map_err(|err| format!("NvxSystem::launch: {err}"))?;
                let launched = Instant::now();
                let fleet = running.fleet();
                (
                    Running::Nvx {
                        running,
                        before,
                        fleet,
                    },
                    (launched - started).as_nanos() as u64,
                    launched,
                )
            }
        };
        let endpoint =
            connect_retry(&kernel, PORT, REPLY_TIMEOUT).ok_or("the kvstore never listened")?;
        let mut server = Server {
            arm,
            endpoint,
            running,
            journal_dir,
            launch_ns,
            first_reply_ns: 0,
            requests: 0,
            failed: 0,
            buffer: Vec::with_capacity(8192),
        };
        if !server.exchange(b"PING\n", b"+PONG\n")? {
            return Err("wrong reply to the first PING".into());
        }
        server.first_reply_ns = launched.elapsed().as_nanos() as u64;
        Ok(server)
    }

    pub fn arm(&self) -> Arm {
        self.arm
    }

    /// Sends `request` and checks the reply against `expected` byte for
    /// byte.  `Ok(false)` is a wrong reply; `Err` means the connection is
    /// gone or timed out.
    pub fn exchange(&mut self, request: &[u8], expected: &[u8]) -> Result<bool, String> {
        self.requests += 1;
        let result = self.round_trip(request);
        let ok = match result {
            Ok(()) => self.buffer == expected,
            Err(err) => {
                self.failed += 1;
                return Err(err);
            }
        };
        if !ok {
            self.failed += 1;
        }
        Ok(ok)
    }

    fn round_trip(&mut self, request: &[u8]) -> Result<(), String> {
        self.endpoint
            .write(request)
            .map_err(|err| format!("send: {err:?}"))?;
        self.buffer.clear();
        let sent = Instant::now();
        while self.endpoint.readable_bytes() == 0 && sent.elapsed() < CLIENT_SPIN {
            std::thread::yield_now();
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !self.buffer.contains(&b'\n') {
            let left = deadline.saturating_duration_since(Instant::now());
            let chunk = self
                .endpoint
                .read_timeout(1 << 16, left)
                .map_err(|err| format!("reply: {err:?}"))?;
            if chunk.is_empty() {
                return Err("the server closed the connection".into());
            }
            self.buffer.extend_from_slice(&chunk);
        }
        Ok(())
    }

    /// Closes the connection, waits for every version to exit and runs the
    /// launch's checks.
    pub fn finish(self) -> Finished {
        self.endpoint.close();
        let mut finished = Finished {
            requests: self.requests,
            failed: self.failed,
            ..Finished::default()
        };
        if self.failed > 0 {
            finished.problems.push(format!(
                "{} of {} replies failed",
                self.failed, self.requests
            ));
        }
        match self.running {
            Running::Native(handle) => match handle.join() {
                Ok(ProgramExit::Exited(0)) => {}
                Ok(exit) => finished
                    .problems
                    .push(format!("native kvstore ended {exit:?}")),
                Err(_) => finished.problems.push("native kvstore panicked".into()),
            },
            Running::Nvx {
                running,
                before,
                fleet,
            } => {
                let report = running.wait();
                let counters = Counters::between(&before, &varan_obs::global().snapshot());
                let journal_tail = fleet.map(|fleet| fleet.journal().tail_sequence());
                finished
                    .problems
                    .extend(check_nvx(&report, &counters, journal_tail));
                finished.counters = counters;
            }
        }
        if let Some(dir) = &self.journal_dir {
            finished.journal_bytes = dir_bytes(dir);
            if let Err(err) = std::fs::remove_dir_all(dir) {
                finished
                    .problems
                    .push(format!("removing {}: {err}", dir.display()));
            }
        }
        finished
    }
}

/// The relations a clean 1-follower launch must satisfy.
fn check_nvx(report: &NvxReport, counters: &Counters, journal_tail: Option<u64>) -> Vec<String> {
    let mut problems = Vec::new();
    if !report.all_clean() {
        problems.push(format!(
            "not every version exited cleanly: {:?}",
            report.exits
        ));
    }
    let divergences: u64 = report
        .versions
        .iter()
        .map(|version| version.divergences_allowed + version.divergences_killed)
        .sum();
    if divergences + counters.divergences > 0 || counters.hash_mismatches > 0 {
        problems.push(format!(
            "divergence counted: {divergences} in the report, {} in the registry, {} hash mismatches",
            counters.divergences, counters.hash_mismatches
        ));
    }
    if counters.events_replayed != counters.events_published {
        problems.push(format!(
            "events replayed {} != events published {} at a clean 1-follower exit",
            counters.events_replayed, counters.events_published
        ));
    }
    if counters.fast_path_hits == 0 {
        problems.push("no replay batch was certified".into());
    }
    if let Some(tail) = journal_tail {
        let main_tuple = report.versions.first().map_or(0, |leader| leader.events);
        if tail < main_tuple {
            problems.push(format!(
                "journal tail {tail} < main-tuple events {main_tuple}"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Mix, Op};

    fn send(server: &mut Server, (request, expected): (Vec<u8>, Vec<u8>)) -> bool {
        server.exchange(&request, &expected).expect("reply")
    }

    const MIX: Mix = Mix {
        get_percent: 50,
        value_len: 100,
        keys: 8,
    };

    #[test]
    fn a_flipped_byte_in_a_real_reply_fails_the_exchange() {
        let mut server = Server::start(Arm::Native, None, None).expect("native launch");
        let mut generator = Generator::new(MIX, 3);
        for op in generator.preload() {
            assert!(send(&mut server, generator.wire(&op)));
        }
        let (request, expected) = generator.wire(&Op::Get(2));
        assert!(server.exchange(&request, &expected).expect("reply"));
        let mut flipped = expected.clone();
        flipped[40] ^= 0x20;
        assert!(!server.exchange(&request, &flipped).expect("reply"));
        let finished = server.finish();
        assert_eq!(finished.requests, 1 + 8 + 2);
        assert_eq!(finished.problems, vec!["1 of 11 replies failed".to_owned()]);
    }

    #[test]
    fn a_journaled_nvx_launch_passes_its_checks_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let mut server = Server::start(Arm::Nvx, Some(dir.clone()), None).expect("nvx launch");
        let mut generator = Generator::new(MIX, 4);
        for op in generator.preload() {
            assert!(send(&mut server, generator.wire(&op)));
        }
        for _ in 0..50 {
            assert!(send(&mut server, generator.next_exchange()));
        }
        assert!(server.launch_ns > 0 && server.first_reply_ns > 0);
        let finished = server.finish();
        assert!(finished.problems.is_empty(), "{:?}", finished.problems);
        assert!(finished.counters.events_published > 0);
        assert!(
            finished.journal_bytes > 8 * 100,
            "{}",
            finished.journal_bytes
        );
        assert!(!dir.exists());
    }
}
