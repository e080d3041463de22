//! Spans recorded from outside the program.
//!
//! [`Traced`] wraps a version (the kvstore) and hands it a
//! [`SyscallInterface`] that timestamps every call the version makes into
//! the interface it was given: the `DirectExecutor` in the native arm, the
//! leader or follower monitor under NVX.  Nothing inside the program is
//! instrumented.  Spans are kept in memory and folded into per-request
//! splits when the run ends.
//!
//! A syscall span belongs to the client request whose span contains its
//! end.  That is valid because the one connection holds one request in
//! flight: the server's blocking `read` for request *i* starts before the
//! client sends it, so only the part inside the request span is counted.
//! A follower's calls are matched one-to-one, in order, with the leader's
//! (same program, same stream), and inherit the leader call's request.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use varan_core::{ProgramExit, SyscallInterface, VersionProgram};
use varan_kernel::syscall::{SyscallOutcome, SyscallRequest};
use varan_kernel::Sysno;

/// Which interface the traced version was running against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Native,
    Leader,
    Follower,
}

/// Syscall classes the per-layer metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    Other = 2,
}

impl Class {
    pub fn of(sysno: Sysno) -> Class {
        match sysno {
            Sysno::Read => Class::Read,
            Sysno::Write => Class::Write,
            _ => Class::Other,
        }
    }
}

/// One call into the version's `SyscallInterface`; a batch is one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallSpan {
    pub role: Role,
    pub sysno: Sysno,
    pub calls: u32,
    pub bytes: u64,
    pub start: u64,
    pub end: u64,
}

/// A client request, send to verified reply, in nanoseconds since the
/// trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: u64,
    pub end: u64,
}

/// Where the spans of one run collect.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Arc<Mutex<Vec<SyscallSpan>>>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wraps `program` so every call it makes is recorded under `role`.
    pub fn wrap(&self, program: Box<dyn VersionProgram>, role: Role) -> Box<dyn VersionProgram> {
        Box::new(Traced {
            inner: program,
            role,
            trace: self.clone(),
        })
    }

    /// Takes every span recorded so far, in per-role call order.
    pub fn take(&self, role: Role) -> Vec<SyscallSpan> {
        let mut spans = self
            .spans
            .lock()
            .expect("no version panics while holding the span sink");
        let (taken, kept) = spans.drain(..).partition(|span| span.role == role);
        *spans = kept;
        taken
    }
}

struct Traced {
    inner: Box<dyn VersionProgram>,
    role: Role,
    trace: Trace,
}

impl VersionProgram for Traced {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        let mut traced = TracedSys {
            inner: sys,
            role: self.role,
            trace: self.trace.clone(),
            spans: Vec::with_capacity(1 << 16),
        };
        self.inner.run(&mut traced)
    }
}

struct TracedSys<'a> {
    inner: &'a mut dyn SyscallInterface,
    role: Role,
    trace: Trace,
    spans: Vec<SyscallSpan>,
}

fn payload_bytes(request: &SyscallRequest, outcome: &SyscallOutcome) -> u64 {
    let sent = request.data.as_ref().map_or(0, Vec::len);
    let received = outcome.data.as_ref().map_or(0, Vec::len);
    (sent + received) as u64
}

impl SyscallInterface for TracedSys<'_> {
    fn syscall(&mut self, request: &SyscallRequest) -> SyscallOutcome {
        let start = self.trace.now();
        let outcome = self.inner.syscall(request);
        let end = self.trace.now();
        self.spans.push(SyscallSpan {
            role: self.role,
            sysno: request.sysno,
            calls: 1,
            bytes: payload_bytes(request, &outcome),
            start,
            end,
        });
        outcome
    }

    fn syscall_batch(&mut self, requests: &[SyscallRequest]) -> Vec<SyscallOutcome> {
        let start = self.trace.now();
        let outcomes = self.inner.syscall_batch(requests);
        let end = self.trace.now();
        if let Some(first) = requests.first() {
            self.spans.push(SyscallSpan {
                role: self.role,
                sysno: first.sysno,
                calls: requests.len() as u32,
                bytes: requests
                    .iter()
                    .zip(&outcomes)
                    .map(|(request, outcome)| payload_bytes(request, outcome))
                    .sum(),
                start,
                end,
            });
        }
        outcomes
    }

    /// The kvstore runs one thread; threads it spawned would go untraced.
    fn spawn_thread(&mut self) -> Box<dyn SyscallInterface> {
        self.inner.spawn_thread()
    }

    fn cpu_work(&mut self, cycles: u64) {
        self.inner.cpu_work(cycles);
    }
}

impl Drop for TracedSys<'_> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.trace.spans.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// How one request's time splits over the syscalls attributed to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestSplit {
    /// Nanoseconds inside the request spent in each [`Class`].
    pub class_ns: [u64; 3],
    /// Calls attributed (a batch counts each call).
    pub calls: u64,
    /// The request span's duration.
    pub duration_ns: u64,
    /// The part of the request span no syscall span covers.
    pub self_ns: u64,
}

impl RequestSplit {
    pub fn syscall_ns(&self) -> u64 {
        self.class_ns.iter().sum()
    }
}

/// Index of the request whose span contains `at`, if any.  `requests` is
/// sorted and non-overlapping.
fn containing(requests: &[Span], at: u64) -> Option<usize> {
    let index = requests
        .partition_point(|request| request.start <= at)
        .checked_sub(1)?;
    (at <= requests[index].end).then_some(index)
}

/// Length of `parent` covered by the union of `children`.
pub fn covered(parent: Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|child| (child.start.max(parent.start), child.end.min(parent.end)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = parent.start;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time: the span minus the part its children cover.
pub fn self_time(parent: Span, children: &[Span]) -> u64 {
    (parent.end - parent.start) - covered(parent, children)
}

/// Splits each request over the syscall spans whose end it contains.
/// With `owner` given (a follower), span *k* is attributed to the request
/// of `owner[k]` instead, and measured from that request's start.
pub fn split(
    requests: &[Span],
    spans: &[SyscallSpan],
    owner: Option<&[SyscallSpan]>,
) -> Vec<RequestSplit> {
    let mut splits: Vec<RequestSplit> = requests
        .iter()
        .map(|request| RequestSplit {
            duration_ns: request.end - request.start,
            ..RequestSplit::default()
        })
        .collect();
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); requests.len()];
    for (k, span) in spans.iter().enumerate() {
        let anchor = match owner {
            Some(leader) => match leader.get(k) {
                Some(matched) if matched.sysno == span.sysno => matched.end,
                _ => break,
            },
            None => span.end,
        };
        let Some(index) = containing(requests, anchor) else {
            continue;
        };
        let request = requests[index];
        let start = span.start.max(request.start);
        let end = if owner.is_some() {
            span.end
        } else {
            span.end.min(request.end)
        };
        let split = &mut splits[index];
        split.class_ns[Class::of(span.sysno) as usize] += end.saturating_sub(start);
        split.calls += u64::from(span.calls);
        children[index].push(Span { start, end });
    }
    for ((split, request), children) in splits.iter_mut().zip(requests).zip(&children) {
        split.self_ns = self_time(*request, children);
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span { start, end }
    }

    fn call(sysno: Sysno, start: u64, end: u64) -> SyscallSpan {
        SyscallSpan {
            role: Role::Leader,
            sysno,
            calls: 1,
            bytes: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_covered_children() {
        let parent = span(100, 200);
        assert_eq!(self_time(parent, &[]), 100);
        assert_eq!(self_time(parent, &[span(110, 120), span(150, 170)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(parent, &[span(110, 140), span(120, 150)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(parent, &[span(50, 120), span(190, 300)]), 70);
        assert_eq!(self_time(parent, &[span(0, 1000)]), 0);
        // Disjoint from the parent entirely.
        assert_eq!(self_time(parent, &[span(10, 90)]), 100);
    }

    #[test]
    fn a_blocking_read_counts_only_inside_its_request() {
        let requests = [span(100, 200), span(300, 400)];
        let spans = [
            call(Sysno::Read, 50, 130), // blocked before request 0 was sent
            call(Sysno::Time, 130, 140),
            call(Sysno::Write, 140, 160),
            call(Sysno::Read, 160, 320), // blocks into request 1
            call(Sysno::Write, 330, 350),
            call(Sysno::Read, 410, 420), // after every request: unattributed
        ];
        let splits = split(&requests, &spans, None);
        assert_eq!(splits[0].class_ns, [30, 20, 10]);
        assert_eq!(splits[0].calls, 3);
        assert_eq!(splits[0].self_ns, 40);
        assert_eq!(splits[1].class_ns, [20, 20, 0]);
        assert_eq!(splits[1].self_ns, 60);
        assert_eq!(splits[1].syscall_ns(), 40);
    }

    #[test]
    fn follower_calls_follow_their_leader_match() {
        let requests = [span(100, 200)];
        let leader = [call(Sysno::Read, 90, 120), call(Sysno::Write, 140, 160)];
        let follower = [call(Sysno::Read, 95, 150), call(Sysno::Write, 190, 260)];
        let splits = split(&requests, &follower, Some(&leader));
        // Measured from the request's start, not cut at its end: the
        // follower may finish a request after the client has its reply.
        assert_eq!(splits[0].class_ns, [50, 70, 0]);
        // A mismatched call stops the matching.
        let diverged = [call(Sysno::Time, 95, 150)];
        assert_eq!(split(&requests, &diverged, Some(&leader))[0].calls, 0);
    }
}
