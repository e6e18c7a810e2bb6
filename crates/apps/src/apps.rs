//! Deterministic server applications for the ST-TCP workloads.
//!
//! All applications satisfy the [`sttcp::app::Application`] contract:
//! their output byte stream is a pure function of their input byte
//! stream. Ticks only pace output, never change it.

use bytes::Bytes;
use simnet::time::SimTime;
use sttcp::app::{AppAction, Application};

use crate::pattern::pattern_chunk;

/// Feeds request bytes to a `GET <n>\n` parser: bytes are accumulated in
/// `line` until the newline arrives, then the line is consumed and the
/// requested byte count returned (0 for a malformed request). Bytes past
/// the newline are ignored.
fn take_get_request(line: &mut Vec<u8>, data: &[u8]) -> Option<u64> {
    let Some(newline) = data.iter().position(|&b| b == b'\n') else {
        line.extend_from_slice(data);
        return None;
    };
    line.extend_from_slice(&data[..newline]);
    let line = std::mem::take(line);
    let text = String::from_utf8_lossy(&line);
    let n = text
        .strip_prefix("GET ")
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    Some(n)
}

/// A server-push streamer — the paper's "pie chart" GUI feed (Demo 1) and
/// large-file server (Demo 3).
///
/// Protocol: the client sends a request line `GET <n>\n`; the server then
/// streams `n` pattern bytes, paced at `chunk_per_tick` bytes per
/// application tick (use a large chunk for an unpaced bulk transfer), and
/// optionally closes when done.
#[derive(Debug, Clone)]
pub struct StreamApp {
    /// Bytes written per application tick once a request is active.
    chunk_per_tick: usize,
    /// Close the connection after finishing the response.
    close_when_done: bool,
    /// Parsed request target (`None` until a full request line arrives).
    requested: Option<u64>,
    /// Bytes of the response emitted so far.
    sent: u64,
    /// Request-line accumulator.
    line: Vec<u8>,
    /// Total request bytes consumed (digest input).
    consumed: u64,
    finished: bool,
}

impl StreamApp {
    /// Creates a streamer pacing `chunk_per_tick` bytes per tick.
    pub fn new(chunk_per_tick: usize, close_when_done: bool) -> StreamApp {
        StreamApp {
            chunk_per_tick,
            close_when_done,
            requested: None,
            sent: 0,
            line: Vec::new(),
            consumed: 0,
            finished: false,
        }
    }

    /// Bytes of response streamed so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// [`Application::restore`], all or nothing: whether `state` was a
    /// well-formed snapshot (and was taken).
    fn load(&mut self, state: &[u8]) -> bool {
        if state.len() < 29 {
            return false;
        }
        let flags = state[0];
        let requested = u64::from_le_bytes(state[1..9].try_into().unwrap());
        let sent = u64::from_le_bytes(state[9..17].try_into().unwrap());
        let consumed = u64::from_le_bytes(state[17..25].try_into().unwrap());
        let line_len = u32::from_le_bytes(state[25..29].try_into().unwrap()) as usize;
        if state.len() != 29 + line_len || flags & !3 != 0 {
            return false;
        }
        self.requested = (flags & 1 != 0).then_some(requested);
        self.finished = flags & 2 != 0;
        self.sent = sent;
        self.consumed = consumed;
        self.line = state[29..].to_vec();
        true
    }

    fn emit(&mut self) -> Vec<AppAction> {
        let Some(total) = self.requested else {
            return Vec::new();
        };
        if self.sent >= total {
            if !self.finished {
                self.finished = true;
                if self.close_when_done {
                    return vec![AppAction::Close];
                }
            }
            return Vec::new();
        }
        let n = (total - self.sent).min(self.chunk_per_tick as u64) as usize;
        let chunk = pattern_chunk(self.sent, n);
        self.sent += n as u64;
        let mut actions = vec![AppAction::Write(chunk)];
        if self.sent >= total && self.close_when_done {
            self.finished = true;
            actions.push(AppAction::Close);
        }
        actions
    }
}

impl Application for StreamApp {
    fn on_data(&mut self, data: &Bytes) -> Vec<AppAction> {
        self.consumed += data.len() as u64;
        if self.requested.is_some() {
            return Vec::new(); // trailing client bytes are ignored
        }
        let Some(n) = take_get_request(&mut self.line, data) else {
            return Vec::new();
        };
        self.requested = Some(n);
        // First chunk goes out with the request, the rest on ticks.
        self.emit()
    }

    fn on_tick(&mut self, _now: SimTime) -> Vec<AppAction> {
        self.emit()
    }

    // Ticks matter only from the GET until the stream (and its closing
    // action) has drained; before the request and after completion the
    // app is purely reactive.
    fn wants_tick(&self) -> bool {
        self.requested
            .is_some_and(|total| self.sent < total || !self.finished)
    }

    fn on_peer_close(&mut self) -> Vec<AppAction> {
        vec![AppAction::Close]
    }

    fn state_digest(&self) -> u64 {
        self.consumed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.sent)
            .wrapping_add(self.requested.unwrap_or(u64::MAX))
    }

    // Layout: flags(1) ‖ requested(8) ‖ sent(8) ‖ consumed(8) ‖
    // line_len(4) ‖ line. Pacing config (`chunk_per_tick`,
    // `close_when_done`) is not state — the factory on the restoring
    // server supplies it identically.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(29 + self.line.len());
        let mut flags = 0u8;
        if self.requested.is_some() {
            flags |= 1;
        }
        if self.finished {
            flags |= 2;
        }
        out.push(flags);
        out.extend_from_slice(&self.requested.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&self.sent.to_le_bytes());
        out.extend_from_slice(&self.consumed.to_le_bytes());
        out.extend_from_slice(&(self.line.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.line);
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) {
        self.load(state);
    }
}

/// A request/response worker: consumes `\n`-terminated lines and answers
/// each with a deterministic transformation (`<reversed-line>:<checksum>\n`).
///
/// Exercises interactive workloads (the lag detectors need request
/// activity to observe).
#[derive(Debug, Clone, Default)]
pub struct ReqRespApp {
    line: Vec<u8>,
    requests: u64,
    consumed: u64,
}

impl ReqRespApp {
    /// Creates the worker.
    pub fn new() -> ReqRespApp {
        ReqRespApp::default()
    }

    /// Number of requests answered.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The deterministic response to one request line (no trailing
    /// newline in `line`).
    pub fn response_for(line: &[u8]) -> Bytes {
        let reversed: Vec<u8> = line.iter().rev().copied().collect();
        let sum: u32 = line.iter().map(|&b| b as u32).sum();
        let mut out = reversed;
        out.extend_from_slice(format!(":{sum:08x}\n").as_bytes());
        Bytes::from(out)
    }
}

impl Application for ReqRespApp {
    fn on_data(&mut self, data: &Bytes) -> Vec<AppAction> {
        self.consumed += data.len() as u64;
        let mut actions = Vec::new();
        let mut rest: &[u8] = data;
        while let Some(newline) = rest.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&rest[..newline]);
            let line = std::mem::take(&mut self.line);
            self.requests += 1;
            actions.push(AppAction::Write(Self::response_for(&line)));
            rest = &rest[newline + 1..];
        }
        self.line.extend_from_slice(rest);
        actions
    }

    // Request/response is purely reactive; ticks are never needed.
    fn wants_tick(&self) -> bool {
        false
    }

    fn on_peer_close(&mut self) -> Vec<AppAction> {
        vec![AppAction::Close]
    }

    fn state_digest(&self) -> u64 {
        self.consumed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(self.requests)
    }

    // Layout: requests(8) ‖ consumed(8) ‖ line_len(4) ‖ line.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(20 + self.line.len());
        out.extend_from_slice(&self.requests.to_le_bytes());
        out.extend_from_slice(&self.consumed.to_le_bytes());
        out.extend_from_slice(&(self.line.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.line);
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) {
        if state.len() < 20 {
            return;
        }
        let requests = u64::from_le_bytes(state[0..8].try_into().unwrap());
        let consumed = u64::from_le_bytes(state[8..16].try_into().unwrap());
        let line_len = u32::from_le_bytes(state[16..20].try_into().unwrap()) as usize;
        if state.len() != 20 + line_len {
            return;
        }
        self.requests = requests;
        self.consumed = consumed;
        self.line = state[20..].to_vec();
    }
}

/// A periodic-commit streamer: serves the same `GET <n>\n` protocol as
/// [`StreamApp`] but flushes its output in bursts, one commit every
/// `period_ticks` application ticks, instead of a smooth per-tick trickle.
///
/// The bursty shape matters to the failure detectors: between commits the
/// replicas' `LastAppByteWritten` positions sit still, then jump together —
/// a lag detector that confuses "quiet between commits" with "crashed"
/// would condemn a healthy peer. The response bytes are the same verified
/// pattern as [`StreamApp`], so the download client checks integrity
/// end-to-end unchanged.
#[derive(Debug, Clone)]
pub struct CommitStreamApp {
    /// The stream, written one `commit_bytes` chunk per commit.
    stream: StreamApp,
    /// Application ticks between commits.
    period_ticks: u32,
    /// Ticks observed since the request became active (pacing phase).
    ticks: u32,
}

impl CommitStreamApp {
    /// Creates a streamer committing `commit_bytes` every `period_ticks`
    /// ticks.
    pub fn new(commit_bytes: usize, period_ticks: u32, close_when_done: bool) -> CommitStreamApp {
        CommitStreamApp {
            stream: StreamApp::new(commit_bytes, close_when_done),
            period_ticks: period_ticks.max(1),
            ticks: 0,
        }
    }

    /// Bytes of response streamed so far.
    pub fn sent(&self) -> u64 {
        self.stream.sent
    }
}

impl Application for CommitStreamApp {
    // The first commit goes out with the request; the rest on the
    // periodic cadence.
    fn on_data(&mut self, data: &Bytes) -> Vec<AppAction> {
        self.stream.on_data(data)
    }

    fn on_tick(&mut self, _now: SimTime) -> Vec<AppAction> {
        if self.stream.requested.is_none() {
            return Vec::new();
        }
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(self.period_ticks) {
            self.stream.emit()
        } else {
            Vec::new()
        }
    }

    // Ticks pace commits only while the stream is live; the tick counter
    // is pacing state, not output (see `state_digest`), so freezing it
    // when the stream is done is unobservable.
    fn wants_tick(&self) -> bool {
        self.stream.wants_tick()
    }

    fn on_peer_close(&mut self) -> Vec<AppAction> {
        vec![AppAction::Close]
    }

    // The tick phase is pacing, not output: two replicas whose commits
    // are phase-shifted still produce the identical byte stream, so the
    // digest covers only stream state.
    fn state_digest(&self) -> u64 {
        self.stream.state_digest()
    }

    // Layout: the stream's, with ticks(4) after consumed(8):
    // flags(1) ‖ requested(8) ‖ sent(8) ‖ consumed(8) ‖ ticks(4) ‖
    // line_len(4) ‖ line. Commit size/period are factory configuration.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut out = self.stream.snapshot()?;
        out.splice(25..25, self.ticks.to_le_bytes());
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) {
        if state.len() >= 29 && self.stream.load(&[&state[..25], &state[29..]].concat()) {
            self.ticks = u32::from_le_bytes(state[25..29].try_into().unwrap());
        }
    }
}

/// A sink: consumes everything, answers nothing (upload workloads).
#[derive(Debug, Clone, Default)]
pub struct SinkApp {
    consumed: u64,
}

impl SinkApp {
    /// Creates the sink.
    pub fn new() -> SinkApp {
        SinkApp::default()
    }

    /// Total bytes swallowed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

impl Application for SinkApp {
    fn on_data(&mut self, data: &Bytes) -> Vec<AppAction> {
        self.consumed += data.len() as u64;
        Vec::new()
    }

    // Swallowing bytes is purely reactive; ticks are never needed.
    fn wants_tick(&self) -> bool {
        false
    }

    fn on_peer_close(&mut self) -> Vec<AppAction> {
        vec![AppAction::Close]
    }

    fn state_digest(&self) -> u64 {
        self.consumed
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.consumed.to_le_bytes().to_vec())
    }

    fn restore(&mut self, state: &[u8]) {
        if let Ok(bytes) = state.try_into() {
            self.consumed = u64::from_le_bytes(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::verify_pattern;

    fn drain_writes(actions: &[AppAction]) -> Vec<u8> {
        let mut out = Vec::new();
        for a in actions {
            if let AppAction::Write(b) = a {
                out.extend_from_slice(b);
            }
        }
        out
    }

    #[test]
    fn stream_app_serves_request() {
        let mut app = StreamApp::new(1_000, true);
        let first = app.on_data(&Bytes::from_static(b"GET 2500\n"));
        let mut got = drain_writes(&first);
        for _ in 0..5 {
            got.extend(drain_writes(&app.on_tick(SimTime::ZERO)));
        }
        assert_eq!(got.len(), 2_500);
        assert_eq!(verify_pattern(0, &got), None);
        // Close arrives exactly once, at the end.
        let closes = app.on_tick(SimTime::ZERO);
        assert!(closes.is_empty(), "no duplicate close: {closes:?}");
        assert_eq!(app.sent(), 2_500);
    }

    #[test]
    fn stream_app_request_split_across_segments() {
        let mut app = StreamApp::new(100, false);
        assert!(app.on_data(&Bytes::from_static(b"GE")).is_empty());
        assert!(app.on_data(&Bytes::from_static(b"T 30")).is_empty());
        let out = drain_writes(&app.on_data(&Bytes::from_static(b"0\n")));
        assert_eq!(out.len(), 100);
        assert_eq!(app.requested, Some(300));
    }

    #[test]
    fn stream_app_without_close_keeps_connection() {
        let mut app = StreamApp::new(1_000, false);
        let _ = app.on_data(&Bytes::from_static(b"GET 100\n"));
        let after = app.on_tick(SimTime::ZERO);
        assert!(after.is_empty());
    }

    #[test]
    fn stream_replicas_lockstep() {
        let mut p = StreamApp::new(500, true);
        let mut b = StreamApp::new(500, true);
        assert_eq!(
            p.on_data(&Bytes::from_static(b"GET 1200\n")),
            b.on_data(&Bytes::from_static(b"GET 1200\n"))
        );
        for _ in 0..4 {
            assert_eq!(p.on_tick(SimTime::ZERO), b.on_tick(SimTime::from_secs(5)));
        }
        assert_eq!(p.state_digest(), b.state_digest());
    }

    #[test]
    fn bad_request_streams_nothing() {
        let mut app = StreamApp::new(100, true);
        let actions = app.on_data(&Bytes::from_static(b"BOGUS\n"));
        // Requested parses to 0 ⇒ immediate close, no data.
        assert_eq!(drain_writes(&actions).len(), 0);
        assert!(actions.contains(&AppAction::Close));
    }

    #[test]
    fn commit_stream_flushes_on_the_period() {
        let mut app = CommitStreamApp::new(400, 4, true);
        let mut got = drain_writes(&app.on_data(&Bytes::from_static(b"GET 1000\n")));
        assert_eq!(got.len(), 400, "first commit rides with the request");
        let mut quiet_ticks = 0;
        for _ in 0..12 {
            let out = drain_writes(&app.on_tick(SimTime::ZERO));
            if out.is_empty() {
                quiet_ticks += 1;
            }
            got.extend(out);
        }
        assert_eq!(got.len(), 1000);
        assert_eq!(verify_pattern(0, &got), None);
        assert!(quiet_ticks >= 6, "output must be bursty, not per-tick");
        assert_eq!(app.sent(), 1000);
    }

    #[test]
    fn commit_stream_replicas_lockstep_and_restore() {
        let mut p = CommitStreamApp::new(300, 3, true);
        let mut b = CommitStreamApp::new(300, 3, true);
        assert_eq!(
            p.on_data(&Bytes::from_static(b"GET 900\n")),
            b.on_data(&Bytes::from_static(b"GET 900\n"))
        );
        for _ in 0..9 {
            assert_eq!(p.on_tick(SimTime::ZERO), b.on_tick(SimTime::from_secs(2)));
        }
        assert_eq!(p.state_digest(), b.state_digest());

        // Snapshot mid-stream (including pacing phase) restores exactly.
        let mut p = CommitStreamApp::new(300, 3, true);
        let _ = p.on_data(&Bytes::from_static(b"GET 900\n"));
        let _ = p.on_tick(SimTime::ZERO);
        let mut r = CommitStreamApp::new(300, 3, true);
        r.restore(&p.snapshot().unwrap());
        assert_eq!(p.state_digest(), r.state_digest());
        for _ in 0..8 {
            assert_eq!(p.on_tick(SimTime::ZERO), r.on_tick(SimTime::ZERO));
        }

        // Garbage restores are ignored.
        let mut g = CommitStreamApp::new(300, 3, true);
        g.restore(b"short");
        assert_eq!(
            g.state_digest(),
            CommitStreamApp::new(300, 3, true).state_digest()
        );
    }

    #[test]
    fn reqresp_transforms_lines() {
        let mut app = ReqRespApp::new();
        let out = drain_writes(&app.on_data(&Bytes::from_static(b"abc\nxyz\n")));
        let expected: Vec<u8> = [
            ReqRespApp::response_for(b"abc").to_vec(),
            ReqRespApp::response_for(b"xyz").to_vec(),
        ]
        .concat();
        assert_eq!(out, expected);
        assert_eq!(app.requests(), 2);
    }

    #[test]
    fn reqresp_partial_lines_buffer() {
        let mut app = ReqRespApp::new();
        assert!(app.on_data(&Bytes::from_static(b"hel")).is_empty());
        let out = drain_writes(&app.on_data(&Bytes::from_static(b"lo\n")));
        assert_eq!(out, ReqRespApp::response_for(b"hello").to_vec());
    }

    #[test]
    fn reqresp_replicas_lockstep() {
        let mut p = ReqRespApp::new();
        let mut b = ReqRespApp::new();
        for chunk in [b"on".as_ref(), b"e\ntwo\n", b"three\n"].map(Bytes::from_static) {
            assert_eq!(p.on_data(&chunk), b.on_data(&chunk));
        }
        assert_eq!(p.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshots_restore_to_identical_digests() {
        // Mid-transfer streamer, including a partially buffered line.
        let mut p = StreamApp::new(500, true);
        let _ = p.on_data(&Bytes::from_static(b"GET 1200\n"));
        let _ = p.on_tick(SimTime::ZERO);
        let _ = p.on_data(&Bytes::from_static(b"trail"));
        let mut b = StreamApp::new(500, true);
        b.restore(&p.snapshot().unwrap());
        assert_eq!(p.state_digest(), b.state_digest());
        // The restored replica continues the stream identically.
        assert_eq!(p.on_tick(SimTime::ZERO), b.on_tick(SimTime::from_secs(9)));

        let mut p = ReqRespApp::new();
        let _ = p.on_data(&Bytes::from_static(b"one\ntw"));
        let mut b = ReqRespApp::new();
        b.restore(&p.snapshot().unwrap());
        assert_eq!(p.state_digest(), b.state_digest());
        assert_eq!(
            p.on_data(&Bytes::from_static(b"o\n")),
            b.on_data(&Bytes::from_static(b"o\n"))
        );

        let mut p = SinkApp::new();
        let _ = p.on_data(&Bytes::from_static(b"abcdef"));
        let mut b = SinkApp::new();
        b.restore(&p.snapshot().unwrap());
        assert_eq!(p.state_digest(), b.state_digest());
    }

    #[test]
    fn restore_ignores_garbage_blobs() {
        let mut s = StreamApp::new(100, false);
        s.restore(b"way too short");
        assert_eq!(s.state_digest(), StreamApp::new(100, false).state_digest());
        let mut r = ReqRespApp::new();
        r.restore(&[0xff; 21]); // length mismatch: 20 + line_len(0xffffffff)
        assert_eq!(r.state_digest(), ReqRespApp::new().state_digest());
        let mut k = SinkApp::new();
        k.restore(b"123");
        assert_eq!(k.consumed(), 0);
    }

    #[test]
    fn sink_counts() {
        let mut s = SinkApp::new();
        assert!(s.on_data(&Bytes::from_static(b"12345")).is_empty());
        assert_eq!(s.consumed(), 5);
        assert_eq!(s.state_digest(), 5);
        assert_eq!(s.on_peer_close(), vec![AppAction::Close]);
    }
}
