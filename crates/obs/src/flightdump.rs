//! Schema-versioned flight-recorder dumps: JSON and Chrome trace-event.
//!
//! A dump is the snapshot a harness takes from
//! [`simnet::flight::FlightRecorder`] when a run violates an invariant:
//! the last window of causally-linked datapath events across every
//! host. This module renders that snapshot two ways —
//!
//! * [`to_json`]: the canonical schema-versioned dump, read back — and
//!   checked against the schema in the same pass — by [`from_json`]
//!   ([`validate`] keeps only the verdict; CI runs it over every dump an
//!   experiment writes);
//! * [`to_chrome_trace`]: a Chrome trace-event file loadable in
//!   `ui.perfetto.dev` or `chrome://tracing`, with one track per host
//!   and flow arrows joining the events of each causal span (and each
//!   child span to its parent).
//!
//! Both renderings are pure functions of the event list, so a dump is
//! byte-identical wherever and however often it is produced.

use simnet::flight::{FlightEvent, FlightKind, FlightSnapshot, SpanId, FLIGHT_KIND_SPECS};
use simnet::node::NodeId;
use simnet::time::SimTime;

use crate::json::Json;

/// Version stamped into every dump; bump when the layout changes.
pub const FLIGHT_SCHEMA_VERSION: u32 = 1;

/// Renders the canonical schema-versioned JSON dump.
///
/// `hosts[i]` names node `i` (the world's per-node trace names);
/// `window_ms` records the snapshot window the harness used (`None`
/// when the full retained history was dumped).
pub fn to_json(events: &[FlightEvent], hosts: &[String], window_ms: Option<u64>) -> Json {
    let mut root = Json::obj();
    root.set(
        "schema_version",
        Json::U64(u64::from(FLIGHT_SCHEMA_VERSION)),
    );
    root.set("kind", Json::from("flight_recorder"));
    root.set(
        "hosts",
        Json::Arr(hosts.iter().map(|h| Json::from(h.as_str())).collect()),
    );
    root.set(
        "window_ms",
        match window_ms {
            Some(w) => Json::U64(w),
            None => Json::Null,
        },
    );
    root.set(
        "events",
        Json::Arr(
            events
                .iter()
                .map(|e| {
                    let mut o = Json::obj();
                    o.set("seq", Json::U64(e.seq));
                    o.set("t_us", Json::U64(e.time.as_micros()));
                    o.set(
                        "node",
                        match e.node {
                            Some(n) => Json::U64(n.0 as u64),
                            None => Json::Null,
                        },
                    );
                    o.set("span", Json::Str(e.span.to_string()));
                    o.set(
                        "parent",
                        if e.parent.is_none() {
                            Json::Null
                        } else {
                            Json::Str(e.parent.to_string())
                        },
                    );
                    o.set("kind", Json::from(e.kind.name()));
                    let mut args = Json::obj();
                    for (name, value) in e.kind.fields() {
                        args.set(name, Json::U64(value));
                    }
                    o.set("args", args);
                    o
                })
                .collect(),
        ),
    );
    root
}

/// Renders a harness-captured [`FlightSnapshot`] as the canonical dump.
pub fn snapshot_to_json(snap: &FlightSnapshot) -> Json {
    to_json(&snap.events, &snap.hosts, snap.window_ms)
}

/// Renders a harness-captured [`FlightSnapshot`] as a Chrome trace.
pub fn snapshot_to_chrome_trace(snap: &FlightSnapshot) -> Json {
    to_chrome_trace(&snap.events, &snap.hosts)
}

/// Reads a dump produced by [`to_json`] back into events and host
/// names, checking it against the flight-recorder schema as it goes:
/// version, required keys and types, known event kinds with exactly the
/// spec'd argument set, parseable span ids, and record-order `seq`.
///
/// # Errors
///
/// Returns a message naming the first violation.
pub fn from_json(dump: &Json) -> Result<(Vec<FlightEvent>, Vec<String>), String> {
    let version = dump
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != u64::from(FLIGHT_SCHEMA_VERSION) {
        return Err(format!("unsupported schema_version {version}"));
    }
    if dump.get("kind").and_then(Json::as_str) != Some("flight_recorder") {
        return Err("kind is not \"flight_recorder\"".to_string());
    }
    let hosts = (dump.get("hosts").and_then(Json::as_arr))
        .ok_or("missing hosts array")?
        .iter()
        .map(|h| h.as_str().map(str::to_string).ok_or("non-string host name"))
        .collect::<Result<Vec<_>, _>>()?;
    match dump.get("window_ms") {
        Some(Json::Null) => {}
        Some(w) => {
            w.as_u64().ok_or("window_ms is not an integer")?;
        }
        None => return Err("missing window_ms".to_string()),
    }
    let raw = (dump.get("events").and_then(Json::as_arr)).ok_or("missing events array")?;
    let mut events: Vec<FlightEvent> = Vec::with_capacity(raw.len());
    for (i, ev) in raw.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        let seq = (ev.get("seq").and_then(Json::as_u64)).ok_or_else(|| at("missing seq"))?;
        if events.last().is_some_and(|prev| seq <= prev.seq) {
            return Err(at("seq not strictly increasing"));
        }
        let t_us = (ev.get("t_us").and_then(Json::as_u64)).ok_or_else(|| at("missing t_us"))?;
        let node = match ev.get("node") {
            Some(Json::Null) => None,
            Some(n) => {
                let n = n.as_u64().ok_or_else(|| at("node is not an integer"))? as usize;
                if n >= hosts.len() {
                    return Err(at("node out of range of hosts"));
                }
                Some(NodeId(n))
            }
            None => return Err(at("missing node")),
        };
        let span = (ev.get("span").and_then(Json::as_str)).ok_or_else(|| at("missing span"))?;
        let span = SpanId::from_hex(span).ok_or_else(|| at("unparseable span"))?;
        if span.is_none() {
            return Err(at("span is the null span"));
        }
        let parent = match ev.get("parent") {
            Some(Json::Null) => SpanId::NONE,
            Some(p) => {
                let p = p.as_str().ok_or_else(|| at("parent is not a string"))?;
                SpanId::from_hex(p).ok_or_else(|| at("unparseable parent"))?
            }
            None => return Err(at("missing parent")),
        };
        let kind = (ev.get("kind").and_then(Json::as_str)).ok_or_else(|| at("missing kind"))?;
        let (_, spec_fields) = FLIGHT_KIND_SPECS
            .iter()
            .find(|(n, _)| *n == kind)
            .ok_or_else(|| at(&format!("unknown kind {kind:?}")))?;
        let args = ev.get("args").ok_or_else(|| at("missing args"))?;
        let Json::Obj(arg_fields) = args else {
            return Err(at("args is not an object"));
        };
        if arg_fields.len() != spec_fields.len() {
            return Err(at("args do not match the kind's field set"));
        }
        let get = |name: &str| args.get(name).and_then(Json::as_u64);
        for field in *spec_fields {
            get(field).ok_or_else(|| at(&format!("missing or non-integer arg {field:?}")))?;
        }
        let kind = FlightKind::from_fields(kind, &get)
            .ok_or_else(|| format!("unreconstructible kind {kind:?}"))?;
        events.push(FlightEvent {
            seq,
            time: SimTime::from_micros(t_us),
            node,
            span,
            parent,
            kind,
        });
    }
    Ok((events, hosts))
}

/// Checks a dump against the flight-recorder schema: [`from_json`],
/// keeping only its verdict.
///
/// # Errors
///
/// Returns a message naming the first violation.
pub fn validate(dump: &Json) -> Result<(), String> {
    from_json(dump).map(|_| ())
}

/// Renders a Chrome trace-event file (the `{"traceEvents": [...]}` JSON
/// form) loadable in `ui.perfetto.dev`.
///
/// Each host becomes a process (named track); each event a 1 µs slice;
/// each causal span a flow (arrow) threaded through its events, with
/// child spans additionally joined to their parent's flow.
pub fn to_chrome_trace(events: &[FlightEvent], hosts: &[String]) -> Json {
    let pid_of = |node: Option<NodeId>| node.map_or(0u64, |n| n.0 as u64 + 1);
    let mut out: Vec<Json> = Vec::new();

    // Process-name metadata: pid 0 is the world (fault injections).
    let mut names: Vec<(u64, &str)> = vec![(0, "world")];
    for (i, h) in hosts.iter().enumerate() {
        names.push((i as u64 + 1, h.as_str()));
    }
    for (pid, name) in names {
        let mut m = Json::obj();
        m.set("ph", Json::from("M"));
        m.set("name", Json::from("process_name"));
        m.set("pid", Json::U64(pid));
        m.set("tid", Json::U64(0));
        let mut args = Json::obj();
        args.set("name", Json::from(name));
        m.set("args", args);
        out.push(m);
    }

    // Count events per span so flows know where they start and end.
    let span_count = |span: SpanId| events.iter().filter(|e| e.span == span).count();
    let mut span_seen: Vec<(SpanId, usize)> = Vec::new();

    for e in events {
        let pid = pid_of(e.node);
        let ts = e.time.as_micros();

        let mut slice = Json::obj();
        slice.set("ph", Json::from("X"));
        slice.set("name", Json::from(e.kind.name()));
        slice.set("cat", Json::from("flight"));
        slice.set("pid", Json::U64(pid));
        slice.set("tid", Json::U64(0));
        slice.set("ts", Json::U64(ts));
        slice.set("dur", Json::U64(1));
        let mut args = Json::obj();
        args.set("span", Json::Str(e.span.to_string()));
        if !e.parent.is_none() {
            args.set("parent", Json::Str(e.parent.to_string()));
        }
        for (name, value) in e.kind.fields() {
            args.set(name, Json::U64(value));
        }
        slice.set("args", args);
        out.push(slice);

        // Flow through this event's own span (arrows between the
        // send/deliver/ack or emit/recv events of one span).
        let total = span_count(e.span);
        if total > 1 {
            let seen = match span_seen.iter_mut().find(|(s, _)| *s == e.span) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.1
                }
                None => {
                    span_seen.push((e.span, 1));
                    1
                }
            };
            let ph = if seen == 1 {
                "s"
            } else if seen == total {
                "f"
            } else {
                "t"
            };
            let mut flow = Json::obj();
            flow.set("ph", Json::from(ph));
            flow.set("name", Json::from("span"));
            flow.set("cat", Json::from("flow"));
            flow.set("id", Json::Str(e.span.to_string()));
            flow.set("pid", Json::U64(pid));
            flow.set("tid", Json::U64(0));
            flow.set("ts", Json::U64(ts));
            if ph == "f" {
                flow.set("bp", Json::from("e"));
            }
            out.push(flow);
        }

        // Join a child event into its parent span's flow (the causal
        // arrow fault → detection → verdict → takeover).
        if !e.parent.is_none() && span_count(e.parent) > 0 {
            let mut flow = Json::obj();
            flow.set("ph", Json::from("t"));
            flow.set("name", Json::from("span"));
            flow.set("cat", Json::from("flow"));
            flow.set("id", Json::Str(e.parent.to_string()));
            flow.set("pid", Json::U64(pid));
            flow.set("tid", Json::U64(0));
            flow.set("ts", Json::U64(ts));
            out.push(flow);
        }
    }

    let mut root = Json::obj();
    root.set("traceEvents", Json::Arr(out));
    root.set("displayTimeUnit", Json::from("ms"));
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<FlightEvent> {
        let hb = SpanId::heartbeat(1, 0, 5);
        let fault = SpanId::fault(0);
        let verdict = SpanId::verdict(2, 1_500_000);
        vec![
            FlightEvent {
                seq: 0,
                time: SimTime::from_millis(100),
                node: None,
                span: fault,
                parent: SpanId::NONE,
                kind: FlightKind::Fault { index: 0 },
            },
            FlightEvent {
                seq: 1,
                time: SimTime::from_millis(200),
                node: Some(NodeId(1)),
                span: hb,
                parent: SpanId::NONE,
                kind: FlightKind::HbEmit {
                    seqno: 5,
                    link: 0,
                    bytes: 34,
                    conns: 1,
                },
            },
            FlightEvent {
                seq: 2,
                time: SimTime::from_millis(201),
                node: Some(NodeId(2)),
                span: hb,
                parent: SpanId::NONE,
                kind: FlightKind::HbRecv { seqno: 5, link: 0 },
            },
            FlightEvent {
                seq: 3,
                time: SimTime::from_millis(1500),
                node: Some(NodeId(2)),
                span: verdict,
                parent: hb,
                kind: FlightKind::Verdict { reason: 3 },
            },
        ]
    }

    fn hosts() -> Vec<String> {
        vec!["client".into(), "primary".into(), "backup".into()]
    }

    #[test]
    fn dump_validates_and_round_trips() {
        let events = sample_events();
        let dump = to_json(&events, &hosts(), Some(2000));
        validate(&dump).unwrap();
        let (back, h) = from_json(&dump).unwrap();
        assert_eq!(back, events);
        assert_eq!(h, hosts());
        // And the serialized text round-trips through the parser too.
        let reparsed = Json::parse(&dump.to_string()).unwrap();
        assert_eq!(reparsed, dump);
    }

    #[test]
    fn validate_rejects_structural_problems() {
        let events = sample_events();
        let good = to_json(&events, &hosts(), None);
        validate(&good).unwrap();

        let mut bad = good.clone();
        bad.set("schema_version", Json::U64(999));
        assert!(validate(&bad).unwrap_err().contains("schema_version"));

        let mut bad = good.clone();
        bad.set("kind", Json::from("something_else"));
        assert!(validate(&bad).is_err());

        // Unknown event kind.
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            if let Some((_, Json::Arr(evs))) = fields.iter_mut().find(|(k, _)| k == "events") {
                evs[0].set("kind", Json::from("mystery"));
            }
        }
        assert!(validate(&bad).unwrap_err().contains("unknown kind"));

        // Args not matching the kind's field set.
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            if let Some((_, Json::Arr(evs))) = fields.iter_mut().find(|(k, _)| k == "events") {
                let mut args = Json::obj();
                args.set("wrong", Json::U64(1));
                evs[0].set("args", args);
            }
        }
        assert!(validate(&bad).is_err());

        // Node index out of range of the host list.
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            if let Some((_, Json::Arr(evs))) = fields.iter_mut().find(|(k, _)| k == "events") {
                evs[1].set("node", Json::U64(99));
            }
        }
        assert!(validate(&bad).unwrap_err().contains("out of range"));

        // Regressing seq.
        let mut bad = good;
        if let Json::Obj(fields) = &mut bad {
            if let Some((_, Json::Arr(evs))) = fields.iter_mut().find(|(k, _)| k == "events") {
                evs[1].set("seq", Json::U64(0));
            }
        }
        assert!(validate(&bad).unwrap_err().contains("seq"));
    }

    #[test]
    fn chrome_trace_has_tracks_slices_and_flows() {
        let events = sample_events();
        let trace = to_chrome_trace(&events, &hosts());
        let evs = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
        // 4 process-name metadata records (world + 3 hosts).
        assert_eq!(evs.iter().filter(|e| ph(e) == "M").count(), 4);
        // One slice per event.
        assert_eq!(evs.iter().filter(|e| ph(e) == "X").count(), events.len());
        // The heartbeat span has 2 events -> a flow start and finish;
        // the verdict joins its parent's flow with a step.
        assert_eq!(evs.iter().filter(|e| ph(e) == "s").count(), 1);
        assert_eq!(evs.iter().filter(|e| ph(e) == "f").count(), 1);
        assert!(evs.iter().any(|e| ph(e) == "t"));
        // Every slice has the mandatory Chrome fields.
        for e in evs.iter().filter(|e| ph(e) == "X") {
            for key in ["name", "pid", "tid", "ts", "dur", "args"] {
                assert!(e.get(key).is_some(), "slice missing {key}");
            }
        }
        // The whole trace parses back (it is what we write to disk).
        assert_eq!(Json::parse(&trace.to_string()).unwrap(), trace);
    }
}
