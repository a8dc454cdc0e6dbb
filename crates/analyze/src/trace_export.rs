//! Chrome-trace / Perfetto export of the deterministic event log.
//!
//! [`chrome_trace`] converts an `events.jsonl` log into the Chrome
//! trace-event JSON format (loadable in `chrome://tracing` and
//! Perfetto's legacy importer). The artifacts deliberately carry **no
//! wall-clock timestamps** (that is what keeps them byte-identical
//! across thread counts), so the export synthesizes deterministic
//! *replay-ordinal* time: injection event `i` occupies the tick window
//! `[i·TICK, (i+1)·TICK)` in recorded row order, and stop decisions
//! land at their armed-scope boundary (`scope_index · TICK`). The
//! timeline therefore shows *ordering and attribution*, not duration —
//! [`self_time_table`] renders the matching flame-style per-lane
//! attribution.

use crate::AnalyzeError;
use alfi_serde::Json;
use alfi_trace::{encode_event_value, EventLog, InjectionEvent};
use std::collections::BTreeMap;
use std::path::Path;

/// Default output file name for the exported trace.
pub const TRACE_FILE: &str = "trace.json";

/// Synthetic microseconds per replay ordinal — one injection event
/// occupies one tick.
pub const TICK_US: i128 = 10;

/// Process id of the injection lanes (one thread lane per injectable
/// layer).
const PID_INJECT: i128 = 1;

/// Process id of the stop-policy lane.
const PID_STOP: i128 = 2;

fn meta_event(pid: i128, tid: i128, name: &str, arg: &str) -> Json {
    Json::Obj(vec![
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Int(pid)),
        ("tid".into(), Json::Int(tid)),
        ("name".into(), Json::Str(name.into())),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(arg.into()))]),
        ),
    ])
}

fn injection_event(ordinal: usize, ev: &InjectionEvent) -> Json {
    let bit = match ev.bit {
        Some(b) => b.to_string(),
        None => "-".to_string(),
    };
    Json::Obj(vec![
        ("name".into(), Json::Str(format!("inject L{} b{}", ev.layer, bit))),
        ("cat".into(), Json::Str("injection".into())),
        ("ph".into(), Json::Str("X".into())),
        ("pid".into(), Json::Int(PID_INJECT)),
        ("tid".into(), Json::Int(ev.layer as i128)),
        ("ts".into(), Json::Int(ordinal as i128 * TICK_US)),
        ("dur".into(), Json::Int(TICK_US)),
        (
            "args".into(),
            Json::Obj(vec![
                ("image_id".into(), Json::Int(ev.image_id as i128)),
                (
                    "bit".into(),
                    match ev.bit {
                        Some(b) => Json::Int(b as i128),
                        None => Json::Null,
                    },
                ),
                ("original".into(), encode_event_value(ev.original)),
                ("corrupted".into(), encode_event_value(ev.corrupted)),
            ]),
        ),
    ])
}

/// Converts a parsed event log into a Chrome trace-event JSON document.
/// Pure and deterministic: timestamps are replay ordinals, never wall
/// clock, and the event header's `threads` field is excluded.
pub fn chrome_trace(log: &EventLog) -> Json {
    let mut events = Vec::new();
    events.push(meta_event(PID_INJECT, 0, "process_name", "alfi injections"));
    let layers: std::collections::BTreeSet<usize> =
        log.injections.iter().map(|ev| ev.layer).collect();
    for layer in &layers {
        events.push(meta_event(
            PID_INJECT,
            *layer as i128,
            "thread_name",
            &format!("layer {layer}"),
        ));
    }
    if !log.stops.is_empty() {
        events.push(meta_event(PID_STOP, 0, "process_name", "alfi stop policy"));
    }
    for (i, ev) in log.injections.iter().enumerate() {
        events.push(injection_event(i, ev));
    }
    for ev in &log.stops {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(format!("{} @scope {}", ev.verdict.name(), ev.scope_index))),
            ("cat".into(), Json::Str("stop".into())),
            ("ph".into(), Json::Str("i".into())),
            ("pid".into(), Json::Int(PID_STOP)),
            ("tid".into(), Json::Int(ev.stratum.map_or(0, |s| s as i128))),
            ("ts".into(), Json::Int(ev.scope_index as i128 * TICK_US)),
            ("s".into(), Json::Str("g".into())),
            (
                "args".into(),
                Json::Obj(vec![
                    ("samples".into(), Json::Int(ev.samples as i128)),
                    ("sdc".into(), Json::Int(ev.sdc as i128)),
                    ("due".into(), Json::Int(ev.due as i128)),
                    ("half_width".into(), Json::Float(ev.half_width)),
                ]),
            ),
        ]));
    }

    let mut other = Vec::new();
    if let Some(meta) = &log.header.meta {
        other.push(("campaign".to_string(), Json::Str(meta.campaign.clone())));
        other.push(("model".to_string(), Json::Str(meta.model.clone())));
        other.push(("scenario_hash".to_string(), Json::Str(meta.scenario_hash.clone())));
        other.push(("seed".to_string(), Json::Int(meta.seed as i128)));
    }
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("otherData".into(), Json::Obj(other)),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

/// One lane of the self-time attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    /// Lane label (`layer N` or `stop policy`).
    pub lane: String,
    /// Events attributed to the lane.
    pub events: u64,
    /// Synthetic self time in ticks (events × [`TICK_US`]).
    pub ticks_us: u64,
    /// Share of the total, in `[0, 1]`.
    pub share: f64,
}

/// Flame-style self-time attribution per lane — with ordinal time,
/// "self time" is event count × tick, i.e. attribution shares, which
/// is exactly what the wall-clock-free artifacts can support.
pub fn self_time_table(log: &EventLog) -> Vec<SelfTimeRow> {
    let mut per_layer: BTreeMap<usize, u64> = BTreeMap::new();
    for ev in &log.injections {
        *per_layer.entry(ev.layer).or_insert(0) += 1;
    }
    let total = log.injections.len() as u64 + log.stops.len() as u64;
    let share = |n: u64| if total == 0 { 0.0 } else { n as f64 / total as f64 };
    let mut rows: Vec<SelfTimeRow> = per_layer
        .iter()
        .map(|(layer, n)| SelfTimeRow {
            lane: format!("layer {layer}"),
            events: *n,
            ticks_us: *n * TICK_US as u64,
            share: share(*n),
        })
        .collect();
    if !log.stops.is_empty() {
        let n = log.stops.len() as u64;
        rows.push(SelfTimeRow {
            lane: "stop policy".to_string(),
            events: n,
            ticks_us: n * TICK_US as u64,
            share: share(n),
        });
    }
    rows
}

/// Renders [`self_time_table`] as aligned text.
pub fn render_self_time(rows: &[SelfTimeRow]) -> String {
    let mut out = String::from("lane            events   ticks_us   share\n");
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>6} {:>10} {:>6.1}%\n",
            r.lane,
            r.events,
            r.ticks_us,
            r.share * 100.0
        ));
    }
    out
}

/// Loads `events.jsonl` from a run directory and exports it: returns
/// the Chrome-trace JSON text (with trailing newline) and the rendered
/// self-time table.
///
/// # Errors
///
/// [`AnalyzeError::Missing`] when the directory has no event log,
/// [`AnalyzeError::Parse`] when it is malformed.
pub fn export_dir(dir: impl AsRef<Path>) -> Result<(String, String), AnalyzeError> {
    let path = dir.as_ref().join(alfi_trace::EVENTS_FILE);
    if !path.is_file() {
        return Err(AnalyzeError::Missing(format!("{}: no events.jsonl", dir.as_ref().display())));
    }
    let log = EventLog::load(&path)?;
    let mut json = chrome_trace(&log).pretty();
    json.push('\n');
    Ok((json, render_self_time(&self_time_table(&log))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfi_trace::{Recorder, RunMeta, StopEvent, StopVerdict};

    fn sample_log() -> EventLog {
        let rec = Recorder::new();
        rec.set_meta(RunMeta {
            campaign: "classification".into(),
            model: "alexnet".into(),
            scenario_hash: alfi_trace::hash_hex(b"demo"),
            seed: 7,
            threads: 4,
        });
        for i in 0..3u8 {
            rec.record_injection(InjectionEvent {
                image_id: i as u64,
                layer: if i == 2 { 5 } else { 2 },
                bit: if i == 1 { None } else { Some(30) },
                original: 1.0,
                corrupted: -2.0e30,
            });
        }
        rec.record_stop(StopEvent {
            verdict: StopVerdict::StopCampaign,
            stratum: None,
            scope_index: 16,
            samples: 16,
            sdc: 4,
            due: 1,
            sdc_ci: (0.1, 0.5),
            due_ci: (0.0, 0.3),
            half_width: 0.2,
        });
        EventLog::parse(&rec.events_jsonl()).unwrap()
    }

    /// Chrome-trace schema check: every record has `ph`/`pid`/`tid`,
    /// complete events carry integer `ts`/`dur`, and every timestamp is
    /// a replay ordinal (a multiple of the tick — wall clock would not
    /// be).
    #[test]
    fn export_is_schema_valid_and_ordinal_timed() {
        let json = chrome_trace(&sample_log());
        let text = json.pretty();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        let mut complete = 0;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap();
            assert!(matches!(ph, "M" | "X" | "i"), "unknown phase {ph}");
            assert!(ev.get("pid").and_then(Json::as_int).is_some());
            assert!(ev.get("tid").and_then(Json::as_int).is_some());
            assert!(ev.get("name").and_then(Json::as_str).is_some());
            if ph == "X" {
                complete += 1;
                let ts = ev.get("ts").and_then(Json::as_int).unwrap();
                let dur = ev.get("dur").and_then(Json::as_int).unwrap();
                assert_eq!(ts % TICK_US, 0, "ts {ts} is not a replay ordinal");
                assert_eq!(dur, TICK_US);
            }
        }
        assert_eq!(complete, 3);
        // The header's `threads` field must never leak into the export.
        assert!(!text.contains("threads"), "{text}");
    }

    #[test]
    fn export_is_deterministic() {
        let log = sample_log();
        assert_eq!(chrome_trace(&log).pretty(), chrome_trace(&log).pretty());
    }

    #[test]
    fn self_time_attributes_per_lane() {
        let rows = self_time_table(&sample_log());
        assert_eq!(rows.len(), 3); // layer 2, layer 5, stop policy
        assert_eq!(rows[0].lane, "layer 2");
        assert_eq!(rows[0].events, 2);
        assert_eq!(rows[1].lane, "layer 5");
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let text = render_self_time(&rows);
        assert!(text.contains("layer 2") && text.contains("stop policy"), "{text}");
    }
}
