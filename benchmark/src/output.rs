//! What the benchmark prints: the line protocol between a repetition's
//! process and its parent, the result line the driver reads, the table a
//! person reads, and the JSON summary. No repo imports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::tracing::{json_num, json_str};

/// One repetition's (or one aggregated run's) metrics and check results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    /// The line protocol a repetition's process prints for its parent:
    /// `M <name> <value>` per metric, `E <text>` per failed check, and a
    /// closing `A <attempted> <failed>` that doubles as the end marker.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            let _ = writeln!(out, "M {k} {v}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "E {}", e.replace('\n', " "));
        }
        let _ = writeln!(out, "A {} {}", self.attempted, self.failed);
        out
    }

    /// Parses [`Report::to_lines`]; `None` unless the closing line is there.
    pub fn from_lines(text: &str) -> Option<Report> {
        let mut r = Report::default();
        let mut closed = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ')?;
            match tag {
                "M" => {
                    let (k, v) = rest.split_once(' ')?;
                    r.metrics.insert(k.to_string(), v.parse().ok()?);
                }
                "E" => r.errors.push(rest.to_string()),
                "A" => {
                    let (a, f) = rest.split_once(' ')?;
                    r.attempted = a.parse().ok()?;
                    r.failed = f.parse().ok()?;
                    closed = true;
                }
                _ => return None,
            }
        }
        closed.then_some(r)
    }
}

/// `"name":{"value":…,"unit":"…"}`, the value with every digit.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        json_str(name),
        json_num(value),
        json_str(unit)
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value (every digit) and unit.
pub fn result_line(report: &Report, correct: bool, units: &[(String, &str)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        correct,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in units.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        out.push_str(&metric_json(name, v, unit));
    }
    out.push_str("}}");
    out
}

/// One row of the human table.
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub value: f64,
    /// `(max − min) / median` over the repetitions, for host metrics.
    pub spread: Option<f64>,
}

/// A name/value/unit table with the spread column where there is one.
pub fn table(rows: &[Row]) -> String {
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for r in rows {
        let spread = match r.spread {
            Some(s) => format!("  spread {:.1}%", s * 100.0),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "  {:<width$}  {:>16}  {} [{}]{}",
            r.name,
            short(r.value),
            r.unit,
            if r.higher_is_better {
                "higher is better"
            } else {
                "lower is better"
            },
            spread
        );
    }
    out
}

/// Four significant digits or so, for the table only.
fn short(v: f64) -> String {
    let a = v.abs();
    if v.fract() == 0.0 || a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else if a >= 0.01 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// The JSON summary of a full invocation. It ends with `"claim": null`:
/// defining the ruler claims no gain.
pub fn summary_json(
    seed: u64,
    quick: bool,
    nproc: usize,
    workloads: &[(String, Report)],
    units: &BTreeMap<String, &str>,
) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"benchmark\":\"sttcp\",\"seed\":{seed},\"nproc\":{nproc},\"for_claims\":{},\"workloads\":{{",
        !quick
    );
    for (i, (name, report)) in workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
            json_str(name),
            report.attempted,
            report.failed
        );
        for (j, (k, v)) in report.metrics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let unit = units.get(k).copied().unwrap_or("");
            out.push_str(&metric_json(k, *v, unit));
        }
        out.push_str("}}");
    }
    out.push_str("},\"claim\":null}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            metrics: BTreeMap::from([
                ("setup_s".to_string(), 0.000118488),
                ("stall_ms_p50".to_string(), 559.7771666666666),
            ]),
            attempted: 4402,
            failed: 1,
            errors: vec!["world[3]: backup never took over".to_string()],
        }
    }

    #[test]
    fn line_protocol_round_trips_every_digit() {
        let r = sample();
        assert_eq!(Report::from_lines(&r.to_lines()), Some(r));
    }

    #[test]
    fn a_cut_off_report_is_rejected() {
        let text = sample().to_lines();
        let cut = &text[..text.rfind("A ").unwrap()];
        assert_eq!(Report::from_lines(cut), None);
        assert_eq!(Report::from_lines("thread 'main' panicked"), None);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let units = vec![("setup_s".to_string(), "s")];
        let line = result_line(&sample(), false, &units);
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":4402,\"failed\":1,\"metrics\":\
             {\"setup_s\":{\"value\":0.000118488,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn summary_ends_with_a_null_claim() {
        let units = BTreeMap::from([("setup_s".to_string(), "s")]);
        let s = summary_json(1, false, 2, &[("bulk_echo".to_string(), sample())], &units);
        assert!(s.ends_with("\"claim\":null}"), "{s}");
    }
}
