//! Metrics, their clocks, and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Which clock a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time (or a count taken from a wall-clock run) on the host
    /// that ran the benchmark.
    Host,
    /// The SySMT model: the simulator's virtual clock, or the emulated
    /// arithmetic's exact event counts. Identical on every host.
    Modelled,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modelled => "modelled",
        }
    }
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Which clock produced it.
    pub clock: Clock,
    /// Samples behind the value, where it summarises a series.
    pub samples: Option<usize>,
}

impl Metric {
    /// A host-clock value.
    pub fn host(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            clock: Clock::Host,
            samples: None,
        }
    }

    /// A modelled value.
    pub fn modelled(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            clock: Clock::Modelled,
            samples: None,
        }
    }

    /// The same metric with its sample count attached.
    pub fn over(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }
}

/// A minimal JSON value: enough to print results and traces without a
/// serialisation dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `Display` for f64 is the shortest exact round trip and never
            // uses an exponent, so every digit measured is kept.
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The `metrics` object of the result line: every metric with its unit.
pub fn metrics_json(metrics: &[(Metric, &'static str)], detailed: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(m, unit)| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(unit))];
                if detailed {
                    fields.push(("clock", Json::str(m.clock.label())));
                    if let Some(n) = m.samples {
                        fields.push(("samples", Json::Num(n as f64)));
                    }
                }
                (m.name.to_string(), Json::object(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let j = Json::object(vec![
            ("a", Json::Num(1.25)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::str("q\"\\\n")),
            ("d", Json::Num(f64::NAN)),
            ("e", Json::Num(3.0)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":1.25,"b":[true,null],"c":"q\"\\\n","d":null,"e":3}"#
        );
    }
}
