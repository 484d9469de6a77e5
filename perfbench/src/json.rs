//! JSON output. The workspace has no serializer, so values are built as
//! `gc_telemetry::json::Json` trees (the same type its parser returns)
//! and written here.

pub use gc_telemetry::json::Json;

pub fn num(x: f64) -> Json {
    Json::Number(x)
}

pub fn str(s: impl Into<String>) -> Json {
    Json::String(s.into())
}

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact single-line rendering. Numbers use Rust's shortest
/// round-trip form, so every measured digit survives; non-finite
/// numbers (which JSON cannot carry) become `null`.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(x) if x.is_finite() => out.push_str(&format!("{x}")),
        Json::Number(_) => out.push_str("null"),
        Json::String(s) => write_str(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_values_parse_back() {
        let v = obj([
            ("a", num(1.2034)),
            ("b", str("x\"y\n")),
            (
                "c",
                Json::Array(vec![num(0.0001), Json::Bool(true), Json::Null]),
            ),
            ("d", num(f64::NAN)),
        ]);
        let back = gc_telemetry::json::parse(&render(&v)).unwrap();
        assert_eq!(back.get("a").unwrap().as_f64(), Some(1.2034));
        assert_eq!(back.get("b").unwrap().as_str().as_deref(), Some("x\"y\n"));
        assert_eq!(back.get("d"), Some(&Json::Null));
    }
}
