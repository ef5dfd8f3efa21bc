//! Spans recorded by the benchmark around its calls into each layer, the
//! per-layer self-time table derived from them, and the chrome trace.

use pesto::obs::{Obs, SpanGuard};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Span recorder: enabled in traced runs, a no-op otherwise.
pub struct Tracer {
    obs: Obs,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let obs = if enabled {
            Obs::enabled_with_capacities(1024, 1 << 20)
        } else {
            Obs::disabled()
        };
        Tracer { obs }
    }

    /// Opens a span named `<layer>.<call>`; it closes when dropped.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.obs.span(name)
    }

    /// Writes the chrome trace and the per-layer table into `dir`, and
    /// returns the table.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<String> {
        fs::create_dir_all(dir)?;
        fs::write(
            dir.join(format!("{stem}.trace.json")),
            self.obs.chrome_trace(),
        )?;
        let table = self.layer_table();
        fs::write(dir.join(format!("{stem}.layers.txt")), &table)?;
        Ok(table)
    }

    /// Per span name: count, total time and self time (total minus the
    /// part covered by spans nested inside it on the same thread).
    fn layer_table(&self) -> String {
        let mut spans = self.obs.spans();
        spans.sort_by(|a, b| {
            (a.tid, a.start_us)
                .partial_cmp(&(b.tid, b.start_us))
                .expect("finite span times")
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        let mut rows: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        // Stack of (end time, index into `spans`) of open ancestors.
        let mut child_time = vec![0.0f64; spans.len()];
        let mut stack: Vec<(u64, f64, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while let Some(&(tid, end, _)) = stack.last() {
                if tid == s.tid && s.start_us < end {
                    break;
                }
                stack.pop();
            }
            if let Some(&(_, _, parent)) = stack.last() {
                child_time[parent] += s.dur_us;
            }
            stack.push((s.tid, s.start_us + s.dur_us, i));
        }
        for (i, s) in spans.iter().enumerate() {
            let row = rows.entry(s.name.clone()).or_default();
            row.0 += 1;
            row.1 += s.dur_us;
            row.2 += s.dur_us - child_time[i];
        }
        let mut out = format!(
            "{:<34} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in rows {
            out.push_str(&format!(
                "{name:<34} {count:>7} {:>12.3} {:>12.3}\n",
                total / 1e3,
                own / 1e3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(20));
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let table = t.layer_table();
        let row = |name: &str| -> Vec<f64> {
            let line = table.lines().find(|l| l.starts_with(name)).expect("row");
            line.split_whitespace()
                .skip(1)
                .map(|x| x.parse().unwrap())
                .collect()
        };
        let (outer, inner) = (row("outer"), row("inner"));
        assert_eq!(outer[0], 1.0);
        assert!(outer[1] >= 40.0 && inner[1] >= 20.0);
        // The table prints milliseconds to three places.
        assert!((outer[2] - (outer[1] - inner[1])).abs() < 0.002);
    }
}
