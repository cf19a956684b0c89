//! Shared utilities for the figure/table regeneration binaries: aligned
//! text tables, CSV emission, and geometric means.

/// Geometric mean of positive values (ignores non-finite / non-positive
/// entries; returns 0 when none remain).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// A simple aligned text table with a CSV twin.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncol) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths.get(i).copied().unwrap_or(0);
                line.push_str(&format!("{c:>pad$}"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// One-line summary of a search's evaluation-layer statistics
/// ([`EvalStats`](flextensor_explore::pool::EvalStats)): fresh
/// evaluations, cache hit rate, worker count, and the real wall-clock
/// spent inside batched evaluation.
pub fn eval_summary(stats: &flextensor_explore::pool::EvalStats) -> String {
    let pruned = if stats.pruned > 0 {
        format!(", {} statically pruned", stats.pruned)
    } else {
        String::new()
    };
    let delta = if stats.delta_hits + stats.delta_full > 0 {
        format!(
            ", {} delta / {} full recompute",
            stats.delta_hits, stats.delta_full
        )
    } else {
        String::new()
    };
    format!(
        "{} fresh evals, {} cache hits ({:.1}% hit rate){pruned}{delta}, {} worker{}, {} wall-clock evaluating",
        stats.evaluated,
        stats.cache_hits,
        100.0 * stats.hit_rate(),
        stats.workers,
        if stats.workers == 1 { "" } else { "s" },
        fmt_time(stats.wall_clock_s),
    )
}

/// Formats seconds at µs/ms/s granularity.
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1}us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, f64::INFINITY, 0.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("long-name"));
        assert!(t.to_csv().starts_with("name,value\n"));
        assert_eq!(t.to_csv().lines().count(), 3);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(5e-6), "5.0us");
        assert_eq!(fmt_time(2.5e-3), "2.50ms");
        assert_eq!(fmt_time(1.5), "1.50s");
    }

    #[test]
    fn eval_summary_reports_all_fields() {
        let mut s = flextensor_explore::pool::EvalStats {
            evaluated: 40,
            cache_hits: 10,
            cache_misses: 40,
            pruned: 0,
            delta_hits: 0,
            delta_full: 0,
            workers: 8,
            wall_clock_s: 0.25,
        };
        let line = eval_summary(&s);
        assert!(line.contains("40 fresh evals"), "{line}");
        assert!(line.contains("10 cache hits"), "{line}");
        assert!(line.contains("20.0% hit rate"), "{line}");
        assert!(line.contains("8 workers"), "{line}");
        assert!(!line.contains("pruned"), "{line}");
        assert!(!line.contains("delta"), "{line}");
        s.pruned = 6;
        let line = eval_summary(&s);
        assert!(line.contains("6 statically pruned"), "{line}");
        s.delta_hits = 30;
        s.delta_full = 10;
        let line = eval_summary(&s);
        assert!(line.contains("30 delta / 10 full recompute"), "{line}");
    }
}

/// Parses `--<name> <value>` from the process arguments.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let flag = format!("--{name}");
    std::env::args()
        .skip_while(|a| a != &flag)
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Writes a table's CSV twin under `results/` (best effort — failures to
/// create the directory or file only print a warning).
pub fn save_csv(name: &str, table: &Table) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("(saved {})", path.display());
    }
}

/// Renders one or more (x, y) series as an ASCII scatter/line chart.
/// Series are labeled with single marker characters in legend order
/// (`*`, `+`, `o`, `x`, …); overlapping points show the later series.
pub fn ascii_plot(series: &[(&str, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    const MARKS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let finite = |v: f64| v.is_finite();
    let xs: Vec<f64> = all.iter().map(|p| p.0).filter(|v| finite(*v)).collect();
    let ys: Vec<f64> = all.iter().map(|p| p.1).filter(|v| finite(*v)).collect();
    if xs.is_empty() || ys.is_empty() {
        return "(no data)\n".to_string();
    }
    let (x0, x1) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (y0, y1) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let xr = (x1 - x0).max(1e-12);
    let yr = (y1 - y0).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in pts {
            if !finite(x) || !finite(y) {
                continue;
            }
            let cx = (((x - x0) / xr) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / yr) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y1:>10.0} +{}\n", "-".repeat(width)));
    for row in &grid {
        out.push_str("           |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{y0:>10.0} +{}\n", "-".repeat(width)));
    out.push_str(&format!(
        "            {x0:<10.0}{:>width$.0}\n",
        x1,
        width = width - 10
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} = {}\n", MARKS[si % MARKS.len()], name));
    }
    out
}

#[cfg(test)]
mod plot_tests {
    use super::*;

    #[test]
    fn plot_renders_all_series_markers() {
        let s = vec![
            ("a", vec![(0.0, 0.0), (10.0, 5.0)]),
            ("b", vec![(5.0, 10.0)]),
        ];
        let p = ascii_plot(&s, 40, 10);
        assert!(p.contains('*'));
        assert!(p.contains('+'));
        assert!(p.contains("= a"));
        assert!(p.contains("= b"));
    }

    #[test]
    fn plot_handles_empty_and_nonfinite() {
        assert_eq!(ascii_plot(&[("e", vec![])], 10, 5), "(no data)\n");
        let s = vec![("a", vec![(0.0, f64::INFINITY), (1.0, 2.0)])];
        let p = ascii_plot(&s, 10, 5);
        assert!(p.contains('*'));
    }
}
