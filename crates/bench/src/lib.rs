//! Shared plumbing for the table-regeneration binaries.
//!
//! Each binary reproduces one artifact of the paper's evaluation:
//!
//! | binary      | paper artifact | what it prints |
//! |-------------|----------------|----------------|
//! | `table2`    | Table II       | per-benchmark LOC, trace size/time, critical variables with dependency types, MCLR |
//! | `table3`    | Table III      | per-benchmark analysis-time breakdown, batch vs streaming, serial vs `--jobs` sessions |
//! | `table4`    | Table IV       | per-benchmark checkpoint storage: BLCR whole-image vs AutoCheck |
//! | `validate`  | §VI-B          | restart success + false-positive sweep |
//!
//! Absolute numbers differ from the paper (the substrate is an interpreter,
//! not Clang-compiled binaries on a Xeon cluster); the *shapes* — who wins,
//! by how many orders of magnitude, what dominates the time — are the
//! reproduction targets.

use autocheck_apps::AppSpec;
use std::time::Duration;

/// Render a duration in seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Render the critical set the way Table II does: `name (TYPE), ...`.
pub fn critical_cell(report: &autocheck_core::Report) -> String {
    report
        .critical
        .iter()
        .map(|c| format!("{} ({})", c.name, c.dep))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render the MCLR column: `start-end (main)`.
pub fn mclr_cell(spec: &AppSpec) -> String {
    format!(
        "{}-{} ({})",
        spec.region.start_line, spec.region.end_line, spec.region.function
    )
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$}  ", c, w = width[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * cols));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["cg".into(), "1".into()]);
        t.row(vec!["miniamr".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
        assert_eq!(secs(Duration::from_micros(420)), "0.0004");
    }
}
