//! Plain-text table rendering for the paper-style reports.

/// Formats microseconds compactly (µs below 1 ms, ms above).
pub fn fmt_us(us: f64) -> String {
    if us >= 1_000.0 {
        format!("{:.2} ms", us / 1_000.0)
    } else {
        format!("{us:.0} µs")
    }
}

/// Renders an aligned plain-text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let header_line: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Prints a rendered table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_us_switches_units() {
        assert_eq!(fmt_us(250.0), "250 µs");
        assert_eq!(fmt_us(2_500.0), "2.50 ms");
    }

    #[test]
    fn table_alignment() {
        let s = render_table(
            "T",
            &["arch", "lat"],
            &[vec!["multiplex".into(), "9 ms".into()], vec!["cosoft".into(), "0".into()]],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("multiplex"));
        let lines: Vec<&str> = s.lines().filter(|l| l.contains("ms") || l.ends_with('0')).collect();
        assert_eq!(lines.len(), 2);
    }
}
