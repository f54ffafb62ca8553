//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each `fig5*` binary prints the same series/rows the paper's figure
//! plots, as aligned text tables plus a CSV dump under `results/` so the
//! data can be re-plotted.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Decode, validate and lower a stock plugin into a shareable module —
/// what a template build starts from.
pub fn load(wasm: &[u8]) -> Arc<waran_wasm::Module> {
    Arc::new(waran_wasm::load_module(wasm).expect("stock plugin loads"))
}

/// Print a banner for one experiment.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

/// Render one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print an aligned table.
pub fn table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    println!(
        "{}",
        row(
            &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &widths
        )
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", row(r, &widths));
    }
}

/// Write a CSV file under `results/` (best-effort; printing is the primary
/// output).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(name);
    let Ok(mut f) = fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{}", header.join(","));
    for r in rows {
        let _ = writeln!(f, "{}", r.join(","));
    }
    println!("\n[csv written to {}]", path.display());
}

/// A unicode sparkline of a series (quick visual shape check in the
/// terminal).
pub fn sparkline(series: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().cloned().fold(f64::MIN, f64::max);
    let min = series.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    series
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Downsample a series to at most `n` points by block averaging.
pub fn downsample(series: &[f64], n: usize) -> Vec<f64> {
    if series.len() <= n || n == 0 {
        return series.to_vec();
    }
    let block = series.len().div_ceil(n);
    series
        .chunks(block)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn downsample_preserves_mean() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = downsample(&series, 10);
        assert_eq!(ds.len(), 10);
        let mean: f64 = ds.iter().sum::<f64>() / ds.len() as f64;
        assert!((mean - 49.5).abs() < 1.0);
    }

    #[test]
    fn downsample_short_series_passthrough() {
        let s = vec![1.0, 2.0];
        assert_eq!(downsample(&s, 10), s);
    }
}
