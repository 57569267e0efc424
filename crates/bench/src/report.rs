//! Table/series printing: every experiment binary prints the same rows or
//! series the paper's figures report, as aligned text plus CSV.

use dosco_core::eval::EvalStats;

/// One point of a figure series: an x value (e.g. ingress count, deadline)
/// and the aggregated result for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Algorithm name.
    pub algo: &'static str,
    /// X-axis value label.
    pub x: String,
    /// Aggregated result.
    pub stats: EvalStats,
}

/// Prints a figure's series as an aligned table and as CSV
/// (`figure,algo,x,mean,std[,delay]`).
pub fn print_series(figure: &str, ylabel: &str, points: &[SeriesPoint], with_delay: bool) {
    println!("\n== {figure} — {ylabel} (mean ± std over seeds) ==");
    let mut xs: Vec<&str> = Vec::new();
    for p in points {
        if !xs.contains(&p.x.as_str()) {
            xs.push(&p.x);
        }
    }
    let mut algos: Vec<&str> = Vec::new();
    for p in points {
        if !algos.contains(&p.algo) {
            algos.push(p.algo);
        }
    }
    print!("{:<12}", "algo \\ x");
    for x in &xs {
        print!(" {x:>16}");
    }
    println!();
    for algo in &algos {
        print!("{algo:<12}");
        for x in &xs {
            match points.iter().find(|p| &p.algo == algo && p.x == *x) {
                Some(p) => print!(
                    " {:>8.3} ±{:>5.3}",
                    p.stats.mean_success, p.stats.std_success
                ),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    println!("\ncsv:");
    if with_delay {
        println!("figure,algo,x,mean_success,std_success,mean_e2e_delay");
    } else {
        println!("figure,algo,x,mean_success,std_success");
    }
    for p in points {
        if with_delay {
            println!(
                "{figure},{},{},{:.4},{:.4},{}",
                p.algo,
                p.x,
                p.stats.mean_success,
                p.stats.std_success,
                p.stats
                    .mean_e2e_delay
                    .map_or("-".to_string(), |d| format!("{d:.2}"))
            );
        } else {
            println!(
                "{figure},{},{},{:.4},{:.4}",
                p.algo, p.x, p.stats.mean_success, p.stats.std_success
            );
        }
    }
}

/// Tiny CLI flag reader: returns the value following `--name`, if present.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Rejects a flag value as a usage error: prints
/// `--name must be <what>, got "v"` and exits with code 2 — one line on
/// stderr, never a panic with a backtrace.
pub fn bad_flag(name: &str, what: &str, got: &str) -> ! {
    eprintln!("{name} must be {what}, got {got:?}");
    std::process::exit(2)
}

/// The value following `--name` parsed as `T`, or `None` when the flag is
/// absent; a value that does not parse is a [`bad_flag`].
pub fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, what: &str) -> Option<T> {
    let raw = flag_value(args, name)?;
    Some(raw.parse().unwrap_or_else(|_| bad_flag(name, what, &raw)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_simnet::Metrics;

    fn stats(ratio: f64) -> EvalStats {
        let mut m = Metrics::new();
        m.arrived = 100;
        m.completed = (ratio * 100.0) as u64;
        for _ in 0..(100 - m.completed) {
            m.record_drop(dosco_simnet::DropReason::LinkCapacity);
        }
        EvalStats::from_metrics(vec![m])
    }

    #[test]
    fn print_series_smoke() {
        let points = vec![
            SeriesPoint {
                algo: "SP",
                x: "1".into(),
                stats: stats(0.9),
            },
            SeriesPoint {
                algo: "SP",
                x: "2".into(),
                stats: stats(0.5),
            },
        ];
        // Just exercising the formatting path (stdout in tests is captured).
        print_series("fig6a", "successful flows", &points, true);
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--pattern", "mmpp", "--steps", "100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--pattern").as_deref(), Some("mmpp"));
        assert_eq!(flag_value(&args, "--steps").as_deref(), Some("100"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }
}
