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
}
