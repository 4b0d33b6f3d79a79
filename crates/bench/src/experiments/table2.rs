//! Table II — application workload configurations.
//!
//! The paper's inventory of size variants; we print each spec plus the
//! properties of the generated graph (exact task counts, data volumes,
//! chunk sizes) so the correspondence is checkable.

use vine_analysis::WorkloadSpec;
use vine_simcore::units::fmt_bytes;

use super::{EngineRun, Fig};
use crate::report;

/// One row of Table II, measured from the generated graph.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// Workload name.
    pub name: &'static str,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Tasks in the generated graph (process + accumulation).
    pub total_tasks: usize,
    /// Process (map) tasks.
    pub process_tasks: usize,
    /// Accumulation tasks.
    pub accum_tasks: usize,
    /// Independent datasets.
    pub datasets: usize,
    /// Bytes per input chunk.
    pub chunk_bytes: u64,
    /// Total intermediate bytes produced by the map phase.
    pub intermediate_bytes: u64,
    /// Dependency-graph depth.
    pub critical_path: usize,
}

/// Generate all Table II rows.
pub fn run() -> Vec<WorkloadRow> {
    WorkloadSpec::table2()
        .into_iter()
        .map(|spec| {
            let g = spec.to_graph();
            let (p, a, _) = g.kind_counts();
            WorkloadRow {
                name: spec.name,
                input_bytes: spec.input_bytes,
                total_tasks: g.task_count(),
                process_tasks: p,
                accum_tasks: a,
                datasets: spec.n_datasets,
                chunk_bytes: spec.chunk_bytes(),
                intermediate_bytes: p as u64 * spec.process_output_bytes,
                critical_path: g.critical_path_len(),
            }
        })
        .collect()
}

/// `vine-fig table2`. Table II needs no engine runs; the observability
/// flags record one DV3-Small reference run.
pub fn main(fig: &Fig) -> Result<(), String> {
    let runs = vec![EngineRun::new(
        "table2-dv3small",
        vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(5), 42),
        WorkloadSpec::dv3_small().to_graph(),
    )
    .recorded()];
    fig.preflight(&runs);
    let rows = run();
    let header = [
        "Application",
        "Input",
        "Tasks",
        "Process",
        "Accum",
        "Datasets",
        "Chunk",
        "Intermediates",
        "Depth",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                fmt_bytes(r.input_bytes),
                r.total_tasks.to_string(),
                r.process_tasks.to_string(),
                r.accum_tasks.to_string(),
                r.datasets.to_string(),
                fmt_bytes(r.chunk_bytes),
                fmt_bytes(r.intermediate_bytes),
                r.critical_path.to_string(),
            ]
        })
        .collect();
    println!("\nTABLE II: Application workloads (generated graphs)\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: DV3-Large = 17K tasks / 1.2 TB; DV3-Huge = 185K tasks / 1.2 TB;");
    println!("       RS-TriPhoton = 4K tasks / 500 GB; Small/Medium = 25 GB / 200 GB.");
    report::write_csv("table2.csv", &report::to_csv(&header, &data));
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_simcore::units::{GB, TB};

    #[test]
    fn rows_match_paper_table2() {
        let rows = run();
        assert_eq!(rows.len(), 5);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();

        let large = by_name("DV3-Large");
        assert!((16_500..=17_500).contains(&large.total_tasks));
        assert_eq!(large.input_bytes, 1_200 * GB);

        let huge = by_name("DV3-Huge");
        assert!((180_000..=190_000).contains(&huge.total_tasks));
        assert_eq!(huge.input_bytes, large.input_bytes); // same data

        let rs = by_name("RS-TriPhoton");
        assert!((3_800..=4_400).contains(&rs.total_tasks));
        assert_eq!(rs.input_bytes, 500 * GB);
        assert_eq!(rs.datasets, 20);

        assert_eq!(by_name("DV3-Small").input_bytes, 25 * GB);
        assert_eq!(by_name("DV3-Medium").input_bytes, 200 * GB);

        // Intermediates exceed input for DV3-Large (§III).
        assert!(large.intermediate_bytes > TB);
    }

    #[test]
    fn every_table2_graph_is_structurally_clean() {
        for spec in WorkloadSpec::table2() {
            let report = vine_lint::lint_graph(&spec.to_graph());
            assert!(report.is_clean(), "{}: {:?}", spec.name, report);
        }
    }
}
