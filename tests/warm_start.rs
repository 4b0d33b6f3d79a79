//! Warm-start acceptance, end to end: resubmitting an identical graph
//! into a warm session is at least 3× faster, the observability digest
//! attributes the saving to memoized tasks and warm bytes, the physics
//! answer served from the result store is bit-identical to a cold
//! recomputation, and the facility's exports are byte-stable per seed.

use reshaping_hep::analysis::{Dv3Processor, WorkloadSpec};
use reshaping_hep::cluster::ClusterSpec;
use reshaping_hep::core::{graph_file_cachename, EngineConfig, RunRequest, SessionState};
use reshaping_hep::data::{encode_histogram_set, Dataset};
use reshaping_hep::exec::{ExecMode, Executor};
use reshaping_hep::serve::{FacilityConfig, LoadGen, ResultStore, ShardedFacility};
use reshaping_hep::simcore::units::KB;

fn base_cfg() -> EngineConfig {
    EngineConfig::stack3(ClusterSpec::standard(4), 7).deterministic()
}

#[test]
fn warm_resubmission_is_at_least_three_times_faster() {
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let cfg = base_cfg();
    let mut session = SessionState::new(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .session(&mut session)
        .run();
    let warm = RunRequest::new(cfg, spec.to_graph())
        .session(&mut session)
        .run();
    assert!(cold.completed() && warm.completed());
    assert_eq!(cold.stats.memoized_tasks, 0);
    assert_eq!(
        warm.stats.memoized_tasks, warm.stats.tasks_total as u64,
        "an identical resubmission must be fully memoized"
    );
    assert_eq!(warm.stats.task_executions, 0);
    assert!(
        cold.makespan_secs() >= 3.0 * warm.makespan_secs(),
        "warm {}s not >=3x faster than cold {}s",
        warm.makespan_secs(),
        cold.makespan_secs()
    );
}

#[test]
fn obs_digest_attributes_the_saving_to_memoization() {
    // The digest of an observed warm run must carry the attribution:
    // which tasks were skipped and how many bytes were served warm.
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let cfg = base_cfg().with_obs();
    let mut session = SessionState::new(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .session(&mut session)
        .run();
    let warm = RunRequest::new(cfg, spec.to_graph())
        .session(&mut session)
        .run();

    let cold_digest = &cold.obs.as_ref().expect("obs on").digest;
    let warm_digest = &warm.obs.as_ref().expect("obs on").digest;
    assert_eq!(cold_digest.counters["memoized_tasks"], 0);
    assert_eq!(
        warm_digest.counters["memoized_tasks"],
        warm.stats.tasks_total as u64
    );
    assert!(warm_digest.counters["warm_hit_bytes"] > 0);
    assert_eq!(
        warm_digest.counters["warm_hit_bytes"],
        warm.stats.warm_hit_bytes
    );
    // The diff between the two runs names the counters that moved, so a
    // regression report localizes the warm-start effect.
    let diff = cold_digest.diff(warm_digest).to_text();
    assert!(diff.contains("memoized_tasks"), "diff: {diff}");
    assert!(diff.contains("warm_hit_bytes"), "diff: {diff}");
}

#[test]
fn memoized_run_serves_bit_identical_histograms() {
    // The simulation decides *that* the final reduction can be served
    // warm; the result store holds *what* to serve. Because the real
    // executor is deterministic, the blob stored by the cold run is
    // byte-for-byte what any recomputation (any thread count) produces.
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let graph = spec.to_graph();
    let sink = graph
        .sink_files()
        .next()
        .expect("analysis graphs have a final result");
    let key = graph_file_cachename(&graph, sink.id);

    let datasets = vec![Dataset::synthesize("warmstart.ds0", 500 * KB, KB, 150, 3)];
    let processor = Dv3Processor::default();
    let run_exec = |threads| {
        Executor {
            threads,
            mode: ExecMode::Serverless,
            import_work: 10_000,
            arity: 4,
            obs: false,
            chaos: None,
        }
        .run(&processor, &datasets)
    };

    // Cold: simulate, execute for real, store the encoded answer.
    let cfg = base_cfg();
    let mut session = SessionState::new(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .session(&mut session)
        .run();
    assert!(cold.completed());
    let mut store = ResultStore::new();
    store.put(key, encode_histogram_set(&run_exec(4).final_result));

    // Warm: the simulation memoizes the sink's producer, so the store
    // may answer without recomputing — and its blob must equal what a
    // fresh (differently-threaded) computation yields.
    let warm = RunRequest::new(cfg, spec.to_graph())
        .session(&mut session)
        .run();
    assert_eq!(warm.stats.memoized_tasks, warm.stats.tasks_total as u64);
    let (served, hit) = store.fetch_or_insert(key, || unreachable!("must be a hit"));
    assert!(hit);
    assert_eq!(
        served,
        encode_histogram_set(&run_exec(1).final_result).as_slice(),
        "stored physics blob differs from recomputation"
    );
}

#[test]
fn facility_metrics_export_is_byte_stable_per_seed() {
    let run = || {
        let mut facility =
            ShardedFacility::new(FacilityConfig::demo(9).into()).expect("demo config is clean");
        let loadgen = LoadGen {
            scale_down: 60,
            submissions_per_tenant: 3,
            ..LoadGen::default()
        };
        facility.ingest(loadgen.generate(2, 9));
        let report = facility.drain().shards.remove(0);
        (report.to_csv(), report.to_metrics().to_text())
    };
    let (csv_a, metrics_a) = run();
    let (csv_b, metrics_b) = run();
    assert_eq!(csv_a, csv_b, "facility.csv must be byte-identical per seed");
    assert_eq!(metrics_a, metrics_b);
    assert!(metrics_a.contains("facility.warm_hit_ratio"));
}
