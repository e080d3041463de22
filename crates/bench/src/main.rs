//! The `figures` binary: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p varan-bench --bin figures -- --all
//! cargo run --release -p varan-bench --bin figures -- --fig4 --fig5
//! cargo run --release -p varan-bench --bin figures -- --all --full
//! ```
//!
//! Without `--full` the workloads are scaled down so the whole suite runs in
//! a few minutes on a laptop; `--full` uses larger workloads.

use varan_bench::{
    churnbench, comparison, explorebench, fleetbench, microbench, obsbench, report, ringbench,
    scenarios, servers, shardbench, simbench, spec, upgradebench, Scale,
};

#[derive(Debug, Default)]
struct Options {
    fig4: bool,
    fig5: bool,
    fig6: bool,
    fig7: bool,
    fig8: bool,
    table1: bool,
    table2: bool,
    failover: bool,
    multirev: bool,
    sanitize: bool,
    recreplay: bool,
    fig_fleet: bool,
    fig_upgrade: bool,
    fig_shard: bool,
    fig_churn_compact: bool,
    fig_obs: bool,
    obs_dump: bool,
    sim_sweep: bool,
    fig_explore: bool,
    check_explore: bool,
    replay_plan: Option<String>,
    explore_plans: u64,
    check_ring: bool,
    check_fleet: bool,
    check_upgrade: bool,
    check_sim: bool,
    check_shard: bool,
    check_churn_compact: bool,
    check_obs: bool,
    sim_seeds: u64,
    sim_base_seed: u64,
    full: bool,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut options = Options::default();
        options.sim_seeds = 1_000;
        options.explore_plans = 48;
        let mut any = false;
        let mut sim_values_given = false;
        let mut plans_given = false;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            // Value-taking flags first.
            match arg.as_str() {
                "--plans" => {
                    let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("{arg} requires a numeric value");
                        std::process::exit(2);
                    };
                    options.explore_plans = value.max(1);
                    plans_given = true;
                    continue;
                }
                "--replay-plan" => {
                    let Some(value) = args.next() else {
                        eprintln!("{arg} requires a plan file path");
                        std::process::exit(2);
                    };
                    options.replay_plan = Some(value.clone());
                    any = true;
                    continue;
                }
                "--seeds" | "--sim-seed" => {
                    let Some(value) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("{arg} requires a numeric value");
                        std::process::exit(2);
                    };
                    if arg == "--seeds" {
                        options.sim_seeds = value.max(1);
                    } else {
                        options.sim_base_seed = value;
                    }
                    sim_values_given = true;
                    continue;
                }
                _ => {}
            }
            match arg.as_str() {
                "--fig4" => options.fig4 = true,
                "--fig5" => options.fig5 = true,
                "--fig6" => options.fig6 = true,
                "--fig7" => options.fig7 = true,
                "--fig8" => options.fig8 = true,
                "--table1" => options.table1 = true,
                "--table2" => options.table2 = true,
                "--failover" => options.failover = true,
                "--multirev" => options.multirev = true,
                "--sanitize" => options.sanitize = true,
                "--recreplay" => options.recreplay = true,
                "--fig-fleet" => options.fig_fleet = true,
                "--fig-upgrade" => options.fig_upgrade = true,
                "--fig-shard" => options.fig_shard = true,
                "--fig-churn-compact" => options.fig_churn_compact = true,
                "--fig-obs" => options.fig_obs = true,
                "--obs-dump" => options.obs_dump = true,
                "--sim-sweep" => options.sim_sweep = true,
                "--fig-explore" => options.fig_explore = true,
                "--check-explore" => options.check_explore = true,
                // Action flags: a standalone `--check-*` must validate the
                // existing file, not regenerate it via the default subset.
                "--check-ring" => options.check_ring = true,
                "--check-fleet" => options.check_fleet = true,
                "--check-upgrade" => options.check_upgrade = true,
                "--check-sim" => options.check_sim = true,
                "--check-shard" => options.check_shard = true,
                "--check-churn-compact" => options.check_churn_compact = true,
                "--check-obs" => options.check_obs = true,
                "--full" => {
                    options.full = true;
                    continue;
                }
                "--all" => {
                    options.fig4 = true;
                    options.fig5 = true;
                    options.fig6 = true;
                    options.fig7 = true;
                    options.fig8 = true;
                    options.table1 = true;
                    options.table2 = true;
                    options.failover = true;
                    options.multirev = true;
                    options.sanitize = true;
                    options.recreplay = true;
                    options.fig_fleet = true;
                    options.fig_upgrade = true;
                    options.fig_shard = true;
                    options.fig_churn_compact = true;
                    options.fig_obs = true;
                }
                "--help" | "-h" => {
                    println!(
                        "usage: figures [--all] [--full] [--fig4 --fig5 --fig6 --fig7 --fig8]\n\
                         \x20              [--table1 --table2] [--failover --multirev --sanitize --recreplay]\n\
                         \x20              [--fig-fleet] [--fig-upgrade] [--fig-shard] [--check-ring]\n\
                         \x20              [--fig-churn-compact] [--check-churn-compact]\n\
                         \x20              [--check-fleet] [--check-upgrade] [--check-shard]\n\
                         \x20              [--sim-sweep [--seeds N] [--sim-seed S]] [--check-sim]\n\
                         \x20              [--fig-explore [--plans N]] [--check-explore]\n\
                         \x20              [--replay-plan FILE]\n\
                         --sim-sweep runs the deterministic simulation sweep (N seeded fault\n\
                         scenarios, default 1000 starting at S, default 0) and writes {sim};\n\
                         --check-sim validates {sim} and exits non-zero on any failing seed or\n\
                         any same-seed reproducibility mismatch (see docs/SIMULATION.md).\n\
                         --fig-explore runs the coverage-guided fault explorer against an\n\
                         equal-plan-count random baseline (N plans, default 48), the\n\
                         adversarial-client catalog and a CO-free open-loop latency run on\n\
                         all four servers, and writes {explore}; --check-explore validates\n\
                         {explore} (guided >= 3x the baseline's distinct schedules, composed\n\
                         plans >= 1%, zero mismatches/failures, all 16 adversarial cells).\n\
                         --replay-plan FILE replays a varan-plan/v1 file (as emitted in\n\
                         \"failure_plans\") twice and exits non-zero on any invariant\n\
                         failure or reproducibility mismatch.\n\
                         --fig5 also writes {path} (ring/pool throughput);\n\
                         --check-ring validates {path} and exits non-zero if it is malformed,\n\
                         the disruptor does not beat the event-pump baseline at 3 followers,\n\
                         the follower staging path copied payload bytes, the zero-copy consume\n\
                         is below 1.5x the copy baseline, a planted divergence went undetected,\n\
                         or the CRC32C spill encode is below 0.25x the unchecksummed one.\n\
                         --fig-fleet runs the elastic-fleet churn scenario and writes {fleet};\n\
                         --check-fleet validates {fleet} (leader throughput during churn must\n\
                         stay above 50% of the no-churn baseline).\n\
                         --fig-upgrade drives the 8-revision Redis rolling upgrade under live\n\
                         traffic and writes {upgrade}; --check-upgrade validates {upgrade}\n\
                         (zero failed client requests, >= 6 promotions, the bad revision\n\
                         rolled back).\n\
                         --fig-shard measures the sharded data plane (4-shard vs 1-shard\n\
                         aggregate throughput plus the 64-connection mixed-protocol spread)\n\
                         and writes {shard}; --check-shard validates {shard} (>= 3x aggregate\n\
                         speedup, per-shard event balance, convergence).\n\
                         --fig-churn-compact runs joiner churn against a short and a 10x\n\
                         journal and writes {churn}; --check-churn-compact validates {churn}\n\
                         (catch-up stays checkpoint-bounded while the journal grows).\n\
                         --fig-obs measures the telemetry plane (instrumented-vs-off hot-path\n\
                         overhead, a mid-run /varan/metrics scrape under N-version execution,\n\
                         a same-seed trace-ring determinism pair) and writes {obs};\n\
                         --check-obs validates {obs} (overhead <= 3%, live schema-stamped\n\
                         scrape with nonzero counters and a promote-latency sample,\n\
                         bit-identical trace rings).  --obs-dump prints the process-global\n\
                         registry snapshot (JSON then prometheus text) after the requested\n\
                         figures have run.",
                        churn = varan_bench::churnbench::DEFAULT_PATH,
                        shard = varan_bench::shardbench::DEFAULT_PATH,
                        path = varan_bench::ringbench::DEFAULT_PATH,
                        fleet = varan_bench::fleetbench::DEFAULT_PATH,
                        upgrade = varan_bench::upgradebench::DEFAULT_PATH,
                        sim = varan_bench::simbench::DEFAULT_PATH,
                        explore = varan_bench::explorebench::DEFAULT_PATH,
                        obs = varan_bench::obsbench::DEFAULT_PATH,
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
            any = true;
        }
        if sim_values_given && !options.sim_sweep {
            // `--seeds`/`--sim-seed` without `--sim-sweep` would silently
            // run the default figure subset and leave a stale
            // BENCH_sim.json for a later --check-sim to bless.
            eprintln!("--seeds/--sim-seed only apply to --sim-sweep (try --help)");
            std::process::exit(2);
        }
        if plans_given && !options.fig_explore {
            eprintln!("--plans only applies to --fig-explore (try --help)");
            std::process::exit(2);
        }
        if !any {
            // Default: a representative quick subset.
            options.fig4 = true;
            options.table1 = true;
            options.fig5 = true;
        }
        options
    }

    fn scale(&self) -> Scale {
        if self.full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = Options::parse(&args);
    let scale = options.scale();
    let max_followers = if options.full { 6 } else { 3 };

    if options.table1 {
        println!("{}", report::render_table_1());
    }
    if options.fig4 {
        let iterations = if options.full { 10_000 } else { 1_000 };
        let results = microbench::figure_4(iterations);
        println!("{}", report::render_figure_4(&results));
    }
    if options.fig5 {
        let series = servers::figure_5(scale, max_followers);
        println!("{}", report::render_server_figure("Figure 5", &series));
        // The machine-readable counterpart: the event-streaming hot path
        // measured directly, recorded for future PRs to regress against.
        let ring_report = ringbench::run(scale);
        println!("{}", ring_report.render());
        match ring_report.write_to(ringbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", ringbench::DEFAULT_PATH),
            Err(err) => eprintln!("warning: could not write {}: {err}", ringbench::DEFAULT_PATH),
        }
    }
    if options.fig6 {
        let series = servers::figure_6(scale, max_followers);
        println!("{}", report::render_server_figure("Figure 6", &series));
    }
    if options.fig7 {
        let figure = spec::figure_7(scale, max_followers);
        println!("{}", report::render_spec_figure("Figure 7 (SPEC CPU2000)", &figure));
    }
    if options.fig8 {
        let figure = spec::figure_8(scale, max_followers);
        println!("{}", report::render_spec_figure("Figure 8 (SPEC CPU2006)", &figure));
    }
    if options.table2 {
        let rows = comparison::table_2(scale);
        println!("{}", report::render_table_2(&rows));
    }
    if options.failover {
        let redis = vec![
            scenarios::failover_redis(false),
            scenarios::failover_redis(true),
        ];
        println!(
            "{}",
            report::render_failover("§5.1 transparent failover — Redis revisions", &redis)
        );
        let lighttpd = vec![
            scenarios::failover_lighttpd(false),
            scenarios::failover_lighttpd(true),
        ];
        println!(
            "{}",
            report::render_failover("§5.1 transparent failover — Lighttpd 2437/2438", &lighttpd)
        );
    }
    if options.multirev {
        let results = scenarios::multi_revision();
        println!("{}", report::render_multi_revision(&results));
    }
    if options.sanitize {
        let result = scenarios::live_sanitization();
        println!("{}", report::render_sanitization(&result));
    }
    if options.recreplay {
        let operations = if options.full { 400 } else { 80 };
        let result = scenarios::record_replay(operations);
        println!("{}", report::render_record_replay(&result));
    }
    if options.fig_fleet {
        let fleet_report = fleetbench::run(scale);
        println!("{}", fleet_report.render());
        match fleet_report.write_to(fleetbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", fleetbench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                fleetbench::DEFAULT_PATH
            ),
        }
    }
    if options.fig_upgrade {
        let upgrade_report = upgradebench::run(scale);
        println!("{}", upgrade_report.render());
        match upgrade_report.write_to(upgradebench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", upgradebench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                upgradebench::DEFAULT_PATH
            ),
        }
    }
    if options.fig_shard {
        let shard_report = shardbench::run(scale);
        println!("{}", shard_report.render());
        match shard_report.write_to(shardbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", shardbench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                shardbench::DEFAULT_PATH
            ),
        }
    }
    if options.fig_churn_compact {
        let churn_report = churnbench::run(scale);
        println!("{}", churn_report.render());
        match churn_report.write_to(churnbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", churnbench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                churnbench::DEFAULT_PATH
            ),
        }
    }
    if options.fig_obs {
        let obs_report = obsbench::run(scale);
        println!("{}", obs_report.render());
        match obs_report.write_to(obsbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", obsbench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                obsbench::DEFAULT_PATH
            ),
        }
    }
    if options.obs_dump {
        let snapshot = varan_obs::global().snapshot();
        println!("{}", snapshot.to_json());
        println!("{}", snapshot.to_prometheus());
    }
    if options.sim_sweep {
        let sweep = simbench::run(options.sim_seeds, options.sim_base_seed);
        println!("{}", simbench::render(&sweep));
        match simbench::write_to(&sweep, simbench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", simbench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                simbench::DEFAULT_PATH
            ),
        }
    }
    if options.fig_explore {
        let explore_report = explorebench::run(options.explore_plans, options.sim_base_seed);
        println!("{}", explorebench::render(&explore_report));
        match explorebench::write_to(&explore_report, explorebench::DEFAULT_PATH) {
            Ok(()) => println!("wrote {}", explorebench::DEFAULT_PATH),
            Err(err) => eprintln!(
                "warning: could not write {}: {err}",
                explorebench::DEFAULT_PATH
            ),
        }
    }
    if let Some(path) = &options.replay_plan {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                std::process::exit(1);
            }
        };
        let plan = match varan_sim::FaultPlan::decode(&text) {
            Ok(plan) => plan,
            Err(err) => {
                eprintln!("{path}: not a valid plan file: {err}");
                std::process::exit(1);
            }
        };
        for line in plan.describe() {
            println!("{line}");
        }
        let first = varan_sim::run_plan(&plan);
        let second = varan_sim::run_plan(&plan);
        println!(
            "trace hash {:#018x} (replay {:#018x}), schedule hash {:#018x}",
            first.trace_hash, second.trace_hash, first.schedule_hash
        );
        if let Some(failure) = &first.failure {
            eprintln!("invariant failure: {failure}");
            std::process::exit(1);
        }
        if second.trace_hash != first.trace_hash {
            eprintln!("reproducibility mismatch: the two replays disagree");
            std::process::exit(1);
        }
        println!("replay OK: deterministic, no invariant failures");
    }
    if options.check_explore {
        match explorebench::validate_file(explorebench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", explorebench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_explore check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_ring {
        match ringbench::validate_file(ringbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", ringbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_ring check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_fleet {
        match fleetbench::validate_file(fleetbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", fleetbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_fleet check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_upgrade {
        match upgradebench::validate_file(upgradebench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", upgradebench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_upgrade check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_sim {
        match simbench::validate_file(simbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", simbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_sim check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_shard {
        match shardbench::validate_file(shardbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", shardbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_shard check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_churn_compact {
        match churnbench::validate_file(churnbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", churnbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_churn check failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if options.check_obs {
        match obsbench::validate_file(obsbench::DEFAULT_PATH) {
            Ok(()) => println!("{} OK", obsbench::DEFAULT_PATH),
            Err(err) => {
                eprintln!("BENCH_obs check failed: {err}");
                std::process::exit(1);
            }
        }
    }
}
