//! Chaos/soak harness binary: seed-pinned randomized fault plans through
//! both engines and both delivery protocols, under invariant checks.
//!
//! ```text
//! chaos_soak [--seed S] [--trials N] [--dims N] [--tenants] [--threads N] [--json [PATH]]
//! ```
//!
//! Defaults: the CI smoke preset (`--seed 42 --trials 16 --dims 6`). A
//! `--dims` value the mode's harness refuses exits 2 before any trial.
//! `--tenants` runs the multi-tenant chaos mode instead: randomized
//! host-level [`TenantFaultPlan`]s against the fault-aware tenant engine,
//! checking conservation, no-wrong-bytes, empty-plan bit-identity with
//! the plan-free engine, learned-vs-omniscient grade equality on static
//! plans, and monotone degradation in both fault rate and tenant count.
//! `--threads N` pins the worker pool for the tenant engine's
//! round-parallel group phases. `--json` writes the full report
//! (`CHAOS_SOAK.json`, or `CHAOS_TENANTS.json` in tenants mode, by
//! default). The report is a pure function of the flags — identical
//! bytes across runs, builds and thread counts, with no build-dependent
//! header field — so CI's determinism manifest diffs a default and a
//! one-thread run of each mode to prove it. Exits 1 if any invariant was
//! violated, so that job fails loudly.
//!
//! [`TenantFaultPlan`]: hyperpath_sim::tenants::TenantFaultPlan

use hyperpath_bench::experiments::{exit_usage, parse_cli_for, CliAccepts};
use hyperpath_bench::json::{Json, ToJson};
use hyperpath_sim::chaos::{
    run_chaos, run_chaos_tenants, ChaosConfig, ChaosReport, ChaosTenantsReport,
};

fn config_to_json(c: &ChaosConfig) -> Json {
    Json::object([
        ("seed", c.seed.to_json()),
        ("trials", c.trials.to_json()),
        ("dims", c.dims.to_json()),
        ("message_len", c.message_len.to_json()),
        ("max_retries", c.max_retries.to_json()),
    ])
}

fn report_to_json(r: &ChaosReport) -> Json {
    Json::object([
        ("suite", "chaos_soak".to_json()),
        ("mode", "engines".to_json()),
        ("config", config_to_json(&r.config)),
        ("violations", r.violations.to_json()),
        ("dominance_violations", r.dominance_violations.to_json()),
        ("ok", r.ok().to_json()),
        (
            "trials",
            Json::Array(
                r.trials
                    .iter()
                    .map(|t| {
                        Json::object([
                            ("trial", t.trial.to_json()),
                            ("static_fail_stop", t.static_fail_stop.to_json()),
                            ("initial_faults", t.initial_faults.to_json()),
                            ("events", t.events.to_json()),
                            ("corrupting_links", t.corrupting_links.to_json()),
                            ("packet_delivered", t.packet_delivered.to_json()),
                            ("packet_lost", t.packet_lost.to_json()),
                            ("packet_corrupted", t.packet_corrupted.to_json()),
                            ("worm_lost", t.worm_lost.to_json()),
                            ("worm_corrupted", t.worm_corrupted.to_json()),
                            ("oracle_recovered", t.oracle_recovered.to_json()),
                            ("oracle_lost", t.oracle_lost.to_json()),
                            ("adaptive_recovered", t.adaptive_recovered.to_json()),
                            ("adaptive_lost", t.adaptive_lost.to_json()),
                            ("adaptive_rejected", t.adaptive_rejected.to_json()),
                            ("dominance_violation", t.dominance_violation.to_json()),
                            (
                                "violations",
                                Json::Array(
                                    t.violations.iter().map(|v| v.as_str().to_json()).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn tenants_report_to_json(r: &ChaosTenantsReport) -> Json {
    Json::object([
        ("suite", "chaos_soak".to_json()),
        ("mode", "tenants".to_json()),
        ("config", config_to_json(&r.config)),
        ("violations", r.violations.to_json()),
        ("ok", r.ok().to_json()),
        (
            "trials",
            Json::Array(
                r.trials
                    .iter()
                    .map(|t| {
                        Json::object([
                            ("trial", t.trial.to_json()),
                            ("static_fail_stop", t.static_fail_stop.to_json()),
                            ("tenants", t.tenants.to_json()),
                            ("cuts", t.cuts.to_json()),
                            ("outages", t.outages.to_json()),
                            ("corrupting_links", t.corrupting_links.to_json()),
                            ("requested", t.requested.to_json()),
                            ("delivered", t.delivered.to_json()),
                            ("degraded", t.degraded.to_json()),
                            ("recovered", t.recovered.to_json()),
                            ("lost", t.lost.to_json()),
                            ("requeues", t.requeues.to_json()),
                            ("shares_lost", t.shares_lost.to_json()),
                            ("shares_corrupted", t.shares_corrupted.to_json()),
                            ("quarantined_links", t.quarantined_links.to_json()),
                            (
                                "violations",
                                Json::Array(
                                    t.violations.iter().map(|v| v.as_str().to_json()).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_report(json: Json, path: &std::path::Path) {
    std::fs::write(path, json.render_pretty()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(2);
    });
    println!("report written to {}", path.display());
}

fn main() {
    let accepts = CliAccepts { trials: true, dims: true, seed: true, tenants: true, threads: true };
    let opts = parse_cli_for(accepts);
    // The report is byte-identical at any worker count; the pin exists so
    // CI can prove that by diffing runs.
    let pool = opts
        .threads
        .map(|t| rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("thread pool"));
    let mut cfg = ChaosConfig::smoke(42);
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    if let Some(trials) = opts.trials {
        cfg.trials = trials as usize;
    }
    if let Some(dims) = &opts.dims {
        if dims.len() != 1 {
            eprintln!("error: chaos_soak takes a single --dims value, got {dims:?}");
            std::process::exit(2);
        }
        cfg.dims = dims[0];
    }
    if let Err(msg) = cfg.check_dims(opts.tenants) {
        exit_usage(&msg, accepts);
    }
    let json_path = opts.json.as_ref().map(|p| match p {
        Some(path) => path.clone(),
        None => std::path::PathBuf::from(if opts.tenants {
            "CHAOS_TENANTS.json"
        } else {
            "CHAOS_SOAK.json"
        }),
    });

    if opts.tenants {
        println!(
            "chaos_soak --tenants: {} trials on Q_{}, seed {} (even trials static fail-stop \
             at ample capacity, odd dynamic under contention)",
            cfg.trials, cfg.dims, cfg.seed
        );
        let report = match &pool {
            Some(p) => p.install(|| run_chaos_tenants(&cfg)),
            None => run_chaos_tenants(&cfg),
        };
        for t in &report.trials {
            println!(
                "  trial {:3} [{}]: tenants={} cuts={} outages={} corrupting={} | \
                 {}req {}del ({}rec) {}lost | {}sl/{}sc | quarantined={}{}",
                t.trial,
                if t.static_fail_stop { "static " } else { "dynamic" },
                t.tenants,
                t.cuts,
                t.outages,
                t.corrupting_links,
                t.requested,
                t.delivered,
                t.recovered,
                t.lost,
                t.shares_lost,
                t.shares_corrupted,
                t.quarantined_links,
                if t.violations.is_empty() { "" } else { " VIOLATIONS" },
            );
            for v in &t.violations {
                println!("    !! {v}");
            }
        }
        println!("\n{} trials, {} invariant violations", report.trials.len(), report.violations);
        if let Some(path) = json_path {
            write_report(tenants_report_to_json(&report), &path);
        }
        if !report.ok() {
            eprintln!("chaos_soak: invariant violations detected");
            std::process::exit(1);
        }
        return;
    }

    println!(
        "chaos_soak: {} trials on Q_{}, seed {} (even trials static fail-stop, odd dynamic)",
        cfg.trials, cfg.dims, cfg.seed
    );
    let report = match &pool {
        Some(p) => p.install(|| run_chaos(&cfg)),
        None => run_chaos(&cfg),
    };
    for t in &report.trials {
        println!(
            "  trial {:3} [{}]: faults={} events={} corrupting={} | packets {}d/{}l/{}c | \
             worms {}l/{}c | oracle {}r/{}l | adaptive {}r/{}l ({} rejected){}{}",
            t.trial,
            if t.static_fail_stop { "static " } else { "dynamic" },
            t.initial_faults,
            t.events,
            t.corrupting_links,
            t.packet_delivered,
            t.packet_lost,
            t.packet_corrupted,
            t.worm_lost,
            t.worm_corrupted,
            t.oracle_recovered,
            t.oracle_lost,
            t.adaptive_recovered,
            t.adaptive_lost,
            t.adaptive_rejected,
            if t.dominance_violation { " [adaptive beat oracle]" } else { "" },
            if t.violations.is_empty() { "" } else { " VIOLATIONS" },
        );
        for v in &t.violations {
            println!("    !! {v}");
        }
    }
    println!(
        "\n{} trials, {} invariant violations, {} informational dominance inversions",
        report.trials.len(),
        report.violations,
        report.dominance_violations
    );

    if let Some(path) = json_path {
        write_report(report_to_json(&report), &path);
    }

    if !report.ok() {
        eprintln!("chaos_soak: invariant violations detected");
        std::process::exit(1);
    }
}
