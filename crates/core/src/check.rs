//! Static verification of a full system specification.
//!
//! [`SystemSpec`] bundles everything admission consumes — a platform,
//! framework options, and task specifications — and [`SystemSpec::check`]
//! runs every `rtmdm-check` pass over it in dependency order:
//!
//! 1. **platform** sanity (`RTM040`);
//! 2. per-task **graph** lints (`RTM03x`) and spec-level **timing**
//!    lints (`RTM020`/`RTM021`), which need no platform;
//! 3. per-task **plan** well-formedness (`RTM01x`) and **staging** race
//!    detection (`RTM00x`) over the same lowering admission would use;
//! 4. the **SRAM layout** replayed through the arena allocator and
//!    checked for aliasing and overflow (`RTM003`/`RTM004`);
//! 5. set-level **admission** lints (`RTM02x`, `RTM041`) over the
//!    priority-ordered task set.
//!
//! [`RtMdm::admit`] runs the same verification first and refuses
//! admission with [`AdmitError::Check`](crate::AdmitError::Check) when
//! any *structural* error is present (see
//! [`Rule::blocks_admission`](rtmdm_check::Rule::blocks_admission));
//! feasibility lints never block, so an overloaded-but-well-formed set
//! still admits to an unschedulable verdict.

use rtmdm_check::{
    check_model, check_plan, check_platform, check_sram_regions, check_staging, check_taskset,
    check_timing, AdmissionContext, ExploreLimits, ExploreStats, ExploreStrategy, Finding, Report,
    Rule, SramRegion, Witness,
};
use rtmdm_mcusim::{Cycles, PlatformConfig};
use rtmdm_sched::analysis::hyperperiod;
use rtmdm_sched::sim::{Policy, SimConfig};
use rtmdm_sched::TaskSet;
use rtmdm_xmem::{PlanError, SramArena};

use crate::error::AdmitError;
use crate::framework::{
    lower_specs, priority_order_for, weight_region_bytes, FrameworkOptions, Lowered, RtMdm,
};
use crate::spec::{Strategy, TaskSpec};

/// Parameters of the opt-in exhaustive schedule-space exploration
/// (`RTM05x`), run by [`SystemSpec::check_with`] after the static
/// passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Budget on distinct canonical `(state, choice-point)` pairs;
    /// exceeding it yields `RTM053` (inconclusive, never silently
    /// safe).
    pub max_states: usize,
    /// Upper endpoint of the release-jitter dimension, in microseconds;
    /// zero (the default) keeps arrivals strictly periodic.
    pub jitter_max_us: u64,
    /// Lower endpoint of the per-job execution-time interval, in ppm of
    /// WCET; `1_000_000` (the default) pins every job at WCET.
    pub exec_scale_min_ppm: u64,
    /// Exploration horizon in microseconds. `None` (the default)
    /// derives it as one hyperperiod plus the largest deadline, falling
    /// back to three times the largest period when the hyperperiod
    /// overflows (that fallback is a bounded probe, not full coverage —
    /// the admission lint `RTM025` already flags such sets).
    pub horizon_us: Option<u64>,
    /// Staging-window width handed to the simulator; the default `2` is
    /// the double-buffer discipline. Wider windows exist for `RTM051`
    /// reachability experiments.
    pub staging_window: u32,
    /// Path-execution strategy (`--strategy replay|fork`). Verdicts,
    /// counters, and witnesses are byte-identical across strategies;
    /// `Fork` (the default) is the cheaper one.
    pub strategy: ExploreStrategy,
    /// Worker threads for speculative path execution (`--threads`);
    /// `0` (the default) defers to `RTMDM_THREADS` / available
    /// parallelism. Outputs are byte-identical at any count.
    pub threads: usize,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            max_states: 20_000,
            jitter_max_us: 0,
            exec_scale_min_ppm: 1_000_000,
            horizon_us: None,
            staging_window: 2,
            strategy: ExploreStrategy::default(),
            threads: 0,
        }
    }
}

/// Options for [`SystemSpec::check_with`]; the default runs exactly the
/// static passes of [`SystemSpec::check`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckOptions {
    /// When set, runs the exhaustive schedule-space explorer after the
    /// static passes (on a spec free of blocking structural errors).
    pub explore: Option<ExploreOptions>,
}

/// The result of [`SystemSpec::check_with`]: the diagnostic report plus
/// the exploration artifacts when exploration ran.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// All findings — static passes first, exploration verdicts after.
    pub report: Report,
    /// The replayable counterexample behind an `RTM050`–`RTM052`
    /// finding.
    pub witness: Option<Witness>,
    /// Search counters; `None` when exploration did not run (not
    /// requested, or the spec had blocking structural errors).
    pub explore_stats: Option<ExploreStats>,
}

/// A complete system specification for static verification: what
/// [`RtMdm`] admission consumes, but constructible without going
/// through (and being rejected by) `add_task`'s eager validation — the
/// verifier's job is to explain broken specs, not to refuse them.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Target platform (checked, not assumed valid).
    pub platform: PlatformConfig,
    /// Framework options the admission would run with.
    pub options: FrameworkOptions,
    /// Task specifications in insertion order.
    pub tasks: Vec<TaskSpec>,
}

impl SystemSpec {
    /// Creates a spec for `platform` with default options and no tasks.
    pub fn new(platform: PlatformConfig) -> Self {
        SystemSpec::with_options(platform, FrameworkOptions::default())
    }

    /// Creates a spec with explicit options and no tasks.
    pub fn with_options(platform: PlatformConfig, options: FrameworkOptions) -> Self {
        SystemSpec {
            platform,
            options,
            tasks: Vec::new(),
        }
    }

    /// Adds a task specification (no validation — that is `check`'s
    /// job).
    pub fn push(&mut self, spec: TaskSpec) -> &mut Self {
        self.tasks.push(spec);
        self
    }

    /// Runs every static pass and returns the combined report.
    pub fn check(&self) -> Report {
        // Lowering needs a valid platform (cycle conversions divide by
        // its bandwidth); on an invalid one the passes stop before
        // reading the lowerings.
        let lowered = match self.platform.validate() {
            Ok(()) => lower_specs(&self.platform, &self.options, &self.tasks),
            Err(_) => Vec::new(),
        };
        static_passes(&self.platform, &self.options, &self.tasks, &lowered)
    }

    /// Runs the static passes, then — when requested and the spec has
    /// no blocking structural errors — the exhaustive schedule-space
    /// explorer over the lowered, priority-ordered task set.
    ///
    /// Exploration findings (`RTM050`–`RTM053`) are appended to the
    /// report; a violation additionally carries a self-contained
    /// [`Witness`] that replays the violating run byte for byte.
    pub fn check_with(&self, options: &CheckOptions) -> CheckOutcome {
        let report = self.check();
        let Some(x) = &options.explore else {
            return CheckOutcome {
                report,
                witness: None,
                explore_stats: None,
            };
        };
        // A structurally broken spec cannot be lowered and simulated;
        // the blocking findings already tell the whole story.
        let ordered = if report.blocks_admission() {
            None
        } else {
            self.lowered_ordered()
        };
        let Some(ordered) = ordered else {
            return CheckOutcome {
                report,
                witness: None,
                explore_stats: None,
            };
        };
        let horizon = match x.horizon_us {
            Some(us) => self.platform.cpu.cycles_from_micros(us),
            None => auto_horizon(&ordered),
        };
        let config = SimConfig {
            horizon,
            policy: self.options.policy,
            exec_scale_min_ppm: x.exec_scale_min_ppm,
            seed: 0,
            work_conserving: self.options.work_conserving,
            fault: self.options.fault,
            attribution: true,
            staging_window: x.staging_window,
        };
        let limits = ExploreLimits {
            max_states: x.max_states,
            jitter_max_cycles: self.platform.cpu.cycles_from_micros(x.jitter_max_us).get(),
            strategy: x.strategy,
            threads: x.threads,
            ..ExploreLimits::default()
        };
        let outcome = rtmdm_check::explore(&ordered, &self.platform, &config, &limits);
        let mut report = report;
        report.extend(outcome.findings);
        CheckOutcome {
            report,
            witness: outcome.witness,
            explore_stats: Some(outcome.stats),
        }
    }

    /// Lowers every task exactly as admission would and returns the
    /// priority-ordered set, or `None` when any task fails to lower or
    /// the spec is empty (the static passes report why).
    fn lowered_ordered(&self) -> Option<TaskSet> {
        let tasks = lower_specs(&self.platform, &self.options, &self.tasks)
            .into_iter()
            .map(|l| l.ok().map(|l| l.task))
            .collect::<Option<Vec<_>>>()?;
        if tasks.is_empty() {
            return None;
        }
        let ts = TaskSet::from_tasks(tasks);
        let order = priority_order_for(&self.platform, &self.options, &ts);
        Some(ts.reordered(&order))
    }
}

/// Replays the SRAM layout through the arena allocator and checks the
/// placed regions for aliasing and overflow.
fn check_sram(
    platform: &PlatformConfig,
    options: &FrameworkOptions,
    specs: &[TaskSpec],
) -> Vec<Finding> {
    let mut arena = SramArena::new(platform.sram_bytes);
    let mut regions = Vec::new();
    let mut place = |arena: &mut SramArena, label: String, bytes: Result<u64, PlanError>| {
        // The arena rejects zero-size requests; a degenerate spec
        // still gets a 1-byte region so layout checking proceeds.
        let placed = bytes.and_then(|bytes| {
            let handle = arena.alloc(label.clone(), bytes.max(1), 8)?;
            Ok((handle, bytes.max(1)))
        });
        match placed {
            Ok((handle, bytes)) => {
                if let Some(offset) = arena.offset_of(handle) {
                    regions.push(SramRegion::new(label, offset, bytes));
                }
                None
            }
            Err(e) => Some(Finding::new(
                Rule::Rtm004,
                format!("SRAM layout fails at region `{label}`: {e}"),
            )),
        }
    };
    let reserve = rtmdm_xmem::SramLayout::RUNTIME_RESERVE;
    if let Some(f) = place(&mut arena, "runtime-reserve".to_owned(), Ok(reserve)) {
        return vec![f];
    }
    for spec in specs {
        let act = spec.resolved_activation_bytes();
        if let Some(f) = place(&mut arena, format!("{}-activations", spec.name), Ok(act)) {
            return vec![f];
        }
        let weights = weight_region_bytes(options, spec);
        if let Some(f) = place(&mut arena, format!("{}-weights", spec.name), weights) {
            return vec![f];
        }
    }
    check_sram_regions(&regions, platform.sram_bytes)
}

/// Every static pass over `specs`, given their lowerings (one per spec,
/// in spec order, from [`lower_specs`]). `lowered` is read only when
/// the platform is valid, so callers may pass an empty slice for an
/// invalid one.
pub(crate) fn static_passes(
    platform: &PlatformConfig,
    options: &FrameworkOptions,
    specs: &[TaskSpec],
    lowered: &[Result<Lowered, AdmitError>],
) -> Report {
    let mut report = Report::new();

    report.extend(check_platform(platform));
    let platform_ok = report.is_clean();

    // Platform-independent passes run unconditionally.
    for spec in specs {
        report.extend(
            check_model(&spec.model)
                .into_iter()
                .map(|f| f.with_task(spec.name.clone())),
        );
        report.extend(check_timing(&spec.name, spec.period_us, spec.deadline_us));
    }
    if !platform_ok {
        // Cycle conversions and bus timings are meaningless (or divide
        // by zero) on an invalid platform.
        return report;
    }

    // Check the plans of each task lowered exactly as admission lowers
    // it. Staging-race analysis applies to the pre-spill plan: spill
    // extras are additional staging traffic, not part of the
    // double-buffered weight discipline.
    let mut tasks = Vec::with_capacity(specs.len());
    for (spec, lowered) in specs.iter().zip(lowered) {
        match lowered {
            Ok(lowered) => {
                report.extend(
                    check_plan(&lowered.pre_plan, &spec.model, &options.cost_model)
                        .into_iter()
                        .map(|f| f.with_task(spec.name.clone())),
                );
                if lowered.strategy == Strategy::RtMdm {
                    report.extend(
                        check_staging(&lowered.pre_plan, platform)
                            .into_iter()
                            .map(|f| f.with_task(spec.name.clone())),
                    );
                }
                tasks.push(lowered.task.clone());
            }
            Err(AdmitError::Memory(e)) => {
                // An unrealizable segmentation is a plan error.
                report.push(
                    Finding::new(Rule::Rtm012, e.to_string())
                        .with_task(spec.name.clone())
                        .with_model(spec.model.name().to_owned()),
                );
            }
            // Timing inconsistencies are already covered by
            // `check_timing` above.
            Err(_) => {}
        }
    }

    report.extend(check_sram(platform, options, specs));

    // Set-level lints need every task lowered.
    if !tasks.is_empty() && tasks.len() == specs.len() {
        let ts = TaskSet::from_tasks(tasks);
        let order = priority_order_for(platform, options, &ts);
        let ordered = ts.reordered(&order);
        let ctx = AdmissionContext {
            edf: matches!(options.policy, Policy::Edf),
            work_conserving: options.work_conserving,
            dma_aware: options.dma_aware_analysis,
        };
        report.extend(check_taskset(&ordered, platform, &ctx));
    }

    report
}

/// One hyperperiod plus the largest deadline — the synchronous-pattern
/// coverage horizon — or three times the largest period when the
/// hyperperiod overflows the simulation cap.
fn auto_horizon(ts: &TaskSet) -> Cycles {
    let d_max = ts
        .tasks()
        .iter()
        .map(|t| t.deadline)
        .max()
        .unwrap_or(Cycles::ZERO);
    let p_max = ts
        .tasks()
        .iter()
        .map(|t| t.period)
        .max()
        .unwrap_or(Cycles::ZERO);
    match hyperperiod(ts).and_then(|h| h.checked_add(d_max)) {
        Some(h) => h,
        None => p_max * 3,
    }
}

impl RtMdm {
    /// Runs the static verifier over this framework's platform, options,
    /// and task specifications. [`RtMdm::admit`] calls this implicitly
    /// and rejects on error-level structural findings.
    pub fn check(&self) -> Report {
        self.system_spec().check()
    }

    /// [`RtMdm::check`] plus the opt-in exhaustive schedule-space
    /// exploration (see [`SystemSpec::check_with`]).
    pub fn check_with(&self, options: &CheckOptions) -> CheckOutcome {
        self.system_spec().check_with(options)
    }

    fn system_spec(&self) -> SystemSpec {
        SystemSpec {
            platform: self.platform().clone(),
            options: self.options().clone(),
            tasks: self.specs().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmdm_dnn::zoo;

    fn platform() -> PlatformConfig {
        PlatformConfig::stm32f746_qspi()
    }

    #[test]
    fn shipped_configurations_check_clean() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000));
        let report = spec.check();
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn bad_deadline_is_a_non_blocking_error_free_zone() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 200_000));
        let report = spec.check();
        assert!(report.findings.iter().any(|f| f.rule == Rule::Rtm020));
        assert!(report.blocks_admission());
    }

    #[test]
    fn invalid_platform_reports_rtm040_and_stops() {
        let mut spec = SystemSpec::new(platform().with_sram_bytes(16));
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        let report = spec.check();
        assert!(report.findings.iter().any(|f| f.rule == Rule::Rtm040));
        assert!(report.findings.iter().all(|f| matches!(
            f.rule,
            Rule::Rtm040 | Rule::Rtm020 | Rule::Rtm021
        ) || f.rule.category()
            == rtmdm_check::Category::Graph));
    }

    #[test]
    fn sram_overflow_is_reported_as_rtm004() {
        let mut spec = SystemSpec::new(platform().with_sram_bytes(48 * 1024));
        spec.push(
            TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                .with_strategy(Strategy::AllInSram),
        );
        let report = spec.check();
        assert!(
            report.findings.iter().any(|f| f.rule == Rule::Rtm004),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn undersized_buffer_is_reported_as_rtm012() {
        let mut spec = SystemSpec::new(platform());
        spec.push(
            TaskSpec::new("vww", zoo::mobilenet_v1_025(), 500_000, 500_000)
                .with_buffer_bytes(4 * 1024),
        );
        let report = spec.check();
        assert!(
            report.findings.iter().any(|f| f.rule == Rule::Rtm012),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn overload_lints_do_not_block_admission() {
        // resnet8 every 10 ms is hopeless but structurally fine: the
        // report carries feasibility lints yet admission still runs to
        // an unschedulable verdict (CLI exit-2 semantics).
        let mut f = RtMdm::new(platform()).expect("platform");
        f.add_task(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000))
            .expect("add");
        let report = f.check();
        assert!(!report.is_clean());
        assert!(!report.blocks_admission(), "{}", report.render_text());
        let admission = f.admit().expect("admission proceeds");
        assert!(!admission.schedulable());
    }

    #[test]
    fn explore_admitted_cell_is_proven_safe() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 400_000, 400_000));
        let outcome = spec.check_with(&CheckOptions {
            explore: Some(ExploreOptions::default()),
        });
        assert!(
            outcome.report.is_clean(),
            "{}",
            outcome.report.render_text()
        );
        let stats = outcome.explore_stats.expect("exploration ran");
        assert!(stats.complete, "default lattice must be covered");
        assert!(outcome.witness.is_none());
    }

    #[test]
    fn explore_overload_yields_rtm050_with_replayable_witness() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("ic", zoo::resnet8(), 10_000, 10_000));
        let outcome = spec.check_with(&CheckOptions {
            explore: Some(ExploreOptions::default()),
        });
        assert!(
            outcome
                .report
                .findings
                .iter()
                .any(|f| f.rule == Rule::Rtm050),
            "{}",
            outcome.report.render_text()
        );
        let w = outcome.witness.expect("violation carries a witness");
        let replay = w.replay();
        let miss = replay
            .trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, rtmdm_mcusim::TraceKind::DeadlineMissed { .. }))
            .expect("replay reproduces the miss");
        assert_eq!(miss.time.get(), w.at);
    }

    #[test]
    fn explore_skips_structurally_broken_specs() {
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 200_000));
        let outcome = spec.check_with(&CheckOptions {
            explore: Some(ExploreOptions::default()),
        });
        assert!(outcome.report.blocks_admission());
        assert!(outcome.explore_stats.is_none(), "nothing to simulate");
        assert!(outcome.witness.is_none());
    }

    #[test]
    fn framework_check_matches_system_spec_check() {
        let mut f = RtMdm::new(platform()).expect("platform");
        f.add_task(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000))
            .expect("add");
        let mut spec = SystemSpec::new(platform());
        spec.push(TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000));
        assert_eq!(f.check().to_json(), spec.check().to_json());
    }
}
