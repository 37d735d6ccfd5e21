//! Integration gate for the admission service's cache-correctness
//! invariant:
//!
//! > A warm answer (served from the content-addressed cache) is
//! > byte-identical to the cold answer (computed by a fresh service
//! > with every cache empty) for the same request line — across random
//! > task sets, platforms, analysis options, and single-task
//! > mutations — and a batch's bytes never depend on the worker count.
//!
//! This is what makes `rtmdm serve` sound: responses carry no
//! hit-versus-miss marker, so the only way the invariant can hold is
//! for the answer cache to hold the exact value the direct computation
//! produces. A differential property pins that direct computation:
//! a fresh service's verdict, occupancy, RTA bounds and headroom equal
//! a plain `RtMdm::admit` of the same specs. Hostile inputs (2^63 and
//! 2^64 − 1 byte fetch buffers, other 64-bit extremes and a zero
//! period, a 200 000-deep JSON array) must yield one record each —
//! rejects and error records, never a panic or an unsound admit — and
//! a property draws every numeric wire field from integer extremes
//! and checks the same two promises.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rt_mdm::core::{Admission, AdmitError, FrameworkOptions, RtMdm, Service, TaskSpec};
use rt_mdm::dnn::zoo;
use rt_mdm::mcusim::PlatformConfig;
use rt_mdm::sched::analysis::{critical_scaling_ppm, SchedulerMode};
use rt_mdm::sched::sim::Policy;
use rt_mdm::sched::{Segment, SporadicTask, StagingMode, TaskSet};

const PLATFORMS: &[&str] = &[
    "cortex-m4-lowend",
    "stm32f746-qspi",
    "stm32h743-ospi",
    "ideal-sram",
];

const MODELS: &[&str] = &[
    "micro-mlp",
    "ds-cnn",
    "lenet5",
    "resnet8",
    "mobilenet-v1-025",
    "autoencoder",
];

const PERIODS_US: &[u64] = &[20_000, 50_000, 100_000, 200_000, 500_000];

fn pick<'a, T: ?Sized>(rng: &mut StdRng, pool: &'a [&'a T]) -> &'a T {
    pool[rng.gen_range(0..pool.len())]
}

/// One random well-formed request, kept structured so it can be both
/// rendered as a wire line and admitted directly.
struct Request {
    platform: &'static str,
    edf: bool,
    oblivious: bool,
    work_conserving: bool,
    tasks: Vec<Task>,
}

struct Task {
    model: &'static str,
    period_us: u64,
    deadline_us: Option<u64>,
    buffer_bytes: Option<u64>,
    activation_budget_bytes: Option<u64>,
}

/// Draws one random request. The drawn space covers every platform
/// preset, every zoo model, both policies, the dma-awareness and
/// work-conserving ablations, explicit and defaulted deadlines, and
/// occasional buffer/activation-budget overrides.
fn draw_request(rng: &mut StdRng) -> Request {
    let platform = pick(rng, PLATFORMS);
    let edf = rng.gen_bool(0.3);
    let oblivious = rng.gen_bool(0.3);
    let work_conserving = rng.gen_bool(0.3);
    let n_tasks = rng.gen_range(1..=3usize);
    let tasks = (0..n_tasks)
        .map(|_| {
            let model = pick(rng, MODELS);
            let period_us = PERIODS_US[rng.gen_range(0..PERIODS_US.len())];
            Task {
                model,
                period_us,
                deadline_us: rng
                    .gen_bool(0.5)
                    .then(|| period_us * rng.gen_range(60..=100u64) / 100),
                buffer_bytes: rng.gen_bool(0.25).then(|| 4096 * rng.gen_range(1..=8u64)),
                activation_budget_bytes: rng
                    .gen_bool(0.25)
                    .then(|| 1024 * rng.gen_range(8..=64u64)),
            }
        })
        .collect();
    Request {
        platform,
        edf,
        oblivious,
        work_conserving,
        tasks,
    }
}

impl Request {
    fn line(&self, id: &str) -> String {
        let mut options = Vec::new();
        if self.edf {
            options.push(r#""policy":"edf""#.to_owned());
        }
        if self.oblivious {
            options.push(r#""dma_aware_analysis":false"#.to_owned());
        }
        if self.work_conserving {
            options.push(r#""work_conserving":true"#.to_owned());
        }
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut fields = vec![
                    format!(r#""name":"t{i}""#),
                    format!(r#""model":"{}""#, t.model),
                    format!(r#""period_us":{}"#, t.period_us),
                ];
                if let Some(d) = t.deadline_us {
                    fields.push(format!(r#""deadline_us":{d}"#));
                }
                if let Some(b) = t.buffer_bytes {
                    fields.push(format!(r#""buffer_bytes":{b}"#));
                }
                if let Some(b) = t.activation_budget_bytes {
                    fields.push(format!(r#""activation_budget_bytes":{b}"#));
                }
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        format!(
            r#"{{"id":"{id}","platform":"{}","options":{{{}}},"tasks":[{}]}}"#,
            self.platform,
            options.join(","),
            tasks.join(",")
        )
    }

    fn platform(&self) -> PlatformConfig {
        PlatformConfig::presets()
            .into_iter()
            .find(|p| p.name == self.platform)
            .expect("preset")
    }

    fn options(&self) -> FrameworkOptions {
        FrameworkOptions {
            policy: if self.edf {
                Policy::Edf
            } else {
                Policy::FixedPriority
            },
            dma_aware_analysis: !self.oblivious,
            work_conserving: self.work_conserving,
            ..FrameworkOptions::default()
        }
    }

    /// The framework the request describes, with every task added.
    fn framework(&self) -> Result<RtMdm, AdmitError> {
        let mut fw = RtMdm::with_options(self.platform(), self.options())?;
        for (i, t) in self.tasks.iter().enumerate() {
            let model = zoo::by_name(t.model).expect("zoo model");
            let mut spec = TaskSpec::new(
                format!("t{i}"),
                model,
                t.period_us,
                t.deadline_us.unwrap_or(t.period_us),
            );
            if let Some(b) = t.buffer_bytes {
                spec = spec.with_buffer_bytes(b);
            }
            if let Some(b) = t.activation_budget_bytes {
                spec = spec.with_activation_budget(b);
            }
            fw.add_task(spec)?;
        }
        Ok(fw)
    }
}

fn random_request(rng: &mut StdRng, id: &str) -> String {
    draw_request(rng).line(id)
}

/// The raw text of a scalar response field (`"key":value`).
fn field<'a>(answer: &'a str, key: &str) -> &'a str {
    let pat = format!(r#""{key}":"#);
    let start = answer
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key}: {answer}"))
        + pat.len();
    let end = answer[start..]
        .find([',', '}'])
        .expect("field is terminated")
        + start;
    &answer[start..end]
}

/// Every RTA row's `wcrt_cycles`, in priority order.
fn wcrts(answer: &str) -> Vec<Option<u64>> {
    answer
        .match_indices(r#""wcrt_cycles":"#)
        .map(|(i, _)| field(&answer[i..], "wcrt_cycles").parse().ok())
        .collect()
}

/// The admitted, priority-ordered task set rebuilt from the public
/// admission record (the rt-mdm strategy lowers each segmentation
/// plan to one overlapped-staging task).
fn admitted_order(req: &Request, admission: &rt_mdm::core::Admission) -> TaskSet {
    let cpu = req.platform().cpu;
    let tasks = req
        .tasks
        .iter()
        .zip(&admission.plans)
        .enumerate()
        .map(|(i, (t, plan))| {
            SporadicTask::new(
                format!("t{i}"),
                cpu.cycles_from_micros(t.period_us),
                cpu.cycles_from_micros(t.deadline_us.unwrap_or(t.period_us)),
                plan.segments
                    .iter()
                    .map(|s| Segment::new(s.compute_cycles, s.fetch_bytes))
                    .collect(),
                StagingMode::Overlapped,
            )
            .expect("admitted task is valid")
        })
        .collect();
    TaskSet::from_tasks(tasks).reordered(&admission.order)
}

/// Mutates one task of a request line: a different period (the nearest
/// cache-relevant perturbation — everything but that one task's
/// lowering should be reusable).
fn mutate_period(line: &str, new_period: u64) -> String {
    let start = line.find(r#""period_us":"#).expect("request has a period") + 12;
    let end = start
        + line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("digits end");
    format!("{}{}{}", &line[..start], new_period, &line[end..])
}

/// The id is echoed verbatim; strip it so responses to the same
/// question under different ids can be compared.
fn strip_id(answer: &str) -> String {
    let start = answer.find(r#""id":"#).expect("answer has an id");
    let end = answer[start..].find(',').expect("id is not last") + start;
    format!("{}{}", &answer[..start], &answer[end + 1..])
}

fn cold(line: &str) -> String {
    Service::new().answer_line(line)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Warm answers are byte-identical to cold ones across random
    /// requests and single-task mutations, including re-asking after
    /// the mutation (a full-answer cache hit).
    #[test]
    fn warm_equals_cold_under_mutation(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_request(&mut rng, "q-base");
        let mutated = mutate_period(&base, 1_000_000);

        let service = Service::new();
        let warm_base_first = service.answer_line(&base);
        let warm_mut = service.answer_line(&mutated);
        let warm_base_again = service.answer_line(&base);

        prop_assert_eq!(&warm_base_first, &cold(&base), "first ask vs cold");
        prop_assert_eq!(&warm_mut, &cold(&mutated), "mutated ask vs cold");
        prop_assert_eq!(&warm_base_again, &warm_base_first, "cache hit changed bytes");

        let stats = service.stats();
        prop_assert_eq!(stats.queries, 3);
        prop_assert!(stats.answers_reused >= 1, "third ask must hit the answer cache");
    }

    /// One batch, two worker counts, byte-identical output vectors:
    /// results depend on input order only, never on which thread
    /// answered which line.
    #[test]
    fn thread_count_never_changes_bytes(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines = Vec::new();
        for i in 0..4 {
            let line = random_request(&mut rng, &format!("q-{i}"));
            // Duplicates (fresh ids) exercise hit-vs-miss races between
            // workers; the malformed line exercises error records.
            lines.push(line.clone());
            lines.push(line.replace(r#""id":"q-"#, r#""id":"dup-"#));
        }
        lines.push("{not json".to_owned());

        let one = Service::new().answer_batch_with_threads(1, lines.clone());
        let eight = Service::new().answer_batch_with_threads(8, lines.clone());
        prop_assert_eq!(&one, &eight, "worker count changed batch bytes");
        prop_assert_eq!(one.len(), lines.len());
        prop_assert!(one.last().unwrap().contains(r#""ok":false"#));
    }

    /// A fresh service's answer is the direct admission: same verdict,
    /// occupancy and RTA bounds as `RtMdm::admit` of the same specs,
    /// and, for admitted fixed-priority dma-aware sets, the headroom
    /// is `critical_scaling_ppm` of the admitted order.
    #[test]
    fn service_answers_equal_direct_admission(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = draw_request(&mut rng);
        let answer = cold(&req.line("q"));
        match req.framework().and_then(|fw| fw.admit()) {
            Ok(admission) => {
                let verdict = if admission.schedulable() { "\"admit\"" } else { "\"reject\"" };
                prop_assert_eq!(field(&answer, "verdict"), verdict, "{}", answer);
                prop_assert_eq!(field(&answer, "occupancy_ppm"), admission.occupancy_ppm.to_string());
                let want: Vec<Option<u64>> = (0..admission.names.len())
                    .map(|p| admission.analysis.response_of(p).map(|r| r.get()))
                    .collect();
                prop_assert_eq!(wcrts(&answer), want);
                let headroom: u64 = field(&answer, "headroom_ppm").parse().expect("integer");
                if admission.schedulable() && !req.edf && !req.oblivious {
                    let mode = if req.work_conserving {
                        SchedulerMode::WorkConserving
                    } else {
                        SchedulerMode::Gated
                    };
                    let ordered = admitted_order(&req, &admission);
                    prop_assert_eq!(headroom, critical_scaling_ppm(&ordered, &req.platform(), mode));
                } else {
                    prop_assert_eq!(headroom, 0);
                }
            }
            Err(_) => {
                prop_assert_eq!(field(&answer, "verdict"), "\"reject\"", "{}", answer);
                prop_assert_eq!(field(&answer, "occupancy_ppm"), "0");
                prop_assert!(wcrts(&answer).is_empty());
            }
        }
    }
}

/// Fetch buffers whose double buffer does not fit in 64 bits are
/// memory rejects: 2^63 used to wrap to a zero-byte region and panic
/// the server, 2^64 − 1 to wrap into a tiny region and admit a plan no
/// SRAM can hold.
#[test]
fn hostile_buffer_sizes_reject_instead_of_panicking_or_admitting() {
    for buffer in [1u64 << 63, u64::MAX] {
        let line = format!(
            r#"{{"id":"h","tasks":[{{"name":"kws","model":"ds-cnn","period_us":100000,"buffer_bytes":{buffer}}}]}}"#
        );
        let answer = Service::new().answer_line(&line);
        assert!(answer.contains(r#""ok":true"#), "{answer}");
        assert!(answer.contains(r#""verdict":"reject""#), "{answer}");
        assert!(answer.contains("overflows 64 bits"), "{answer}");
        assert!(answer.contains("RTM004"), "{answer}");

        let mut fw = RtMdm::new(PlatformConfig::stm32f746_qspi()).expect("platform");
        fw.add_task(
            TaskSpec::new("kws", zoo::ds_cnn(), 100_000, 100_000).with_buffer_bytes(buffer),
        )
        .expect("segmentation accepts any buffer large enough");
        let err = fw.admit().expect_err("must not admit");
        assert!(matches!(err, AdmitError::Memory(_)), "{err}");
    }
}

/// One-task lines with a field at an integer extreme are each answered
/// with exactly one `ok:true` record — never a panic — and an
/// activation budget of 2^64 − 1 bytes is a memory reject.
#[test]
fn extreme_integer_fields_answer_one_record_each() {
    let max = u64::MAX;
    let line = |options: &str, task: &str| {
        format!(
            r#"{{"id":"x","platform":"stm32f746-qspi","options":{{{options}}},"tasks":[{{"name":"kws","model":"ds-cnn",{task}}}]}}"#
        )
    };
    let lines = vec![
        line("", &format!(r#""period_us":{max}"#)),
        line(
            &format!(r#""segment_compute_cap_us":{max}"#),
            r#""period_us":100000"#,
        ),
        line(
            "",
            &format!(r#""period_us":100000,"activation_budget_bytes":{max}"#),
        ),
        line("", &format!(r#""period_us":100000,"deadline_us":{max}"#)),
        line("", r#""period_us":0"#),
    ];
    let out = Service::new().answer_batch(lines.clone());
    assert_eq!(out.len(), lines.len());
    for (line, answer) in lines.iter().zip(&out) {
        assert!(!answer.contains('\n'), "{answer}");
        assert_eq!(
            answer.matches(r#""ok":true"#).count(),
            1,
            "{line}: {answer}"
        );
    }
    assert!(out[2].contains(r#""verdict":"reject""#), "{}", out[2]);
    assert!(out[2].contains("memory planning"), "{}", out[2]);
    assert!(out[2].contains("RTM004"), "{}", out[2]);
}

/// The integer extremes the adversarial property draws each numeric
/// wire field from, besides one sane value per field.
const EXTREMES: [u64; 5] = [0, 1, 1 << 32, 1 << 63, u64::MAX];

/// `sane` half the time, otherwise one of [`EXTREMES`] uniformly. The
/// even split keeps some requests admissible, so the SRAM invariant
/// sees admitted sets with an extreme field or two.
fn adversarial(rng: &mut StdRng, sane: u64) -> u64 {
    if rng.gen_bool(0.5) {
        sane
    } else {
        EXTREMES[rng.gen_range(0..EXTREMES.len())]
    }
}

/// An adversarial request on the reference platform, every numeric
/// wire field set: its wire line and the direct admission of the same
/// specs (`None` when the framework refuses them).
fn hostile_request(rng: &mut StdRng, id: &str) -> (String, Option<Admission>) {
    let cap = adversarial(rng, 10_000);
    let mut wire = Vec::new();
    let mut specs = Vec::new();
    for i in 0..rng.gen_range(1..=2usize) {
        let model = if rng.gen_bool(0.5) {
            "ds-cnn"
        } else {
            "micro-mlp"
        };
        let period = adversarial(rng, 100_000);
        let deadline = adversarial(rng, 100_000);
        let buffer = adversarial(rng, 64 * 1024);
        let budget = adversarial(rng, 64 * 1024);
        wire.push(format!(
            r#"{{"name":"t{i}","model":"{model}","period_us":{period},"deadline_us":{deadline},"buffer_bytes":{buffer},"activation_budget_bytes":{budget}}}"#
        ));
        specs.push(
            TaskSpec::new(
                format!("t{i}"),
                zoo::by_name(model).expect("zoo model"),
                period,
                deadline,
            )
            .with_buffer_bytes(buffer)
            .with_activation_budget(budget),
        );
    }
    let line = format!(
        r#"{{"id":"{id}","platform":"stm32f746-qspi","options":{{"segment_compute_cap_us":{cap}}},"tasks":[{}]}}"#,
        wire.join(",")
    );
    let options = FrameworkOptions {
        segment_compute_cap_us: Some(cap),
        ..FrameworkOptions::default()
    };
    let mut fw = RtMdm::with_options(PlatformConfig::stm32f746_qspi(), options).expect("platform");
    for spec in specs {
        if fw.add_task(spec).is_err() {
            return (line, None);
        }
    }
    (line, fw.admit().ok())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every numeric wire field at an integer extreme: each line gets
    /// exactly one single-line record (never a panic), and no set that
    /// direct admission accepts holds SRAM rows summing past the
    /// platform's SRAM.
    #[test]
    fn adversarial_integers_answer_once_and_never_overfill_sram(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<_> = (0..3)
            .map(|i| hostile_request(&mut rng, &format!("adv-{i}")))
            .collect();
        let lines: Vec<String> = requests.iter().map(|(line, _)| line.clone()).collect();
        let out = Service::new().answer_batch(lines.clone());
        prop_assert_eq!(out.len(), lines.len());
        for (line, answer) in lines.iter().zip(&out) {
            prop_assert!(!answer.contains('\n'), "{}: {}", line, answer);
            prop_assert!(answer.starts_with(r#"{"schema":"rtmdm-serve/1""#), "{}: {}", line, answer);
            prop_assert_eq!(answer.matches(r#""ok":"#).count(), 1, "{}: {}", line, answer);
        }
        let sram = PlatformConfig::stm32f746_qspi().sram_bytes;
        for (line, direct) in &requests {
            if let Some(admission) = direct {
                let used = admission.sram.iter().try_fold(0u64, |acc, row| {
                    acc.checked_add(row.activation_bytes)?.checked_add(row.weight_bytes)
                });
                prop_assert!(
                    used.is_some_and(|bytes| bytes <= sram),
                    "{}: SRAM rows {:?} exceed {} bytes",
                    line,
                    admission.sram,
                    sram
                );
            }
        }
    }
}

/// A 200 000-deep array is an error record, not a stack overflow, and
/// the lines around it are answered normally.
#[test]
fn deeply_nested_line_is_an_error_record() {
    let good = r#"{"id":"ok","tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
    let deep = "[".repeat(200_000);
    let service = Service::new();
    let out = service.answer_batch_with_threads(2, vec![good.to_owned(), deep, good.to_owned()]);
    assert!(out[1].contains(r#""ok":false"#), "{}", out[1]);
    assert!(out[1].contains("nesting deeper than"), "{}", out[1]);
    assert_eq!(out[0], out[2]);
    assert!(out[0].contains(r#""verdict":"admit""#), "{}", out[0]);
}

/// Two textual spellings of one question (different ids, defaults
/// spelled out) share a cache entry, and each response still echoes
/// its own id.
#[test]
fn equivalent_requests_share_answers_across_ids() {
    let a = r#"{"id":"alpha","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
    let b = r#"{"id":"beta","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000,"deadline_us":100000}]}"#;
    let service = Service::new();
    let ra = service.answer_line(a);
    let rb = service.answer_line(b);
    assert!(ra.contains(r#""id":"alpha""#));
    assert!(rb.contains(r#""id":"beta""#));
    assert_eq!(strip_id(&ra), strip_id(&rb));
    assert_eq!(service.stats().answers_reused, 1);
}

/// A malformed line in the middle of a batch yields exactly one error
/// record and leaves the neighbouring answers untouched.
#[test]
fn malformed_lines_do_not_poison_the_batch() {
    let good = r#"{"id":"ok","platform":"stm32f746-qspi","options":{},"tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
    let lines = vec![
        good.to_owned(),
        r#"{"id":"bad","platform":"no-such-board","options":{},"tasks":[]}"#.to_owned(),
        "]]]".to_owned(),
        good.to_owned(),
    ];
    let service = Service::new();
    let out = service.answer_batch(lines);
    assert_eq!(out.len(), 4);
    assert_eq!(out[0], out[3]);
    assert!(out[0].contains(r#""ok":true"#));
    assert!(out[1].contains(r#""ok":false"#) && out[1].contains("no-such-board"));
    assert!(out[2].contains(r#""ok":false"#));
    assert_eq!(out[0], cold(good));
}
