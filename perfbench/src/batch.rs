//! `batch_spouse_2k`: the paper's Figure-2 pipeline on a 2000-document
//! spouse corpus — NLP and base load (`SpouseApp::build_with_corpus`), then
//! candidate extraction, supervision, grounding, learning and inference
//! (`SpouseApp::run`) at the default thread count. No WAL, HTTP, snapshot
//! or replication code runs here.

use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{metric, Ctx, Metric, Outcome};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::{PhaseTimings, RunConfig};
use deepdive_corpus::SpouseConfig;
use deepdive_sampler::{GibbsOptions, LearnOptions};
use serde_json::json;
use std::time::Instant;

pub const DOCS: usize = 2000;
/// Threshold the paper's precision/recall figures use.
const F1_THRESHOLD: f64 = 0.8;
/// How far below its recorded value F1 may land: the recorded values come
/// from two sampler threads, and another thread count splits the chains
/// differently.
const F1_TOLERANCE: f64 = 0.02;
/// Corpus generations timed for `setup_s`; the median is reported.
const SETUPS: usize = 31;
const MIN_ITERATIONS: usize = 3;

/// Corpora the workload draws from (`seed % len`), with the grounded graph
/// size and F1 each one gave when recorded (`--record-batch`).
const EXPECTED: &str = include_str!("../expected_batch.tsv");

struct Expected {
    corpus_seed: u64,
    variables: usize,
    factors: usize,
    f1: f64,
}

fn expected() -> Vec<Expected> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            Expected {
                corpus_seed: f[0].parse().expect("corpus seed"),
                variables: f[1].parse().expect("variables"),
                factors: f[2].parse().expect("factors"),
                f1: f[3].parse().expect("f1"),
            }
        })
        .collect()
}

/// The spouse application at `docs` documents with the inference settings
/// the repository's Figure-2 experiment uses.
pub fn spouse_config(docs: usize, corpus_seed: u64) -> SpouseAppConfig {
    SpouseAppConfig {
        corpus: SpouseConfig {
            num_docs: docs,
            seed: corpus_seed,
            ..Default::default()
        },
        run: RunConfig {
            learn: LearnOptions {
                epochs: 100,
                ..Default::default()
            },
            inference: GibbsOptions {
                burn_in: 80,
                samples: 1000,
                clamp_evidence: true,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Stage times (ms) of one run of the knowledge-base pipeline:
/// `build_with_corpus`, then `run` split by the timings it returns.
#[derive(Clone, Copy)]
pub struct Stages {
    pub build_ms: f64,
    pub extract_ms: f64,
    pub ground_ms: f64,
    pub learn_ms: f64,
    pub infer_ms: f64,
}

impl Stages {
    pub fn new(build_ms: f64, t: &PhaseTimings) -> Stages {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        Stages {
            build_ms,
            extract_ms: ms(t.candidate_extraction + t.supervision),
            ground_ms: ms(t.grounding),
            learn_ms: ms(t.learning),
            infer_ms: ms(t.inference),
        }
    }
}

/// The per-layer metrics every workload reports (`crate::PER_LAYER`): the
/// median of each pipeline stage over `runs`, and the grounded graph's
/// `(variables, factors)`.
pub fn pipeline_layers(runs: &[Stages], graph: (usize, usize)) -> Vec<Metric> {
    let med =
        |f: fn(&Stages) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    vec![
        metric("core.build_ms", med(|s| s.build_ms), "ms"),
        metric("grounding.extract_ms", med(|s| s.extract_ms), "ms"),
        metric("grounding.ground_ms", med(|s| s.ground_ms), "ms"),
        metric("sampler.learn_ms", med(|s| s.learn_ms), "ms"),
        metric("sampler.infer_ms", med(|s| s.infer_ms), "ms"),
        metric("factorgraph.variables", graph.0 as f64, "count"),
        metric("factorgraph.factors", graph.1 as f64, "count"),
    ]
}

/// The first corpus seed; corpus `i` of the table uses `BASE_SEED + i`.
pub const BASE_SEED: u64 = 0x570;

/// What one pipeline gave.
struct Pipeline {
    wall_s: f64,
    stages: Stages,
    f1: f64,
    graph: (usize, usize),
    threads: usize,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let table = expected();
    let want = &table[(ctx.seed % table.len() as u64) as usize];
    let config = spouse_config(DOCS, want.corpus_seed);

    let mut setup = Vec::with_capacity(SETUPS);
    let mut corpus = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let c = deepdive_corpus::spouse::generate(&config.corpus);
        setup.push(t.elapsed().as_secs_f64());
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one setup");

    let mut spans = Trace::new(ctx.trace, Instant::now());
    let pipeline = |spans: &mut Trace, id: u64| -> Result<Pipeline, String> {
        let input = corpus.clone();
        let start = Instant::now();
        let (app, build_ms) = spans.time("core.build", None, id, || {
            SpouseApp::build_with_corpus(config.clone(), input)
        });
        let mut app = app.map_err(|e| format!("build_with_corpus: {e}"))?;
        let (result, _) = spans.time("core.run", None, id, || app.run());
        let result = result.map_err(|e| format!("run: {e}"))?;
        let end = Instant::now();
        spans.record("batch.pipeline", start, end, None, id);
        Ok(Pipeline {
            wall_s: end.duration_since(start).as_secs_f64(),
            stages: Stages::new(build_ms, &result.timings),
            f1: app.evaluate(&result, F1_THRESHOLD).f1(),
            graph: (result.num_variables, result.num_factors),
            threads: app.dd.config.threads,
        })
    };
    // One untimed pipeline first: the first one in a process pays for
    // faulting in its heap and ran up to half again as long as the rest.
    let warmup = pipeline(&mut spans, u64::MAX)?;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut runs = vec![];
    loop {
        runs.push(pipeline(&mut spans, runs.len() as u64)?);
        let typical = median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
        let next_end = Instant::now() + std::time::Duration::from_secs_f64(typical);
        if runs.len() >= MIN_ITERATIONS && next_end > deadline {
            break;
        }
    }
    let wall: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let stages: Vec<Stages> = runs.iter().map(|r| r.stages).collect();
    let f1s: Vec<f64> = runs.iter().map(|r| r.f1).collect();
    let (graph, threads) = (warmup.graph, warmup.threads);
    let graphs_agree = runs.iter().all(|r| r.graph == graph);

    let f1 = median(&f1s).expect("iterations ran");
    let wall_ms: Vec<f64> = wall.iter().map(|s| s * 1e3).collect();
    let p50 = percentile(&wall_ms, 0.5).expect("iterations ran");
    let p90 = percentile(&wall_ms, 0.9).expect("iterations ran");
    let mut o = Outcome {
        attempted: wall.len() as u64,
        ..Default::default()
    };
    o.end_to_end
        .push(metric("setup_s", median(&setup).unwrap_or(0.0), "s"));
    o.end_to_end.push(metric(
        "docs_per_s",
        (DOCS * wall.len()) as f64 / wall.iter().sum::<f64>(),
        "docs/s",
    ));
    o.end_to_end.push(metric("op_p50_ms", p50.value, "ms"));
    o.end_to_end.push(metric("op_p90_ms", p90.value, "ms"));
    o.end_to_end.push(metric("batch_f1", f1, "ratio"));
    o.per_layer = pipeline_layers(&stages, graph);

    o.check(
        "graph size equals the recorded value",
        if graphs_agree && graph == (want.variables, want.factors) {
            Ok(())
        } else {
            Err(format!(
                "{} variables / {} factors (every pipeline alike: {graphs_agree}), \
                 recorded {} / {} for corpus seed {}",
                graph.0, graph.1, want.variables, want.factors, want.corpus_seed
            ))
        },
    );
    o.check(
        "batch_f1 no worse than recorded",
        if f1 + F1_TOLERANCE >= want.f1 {
            Ok(())
        } else {
            Err(format!(
                "F1 {f1:.4} < recorded {:.4} - {F1_TOLERANCE}",
                want.f1
            ))
        },
    );
    o.note("corpus_seed", json!(want.corpus_seed));
    o.note("docs", json!(DOCS));
    o.note("threads", json!(threads));
    o.note("iterations", json!(wall.len()));
    o.note("batch_wall_samples_s", json!(wall));
    o.note(
        "percentile_samples",
        json!({
            "op_p50_ms": json!({"samples": p50.samples, "beyond": p50.beyond}),
            "op_p90_ms": json!({"samples": p90.samples, "beyond": p90.beyond, "trusted": p90.trusted()}),
        }),
    );
    o.note("setup_samples_s", json!(setup));
    o.note("recorded_f1", json!(want.f1));
    if ctx.trace {
        o.spans = Some(spans);
    }
    Ok(o)
}

/// Print the table `EXPECTED` is read from: graph size and F1 of each of
/// `n` corpora at this commit. Rerun after a change that is meant to alter
/// grounding or quality, and say so in the change.
pub fn record(n: u64) {
    println!("# corpus_seed\tvariables\tfactors\tf1 (threshold {F1_THRESHOLD}, {DOCS} docs)");
    for i in 0..n {
        let config = spouse_config(DOCS, BASE_SEED + i);
        let mut app = SpouseApp::build(config).expect("build");
        let result = app.run().expect("run");
        let f1 = app.evaluate(&result, F1_THRESHOLD).f1();
        println!(
            "{}\t{}\t{}\t{f1:.4}",
            BASE_SEED + i,
            result.num_variables,
            result.num_factors
        );
    }
}
