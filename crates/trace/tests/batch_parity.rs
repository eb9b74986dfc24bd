//! Batch boundaries are invisible. Draining a trace through
//! `TraceStream::next_batch`, `TraceStream::next_record`, the stream's
//! `Iterator` impl or `TraceSource::records` delivers the same records,
//! then the same error, and books the same ingest counters — in both
//! formats, with a failure just before, at and just after a batch
//! boundary, over the hostile corpus under byte and record ceilings, under
//! 64 seeded fault plans, and for failures at random records.

use autocheck_obs::{CounterId, Metrics};
use autocheck_trace::{
    binary, writer, AnalysisCtx, FaultPlan, Name, OpTag, Operand, Record, ResourceLimits,
    TraceSource, TraceValue, BATCH_RECORDS,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::path::{Path, PathBuf};

/// The ways to drain a stream.
#[derive(Clone, Copy, Debug)]
enum Drain {
    Batches,
    Records,
    Iterator,
    Collect,
}

const DRAINS: [Drain; 4] = [
    Drain::Batches,
    Drain::Records,
    Drain::Iterator,
    Drain::Collect,
];

/// The counters ingest books.
const COUNTERS: [CounterId; 6] = [
    CounterId::IngestRecordsText,
    CounterId::IngestRecordsBinary,
    CounterId::IngestBytesText,
    CounterId::IngestBytesBinary,
    CounterId::ParseErrors,
    CounterId::LimitExceeded,
];

/// What a drain saw: each record (in `Debug` form, so NaN floats from a
/// flipped bit still compare), how the stream ended, and the counters.
#[derive(Debug, PartialEq)]
struct Outcome {
    records: Option<Vec<String>>,
    end: Result<(), String>,
    counters: Vec<u64>,
}

fn drain(how: Drain, input: &[u8], limits: ResourceLimits, plan: Option<&FaultPlan>) -> Outcome {
    let ctx = AnalysisCtx::session()
        .with_metrics(Metrics::enabled())
        .with_limits(limits);
    // Records show their symbols through the session's space.
    let _space = ctx.enter();
    let source = match plan {
        Some(plan) => TraceSource::from_reader(plan.clone().reader(input)),
        None => TraceSource::from_bytes(input),
    }
    .ctx(&ctx);
    let shown = |r: &Record| format!("{r:?}");
    let mut records = Vec::new();
    let end = match how {
        Drain::Collect => match source.records() {
            Ok(all) => {
                records.extend(all.iter().map(shown));
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        },
        _ => match source.stream() {
            Err(e) => Err(e.to_string()),
            Ok(mut stream) => {
                let mut end = Ok(());
                match how {
                    Drain::Batches => {
                        while let Some(batch) = stream.next_batch() {
                            match batch {
                                Ok(batch) => {
                                    assert!(!batch.is_empty() && batch.len() <= BATCH_RECORDS);
                                    records.extend(batch.iter().map(shown));
                                }
                                Err(e) => end = Err(e.to_string()),
                            }
                        }
                    }
                    Drain::Records => {
                        while let Some(record) = stream.next_record() {
                            match record {
                                Ok(r) => records.push(shown(r)),
                                Err(e) => end = Err(e.to_string()),
                            }
                        }
                    }
                    _ => {
                        for record in &mut stream {
                            match record {
                                Ok(r) => records.push(shown(&r)),
                                Err(e) => end = Err(e.to_string()),
                            }
                        }
                    }
                }
                assert!(stream.next_batch().is_none(), "{how:?}: the stream fuses");
                end
            }
        },
    };
    let m = ctx.metrics();
    Outcome {
        // `records()` hands back nothing but the error when it fails.
        records: (end.is_ok() || !matches!(how, Drain::Collect)).then_some(records),
        end,
        counters: COUNTERS.iter().map(|&id| m.counter(id)).collect(),
    }
}

/// Drain `input` every way and require one outcome; returns it.
fn agree(what: &str, input: &[u8], limits: ResourceLimits, plan: Option<&FaultPlan>) -> Outcome {
    let outcomes = DRAINS.map(|how| drain(how, input, limits, plan));
    let want = outcomes[0].records.clone();
    for (how, got) in DRAINS.iter().zip(&outcomes).skip(1) {
        assert_eq!(
            (&got.end, &got.counters),
            (&outcomes[0].end, &outcomes[0].counters),
            "{what}: {how:?} differs from {:?} under {limits:?}, {plan:?}",
            DRAINS[0]
        );
        if let Some(records) = &got.records {
            assert!(
                Some(records) == want.as_ref(),
                "{what}: {how:?} delivered other records under {limits:?}, {plan:?}"
            );
        }
    }
    let [first, ..] = outcomes;
    first
}

/// `n` records over a fixed set of symbols, every one of which the first
/// record names, with one to four operands.
fn records(ctx: &AnalysisCtx, n: usize) -> Vec<Record> {
    let vars = [ctx.intern("p"), ctx.intern("sum"), ctx.intern("it")];
    let funcs = [ctx.intern("main"), ctx.intern("conj_grad")];
    let label = ctx.intern("31");
    (0..n)
        .map(|i| {
            let operand = |k: usize| {
                let value = match (i + k) % 3 {
                    0 => TraceValue::I(i as i64 - 7),
                    1 => TraceValue::Ptr(0x7f00_0000_1000 + 8 * i as u64),
                    _ => TraceValue::F(i as f64 / 64.0),
                };
                Operand::reg(OpTag::Pos(k as u8 + 1), 64, value, Name::Sym(vars[k % 3]))
            };
            let ops = if i == 0 { 3 } else { 1 + i % 4 };
            Record {
                src_line: (i % 90) as i32 + 1,
                func: funcs[usize::from(i > 0 && i % 2 == 0)],
                bb: (20, 27),
                bb_label: label,
                opcode: 27,
                dyn_id: i as u64,
                operands: (0..ops).map(operand).collect(),
                result: (i % 4 != 0).then(|| {
                    Operand::reg(
                        OpTag::Result,
                        64,
                        TraceValue::I(i as i64),
                        Name::Temp(i as u32),
                    )
                }),
            }
        })
        .collect()
}

fn text_of(ctx: &AnalysisCtx, recs: &[Record]) -> Vec<u8> {
    let _space = ctx.enter();
    writer::to_string(recs).into_bytes()
}

/// A text trace of `n` records whose record `k` has a malformed operand
/// line: records `0..k` decode, then the error.
fn text_failing_at(ctx: &AnalysisCtx, n: usize, k: usize) -> Vec<u8> {
    let recs = records(ctx, n);
    let mut text = text_of(ctx, &recs[..k]);
    text.extend_from_slice(format!("0,1,main,20:27,31,27,{k},\n1,zz,5,1,p,\n").as_bytes());
    text.extend(text_of(ctx, &recs[k + 1..]));
    text
}

/// A binary trace of `n` records whose record `k` names a function symbol
/// past the string table: records `0..k` decode, then the error.
fn binary_failing_at(ctx: &AnalysisCtx, n: usize, k: usize) -> Vec<u8> {
    let recs = records(ctx, n);
    let mut bytes = binary::to_bytes(&recs, ctx);
    let size = |r: &Record| {
        binary::RECORD_BYTES
            + binary::OPERAND_BYTES * (r.operands.len() + r.result.is_some() as usize)
    };
    let at = bytes.len() - recs[k..].iter().map(size).sum::<usize>();
    bytes[at + 4..at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes
}

#[test]
fn failures_around_a_batch_boundary_come_after_the_records_before_them() {
    const N: usize = 3 * BATCH_RECORDS;
    let ctx = AnalysisCtx::session();
    let clean = [
        ("text", text_of(&ctx, &records(&ctx, N))),
        ("binary", binary::to_bytes(&records(&ctx, N), &ctx)),
    ];
    let b = BATCH_RECORDS;
    for k in [b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1] {
        for (format, bytes) in [
            ("text", text_failing_at(&ctx, N, k)),
            ("binary", binary_failing_at(&ctx, N, k)),
        ] {
            let what = format!("{format} decode error at record {k}");
            let out = agree(&what, &bytes, ResourceLimits::new(), None);
            assert_eq!(out.records.map(|r| r.len()), Some(k), "{what}");
            assert!(out.end.is_err(), "{what}");
            assert_eq!(out.counters[4], 1, "{what}: one parse error");
        }
        for (format, bytes) in &clean {
            let what = format!("{format} trace-records ceiling of {k}");
            let limits = ResourceLimits::new().max_trace_records(k as u64);
            let out = agree(&what, bytes, limits, None);
            assert_eq!(out.records.map(|r| r.len()), Some(k), "{what}");
            assert!(out.end.unwrap_err().contains("trace-records"), "{what}");
            assert_eq!(out.counters[5], 1, "{what}: one limit breach");
            let booked = out.counters[0] + out.counters[1];
            assert_eq!(
                booked, k as u64,
                "{what}: ingest books the records delivered"
            );
        }
    }
    for (format, bytes) in &clean {
        let out = agree(format, bytes, ResourceLimits::new(), None);
        assert_eq!(out.records.map(|r| r.len()), Some(N), "{format}");
        assert_eq!(
            out.counters[2] + out.counters[3],
            bytes.len() as u64,
            "{format}: every byte booked"
        );
    }
}

fn hostile_corpus() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/hostile");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("the hostile corpus exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("txt" | "bin")))
        .collect();
    files.sort();
    assert!(files.len() >= 9, "corpus went missing: {files:?}");
    files
}

#[test]
fn the_hostile_corpus_drains_alike_under_ceilings() {
    let mut ceilings = vec![ResourceLimits::new()];
    for bytes in [100, 1000, 4096, 65_536, 70_000] {
        ceilings.push(ResourceLimits::new().max_trace_bytes(bytes));
    }
    let b = BATCH_RECORDS as u64;
    for records in [1, 50, b - 1, b, b + 1, 2 * b + 1] {
        ceilings.push(ResourceLimits::new().max_trace_records(records));
    }
    for path in hostile_corpus() {
        let bytes = std::fs::read(&path).expect("corpus file reads");
        for &limits in &ceilings {
            agree(&path.display().to_string(), &bytes, limits, None);
        }
    }
}

#[test]
fn seeded_faults_drain_alike() {
    let ctx = AnalysisCtx::session();
    let recs = records(&ctx, 2 * BATCH_RECORDS + 40);
    for (format, bytes) in [
        ("text", text_of(&ctx, &recs)),
        ("binary", binary::to_bytes(&recs, &ctx)),
    ] {
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed, bytes.len() as u64);
            let what = format!("{format}, fault seed {seed}");
            agree(&what, &bytes, ResourceLimits::new(), Some(&plan));
            let limits = ResourceLimits::new().max_trace_bytes(bytes.len() as u64 / 2);
            agree(&what, &bytes, limits, Some(&plan));
        }
    }
}

proptest! {
    #[test]
    fn failures_at_random_records_drain_alike(seed in any::<u64>(), n in 1usize..700) {
        let mut rng = TestRng::new(seed);
        let ctx = AnalysisCtx::session();
        let k = rng.below(n as u64) as usize;
        let bytes = match rng.below(4) {
            0 => text_failing_at(&ctx, n, k),
            1 => binary_failing_at(&ctx, n, k),
            2 => text_of(&ctx, &records(&ctx, n)),
            _ => binary::to_bytes(&records(&ctx, n), &ctx),
        };
        let limits = match rng.below(3) {
            0 => ResourceLimits::new(),
            1 => ResourceLimits::new().max_trace_records(rng.below(n as u64 + 1)),
            _ => ResourceLimits::new().max_trace_bytes(rng.below(bytes.len() as u64 + 1)),
        };
        let plan = rng
            .flip()
            .then(|| FaultPlan::from_seed(rng.next_u64(), bytes.len() as u64));
        agree(&format!("seed {seed}, {n} records"), &bytes, limits, plan.as_ref());
    }
}
