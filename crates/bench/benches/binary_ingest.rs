//! Criterion bench: trace ingest throughput, text vs binary vs raw I/O.
//!
//! The binary format's claim is that ingest cost approaches the cost of
//! just reading the bytes: fixed-width records decode with no per-line
//! scanning, no integer/float text parsing, and symbols intern exactly once
//! at open (string table in the header) instead of once per record field.
//! The `raw-read` series is the floor — a single pass over the same bytes
//! with no decoding at all — so `binary-decode / raw-read` is the overhead
//! factor of the format itself.

use autocheck_apps::hpccg;
use autocheck_interp::{ExecOptions, Machine, NoHook, WriterSink};
use autocheck_trace::{binary, AnalysisCtx, TraceSource};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn make_traces() -> (String, Vec<u8>) {
    let spec = hpccg::spec_scaled(64, 16);
    let module = autocheck_minilang::compile(&spec.source).expect("compiles");
    let mut sink = WriterSink::new(Vec::new());
    Machine::new(&module, ExecOptions::default())
        .run(&mut sink, &mut NoHook)
        .expect("runs");
    let text = String::from_utf8(sink.finish().expect("trace")).expect("utf8");
    let records = TraceSource::from_str(&text).records().expect("parses");
    let bin = binary::to_bytes(&records, &AnalysisCtx::current());
    (text, bin)
}

fn bench_binary_ingest(c: &mut Criterion) {
    let (text, bin) = make_traces();
    let mut group = c.benchmark_group("binary-ingest");
    group.sample_size(10);

    // Raw I/O floor: one pass over the binary bytes, no decoding.
    group.throughput(Throughput::Bytes(bin.len() as u64));
    group.bench_function("raw-read", |b| {
        b.iter(|| {
            let bytes = black_box(&bin[..]);
            let mut sum = 0u64;
            for chunk in bytes.chunks(4096) {
                sum = sum.wrapping_add(chunk.iter().map(|&x| x as u64).sum::<u64>());
            }
            black_box(sum)
        })
    });

    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("text-parse", |b| {
        b.iter(|| {
            let recs = TraceSource::from_str(black_box(&text))
                .records()
                .expect("parses");
            black_box(recs.len())
        })
    });

    group.throughput(Throughput::Bytes(bin.len() as u64));
    group.bench_function("binary-decode", |b| {
        b.iter(|| {
            let recs = TraceSource::from_bytes(black_box(&bin))
                .records()
                .expect("decodes");
            black_box(recs.len())
        })
    });

    // Streaming pull over a reader, both formats, through the by-value
    // `Iterator`.
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("text-stream", |b| {
        b.iter(|| {
            let n = TraceSource::from_reader(black_box(text.as_bytes()))
                .stream()
                .expect("opens")
                .fold(0usize, |n, r| {
                    r.expect("parses");
                    n + 1
                });
            black_box(n)
        })
    });
    group.throughput(Throughput::Bytes(bin.len() as u64));
    group.bench_function("binary-stream", |b| {
        b.iter(|| {
            let n = TraceSource::from_reader(black_box(&bin[..]))
                .stream()
                .expect("opens")
                .fold(0usize, |n, r| {
                    r.expect("decodes");
                    n + 1
                });
            black_box(n)
        })
    });
    // The same pull through `next_batch`, which lends the stream's reused
    // slots a batch at a time: the path the engine runs.
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("text-stream-lend", |b| {
        b.iter(|| black_box(lend_all(text.as_bytes())))
    });
    group.throughput(Throughput::Bytes(bin.len() as u64));
    group.bench_function("binary-stream-lend", |b| {
        b.iter(|| black_box(lend_all(&bin)))
    });
    group.finish();
}

/// Records lent by a stream over `bytes`, drained through `next_batch`.
fn lend_all(bytes: &[u8]) -> usize {
    let mut stream = TraceSource::from_reader(black_box(bytes))
        .stream()
        .expect("opens");
    let mut n = 0;
    while let Some(batch) = stream.next_batch() {
        n += black_box(batch.expect("decodes")).len();
    }
    n
}

criterion_group!(benches, bench_binary_ingest);
criterion_main!(benches);
