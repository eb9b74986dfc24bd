//! Golden trace bytes: the tracer must keep writing byte-identical text and
//! binary traces for the Fig. 4 worked example and all 14 benchmarks.
//!
//! Each program runs once per format in a fresh session, exactly as
//! `mlc trace` does. The test pins each trace's length and its 64-bit
//! FNV-1a digest, plus the number of symbols the run interned into its
//! session (the interpreter's share of what `mlc trace --stream` reports as
//! `session: N symbols`). The values were captured before the byte-level
//! text writer and the interpreter's name memo landed, so this test checks
//! both against history rather than against a copy of the old code.

use autocheck_interp::{BinarySink, ExecOptions, Machine, NoHook, WriterSink};
use autocheck_trace::AnalysisCtx;

/// `(program, text bytes, text digest, binary bytes, binary digest,
/// session symbols)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, u64, usize)] = &[
    ("fig4", 117306, 0x88843700b2cc47c0, 141401, 0xdd94b917a595c099, 20),
    ("himeno", 621876, 0x5d0bcc01a913804b, 608159, 0xb85b5e1c76e3e03d, 19),
    ("hpccg", 908012, 0x812c0486d201ac38, 971026, 0x009343b5e6fbfeab, 32),
    ("cg", 2794942, 0x4632fc8a900d9255, 2734010, 0xea56680cefc7985d, 63),
    ("mg", 546458, 0x3a9b3a4aafd29b69, 594330, 0x7d8ce0944fd0b760, 22),
    ("ft", 286437, 0x72119f5a6086f79a, 323038, 0x22c335b498a48867, 22),
    ("sp", 443550, 0x1319b591c26d25db, 478216, 0xc4824fe8fdc26284, 16),
    ("ep", 401829, 0x7d587dd1f3e9633d, 422040, 0xfef755c5f440555a, 42),
    ("is", 459378, 0xbb64fc3412989636, 517872, 0xc7fb8ca93e829983, 38),
    ("bt", 753377, 0xae9da0f62a045400, 794035, 0xcf240b46e1541fd8, 21),
    ("lu", 938649, 0xa480a10c282b67b9, 969310, 0x374040452b6e7798, 27),
    ("comd", 978127, 0xf1dc28bde81eefd6, 985360, 0xd8b3ca463768c7a1, 25),
    ("miniamr", 337851, 0x85d428ece4b81075, 348664, 0x1f9e48464253a150, 32),
    ("amg", 1042633, 0x7001a86ec8fcceac, 1058075, 0x372234bcc8c9e0be, 38),
    ("hacc", 830120, 0x6d55d621c3828b4f, 846552, 0xc621657f6b107f73, 26),
];

/// 64-bit FNV-1a over every byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Fig. 4 example and the 14 benchmarks, as `(name, source)`.
fn programs() -> Vec<(String, String)> {
    let fig4 = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fig4.mc"))
        .expect("examples/fig4.mc exists");
    let mut progs = vec![("fig4".to_string(), fig4)];
    progs.extend(
        autocheck_apps::all_apps()
            .into_iter()
            .map(|spec| (spec.name.to_string(), spec.source)),
    );
    progs
}

/// Trace `source` in a fresh session into the text or binary sink; return
/// the trace bytes and the session's symbol count.
fn trace(source: &str, binary: bool) -> (Vec<u8>, usize) {
    let module = autocheck_minilang::compile(source).expect("compiles");
    let ctx = AnalysisCtx::session();
    let _guard = ctx.enter();
    let mut machine = Machine::with_ctx(&module, ExecOptions::default(), ctx.clone());
    let bytes = if binary {
        let mut sink = BinarySink::with_ctx(Vec::new(), &ctx);
        machine.run(&mut sink, &mut NoHook).expect("runs");
        sink.finish().expect("binary trace")
    } else {
        let mut sink = WriterSink::new(Vec::new());
        machine.run(&mut sink, &mut NoHook).expect("runs");
        let written = sink.bytes_written();
        let bytes = sink.finish().expect("text trace");
        assert_eq!(
            written,
            bytes.len() as u64,
            "bytes_written is the final length"
        );
        bytes
    };
    (bytes, ctx.space().len())
}

#[test]
fn traces_match_the_golden_digests() {
    let mut actual = Vec::new();
    for (name, source) in programs() {
        let (text, text_syms) = trace(&source, false);
        let (bin, bin_syms) = trace(&source, true);
        assert_eq!(text_syms, bin_syms, "{name}: both runs intern the same set");
        actual.push((
            name,
            text.len() as u64,
            fnv1a(&text),
            bin.len() as u64,
            fnv1a(&bin),
            text_syms,
        ));
    }
    let table: String = actual
        .iter()
        .map(|(n, tl, td, bl, bd, s)| {
            format!("    (\"{n}\", {tl}, {td:#018x}, {bl}, {bd:#018x}, {s}),\n")
        })
        .collect();
    let expected: Vec<(String, u64, u64, u64, u64, usize)> = GOLDEN
        .iter()
        .map(|&(n, tl, td, bl, bd, s)| (n.to_string(), tl, td, bl, bd, s))
        .collect();
    assert_eq!(
        actual, expected,
        "trace bytes changed; the run produced:\n{table}"
    );
}

#[test]
fn fnv1a_matches_the_published_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
