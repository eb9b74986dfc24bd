//! Quickstart: the paper's Figure 4 worked example, end to end.
//!
//! Compiles the example program, traces its execution (LLVM-Tracer style),
//! shows a trace excerpt like the paper's Figure 1, runs AutoCheck, and
//! prints the MLI variables, the contracted DDG, and the critical set with
//! dependency types — reproducing Figures 4, 5 and the §IV-C conclusion
//! ("we should checkpoint variables r, a, sum and it").
//!
//! Run with: `cargo run --example quickstart`

use autocheck_core::{contract_ddg, index_variables_of, Analyzer, DdgAnalysis, NodeKind, Region};
use autocheck_core::{Phases, StreamConfig};
use autocheck_interp::{ExecOptions, Machine, NoHook, VecSink};
use autocheck_trace::writer;

/// The paper's Fig. 4 example code in MiniLang (same layout: `foo` on top,
/// main loop over `it` at lines 13–21).
const FIG4: &str = "\
void foo(int* p, int* q) {
    for (int i = 0; i < 10; i = i + 1) {
        q[i] = p[i] * 2;
    }
}
int main() {
    int a[10]; int b[10];
    int sum = 0; int s = 0; int r = 1;
    for (int i = 0; i < 10; i = i + 1) {
        a[i] = 0;
        b[i] = 0;
    }
    for (int it = 0; it < 10; it = it + 1) {
        int m;
        s = it + 1;
        a[it] = s * r;
        foo(a, b);
        r = r + 1;
        m = a[it] + b[it];
        sum = m;
    }
    print(sum);
    return 0;
}
";

fn main() {
    println!("=== AutoCheck quickstart: the paper's Fig. 4 example ===\n");

    // 1. Compile (Clang substitute).
    let module = autocheck_minilang::compile(FIG4).expect("example compiles");
    println!(
        "compiled: {} function(s), {} IR instruction(s)",
        module.functions.len(),
        module.inst_count()
    );

    // 2. Execute under the tracer (LLVM-Tracer substitute).
    let mut sink = VecSink::default();
    let mut machine = Machine::new(&module, ExecOptions::default());
    let outcome = machine.run(&mut sink, &mut NoHook).expect("runs");
    println!(
        "traced: {} dynamic instructions, program printed {:?}\n",
        sink.records.len(),
        outcome.output
    );

    // 3. Show a Fig. 1-style excerpt: the Load/Mul pair inside foo.
    println!("--- trace excerpt (Fig. 1 format) ---");
    let mut shown = 0;
    for r in &sink.records {
        if r.func == "foo" && (r.opcode == 27 || r.opcode == 12) {
            let mut s = String::new();
            writer::format_record(r, &mut s);
            print!("{s}");
            shown += 1;
            if shown == 2 {
                break;
            }
        }
    }

    // 4. Analyze: MCLR is lines 13–21 of `main`.
    let region = Region::new("main", 13, 21);
    let index_vars = index_variables_of(&module, &region);
    println!("\nloop pass found index variable(s): {index_vars:?}");

    let analyzer = Analyzer::new(region.clone())
        .with_index_vars(index_vars)
        .with_config(StreamConfig::default());
    let report = analyzer.analyze(&sink.records).expect("no ceilings set");

    println!("\n--- MLI variables (paper: a, b, sum, s, r) ---");
    for m in &report.mli {
        println!("  {:<6} base 0x{:x}, {} bytes", m.name, m.base_addr, m.size);
    }

    // 5. The contracted DDG (Fig. 5(d)).
    let phases = Phases::compute(&sink.records, &region);
    let analysis = DdgAnalysis::run(&sink.records, &phases, &report.mli, true);
    let mli_bases: std::collections::HashSet<u64> =
        report.mli.iter().map(|m| m.base_addr).collect();
    let contracted = contract_ddg(
        &analysis.graph,
        |n| matches!(n, NodeKind::Var { base, .. } if mli_bases.contains(base)),
    );
    println!("\n--- contracted DDG (Fig. 5(d)) as DOT ---");
    print!("{}", contracted.to_dot());

    // 6. The verdict (Fig. 7 taxonomy).
    println!("--- critical variables (paper: r, a, sum, it) ---");
    println!("{report}");
}
