//! End-to-end: MiniLang source → IR → interpreter, checking program
//! semantics and trace shape against hand-computed expectations.

use autocheck_interp::{ExecOptions, Machine, NoHook, NullSink, VecSink};
use autocheck_minilang::compile;
use autocheck_trace::Name;

fn run(src: &str) -> Vec<String> {
    let m = compile(src).expect("compiles");
    let mut machine = Machine::new(&m, ExecOptions::default());
    machine
        .run(&mut NullSink, &mut NoHook)
        .expect("executes")
        .output
}

/// The paper's Figure 4 example code, transliterated to MiniLang with the
/// same line layout (foo at the top, main loop over `it`).
pub const FIG4: &str = r#"void foo(int* p, int* q) {
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
"#;

#[test]
fn fig4_example_computes_like_c() {
    // Hand-simulate the C program: at it=9, s=10, r=10 (r incremented 9
    // times by then it is 10 at iteration 9 start... compute exactly).
    let mut a = [0i64; 10];
    let mut b = [0i64; 10];
    let (mut sum, mut s, mut r) = (0i64, 0i64, 1i64);
    let _ = s;
    for it in 0..10usize {
        s = it as i64 + 1;
        a[it] = s * r;
        for i in 0..10 {
            b[i] = a[i] * 2;
        }
        r += 1;
        let m = a[it] + b[it];
        sum = m;
    }
    assert_eq!(run(FIG4), vec![sum.to_string()]);
}

#[test]
fn float_kernel_matches_reference() {
    let src = r#"
float dot(float* x, float* y, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + x[i] * y[i];
    }
    return acc;
}
int main() {
    float u[8]; float v[8];
    for (int i = 0; i < 8; i = i + 1) {
        u[i] = float(i) * 0.5;
        v[i] = float(i) + 1.0;
    }
    print(dot(u, v, 8));
    return 0;
}
"#;
    let mut expect = 0.0f64;
    for i in 0..8 {
        expect += (i as f64 * 0.5) * (i as f64 + 1.0);
    }
    assert_eq!(run(src), vec![format!("{expect:?}")]);
}

#[test]
fn global_state_persists_across_calls() {
    let src = r#"
global int counter;
void tick() { counter = counter + 1; }
int main() {
    for (int i = 0; i < 5; i = i + 1) { tick(); }
    print(counter);
    return 0;
}
"#;
    assert_eq!(run(src), vec!["5".to_string()]);
}

#[test]
fn builtin_math_works() {
    let src = r#"
int main() {
    print(sqrt(16.0));
    print(pow(2.0, 10.0));
    print(fabs(-2.5));
    print(abs(-7));
    print(fmax(1.0, 2.0));
    return 0;
}
"#;
    assert_eq!(
        run(src),
        vec!["4.0", "1024.0", "2.5", "7", "2.0"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>()
    );
}

#[test]
fn control_flow_if_else_chains() {
    let src = r#"
int classify(int x) {
    if (x < 0) { return -1; }
    else if (x == 0) { return 0; }
    else { return 1; }
}
int main() {
    print(classify(-5));
    print(classify(0));
    print(classify(9));
    return 0;
}
"#;
    assert_eq!(
        run(src),
        vec!["-1", "0", "1"]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>()
    );
}

#[test]
fn trace_of_fig4_contains_paper_shapes() {
    let m = compile(FIG4).unwrap();
    let mut machine = Machine::new(&m, ExecOptions::default());
    let mut sink = VecSink::default();
    machine.run(&mut sink, &mut NoHook).unwrap();
    let recs = &sink.records;

    // `foo` is traced as Call form 2: a call record with f-tagged params p,q.
    let call = recs
        .iter()
        .find(|r| r.opcode == 49 && r.params().count() == 2)
        .expect("form-2 call");
    let pnames: Vec<_> = call.params().map(|p| p.name).collect();
    assert_eq!(pnames, vec![Name::sym("p"), Name::sym("q")]);
    // Argument values (pointers to a and b) equal parameter values.
    let avals: Vec<_> = call.positional().skip(1).map(|o| o.value).collect();
    let pvals: Vec<_> = call.params().map(|p| p.value).collect();
    assert_eq!(avals, pvals);

    // Loads inside foo dereference p with a GEP-produced temp register.
    let gep_in_foo = recs
        .iter()
        .find(|r| r.func == "foo" && r.opcode == 29)
        .expect("gep in foo");
    assert_eq!(gep_in_foo.op1().unwrap().name, Name::sym("p"));

    // Stores to `sum` name the variable directly on the pointer operand.
    let sum_store = recs
        .iter()
        .find(|r| r.opcode == 28 && r.op2().map(|o| o.name == Name::sym("sum")).unwrap_or(false))
        .expect("store to sum");
    assert_eq!(sum_store.func.as_str(), "main");

    // Allocas report line -1 and the variable name as the label.
    let alloca = recs
        .iter()
        .find(|r| r.opcode == 26 && r.bb_label == "sum")
        .expect("alloca of sum");
    assert_eq!(alloca.src_line, -1);

    // Trace round-trips through the textual format.
    let text = autocheck_trace::writer::to_string(recs);
    let parsed = autocheck_trace::TraceSource::from_str(&text)
        .records()
        .unwrap();
    assert_eq!(parsed.len(), recs.len());
}

#[test]
fn interrupted_run_matches_prefix_of_full_run() {
    let m = compile(FIG4).unwrap();
    let mut full = VecSink::default();
    Machine::new(&m, ExecOptions::default())
        .run(&mut full, &mut NoHook)
        .unwrap();
    let cut = 200u64;
    let mut partial = VecSink::default();
    let err = Machine::new(
        &m,
        ExecOptions {
            fail_after: Some(cut),
            ..ExecOptions::default()
        },
    )
    .run(&mut partial, &mut NoHook)
    .unwrap_err();
    assert!(matches!(
        err,
        autocheck_interp::ExecError::Interrupted { .. }
    ));
    assert_eq!(partial.records.len() as u64, cut);
    assert_eq!(&full.records[..cut as usize], &partial.records[..]);
}

/// A `Write` whose bytes stay readable after the sink that owns it drops.
#[derive(Clone, Default)]
struct Shared(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn dropped_writer_sink_keeps_the_prefix_of_an_interrupted_run() {
    // As an interrupted `mlc trace` drops its sink without `finish`: the
    // text on the wire must be exactly the records executed before the
    // cut, including those still buffered in the writer.
    let m = compile(FIG4).unwrap();
    let cut = ExecOptions {
        fail_after: Some(1500),
        ..ExecOptions::default()
    };
    let mut records = VecSink::default();
    assert!(Machine::new(&m, cut)
        .run(&mut records, &mut NoHook)
        .is_err());
    let out = Shared::default();
    let mut sink = autocheck_interp::WriterSink::new(out.clone());
    let err = Machine::new(&m, cut)
        .run(&mut sink, &mut NoHook)
        .unwrap_err();
    assert_eq!(
        err,
        autocheck_interp::ExecError::Interrupted { dyn_id: 1500 }
    );
    let expected = autocheck_trace::writer::to_string(&records.records);
    let on_wire_before_drop = out.0.borrow().len();
    assert!(
        0 < on_wire_before_drop && on_wire_before_drop < expected.len(),
        "the cut must fall between two flushes ({on_wire_before_drop} of {} bytes)",
        expected.len()
    );
    assert_eq!(sink.bytes_written(), expected.len() as u64);
    drop(sink);
    assert_eq!(*out.0.borrow(), expected.into_bytes());
}
