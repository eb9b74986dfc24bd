//! The output check every analysis must pass:
//!
//! 1. `exit` — the process exited with code 0;
//! 2. `report` — its report is in the output;
//! 3. `checkpoints` — the `checkpoint` lines (name and class) equal the
//!    app's hand-written expected set (`AppSpec::expected`);
//! 4. `records` — the report's record count equals what the tracer wrote
//!    in set-up;
//! 5. `stream-body` — a `--stream` report equals the batch one apart from
//!    the timing footers.

use crate::workload::Analysis;
use std::fmt;

/// The report of one analysis, parsed from `autocheck`'s standard output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Parsed {
    pub checkpoints: Vec<(String, String)>,
    pub records: Option<u64>,
    /// The report without its timing footers.
    pub body: Vec<String>,
}

/// Why an analysis failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    Exit(Option<i32>),
    Report,
    Checkpoints {
        expected: Vec<(String, String)>,
        got: Vec<(String, String)>,
    },
    Records {
        expected: u64,
        got: Option<u64>,
    },
    StreamBody {
        line: usize,
        batch: String,
        stream: String,
    },
}

impl Failure {
    /// The check's name, as the output reports it.
    pub fn check(&self) -> &'static str {
        match self {
            Failure::Exit(_) => "exit",
            Failure::Report => "report",
            Failure::Checkpoints { .. } => "checkpoints",
            Failure::Records { .. } => "records",
            Failure::StreamBody { .. } => "stream-body",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check `{}` failed: ", self.check())?;
        match self {
            Failure::Exit(Some(c)) => write!(f, "exit code {c}"),
            Failure::Exit(None) => write!(f, "killed by a signal"),
            Failure::Report => write!(f, "no report in the output"),
            Failure::Checkpoints { expected, got } => {
                write!(f, "expected {expected:?}, got {got:?}")
            }
            Failure::Records { expected, got } => {
                write!(f, "tracer wrote {expected} records, report says {got:?}")
            }
            Failure::StreamBody {
                line,
                batch,
                stream,
            } => write!(
                f,
                "report line {line} differs: batch `{batch}`, stream `{stream}`"
            ),
        }
    }
}

/// Footer lines that may differ between runs and modes.
fn is_footer(line: &str) -> bool {
    ["timings:", "streaming:", "session:"]
        .iter()
        .any(|p| line.starts_with(p))
}

fn parse_one(lines: &[&str]) -> Option<Parsed> {
    let header = lines.iter().find(|l| l.starts_with("AutoCheck report:"))?;
    let records = header
        .rsplit_once(" record(s)")
        .and_then(|(head, _)| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok());
    let mut checkpoints: Vec<(String, String)> = lines
        .iter()
        .filter_map(|l| l.trim_start().strip_prefix("checkpoint "))
        .filter_map(|rest| {
            let mut f = rest.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.to_string()))
        })
        .collect();
    checkpoints.sort();
    let mut body: Vec<String> = lines
        .iter()
        .filter(|l| !is_footer(l))
        .map(|l| l.to_string())
        .collect();
    while body.last().is_some_and(|l| l.is_empty()) {
        body.pop();
    }
    Some(Parsed {
        checkpoints,
        records,
        body,
    })
}

/// Parse the reports in one invocation's output: the single report of a
/// plain run, or one report per `=== name ===` section of a `--batch` run
/// (the aggregate section is not a report). `names` lists the analyses in
/// the order they were asked for; the result is parallel to it.
pub fn parse(stdout: &str, names: &[String], batch_manifest: bool) -> Vec<Option<Parsed>> {
    let lines: Vec<&str> = stdout.lines().collect();
    if !batch_manifest {
        return vec![parse_one(&lines)];
    }
    let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in lines {
        if let Some(name) = line
            .strip_prefix("=== ")
            .and_then(|l| l.strip_suffix(" ==="))
        {
            sections.push((name, Vec::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push(line);
        }
    }
    names
        .iter()
        .map(|n| {
            sections
                .iter()
                .find(|(name, _)| name == n)
                .and_then(|(_, body)| parse_one(body))
        })
        .collect()
}

/// Check one analysis of one invocation. `batch` is the same analysis's
/// report from a default invocation when this one ran with `--stream`.
pub fn check(
    analysis: &Analysis,
    code: Option<i32>,
    report: Option<&Parsed>,
    batch: Option<&Parsed>,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    if code != Some(0) {
        failures.push(Failure::Exit(code));
    }
    let Some(report) = report else {
        failures.push(Failure::Report);
        return failures;
    };
    let expected = analysis.expected();
    if report.checkpoints != expected {
        failures.push(Failure::Checkpoints {
            expected,
            got: report.checkpoints.clone(),
        });
    }
    if report.records != Some(analysis.records) {
        failures.push(Failure::Records {
            expected: analysis.records,
            got: report.records,
        });
    }
    if let Some(batch) = batch {
        let n = batch.body.len().max(report.body.len());
        if let Some(line) = (0..n).find(|&i| batch.body.get(i) != report.body.get(i)) {
            let at = |b: &[String]| b.get(line).cloned().unwrap_or_else(|| "<end>".into());
            failures.push(Failure::StreamBody {
                line: line + 1,
                batch: at(&batch.body),
                stream: at(&report.body),
            });
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocheck_core::DepType;
    use std::path::PathBuf;

    /// `autocheck` output for the paper's Figure 4 program, default mode.
    const BATCH: &str = "\
AutoCheck report: 5 MLI variable(s), 4 critical, 10 iteration(s), 1944 record(s)
  checkpoint a                    RAPO     first seen line 10    40 bytes
  checkpoint it                   Index    first seen line 13    8 bytes
  checkpoint r                    WAR      first seen line 8     8 bytes
  checkpoint sum                  Outcome  first seen line 8     8 bytes
  skip       b                    rewritten before read
  skip       s                    rewritten before read

timings: preprocess 1.201ms, dependency 310.000µs, identify 20.000µs, contract 5.000µs (total 1.536ms)
";

    /// The same analysis with `--stream`: same report, other footers.
    const STREAM: &str = "\
AutoCheck report: 5 MLI variable(s), 4 critical, 10 iteration(s), 1944 record(s)
  checkpoint a                    RAPO     first seen line 10    40 bytes
  checkpoint it                   Index    first seen line 13    8 bytes
  checkpoint r                    WAR      first seen line 8     8 bytes
  checkpoint sum                  Outcome  first seen line 8     8 bytes
  skip       b                    rewritten before read
  skip       s                    rewritten before read

timings: ingest 2.000ms, identify 30.000µs, contract 0ns (total 2.030ms; single online pass)
streaming: peak 211 live records of 1944 total (bound: unbounded); ddg 40 nodes / 61 edges
";

    fn fig4() -> Analysis {
        let spec = autocheck_apps::AppSpec {
            name: "fig4",
            description: "the paper's worked example",
            source: String::new(),
            region: autocheck_core::Region::new("main", 13, 21),
            expected: vec![
                ("r", DepType::War),
                ("a", DepType::Rapo),
                ("sum", DepType::Outcome),
                ("it", DepType::Index),
            ],
        };
        Analysis {
            name: "fig4".into(),
            spec,
            index: vec!["it".into()],
            trace: PathBuf::from("fig4.trace"),
            records: 1944,
            bytes: 0,
            digest: 0,
        }
    }

    fn one(stdout: &str) -> Parsed {
        parse(stdout, &["fig4".into()], false)
            .pop()
            .flatten()
            .expect("a report")
    }

    fn checks(failures: &[Failure]) -> Vec<&'static str> {
        failures.iter().map(Failure::check).collect()
    }

    #[test]
    fn correct_output_passes_every_check() {
        let batch = one(BATCH);
        assert!(check(&fig4(), Some(0), Some(&batch), None).is_empty());
        let stream = one(STREAM);
        assert!(check(&fig4(), Some(0), Some(&stream), Some(&batch)).is_empty());
    }

    #[test]
    fn planted_wrong_class_fails_checkpoints() {
        let bad = one(&BATCH.replace("RAPO    ", "WAR     "));
        let f = check(&fig4(), Some(0), Some(&bad), None);
        assert_eq!(checks(&f), ["checkpoints"]);
        assert!(f[0].to_string().contains("check `checkpoints` failed"));
    }

    #[test]
    fn planted_missing_variable_fails_checkpoints() {
        let text: String = BATCH
            .lines()
            .filter(|l| !l.contains("checkpoint r "))
            .map(|l| format!("{l}\n"))
            .collect();
        let f = check(&fig4(), Some(0), Some(&one(&text)), None);
        assert_eq!(checks(&f), ["checkpoints"]);
    }

    #[test]
    fn planted_record_count_fails_records() {
        let bad = one(&BATCH.replace("1944 record(s)", "1943 record(s)"));
        assert_eq!(
            checks(&check(&fig4(), Some(0), Some(&bad), None)),
            ["records"]
        );
    }

    #[test]
    fn planted_stream_difference_fails_stream_body() {
        let batch = one(BATCH);
        let stream = one(&STREAM.replace("skip       s ", "skip       t "));
        let f = check(&fig4(), Some(0), Some(&stream), Some(&batch));
        assert_eq!(checks(&f), ["stream-body"]);
        assert!(f[0].to_string().contains("report line 7"), "{}", f[0]);
    }

    #[test]
    fn failed_exit_and_missing_report_are_named() {
        let f = check(&fig4(), Some(1), None, None);
        assert_eq!(checks(&f), ["exit", "report"]);
        let empty = parse("error: cannot read `x`\n", &["fig4".into()], false);
        assert_eq!(empty, vec![None]);
    }

    #[test]
    fn batch_sections_are_found_by_name() {
        let out = format!(
            "=== other ===\n{BATCH}session: 12 symbols\n\n=== fig4 ===\n{BATCH}session: 30 symbols\n\n\
             === aggregate (2 analyses, 1 workers) ===\n  fig4 1944 records\n"
        );
        let parsed = parse(&out, &["fig4".into(), "missing".into()], true);
        assert_eq!(parsed[0].as_ref(), Some(&one(BATCH)));
        assert_eq!(parsed[1], None);
    }
}
