//! The diagnostic catalog: stable codes, severities and rendering.
//!
//! Every check in this crate reports through [`AnalysisReport`], attaching a
//! stable [`Code`] so tests (and downstream plan generators) can assert on
//! *which* lint fired rather than string-matching messages. Codes are never
//! reused or renumbered; retired checks leave a hole in the catalog.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable: the engine will run the plan, possibly
    /// with degraded performance or relying on defined-but-surprising
    /// semantics.
    Warning,
    /// The plan is structurally broken: executing it would panic, hang,
    /// deadlock or silently compute the wrong thing.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes, grouped by check family:
/// `HX00x` IR / schema, `HX01x` stage graph, `HX02x` staging memory.
/// Codes of retired checks stay unused (DESIGN.md §9 lists them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Cross-stage schema mismatch: a stage's input width disagrees with
    /// what its source (base-table projection or producer stage) emits.
    HX001,
    /// State-slot mismatch: a step references a missing slot, a slot of the
    /// wrong kind, or a slot whose arity/payload width disagrees.
    HX003,
    /// Division by a constant zero: defined to evaluate to 0, which is
    /// almost never what the plan author meant.
    HX004,
    /// Expression nesting requires an excessive number of concurrently live
    /// scratch columns under the vectorized lowering.
    HX006,
    /// A filter predicate is not boolean-shaped (top-level arithmetic);
    /// non-zero-is-true semantics apply, which is rarely intended.
    HX007,
    /// The stage graph has a cycle through feeds/depends-on edges.
    HX010,
    /// Queue wiring is inconsistent: unknown producer stage, wiring that
    /// disagrees with stage sources, duplicate feeds, or an orphan stage
    /// whose output nothing consumes.
    HX011,
    /// Dependency gates disagree with hash-build dependencies: a probe's
    /// build stage is missing from `depends_on`, a gate references a stage
    /// that builds nothing, or `unlocks` is not the inverse of `depends_on`.
    HX012,
    /// Consumer instances are incompatible with the topology: missing
    /// affinity, unknown/excluded/wrong-kind device, or a stage with no
    /// consumers at all.
    HX013,
    /// Result-stage problems: no result stage, several, or a result stage
    /// that feeds another stage.
    HX014,
    /// Staging budget below the §4.2 lease-ordering deadlock-freedom floor:
    /// one estimated maximum-size block per device instance.
    HX020,
    /// Staging governance degraded: per-queue quota carve-outs on some node
    /// fall below one block (near-lockstep progress).
    HX021,
}

impl Code {
    /// The stable identifier rendered in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::HX001 => "HX001",
            Code::HX003 => "HX003",
            Code::HX004 => "HX004",
            Code::HX006 => "HX006",
            Code::HX007 => "HX007",
            Code::HX010 => "HX010",
            Code::HX011 => "HX011",
            Code::HX012 => "HX012",
            Code::HX013 => "HX013",
            Code::HX014 => "HX014",
            Code::HX020 => "HX020",
            Code::HX021 => "HX021",
        }
    }

    /// The severity this code reports at.
    pub fn severity(self) -> Severity {
        match self {
            Code::HX004 | Code::HX006 | Code::HX007 | Code::HX021 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line summary of what the check guards.
    pub fn summary(self) -> &'static str {
        match self {
            Code::HX001 => "cross-stage schema mismatch",
            Code::HX003 => "state-slot kind/arity mismatch",
            Code::HX004 => "division by constant zero",
            Code::HX006 => "excessive vectorized scratch depth",
            Code::HX007 => "non-boolean filter predicate",
            Code::HX010 => "stage-graph cycle",
            Code::HX011 => "inconsistent queue wiring",
            Code::HX012 => "gates disagree with build dependencies",
            Code::HX013 => "consumers incompatible with topology",
            Code::HX014 => "result-stage problems",
            Code::HX020 => "staging budget below deadlock-freedom floor",
            Code::HX021 => "degraded staging governance",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable catalog code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// The stage the finding is anchored to, when there is one.
    pub stage: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code)?;
        if let Some(stage) = self.stage {
            write!(f, " stage {stage}:")?;
        } else {
            write!(f, ":")?;
        }
        write!(f, " {}", self.message)
    }
}

/// The collected findings of one analysis pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a finding against a stage.
    pub fn report(&mut self, code: Code, stage: Option<usize>, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity: code.severity(),
            stage,
            message: message.into(),
        });
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// True when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when a finding with `code` exists.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Render every finding, one per line, errors first.
    pub fn render(&self) -> String {
        let mut ordered: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        ordered.sort_by_key(|d| std::cmp::Reverse(d.severity));
        ordered.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_follows_the_catalog() {
        assert_eq!(Code::HX001.severity(), Severity::Error);
        assert_eq!(Code::HX004.severity(), Severity::Warning);
        assert_eq!(Code::HX020.severity(), Severity::Error);
        assert_eq!(Code::HX021.severity(), Severity::Warning);
    }

    #[test]
    fn report_collects_and_renders() {
        let mut report = AnalysisReport::new();
        assert!(report.is_clean());
        report.report(Code::HX004, Some(1), "division by zero in predicate");
        report.report(Code::HX010, None, "cycle 0 -> 1 -> 0");
        assert!(!report.is_clean());
        assert!(report.has_errors());
        assert!(report.has_code(Code::HX010));
        assert!(!report.has_code(Code::HX001));
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
        let rendered = report.render();
        // Errors sort first in the rendering.
        assert!(rendered.starts_with("error [HX010]"));
        assert!(rendered.contains("warning [HX004] stage 1:"));
    }
}
