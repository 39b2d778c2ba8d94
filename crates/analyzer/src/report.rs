//! Report rendering: human-readable text and machine-readable JSON
//! lines, shared by `xmlprune analyze` and `POST /v1/analyze`.
//!
//! The JSON form is one object per line, each tagged with a `"type"`
//! field (`meta`, `path`, `name`, `dtd`, `optimality`, `retention`,
//! `lint`) so consumers can stream it and ignore record kinds
//! they do not know.

use crate::Analysis;
use std::fmt::Write as _;
use xproj_core::json_escape;

fn json_str_list(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let body: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", json_escape(s.as_ref())))
        .collect();
    format!("[{}]", body.join(","))
}

fn json_opt_str(s: &Option<String>) -> String {
    match s {
        Some(v) => format!("\"{}\"", json_escape(v)),
        None => "null".to_string(),
    }
}

/// Formats an `f64` so the output is valid JSON (no NaN/inf) and stable.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders the analysis as JSON lines.
pub fn render_json_lines(a: &Analysis) -> String {
    let mut out = String::new();
    let pi = &a.provenance.projector;
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"root\":\"{}\",\"reachable\":{},\"queries\":{},\
         \"projector_size\":{},\"projector\":{}}}",
        json_escape(&a.root),
        a.reachable,
        json_str_list(&a.queries),
        pi.len(),
        json_str_list(a.provenance.entries.iter().map(|e| e.name.as_str())),
    );
    for (i, p) in a.provenance.paths.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"type\":\"path\",\"index\":{},\"query\":{},\"path\":\"{}\"}}",
            i,
            p.query,
            json_escape(&p.text)
        );
    }
    for e in &a.provenance.entries {
        let _ = writeln!(
            out,
            "{{\"type\":\"name\",\"name\":\"{}\",\"rule\":\"{}\",\"source\":{},\
             \"step\":\"{}\",\"via\":{},\"chain\":{},\"events\":{}}}",
            json_escape(&e.name),
            e.rule,
            e.source,
            json_escape(&e.step),
            json_opt_str(&e.via),
            json_str_list(&e.chain),
            e.events
        );
    }
    let props = a.diagnostics.properties();
    let witness = |w: &Option<String>| json_opt_str(w);
    let star = a.diagnostics.star_guard.as_ref().map(|w| w.factor.clone());
    let rec = a
        .diagnostics
        .recursion
        .as_ref()
        .map(|w| w.cycle.len().to_string());
    let _ = writeln!(
        out,
        "{{\"type\":\"dtd\",\"star_guarded\":{},\"non_recursive\":{},\
         \"parent_unambiguous\":{},\"completeness_ready\":{},\
         \"star_guard_factor\":{},\"recursion_cycle_len\":{}}}",
        props.star_guarded,
        props.non_recursive,
        props.parent_unambiguous,
        props.completeness_ready(),
        witness(&star),
        witness(&rec),
    );
    let _ = writeln!(
        out,
        "{{\"type\":\"optimality\",\"applies\":{},\"dtd_ok\":{},\"query_ok\":{},\
         \"reasons\":{}}}",
        a.optimality.applies,
        a.optimality.dtd_ok,
        a.optimality.query_ok,
        json_str_list(&a.optimality.reasons),
    );
    let r = &a.retention;
    let _ = writeln!(
        out,
        "{{\"type\":\"retention\",\"predicted\":{},\"kept_weight\":{},\
         \"total_weight\":{},\"calibrated\":{},\"diverged\":{}}}",
        json_num(r.predicted),
        json_num(r.kept_weight),
        json_num(r.total_weight),
        r.calibrated,
        r.diverged,
    );
    for l in &a.lints {
        let _ = writeln!(
            out,
            "{{\"type\":\"lint\",\"code\":\"{}\",\"level\":\"{}\",\"message\":\"{}\"}}",
            l.code,
            l.level.label(),
            json_escape(&l.message)
        );
    }
    out
}

/// Renders the analysis as a human-readable report.
pub fn render_text(a: &Analysis) -> String {
    let mut out = String::new();
    let pi = &a.provenance.projector;
    let _ = writeln!(out, "projector: {} of {} names", pi.len(), a.reachable);

    let _ = writeln!(out, "\nprovenance:");
    for e in &a.provenance.entries {
        let src = a
            .provenance
            .paths
            .get(e.source)
            .map(|p| p.text.as_str())
            .unwrap_or("?");
        let via = e
            .via
            .as_deref()
            .map(|v| format!(" from {v}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {}: {} rule at {}{} (path {}), chain {}",
            e.name,
            e.rule,
            e.step,
            via,
            src,
            e.chain.join(" → ")
        );
    }

    let props = a.diagnostics.properties();
    let _ = writeln!(out, "\ndtd properties (Def. 4.3):");
    let _ = writeln!(out, "  *-guarded: {}", props.star_guarded);
    let _ = writeln!(out, "  non-recursive: {}", props.non_recursive);
    let _ = writeln!(out, "  parent-unambiguous: {}", props.parent_unambiguous);

    let _ = writeln!(
        out,
        "\noptimality (Thm. 4.7): {}",
        if a.optimality.applies {
            "the inferred projector is optimal for this (DTD, workload) pair"
        } else {
            "not guaranteed"
        }
    );
    for r in &a.optimality.reasons {
        let _ = writeln!(out, "  - {r}");
    }

    let ret = &a.retention;
    let _ = writeln!(
        out,
        "\nretention: predicted {:.1}% of document bytes ({}{})",
        ret.predicted * 100.0,
        if ret.calibrated {
            "calibrated from sample"
        } else {
            "structural model"
        },
        if ret.diverged {
            ", diverged — truncated"
        } else {
            ""
        },
    );

    if a.lints.is_empty() {
        let _ = writeln!(out, "\nlints: none");
    } else {
        let _ = writeln!(out, "\nlints:");
        for l in &a.lints {
            let _ = writeln!(out, "  [{}] {}: {}", l.level.label(), l.code, l.message);
        }
    }

    out
}

/// Renders an independence report as one JSON object (single line) —
/// the `POST /v1/independence` response body and the CLI `--json`
/// output.
pub fn render_independence_json(r: &crate::IndependenceReport) -> String {
    let mut ws = Vec::new();
    for w in &r.witnesses {
        ws.push(format!(
            "{{\"kind\":\"{}\",\"name\":\"{}\",\"role\":\"{}\",\
             \"query_path\":\"{}\",\"query_step\":\"{}\",\
             \"query_chain\":{},\"update_chain\":{}}}",
            json_escape(w.kind),
            json_escape(&w.name),
            json_escape(&w.role),
            json_escape(&w.query_path),
            json_escape(&w.query_step),
            json_str_list(&w.query_chain),
            json_str_list(&w.update_chain),
        ));
    }
    format!(
        "{{\"type\":\"independence\",\"root\":\"{}\",\"query\":\"{}\",\
         \"update\":\"{}\",\"verdict\":\"{}\",\"query_names\":{},\
         \"updated_names\":{},\"overlap\":{},\"empty_target\":{},\
         \"witnesses\":[{}]}}",
        json_escape(&r.root),
        json_escape(&r.query),
        json_escape(&r.update),
        r.verdict.as_str(),
        r.query_names,
        r.updated_names,
        r.overlap,
        r.empty_target,
        ws.join(","),
    )
}

/// Renders an independence report for humans.
pub fn render_independence_text(r: &crate::IndependenceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "query:  {}", r.query);
    let _ = writeln!(out, "update: {}", r.update);
    let _ = writeln!(
        out,
        "verdict: {} (query uses {} names, update touches {}, overlap {})",
        r.verdict.as_str(),
        r.query_names,
        r.updated_names,
        r.overlap
    );
    if r.empty_target {
        let _ = writeln!(
            out,
            "  the target path selects nothing in any valid document — the update is a no-op"
        );
    }
    for w in &r.witnesses {
        if w.kind == "undeclared-fragment-tag" {
            let _ = writeln!(
                out,
                "  witness: fragment tag <{}> has no root-reachable declaration — \
                 the updated document leaves the grammar, so independence is not claimed",
                w.name
            );
            continue;
        }
        let _ = writeln!(out, "  witness: {} ({})", w.name, w.role);
        let _ = writeln!(
            out,
            "    query needs it: {} at {}",
            w.query_path, w.query_step
        );
        let _ = writeln!(out, "    query chain:  {}", w.query_chain.join(" => "));
        let _ = writeln!(out, "    update chain: {}", w.update_chain.join(" => "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisOptions};
    use xproj_dtd::parse_dtd;

    fn sample_analysis() -> Analysis {
        let d = parse_dtd(
            "<!ELEMENT bib (book*)>\
             <!ELEMENT book (title, author+)>\
             <!ELEMENT title (#PCDATA)>\
             <!ELEMENT author (#PCDATA)>",
            "bib",
        )
        .unwrap();
        analyze(
            &d,
            &["/bib/book/title".to_string()],
            &AnalysisOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn text_report_has_all_sections() {
        let t = render_text(&sample_analysis());
        for needle in [
            "projector:",
            "provenance:",
            "dtd properties",
            "optimality",
            "retention:",
            "lints",
        ] {
            assert!(t.contains(needle), "missing {needle}:\n{t}");
        }
    }

    #[test]
    fn json_lines_all_parse() {
        let a = sample_analysis();
        let j = render_json_lines(&a);
        let mut types = Vec::new();
        for line in j.lines() {
            let v = xproj_testkit::parse_json(line).unwrap_or_else(|e| {
                panic!("line does not parse ({e}): {line}");
            });
            types.push(v.get("type").and_then(|t| t.as_str()).unwrap().to_string());
        }
        for t in ["meta", "path", "name", "dtd", "optimality", "retention"] {
            assert!(types.iter().any(|x| x == t), "missing record type {t}");
        }
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
