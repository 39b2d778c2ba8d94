//! Projector pins: π must not move when the static side is refactored.
//!
//! Each pin is the 64-bit FNV-1a of one `id: label,label,…` line per
//! (grammar, query, entry point), labels sorted — so a refactor of the
//! name universe, of A_E / T_E or of the workload loop that changes a
//! single member of a single projector changes the pin. The values were
//! generated before the one-universe refactor and pass at its parent.
//! On a mismatch the panic message carries every line, so two runs diff.

use xml_projection::analyzer::provenance::trace_workload;
use xml_projection::core::{Projector, StaticAnalyzer};
use xml_projection::dtd::Dtd;
use xml_projection::xmark::{
    auction_dtd, parse_use_case, use_case_dtds, xmark_queries, xpathmark_queries, QueryKind,
};
use xml_projection::xquery::{parse_xquery, project_xquery};
use xproj_testkit::fnv1a;

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const ITEM_PATHS: [&str; 16] = [
    "location",
    "quantity",
    "name",
    "payment",
    "shipping",
    "incategory",
    "description",
    "description/text",
    "description/parlist",
    "description/parlist/listitem",
    "mailbox",
    "mailbox/mail",
    "mailbox/mail/from",
    "mailbox/mail/to",
    "mailbox/mail/date",
    "mailbox/mail/text",
];
const AXIS_FAMILY: [&str; 5] = [
    "//*",
    "/*/*",
    "//*/parent::*",
    "//text()/ancestor::*",
    "//*[*]/following-sibling::*",
];

/// The three entry points a query string can take, `None` where it does
/// not apply (an XQuery is not a location path).
fn projectors(sa: &mut StaticAnalyzer<'_>, query: &str, xpath: bool) -> [Option<Projector>; 3] {
    let ast = parse_xquery(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    [
        Some(project_xquery(sa, &ast)),
        xpath.then(|| sa.project_query(query).unwrap()),
        xpath.then(|| sa.project_query_exact(query).unwrap()),
    ]
}

/// One line per (query, entry point); also holds tracing on/off and
/// `trace_workload` to the same π as `project_xquery`.
fn render(dtd: &Dtd, id: &str, query: &str, xpath: bool, contexts: bool, out: &mut String) {
    let mut sa = StaticAnalyzer::new(dtd);
    sa.set_use_contexts(contexts);
    let plain = projectors(&mut sa, query, xpath);
    sa.enable_trace();
    let traced = projectors(&mut sa, query, xpath);
    assert_eq!(plain, traced, "{id}: tracing changed a projector");
    if contexts {
        let prov = trace_workload(dtd, &[query.to_string()]).unwrap();
        assert_eq!(
            Some(&prov.projector),
            plain[0].as_ref(),
            "{id}: trace_workload"
        );
    }
    for (entry, p) in ["xquery", "materialized", "exact"].iter().zip(&plain) {
        if let Some(p) = p {
            out.push_str(&format!("{id}/{entry}: {}\n", p.labels(dtd).join(",")));
        }
    }
}

/// Renders one group with contexts on and off and holds both pins.
fn check(group: &str, pins: [u64; 2], render_group: impl Fn(bool, &mut String)) {
    let mut failures = String::new();
    for (contexts, expected) in [true, false].into_iter().zip(pins) {
        let mut lines = String::new();
        render_group(contexts, &mut lines);
        let got = fnv1a(&lines);
        if got != expected {
            failures.push_str(&format!(
                "{group} (contexts {contexts}): pin {got:#018x}, expected {expected:#018x}\n{lines}"
            ));
        }
    }
    assert!(failures.is_empty(), "{failures}");
}

#[test]
fn benchmark_queries_are_pinned() {
    let dtd = auction_dtd();
    let mut workload = xmark_queries();
    workload.extend(xpathmark_queries());
    assert_eq!(workload.len(), 43);
    check("benchmark queries", BENCH, |contexts, lines| {
        for q in &workload {
            render(
                &dtd,
                q.id,
                q.text,
                q.kind == QueryKind::XPath,
                contexts,
                lines,
            );
        }
    });
}

#[test]
fn cold_workload_paths_are_pinned() {
    let dtd = auction_dtd();
    check("small_query_cold paths", COLD, |contexts, lines| {
        for region in REGIONS {
            for path in ITEM_PATHS {
                let q = format!("/site/regions/{region}/item/{path}");
                render(&dtd, &q, &q, true, contexts, lines);
            }
        }
    });
}

#[test]
fn use_case_grammars_are_pinned_on_the_axis_family() {
    check("use-case grammars", USE_CASES, |contexts, lines| {
        for uc in use_case_dtds() {
            let dtd = parse_use_case(&uc);
            for path in AXIS_FAMILY {
                render(
                    &dtd,
                    &format!("{} {path}", uc.name),
                    path,
                    true,
                    contexts,
                    lines,
                );
            }
        }
    });
}

/// `[contexts on, contexts off]`.
const BENCH: [u64; 2] = [0xdb0b_0d7a_0c6c_43fc, 0x05d5_641a_1572_3b4e];
const COLD: [u64; 2] = [0x008c_3ea9_bcbb_25d9, 0x2a89_a01d_cded_b0bf];
const USE_CASES: [u64; 2] = [0xa1b8_b8ca_918e_1c30, 0xb825_485e_8d9f_c9c3];
