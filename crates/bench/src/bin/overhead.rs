//! Reproduces the §6 prose claims about the optimisation's own cost:
//!
//! * static analysis is always below half a second, even for complex
//!   queries and large DTDs;
//! * pruning time is linear in the size of the pruned document
//!   (here: throughput stays flat as documents grow);
//! * pruning memory is bounded by element depth, not document size.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin overhead
//! ```

use std::time::Instant;
use xproj_bench::{document_at, mb, pruned_document, workload, AnyQuery, Knobs};
use xproj_core::StaticAnalyzer;
use xproj_dtd::{Dtd, Regex};
use xproj_xmark::auction_dtd;

fn main() {
    let knobs = Knobs::from_env();
    let dtd = auction_dtd();

    // ---- static analysis time per workload query ----
    println!("## static analysis time (paper: always < 0.5 s)");
    let mut worst = (String::new(), 0.0f64);
    for bq in workload() {
        let mut sa = StaticAnalyzer::new(&dtd); // cold, no memo reuse
        let q = AnyQuery::compile(&bq);
        let t = Instant::now();
        let projector = q.projector(&mut sa, bq.text);
        let dt = t.elapsed().as_secs_f64();
        if dt > worst.1 {
            worst = (bq.id.to_string(), dt);
        }
        assert!(dt < 0.5, "{} took {dt:.3}s", bq.id);
        let _ = projector;
    }
    println!(
        "  worst query: {} at {:.3} ms — all under 0.5 s\n",
        worst.0,
        worst.1 * 1e3
    );

    // ---- large synthetic DTD + a 20-step path (paper: XHTML, 20 steps) ----
    println!("## large-DTD analysis (synthetic 300-element DTD, 20-step path)");
    let big = big_dtd(300);
    let mut sa = StaticAnalyzer::new(&big);
    let deep_query = format!(
        "/{}",
        (0..20)
            .map(|i| format!("e{i}"))
            .collect::<Vec<_>>()
            .join("/")
    );
    let t = Instant::now();
    let p = sa.project_query(&deep_query).unwrap();
    let dt = t.elapsed();
    println!(
        "  {} names, 20-step query analysed in {dt:?} (projector: {} names)\n",
        big.name_count(),
        p.len()
    );
    assert!(dt.as_secs_f64() < 0.5);

    // ---- pruning linearity ----
    println!("## pruning throughput (linear time, O(depth) memory)");
    let mut sa = StaticAnalyzer::new(&dtd);
    let projector = sa
        .project_query("/site/closed_auctions/closed_auction[descendant::keyword]/date")
        .unwrap();
    println!(
        "  {:>10} {:>12} {:>10} {:>10}",
        "input(MB)", "time(ms)", "MB/s", "depth"
    );
    let mut rates = Vec::new();
    for &s in &knobs.ladder {
        let xml = document_at(&dtd, s);
        let t = Instant::now();
        let (_, stats) = pruned_document(&xml, &dtd, &projector);
        let dt = t.elapsed();
        let rate = mb(xml.len()) / dt.as_secs_f64();
        rates.push(rate);
        println!(
            "  {:>10.2} {:>12.2} {:>10.0} {:>10}",
            mb(xml.len()),
            dt.as_secs_f64() * 1e3,
            rate,
            stats.counters.max_depth
        );
    }
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));
    println!(
        "  throughput varies by {:.1}x across a {:.0}x size range — linear-time pruning",
        hi / lo,
        knobs.ladder.last().unwrap() / knobs.ladder[0]
    );
}

/// A deep synthetic DTD: e0 → e1 → … (chain) with decoy branches, to
/// stress the analysis the way a large real-world DTD (XHTML) would.
fn big_dtd(n: usize) -> Dtd {
    let mut b = Dtd::builder();
    let names: Vec<_> = (0..n).map(|i| b.element(&format!("e{i}"))).collect();
    let texts: Vec<_> = (0..n).map(|i| b.text(&format!("e{i}#text"))).collect();
    for i in 0..n {
        let mut alts = vec![Regex::Name(texts[i])];
        if i + 1 < n {
            alts.push(Regex::Name(names[i + 1]));
        }
        // decoy cross links to densify reachability
        if i + 7 < n {
            alts.push(Regex::Name(names[i + 7]));
        }
        b.content(names[i], Regex::Star(Box::new(Regex::Alt(alts))));
    }
    b.finish(names[0]).unwrap()
}
