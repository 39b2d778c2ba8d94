//! Static retention estimation.
//!
//! Predicts, before pruning anything, what fraction of a document's
//! bytes a projector retains. The model is DTD-driven: content-model
//! structure gives an expected number of occurrences of each child name
//! per occurrence of its parent (`a*` ≈ 3 repetitions, `a?` ≈ ½, unions
//! split their weight evenly), occurrence counts propagate level by level
//! from the root, and per-name byte
//! weights come from tag lengths and attribute counts. When a sample
//! document is available, [`calibrate`] replaces the structural counts
//! and byte weights with observed per-name statistics.
//!
//! The kept side is context-aware: a name in π only survives where its
//! whole ancestor chain is also in π, so the structural model
//! re-propagates counts restricted to π, and the calibrated model
//! combines observed parent→child edge counts into a per-name
//! keep-fraction. Without this, names shared between kept and pruned
//! contexts (XMark's `name` under both `person` and `category`, say)
//! would count fully toward the kept weight.

use xproj_core::Projector;
use xproj_dtd::{Content, Dtd, Regex};
use xproj_xmltree::entities::decode_entities;
use xproj_xmltree::push::{drain_str, RawAttrs, TokenSink};
use xproj_xmltree::ParseError;

/// Expected repetitions of a `*`/`+` factor in the structural model.
const STAR_WEIGHT: f64 = 3.0;
/// Expected serialised bytes of one text node in the structural model.
const TEXT_BYTES: f64 = 20.0;

/// Per-name weight: expected occurrence count and expected serialised
/// bytes per occurrence.
#[derive(Debug, Clone)]
pub struct NameWeight {
    /// The name's label.
    pub name: String,
    /// Expected number of occurrences in a document.
    pub count: f64,
    /// Expected serialised bytes per occurrence (tags + attributes, or
    /// text content).
    pub bytes: f64,
    /// Whether the projector keeps this name.
    pub kept: bool,
}

/// The retention verdict.
#[derive(Debug, Clone)]
pub struct RetentionEstimate {
    /// Predicted retained fraction of the document's bytes, in `[0, 1]`.
    pub predicted: f64,
    /// Expected bytes attributed to projector names.
    pub kept_weight: f64,
    /// Expected bytes attributed to all root-reachable names.
    pub total_weight: f64,
    /// `true` when the counts come from a sample document rather than
    /// the structural model.
    pub calibrated: bool,
    /// `true` when level propagation hit its iteration or mass cap (a
    /// recursive DTD whose expected branching does not converge); the
    /// counts are then a truncation, not a fixpoint.
    pub diverged: bool,
    /// Per-name breakdown, root-reachable names only, label-sorted.
    pub per_name: Vec<NameWeight>,
}

/// Structural estimate: DTD-only, no document.
///
/// A recursive grammar whose expected branching exceeds one has no
/// finite expected document — propagation would truncate at an
/// arbitrary cap and the kept/total ratio of two truncations is
/// meaningless. When that happens the star weight is halved until the
/// masses converge: the attenuated model describes *some* finite
/// document from the grammar, which is what a retention ratio needs.
/// The `diverged` flag reports that attenuation happened.
pub fn estimate(dtd: &Dtd, projector: &Projector) -> RetentionEstimate {
    let mut sw = STAR_WEIGHT;
    let mut attenuated = false;
    loop {
        let (counts, kept_counts, diverged) = structural_counts(dtd, sw, projector);
        if diverged && sw > 0.25 {
            attenuated = true;
            sw *= 0.5;
            continue;
        }
        let bytes = structural_bytes(dtd);
        return combine(
            dtd,
            projector,
            &counts,
            &kept_counts,
            &bytes,
            false,
            diverged || attenuated,
        );
    }
}

/// Calibrated estimate: per-name counts and byte weights observed in
/// `sample`. Falls back to [`estimate`] when the sample contains no
/// element declared by the DTD.
pub fn estimate_calibrated(dtd: &Dtd, projector: &Projector, sample: &str) -> RetentionEstimate {
    match calibrate(dtd, sample) {
        Some(stats) => {
            // Convert per-name byte totals into per-occurrence weights.
            let bytes: Vec<f64> = stats
                .counts
                .iter()
                .zip(&stats.bytes)
                .map(|(&c, &b)| if c > 0.0 { b / c } else { 0.0 })
                .collect();
            let fractions = stats.keep_fractions(dtd, projector);
            let kept_counts: Vec<f64> = stats
                .counts
                .iter()
                .zip(&fractions)
                .map(|(&c, &f)| c * f)
                .collect();
            combine(
                dtd,
                projector,
                &stats.counts,
                &kept_counts,
                &bytes,
                true,
                false,
            )
        }
        None => estimate(dtd, projector),
    }
}

fn combine(
    dtd: &Dtd,
    projector: &Projector,
    counts: &[f64],
    kept_counts: &[f64],
    bytes: &[f64],
    calibrated: bool,
    diverged: bool,
) -> RetentionEstimate {
    let reachable = dtd.reachable_from_root();
    let mut kept_weight = 0.0;
    let mut total_weight = 0.0;
    let mut per_name = Vec::new();
    for n in dtd.all_names().filter(|&n| reachable.contains(n)) {
        let w = counts[n.index()] * bytes[n.index()];
        let kept = projector.contains(n);
        total_weight += w;
        if kept {
            kept_weight += kept_counts[n.index()] * bytes[n.index()];
        }
        per_name.push(NameWeight {
            name: dtd.label(n).to_string(),
            count: counts[n.index()],
            bytes: bytes[n.index()],
            kept,
        });
    }
    per_name.sort_by(|a, b| a.name.cmp(&b.name));
    let predicted = if total_weight > 0.0 {
        (kept_weight / total_weight).clamp(0.0, 1.0)
    } else {
        1.0
    };
    RetentionEstimate {
        predicted,
        kept_weight,
        total_weight,
        calibrated,
        diverged,
        per_name,
    }
}

/// Expected multiplicity of each child name in one match of `re`, a
/// `*`/`+` factor repeating `star_weight` times.
fn multiplicities(re: &Regex, star_weight: f64, scale: f64, out: &mut [f64]) {
    match re {
        Regex::Epsilon => {}
        Regex::Name(n) => out[n.index()] += scale,
        Regex::Seq(rs) => {
            for r in rs {
                multiplicities(r, star_weight, scale, out);
            }
        }
        Regex::Alt(rs) => {
            let branch = scale / rs.len() as f64;
            for r in rs {
                multiplicities(r, star_weight, branch, out);
            }
        }
        Regex::Star(r) => multiplicities(r, star_weight, scale * star_weight, out),
        Regex::Plus(r) => multiplicities(r, star_weight, scale * star_weight.max(1.0), out),
        Regex::Opt(r) => multiplicities(r, star_weight, scale * 0.5, out),
    }
}

/// Expected occurrence count per name, propagated level by level from
/// one root occurrence. Two masses propagate in lockstep: the total
/// mass through the whole grammar, and the kept mass restricted to π
/// (the occurrences whose entire ancestor chain survives pruning).
/// Lockstep matters on divergent grammars — both truncate at the same
/// level, so kept ≤ total holds even under truncation. Returns
/// `(total, kept, diverged)`.
fn structural_counts(dtd: &Dtd, star_weight: f64, keep: &Projector) -> (Vec<f64>, Vec<f64>, bool) {
    let n = dtd.name_count();
    // m[y] = expected children-per-occurrence vector of y.
    let mut m: Vec<Vec<f64>> = vec![Vec::new(); n];
    for y in dtd.all_names() {
        let mut row = vec![0.0; n];
        if let Content::Element(re) = &dtd.info(y).content {
            multiplicities(re, star_weight, 1.0, &mut row);
            // Mixed content repeats text slots structurally; one logical
            // text node per parent occurrence is the better prior.
            for t in dtd.text_children_of(y) {
                row[t.index()] = row[t.index()].min(1.0);
            }
        }
        m[y.index()] = row;
    }

    let mut allowed = vec![false; n];
    for x in dtd.all_names() {
        allowed[x.index()] = keep.contains(x);
    }

    const MAX_LEVELS: usize = 256;
    const MASS_EPS: f64 = 1e-9;
    const TOTAL_CAP: f64 = 1e15;
    let mut counts = vec![0.0; n];
    let mut kept = vec![0.0; n];
    let mut level = vec![0.0; n];
    let mut kept_level = vec![0.0; n];
    level[dtd.root().index()] = 1.0;
    if allowed[dtd.root().index()] {
        kept_level[dtd.root().index()] = 1.0;
    }
    let mut diverged = false;
    for _ in 0..MAX_LEVELS {
        let mass: f64 = level.iter().sum();
        if mass < MASS_EPS {
            break;
        }
        if counts.iter().sum::<f64>() > TOTAL_CAP {
            diverged = true;
            break;
        }
        for (c, l) in counts.iter_mut().zip(&level) {
            *c += l;
        }
        for (c, l) in kept.iter_mut().zip(&kept_level) {
            *c += l;
        }
        let mut next = vec![0.0; n];
        let mut kept_next = vec![0.0; n];
        for y in 0..n {
            if level[y] == 0.0 {
                continue;
            }
            for (c, w) in m[y].iter().enumerate() {
                next[c] += level[y] * w;
                if allowed[c] {
                    kept_next[c] += kept_level[y] * w;
                }
            }
        }
        level = next;
        kept_level = kept_next;
    }
    if level.iter().sum::<f64>() >= MASS_EPS {
        diverged = true;
    }
    (counts, kept, diverged)
}

/// Expected serialised bytes per occurrence: `<tag>` + `</tag>` plus a
/// rough per-attribute cost for elements, `TEXT_BYTES` for text names.
fn structural_bytes(dtd: &Dtd) -> Vec<f64> {
    dtd.all_names()
        .map(|n| {
            if dtd.is_text_name(n) {
                TEXT_BYTES
            } else {
                let tag = dtd.label(n).len() as f64;
                let attrs: f64 = dtd
                    .info(n)
                    .attributes
                    .iter()
                    .map(|&t| dtd.tags.resolve(t).len() as f64 + 8.0)
                    .sum();
                2.0 * tag + 5.0 + attrs
            }
        })
        .collect()
}

/// Observed per-name statistics of a sample document.
#[derive(Debug, Clone)]
pub struct SampleStats {
    /// Occurrence count per name.
    pub counts: Vec<f64>,
    /// Total serialised bytes per name (tags + attributes, or text).
    pub bytes: Vec<f64>,
    /// Parent→child occurrence counts, row-major `parent * n + child`.
    edges: Vec<f64>,
}

impl SampleStats {
    /// For each name, the fraction of its observed occurrences whose
    /// whole ancestor chain lies inside `projector` — i.e. the fraction
    /// pruning actually keeps. Computed as a fixpoint over the observed
    /// parent→child edge frequencies (the DTD can be recursive, so the
    /// edge graph can have cycles; iteration from zero converges to the
    /// least fixpoint because each name's incoming frequencies sum to at
    /// most one).
    fn keep_fractions(&self, dtd: &Dtd, projector: &Projector) -> Vec<f64> {
        let n = dtd.name_count();
        let mut by_index = vec![None; n];
        for id in dtd.all_names() {
            by_index[id.index()] = Some(id);
        }
        let incoming: Vec<f64> = (0..n)
            .map(|c| (0..n).map(|p| self.edges[p * n + c]).sum())
            .collect();
        let mut f = vec![0.0; n];
        let root = dtd.root().index();
        if !projector.contains(dtd.root()) {
            return f;
        }
        f[root] = 1.0;
        for _ in 0..64 {
            let mut delta = 0.0f64;
            for c in 0..n {
                if c == root || incoming[c] == 0.0 {
                    continue;
                }
                let Some(cid) = by_index[c] else { continue };
                if !projector.contains(cid) {
                    continue;
                }
                let next: f64 =
                    (0..n).map(|p| f[p] * self.edges[p * n + c]).sum::<f64>() / incoming[c];
                delta = delta.max((next - f[c]).abs());
                f[c] = next;
            }
            if delta < 1e-12 {
                break;
            }
        }
        f
    }
}

/// Walks a sample document and collects observed per-name occurrence
/// counts, byte totals, and parent→child edge counts. Elements with
/// tags the DTD does not declare are skipped (their bytes count toward
/// nothing — the caller's DTD simply does not describe them). Returns
/// `None` when no declared element was seen.
pub fn calibrate(dtd: &Dtd, sample: &str) -> Option<SampleStats> {
    let n = dtd.name_count();
    let mut sampler = Sampler {
        dtd,
        stats: SampleStats {
            counts: vec![0.0; n],
            bytes: vec![0.0; n],
            edges: vec![0.0; n * n],
        },
        stack: Vec::new(),
        seen: false,
    };
    drain_str(sample, &mut sampler, false).ok()?;
    sampler.seen.then_some(sampler.stats)
}

/// The sampling sink: tallies every declared element and text run it is
/// shown against the name the DTD gives it.
struct Sampler<'a> {
    dtd: &'a Dtd,
    stats: SampleStats,
    /// Names of the open elements (`None`: not declared by the DTD).
    stack: Vec<Option<xproj_dtd::NameId>>,
    seen: bool,
}

impl TokenSink for Sampler<'_> {
    type Error = ParseError;

    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, ParseError> {
        let n = self.dtd.name_count();
        let nid = self.dtd.name_of_tag_str(name);
        if let Some(id) = nid {
            self.seen = true;
            self.stats.counts[id.index()] += 1.0;
            let attr_bytes: usize = RawAttrs::new(attrs_raw)
                .flatten()
                .map(|(aname, raw)| {
                    let value = decode_entities(raw).map_or(raw.len(), |v| v.len());
                    aname.len() + value + 4
                })
                .sum();
            self.stats.bytes[id.index()] += (2 * name.len() + 5 + attr_bytes) as f64;
            if let Some(Some(top)) = self.stack.last() {
                self.stats.edges[top.index() * n + id.index()] += 1.0;
            }
        }
        self.stack.push(nid);
        Ok(false)
    }

    fn end(&mut self, _name: &str) -> Result<(), ParseError> {
        self.stack.pop();
        Ok(())
    }

    fn text(&mut self, decoded: &str) -> Result<(), ParseError> {
        if let Some(Some(top)) = self.stack.last() {
            if let Some(tn) = self.dtd.text_children_of(*top).iter().next() {
                let n = self.dtd.name_count();
                self.stats.counts[tn.index()] += 1.0;
                self.stats.bytes[tn.index()] += decoded.len() as f64;
                self.stats.edges[top.index() * n + tn.index()] += 1.0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_core::StaticAnalyzer;
    use xproj_dtd::parse_dtd;

    fn books() -> Dtd {
        parse_dtd(
            "<!ELEMENT bib (book*)>\
             <!ELEMENT book (title, author+, price?)>\
             <!ELEMENT title (#PCDATA)>\
             <!ELEMENT author (#PCDATA)>\
             <!ELEMENT price (#PCDATA)>",
            "bib",
        )
        .unwrap()
    }

    #[test]
    fn full_projector_retains_everything() {
        let d = books();
        let e = estimate(&d, &Projector::full(&d));
        assert!((e.predicted - 1.0).abs() < 1e-12);
        assert!(!e.diverged);
    }

    #[test]
    fn empty_projector_retains_nothing() {
        let d = books();
        let e = estimate(&d, &Projector::empty(&d));
        assert_eq!(e.predicted, 0.0);
    }

    #[test]
    fn narrower_projector_predicts_lower_retention() {
        let d = books();
        let mut sa = StaticAnalyzer::new(&d);
        let narrow = sa.project_query("/bib/book/title").unwrap();
        let wide = sa.project_query("/bib/book").unwrap();
        let en = estimate(&d, &narrow);
        let ew = estimate(&d, &wide);
        assert!(
            en.predicted < ew.predicted,
            "{} vs {}",
            en.predicted,
            ew.predicted
        );
        assert!(en.predicted > 0.0 && en.predicted < 1.0);
    }

    #[test]
    fn recursive_dtd_flags_divergence_when_branching_explodes() {
        // a* under itself with star_weight 3 → expected mass triples per
        // level and never dies out.
        let d = parse_dtd("<!ELEMENT a (a*)>", "a").unwrap();
        let e = estimate(&d, &Projector::full(&d));
        assert!(e.diverged);
        assert!(e.predicted.is_finite());
    }

    #[test]
    fn calibration_uses_observed_counts() {
        let d = books();
        let sample = "<bib><book><title>War and Peace</title>\
                      <author>Tolstoy</author><author>Lev</author>\
                      <price>12</price></book></bib>";
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query("/bib/book/title").unwrap();
        let e = estimate_calibrated(&d, &p, sample);
        assert!(e.calibrated);
        let author = e.per_name.iter().find(|w| w.name == "author").unwrap();
        assert_eq!(author.count, 2.0);
        assert!(!author.kept);
        assert!(e.predicted > 0.0 && e.predicted < 1.0);
    }

    #[test]
    fn shared_name_only_counts_in_kept_contexts() {
        // 'name' occurs under both person (kept) and category (pruned);
        // only the person-side occurrence survives pruning, and both
        // models must say so.
        let d = parse_dtd(
            "<!ELEMENT site (person*, category*)>\
             <!ELEMENT person (name)> <!ELEMENT category (name)>\
             <!ELEMENT name (#PCDATA)>",
            "site",
        )
        .unwrap();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query("/site/person/name").unwrap();
        let sample = "<site><person><name>a</name></person>\
                      <category><name>b</name></category>\
                      <category><name>c</name></category>\
                      <category><name>d</name></category></site>";
        let cal = estimate_calibrated(&d, &p, sample);
        assert!(cal.calibrated);
        let stats = calibrate(&d, sample).unwrap();
        let fr = stats.keep_fractions(&d, &p);
        let name_id = d.name_of_tag_str("name").unwrap();
        assert!((fr[name_id.index()] - 0.25).abs() < 1e-9, "{fr:?}");
        // Structural: kept 'name' mass flows only through person.
        let st = estimate(&d, &p);
        let full = estimate(&d, &Projector::full(&d));
        assert!(st.predicted < full.predicted);
    }

    #[test]
    fn unusable_sample_falls_back_to_structural() {
        let d = books();
        let e = estimate_calibrated(&d, &Projector::full(&d), "<unrelated/>");
        assert!(!e.calibrated);
    }
}
