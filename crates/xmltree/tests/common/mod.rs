//! The collecting [`TokenSink`] the tokenizer's integration tests share:
//! every call the loop makes becomes one owned [`Ev`], so tests compare
//! plain event lists.

#![allow(dead_code)] // each test binary uses its own subset

use xproj_xmltree::entities::decode_entities;
use xproj_xmltree::push::{Drained, PushTokenizer, RawAttrs, TokenSink};
use xproj_xmltree::ParseError;

/// One sink call, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ev {
    /// `start(name, attrs)` with the attribute values decoded.
    Start(String, Vec<(String, String)>),
    /// `end(name)`.
    End(String),
    /// `text(decoded)`.
    Text(String),
    /// `doctype(name, internal_subset)`.
    Doctype(String, Option<String>),
}

/// Shorthand constructors, so expected lists read like the document.
pub fn s(name: &str, attrs: &[(&str, &str)]) -> Ev {
    Ev::Start(
        name.to_string(),
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}
pub fn e(name: &str) -> Ev {
    Ev::End(name.to_string())
}
pub fn t(text: &str) -> Ev {
    Ev::Text(text.to_string())
}
pub fn d(name: &str, subset: Option<&str>) -> Ev {
    Ev::Doctype(name.to_string(), subset.map(str::to_string))
}

/// Records every call; reports the subtree of any element named
/// `skippable` as unwanted (so a fast-forwarding feed skips it).
#[derive(Default)]
pub struct Collect {
    pub events: Vec<Ev>,
    pub skippable: Option<&'static str>,
}

impl TokenSink for Collect {
    type Error = ParseError;

    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, ParseError> {
        let attrs = RawAttrs::new(attrs_raw)
            .map(|a| {
                let (k, v) = a.expect("feed validated attribute syntax");
                let v = decode_entities(v).expect("feed validated attribute entities");
                (k.to_string(), v.into_owned())
            })
            .collect();
        self.events.push(Ev::Start(name.to_string(), attrs));
        Ok(self.skippable == Some(name))
    }

    fn end(&mut self, name: &str) -> Result<(), ParseError> {
        self.events.push(Ev::End(name.to_string()));
        Ok(())
    }

    fn text(&mut self, decoded: &str) -> Result<(), ParseError> {
        self.events.push(Ev::Text(decoded.to_string()));
        Ok(())
    }

    fn doctype(&mut self, name: &str, subset: Option<&str>) -> Result<(), ParseError> {
        self.events
            .push(Ev::Doctype(name.to_string(), subset.map(str::to_string)));
        Ok(())
    }
}

/// Feeds `chunks` one by one, then finishes. Returns the tokenizer too,
/// for tests that inspect its accounting.
pub fn run_with(
    chunks: &[&[u8]],
    sink: &mut Collect,
    fast_forward: bool,
) -> Result<(Drained, PushTokenizer), ParseError> {
    let mut tok = PushTokenizer::new();
    let mut done = Drained::default();
    for chunk in chunks {
        done += tok.feed(chunk, sink, fast_forward)?;
    }
    done += tok.finish_into(sink)?;
    Ok((done, tok))
}

/// The event list and event count of `chunks`, no fast-forward.
pub fn run(chunks: &[&[u8]]) -> Result<(Vec<Ev>, u64), ParseError> {
    let mut sink = Collect::default();
    let (done, _) = run_with(chunks, &mut sink, false)?;
    Ok((sink.events, done.events))
}

/// [`run`] on the whole document as one chunk.
pub fn run_str(doc: &str) -> Result<(Vec<Ev>, u64), ParseError> {
    run(&[doc.as_bytes()])
}
