//! Arena-based XML data model for the type-based projection system.
//!
//! This crate implements the paper's data model (§2.1): ordered forests of
//! labelled ordered trees whose nodes carry unique identifiers, with text
//! strings at the leaves. Concretely a [`Document`] is a flat arena of
//! [`Node`]s linked by parent / first-child / next-sibling indices, so a
//! [`NodeId`] is a dense `u32` and document order coincides with arena
//! order for freshly-parsed or freshly-built documents.
//!
//! The crate also provides:
//!
//! * a tag [`Interner`] mapping element names to dense [`TagId`]s,
//! * a from-scratch XML 1.0 [`parser`] (elements, attributes, text, CDATA,
//!   comments, processing instructions, DOCTYPE capture, the five
//!   predefined entities and numeric character references),
//! * a [`serializer`](Document::to_xml) producing well-formed XML,
//! * the one incremental tokenizer ([`push::PushTokenizer`]) whose
//!   [`drain`](push::PushTokenizer::drain) loop feeds every XML consumer
//!   in the workspace — the tree parser here, the streaming pruner in
//!   `xproj-core`, the engines above it — through [`push::TokenSink`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod entities;
pub mod interner;
pub mod parser;
pub mod push;
pub mod scan;

pub use document::{Attribute, Document, Node, NodeId, NodeKind};
pub use interner::{Interner, TagId};
pub use parser::{parse, parse_with_interner, KeptEvents, ParseError, TreeBuilder};
