//! A from-scratch XML parser and writer mapping documents onto
//! [`pqgram_tree::Tree`]s.
//!
//! The paper indexes XML documents (XMark, DBLP). This crate provides the
//! document ↔ tree bridge without external dependencies:
//!
//! * [`tokenize`] — a streaming tokenizer for the XML subset needed for data
//!   documents (elements, attributes, text, CDATA, comments, processing
//!   instructions, DOCTYPE, the five predefined entities and numeric
//!   character references);
//! * [`parse_document`] — builds a [`pqgram_tree::Tree`] following the usual convention of
//!   the pq-gram literature: an element becomes a node labeled with its tag
//!   name, an attribute becomes a child node labeled `@name` with one value
//!   leaf, and a text run becomes a leaf labeled with its (whitespace-
//!   normalized) content;
//! * [`write_document`] — serializes a tree back to XML (inverse of the
//!   mapping above).
//!
//! ```
//! use pqgram_tree::LabelTable;
//! use pqgram_xml::parse_document;
//!
//! let mut labels = LabelTable::new();
//! let tree = parse_document(r#"<dblp><article key="42"><title>pq-grams</title></article></dblp>"#,
//!                           &mut labels).unwrap();
//! assert_eq!(labels.name(tree.label(tree.root())), "dblp");
//! assert_eq!(tree.node_count(), 6); // dblp, article, @key, 42, title, pq-grams
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod parse;
pub mod stream;
mod token;
mod write;

pub use error::{ParseError, ParseErrorKind};
pub use parse::{parse_document, parse_document_with, ParseOptions};
pub use stream::stream_index;
pub use token::{tokenize, Attribute, Token, Tokenizer};
pub use write::{write_document, WriteOptions};
