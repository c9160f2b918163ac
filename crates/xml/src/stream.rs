//! Streaming pq-gram index construction: index an XML document without
//! materializing its tree.
//!
//! The paper's documents reach hundreds of megabytes (DBLP: 211 MB); the
//! DOM-style [`crate::parse_document`] needs the whole tree in memory.
//! [`stream_index`] instead folds the tokenizer's events directly into the
//! pq-gram index: it keeps only the open-element stack (ancestor labels for
//! p-parts) and, per open element, the labels of the children seen so far
//! (for the q-part windows emitted when the element closes). Peak memory is
//! `O(depth + max fanout)` instead of `O(document)`.
//!
//! The result is identical to `build_index(parse_document(xml), …)` — the
//! equivalence is property-tested.

use crate::error::ParseError;
use crate::parse::ParseOptions;
use crate::token::{Token, Tokenizer};
use pqgram_core::{GramKernel, PQParams, TreeIndex};
use pqgram_tree::fingerprint::Fingerprint;
use pqgram_tree::{karp_rabin, FxHashMap};

/// Streaming gram emitter shared by the XML reader and tests.
struct Emitter {
    kernel: GramKernel,
    /// Label fingerprints of the open elements, root first.
    path: Vec<Fingerprint>,
    /// Per open element, the label fingerprints of the children closed so
    /// far (parallel to `path`).
    children: Vec<Vec<Fingerprint>>,
    index: TreeIndex,
    /// Cache: label string → fingerprint (labels repeat massively).
    fp_cache: FxHashMap<String, Fingerprint>,
}

impl Emitter {
    fn new(params: PQParams) -> Self {
        Emitter {
            kernel: GramKernel::new(params),
            path: Vec::new(),
            children: Vec::new(),
            index: TreeIndex::empty(params),
            fp_cache: FxHashMap::default(),
        }
    }

    fn fp(&mut self, label: &str) -> Fingerprint {
        if let Some(&f) = self.fp_cache.get(label) {
            return f;
        }
        let f = karp_rabin(label);
        self.fp_cache.insert(label.to_string(), f);
        f
    }

    fn open(&mut self, label: Fingerprint) {
        self.path.push(label);
        self.children.push(Vec::new());
    }

    /// Closes the innermost open element: all its children are known now,
    /// so its grams are emitted and it registers with its parent. Every
    /// caller closes an element it opened, so one is always open.
    fn close(&mut self) {
        let Some(children) = self.children.pop() else {
            return;
        };
        let index = &mut self.index;
        self.kernel
            .anchor(&self.path, children, |key| index.add(key));
        if let (Some(label), Some(siblings)) = (self.path.pop(), self.children.last_mut()) {
            siblings.push(label);
        }
    }

    /// A leaf child of the innermost open element (text or attribute
    /// value): emit its one gram and register it with the parent.
    fn leaf_child(&mut self, label: Fingerprint) {
        self.open(label);
        self.close();
    }
}

/// Builds the pq-gram index of an XML document in one streaming pass, with
/// the same document→tree mapping as [`crate::parse_document_with`].
pub fn stream_index(
    input: &str,
    params: PQParams,
    options: &ParseOptions,
) -> Result<TreeIndex, ParseError> {
    let mut tokens = Tokenizer::new(input);
    let mut emitter = Emitter::new(params);
    let mut open_names: Vec<String> = Vec::new();
    let mut seen_root = false;

    let structure_err = |tok: &Tokenizer<'_>, msg: &'static str| {
        let (line, column) = tok.position();
        ParseError {
            kind: crate::error::ParseErrorKind::BadDocumentStructure(msg),
            line,
            column,
        }
    };

    while let Some(tok) = tokens.next() {
        match tok? {
            Token::StartTag {
                name,
                attributes,
                self_closing,
            } => {
                if open_names.is_empty() && seen_root {
                    return Err(structure_err(&tokens, "content after the root element"));
                }
                seen_root = true;
                let label = emitter.fp(&name);
                emitter.open(label);
                open_names.push(name);
                if options.include_attributes {
                    let mut attrs = attributes;
                    attrs.sort_by(|a, b| a.name.cmp(&b.name));
                    for attr in attrs {
                        let attr_label = emitter.fp(&format!("@{}", attr.name));
                        let value_label = emitter.fp(&attr.value);
                        // The @attr node with its single value leaf.
                        emitter.open(attr_label);
                        emitter.leaf_child(value_label);
                        emitter.close();
                    }
                }
                if self_closing {
                    emitter.close();
                    open_names.pop();
                }
            }
            Token::EndTag { name } => match open_names.pop() {
                Some(open) if open == name => emitter.close(),
                _ => return Err(structure_err(&tokens, "unbalanced close tag")),
            },
            Token::Text(raw) => {
                if !options.include_text {
                    continue;
                }
                let content = if options.normalize_whitespace {
                    raw.split_ascii_whitespace().collect::<Vec<_>>().join(" ")
                } else {
                    raw
                };
                if content.is_empty() {
                    continue;
                }
                if open_names.is_empty() {
                    return Err(structure_err(&tokens, "text outside the root element"));
                }
                let label = emitter.fp(&content);
                emitter.leaf_child(label);
            }
            Token::Comment(_) | Token::ProcessingInstruction(_) | Token::Doctype(_) => {}
        }
    }
    if !open_names.is_empty() {
        return Err(structure_err(&tokens, "unclosed element at end of input"));
    }
    if !seen_root {
        return Err(structure_err(&tokens, "document has no root element"));
    }
    Ok(emitter.index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document_with;
    use crate::write::{write_document, WriteOptions};
    use pqgram_core::build_index;
    use pqgram_core::reference::index_by_definition;
    use pqgram_tree::generate::{dblp, xmark};
    use pqgram_tree::LabelTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_equivalent(xml: &str, params: PQParams, options: &ParseOptions) {
        let streamed = stream_index(xml, params, options).expect("stream");
        let mut lt = LabelTable::new();
        let tree = parse_document_with(xml, &mut lt, options).expect("parse");
        let built = build_index(&tree, &lt, params);
        assert_eq!(streamed, built, "stream and DOM disagree on {xml:?}");
        // Both run the shared kernel; the label-by-label fold does not.
        assert_eq!(
            streamed,
            index_by_definition(&tree, &lt, params),
            "stream and definition disagree on {xml:?}"
        );
    }

    #[test]
    fn matches_dom_on_handwritten_documents() {
        let docs = [
            "<a/>",
            "<a>text</a>",
            r#"<a x="1" b="2"><c>hi</c><d/><c>ho</c></a>"#,
            "<a><b><c><d/></c></b></a>",
            "<dblp><article key='k'><author>X</author><title>T &amp; U</title></article></dblp>",
            "<a>one<b/>two</a>",
        ];
        for doc in docs {
            for params in [
                PQParams::new(3, 3),
                PQParams::new(2, 2),
                PQParams::new(1, 4),
            ] {
                assert_equivalent(doc, params, &ParseOptions::default());
            }
        }
    }

    #[test]
    fn matches_dom_on_generated_documents() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lt = LabelTable::new();
        for tree in [
            xmark(&mut rng, &mut lt, 3_000),
            dblp(&mut rng, &mut lt, 3_000),
        ] {
            let xml = write_document(&tree, &lt, &WriteOptions::default());
            assert_equivalent(&xml, PQParams::default(), &ParseOptions::default());
        }
    }

    #[test]
    fn respects_parse_options() {
        let doc = r#"<a x="1"><b>text</b></a>"#;
        let options = ParseOptions {
            include_attributes: false,
            include_text: false,
            normalize_whitespace: true,
        };
        assert_equivalent(doc, PQParams::default(), &options);
        // And the two option sets genuinely differ.
        let with = stream_index(doc, PQParams::default(), &ParseOptions::default()).unwrap();
        let without = stream_index(doc, PQParams::default(), &options).unwrap();
        assert_ne!(with, without);
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in ["", "<a>", "</a>", "<a/><b/>", "text only", "<a></b>"] {
            assert!(
                stream_index(doc, PQParams::default(), &ParseOptions::default()).is_err(),
                "{doc:?} must be rejected"
            );
        }
    }
}
