//! Document → [`Tree`] construction.
//!
//! The mapping follows the pq-gram literature (and Augsten et al.'s
//! experimental setup): element nodes are labeled with their tag name,
//! attributes become children labeled `@name` (sorted by name, since XML
//! attribute order is not significant) each carrying one value leaf, and
//! text runs become leaves labeled with their whitespace-normalized content.

use crate::error::{ParseError, ParseErrorKind};
use crate::token::{Token, Tokenizer};
use pqgram_tree::{LabelTable, NodeId, Tree};

/// Options controlling the document → tree mapping.
#[derive(Clone, Debug)]
pub struct ParseOptions {
    /// Map attributes to `@name(value)` children (default `true`).
    pub include_attributes: bool,
    /// Map text runs to value leaves (default `true`).
    pub include_text: bool,
    /// Collapse internal whitespace in text and drop whitespace-only runs
    /// (default `true`; data documents are whitespace-insensitive).
    pub normalize_whitespace: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            include_attributes: true,
            include_text: true,
            normalize_whitespace: true,
        }
    }
}

/// Parses an XML document into a tree with default [`ParseOptions`].
pub fn parse_document(input: &str, labels: &mut LabelTable) -> Result<Tree, ParseError> {
    parse_document_with(input, labels, &ParseOptions::default())
}

/// Parses an XML document into a tree.
pub fn parse_document_with(
    input: &str,
    labels: &mut LabelTable,
    options: &ParseOptions,
) -> Result<Tree, ParseError> {
    let mut tokens = Tokenizer::new(input);
    let mut tree: Option<Tree> = None;
    // Stack of open element nodes.
    let mut stack: Vec<(String, NodeId)> = Vec::new();

    let structure_err = |tok: &Tokenizer<'_>, msg: &'static str| {
        let (line, column) = tok.position();
        ParseError {
            kind: ParseErrorKind::BadDocumentStructure(msg),
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
                let (t, node) = match (&mut tree, stack.last()) {
                    (slot @ None, _) => {
                        let t = slot.insert(Tree::with_root(labels.intern(&name)));
                        let root = t.root();
                        (t, root)
                    }
                    (Some(t), Some(&(_, parent))) => {
                        let node = t.add_child(parent, labels.intern(&name));
                        (t, node)
                    }
                    (Some(_), None) => {
                        return Err(structure_err(&tokens, "content after the root element"))
                    }
                };
                if options.include_attributes {
                    let mut attrs = attributes;
                    attrs.sort_by(|a, b| a.name.cmp(&b.name));
                    for attr in attrs {
                        let attr_node =
                            t.add_child(node, labels.intern(&format!("@{}", attr.name)));
                        t.add_child(attr_node, labels.intern(&attr.value));
                    }
                }
                if !self_closing {
                    stack.push((name, node));
                }
            }
            Token::EndTag { name } => match stack.pop() {
                Some((open, _)) if open == name => {}
                Some((open, _)) => {
                    let (line, column) = tokens.position();
                    return Err(ParseError {
                        kind: ParseErrorKind::MismatchedCloseTag {
                            expected: open,
                            found: name,
                        },
                        line,
                        column,
                    });
                }
                None => {
                    let (line, column) = tokens.position();
                    return Err(ParseError {
                        kind: ParseErrorKind::UnopenedCloseTag(name),
                        line,
                        column,
                    });
                }
            },
            Token::Text(raw) => {
                if !options.include_text {
                    continue;
                }
                let content = if options.normalize_whitespace {
                    normalize_ws(&raw)
                } else {
                    raw
                };
                if content.is_empty() {
                    continue;
                }
                match (&mut tree, stack.last()) {
                    (Some(t), Some(&(_, parent))) => {
                        t.add_child(parent, labels.intern(&content));
                    }
                    _ => return Err(structure_err(&tokens, "text outside the root element")),
                }
            }
            Token::Comment(_) | Token::ProcessingInstruction(_) | Token::Doctype(_) => {}
        }
    }

    if let Some((open, _)) = stack.pop() {
        let (line, column) = tokens.position();
        return Err(ParseError {
            kind: ParseErrorKind::UnclosedElement(open),
            line,
            column,
        });
    }
    tree.ok_or_else(|| structure_err(&tokens, "document has no root element"))
}

fn normalize_ws(s: &str) -> String {
    s.split_ascii_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(tree: &Tree, labels: &LabelTable) -> Vec<String> {
        tree.preorder(tree.root())
            .map(|n| labels.name(tree.label(n)).to_string())
            .collect()
    }

    #[test]
    fn element_text_attribute_mapping() {
        let mut lt = LabelTable::new();
        let t = parse_document(r#"<a x="1"><b>hi</b></a>"#, &mut lt).unwrap();
        assert_eq!(names(&t, &lt), vec!["a", "@x", "1", "b", "hi"]);
    }

    #[test]
    fn attributes_sorted_by_name() {
        let mut lt = LabelTable::new();
        let t = parse_document(r#"<a z="1" b="2"/>"#, &mut lt).unwrap();
        assert_eq!(names(&t, &lt), vec!["a", "@b", "2", "@z", "1"]);
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let mut lt = LabelTable::new();
        let t = parse_document("<a>\n  <b/>\n  <c/>\n</a>", &mut lt).unwrap();
        assert_eq!(names(&t, &lt), vec!["a", "b", "c"]);
    }

    #[test]
    fn whitespace_normalized_inside_text() {
        let mut lt = LabelTable::new();
        let t = parse_document("<a>  two\n words </a>", &mut lt).unwrap();
        assert_eq!(names(&t, &lt), vec!["a", "two words"]);
    }

    #[test]
    fn options_can_disable_attributes_and_text() {
        let mut lt = LabelTable::new();
        let opts = ParseOptions {
            include_attributes: false,
            include_text: false,
            normalize_whitespace: true,
        };
        let t = parse_document_with(r#"<a x="1"><b>hi</b></a>"#, &mut lt, &opts).unwrap();
        assert_eq!(names(&t, &lt), vec!["a", "b"]);
    }

    #[test]
    fn prolog_comments_pi_skipped() {
        let mut lt = LabelTable::new();
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hello --><a><!-- inner --><b/></a>";
        let t = parse_document(doc, &mut lt).unwrap();
        assert_eq!(names(&t, &lt), vec!["a", "b"]);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let mut lt = LabelTable::new();
        let err = parse_document("<a><b></a></b>", &mut lt).unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::MismatchedCloseTag { .. }
        ));
    }

    #[test]
    fn unclosed_and_unopened_rejected() {
        let mut lt = LabelTable::new();
        assert!(matches!(
            parse_document("<a><b>", &mut lt).unwrap_err().kind,
            ParseErrorKind::UnclosedElement(_)
        ));
        assert!(matches!(
            parse_document("</a>", &mut lt).unwrap_err().kind,
            ParseErrorKind::UnopenedCloseTag(_)
        ));
    }

    #[test]
    fn multiple_roots_rejected() {
        let mut lt = LabelTable::new();
        let err = parse_document("<a/><b/>", &mut lt).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn empty_document_rejected() {
        let mut lt = LabelTable::new();
        for doc in ["", "   ", "<!-- only a comment -->"] {
            assert!(parse_document(doc, &mut lt).is_err(), "doc {doc:?}");
        }
    }

    #[test]
    fn dblp_like_snippet() {
        let mut lt = LabelTable::new();
        let doc = r#"<dblp>
            <article key="journals/x/1">
                <author>A. Author</author>
                <title>On pq-grams &amp; indexes</title>
                <year>2006</year>
            </article>
        </dblp>"#;
        let t = parse_document(doc, &mut lt).unwrap();
        assert_eq!(
            names(&t, &lt),
            vec![
                "dblp",
                "article",
                "@key",
                "journals/x/1",
                "author",
                "A. Author",
                "title",
                "On pq-grams & indexes",
                "year",
                "2006",
            ]
        );
        t.validate().unwrap();
    }
}
