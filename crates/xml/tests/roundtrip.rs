//! Property-based tests: write ∘ parse is the identity on the tree mapping,
//! for arbitrary tree shapes and hostile label content.

use pqgram_tree::{LabelTable, Tree};
use pqgram_xml::{parse_document, tokenize, write_document, WriteOptions};
use proptest::prelude::*;

/// Mirrors the writer's element-name validity check.
fn name_ish(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| {
        c.is_alphabetic() || c == '_' || c == ':' || c.is_ascii_digit() || c == '-' || c == '.'
    })
}

/// An arbitrary tree described by a preorder list of (label-pick, fanout),
/// constrained to the writer's conventions: inner nodes carry element-safe
/// names, text-ish labels only appear on leaves, and no two text leaves are
/// adjacent siblings (adjacent text runs would merge when re-parsed).
fn build_tree(shape: &[(u8, u8)], labels: &mut LabelTable, names: &[String]) -> Tree {
    const ELEMENT_SAFE: usize = 3; // names[0..3] are valid element names
    let first = shape.first().copied().unwrap_or((0, 0));
    let root_label = labels.intern(&names[first.0 as usize % ELEMENT_SAFE]);
    let mut tree = Tree::with_root(root_label);
    let mut stack = vec![(tree.root(), first.1 as usize)];
    let mut rest = shape[1..].iter();
    while let Some((parent, remaining)) = stack.pop() {
        if remaining == 0 {
            continue;
        }
        stack.push((parent, remaining - 1));
        if let Some(&(l, f)) = rest.next() {
            let want = &names[l as usize % names.len()];
            let fanout = (f % 4) as usize;
            let is_text = !name_ish(want);
            let prev_is_text =
                tree.children(parent).last().copied().is_some_and(|prev| {
                    tree.is_leaf(prev) && !name_ish(labels.name(tree.label(prev)))
                });
            if is_text && (fanout > 0 || prev_is_text) {
                // Fall back to an element-safe name.
                let sym = labels.intern(&names[l as usize % ELEMENT_SAFE]);
                let node = tree.add_child(parent, sym);
                stack.push((node, fanout));
            } else {
                let sym = labels.intern(want);
                let node = tree.add_child(parent, sym);
                stack.push((node, if is_text { 0 } else { fanout }));
            }
        }
    }
    tree
}

/// Element-name-safe labels plus text-ish labels with XML metacharacters.
fn label_pool() -> Vec<String> {
    vec![
        "a".into(),
        "item".into(),
        "x-1._y".into(),
        "text with spaces".into(),
        "a&b<c>\"d'".into(),
        "  leading & trailing  ".into(),
        "ünï-cödé".into(),
        "1starts-with-digit".into(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_parse_preserves_label_sequence(shape in proptest::collection::vec((0u8..8, 0u8..4), 1..80)) {
        let names = label_pool();
        let mut labels = LabelTable::new();
        let tree = build_tree(&shape, &mut labels, &names);
        let xml = write_document(&tree, &labels, &WriteOptions::default());
        let mut labels2 = LabelTable::new();
        let parsed = parse_document(&xml, &mut labels2);
        // Whitespace-bearing text labels get normalized by the parser; trees
        // whose text labels are whitespace-normal must roundtrip exactly.
        let normal = |s: &str| s.split_ascii_whitespace().collect::<Vec<_>>().join(" ") == s && !s.is_empty();
        let all_normal = tree
            .preorder(tree.root())
            .all(|n| {
                let name = labels.name(tree.label(n));
                // element-ish labels are written as tags; text-ish as text
                name_ish(name) || normal(name)
            });
        prop_assume!(all_normal);
        let parsed = parsed.expect("well-formed output");
        prop_assert_eq!(parsed.node_count(), tree.node_count());
        let seq = |t: &Tree, l: &LabelTable| -> Vec<String> {
            t.preorder(t.root()).map(|n| l.name(t.label(n)).to_string()).collect()
        };
        prop_assert_eq!(seq(&tree, &labels), seq(&parsed, &labels2));
    }

    #[test]
    fn tokenizer_never_panics_on_arbitrary_input(input in ".{0,300}") {
        // Must either tokenize or return a positioned error — never panic.
        let _ = tokenize(&input);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,300}") {
        let mut labels = LabelTable::new();
        let _ = parse_document(&input, &mut labels);
    }

    #[test]
    fn parser_never_panics_on_tag_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<a>".to_string()),
                Just("</a>".to_string()),
                Just("<b x='1'>".to_string()),
                Just("</b>".to_string()),
                Just("text".to_string()),
                Just("<!-- c -->".to_string()),
                Just("<c/>".to_string()),
                Just("&amp;".to_string()),
                Just("<![CDATA[x]]>".to_string()),
            ],
            0..40,
        )
    ) {
        let soup: String = parts.concat();
        let mut labels = LabelTable::new();
        if let Ok(tree) = parse_document(&soup, &mut labels) {
            tree.validate().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streaming indexer must agree with parse-then-build on every
    /// well-formed document (and reject the same malformed ones).
    #[test]
    fn stream_index_matches_dom(shape in proptest::collection::vec((0u8..8, 0u8..4), 1..60)) {
        use pqgram_core::reference::index_by_definition;
        use pqgram_core::{build_index, PQParams};
        use pqgram_xml::{stream_index, ParseOptions};
        let names = label_pool();
        let mut labels = LabelTable::new();
        let tree = build_tree(&shape, &mut labels, &names);
        let xml = write_document(&tree, &labels, &WriteOptions::default());
        for params in [PQParams::new(3, 3), PQParams::new(2, 2), PQParams::new(1, 3)] {
            let streamed = stream_index(&xml, params, &ParseOptions::default());
            let mut lt2 = LabelTable::new();
            match parse_document(&xml, &mut lt2) {
                Ok(parsed) => {
                    let built = build_index(&parsed, &lt2, params);
                    // Both sides run the shared fingerprint kernel; the
                    // label-by-label fold over `for_each_gram` does not.
                    prop_assert_eq!(&built, &index_by_definition(&parsed, &lt2, params));
                    prop_assert_eq!(streamed.unwrap(), built);
                }
                Err(_) => prop_assert!(streamed.is_err()),
            }
        }
    }

    /// Arbitrary input never panics the streaming indexer.
    #[test]
    fn stream_index_never_panics(input in ".{0,300}") {
        use pqgram_core::PQParams;
        use pqgram_xml::{stream_index, ParseOptions};
        let _ = stream_index(&input, PQParams::default(), &ParseOptions::default());
    }
}
