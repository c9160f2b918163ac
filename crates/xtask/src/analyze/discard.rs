//! Discarded-`Result` analysis for `crates/store`.
//!
//! The workspace already denies `unused_must_use`, so a bare `foo()?;`
//! statement dropping a `Result` will not compile. What the compiler
//! cannot see are the two idioms that *launder* a `Result` away:
//!
//! * `let _ = fallible(…);`
//! * `fallible(…).ok();` in statement position
//!
//! On the storage crate both patterns hide I/O and corruption errors, so
//! they are zero-tolerance violations there (store files are recognised
//! by their `crates/store/src` path prefix, which the fixture mini-crates
//! mirror).

use super::model::Model;
use crate::rules::Violation;

/// True for files subject to the discard analysis.
fn in_scope(file: &str) -> bool {
    file.starts_with("crates/store/src/")
}

/// Runs the analysis over every non-test store function.
pub fn run(model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &model.fns {
        if f.is_test || !in_scope(&f.file) {
            continue;
        }
        let body_line = f.line + f.sig.bytes().filter(|&b| b == b'\n').count();
        scan_body(&f.body, body_line, &f.file, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

fn scan_body(body: &str, start_line: usize, file: &str, out: &mut Vec<Violation>) {
    let line_at = |pos: usize| {
        start_line
            + body.as_bytes()[..pos]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
    };
    let mut from = 0;
    while let Some(pos) = body[from..].find("let _ =") {
        let at = from + pos;
        from = at + 7;
        // `let _x = …` is a named discard and fine; `let _ =` only.
        out.push(Violation {
            rule: "discarded-result",
            file: file.to_string(),
            line: line_at(at),
            message: "`let _ = …` discards a value in the storage crate; handle the \
                      `Result` or propagate it"
                .into(),
        });
    }
    let mut from = 0;
    while let Some(pos) = body[from..].find(".ok();") {
        let at = from + pos;
        from = at + 6;
        // Only statement position: `let x = f().ok();` binds the Option
        // for use and is fine. Scan back to the statement start and skip
        // when the value is assigned to anything.
        let stmt_start = body[..at]
            .rfind([';', '{', '}'])
            .map(|p| p + 1)
            .unwrap_or(0);
        if body[stmt_start..at].contains('=') {
            continue;
        }
        out.push(Violation {
            rule: "discarded-result",
            file: file.to_string(),
            line: line_at(at),
            message: "`.ok();` swallows an error in the storage crate; handle the \
                      `Result` or propagate it"
                .into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::model::Model;

    #[test]
    fn flags_both_idioms_in_store_scope() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/demo.rs",
            "fn f() { let _ = fallible(); other().ok(); }\n",
        )
        .expect("parse");
        let v = run(&m);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn out_of_scope_and_tests_are_ignored() {
        let mut m = Model::default();
        m.add_file(
            "crates/core/src/demo.rs",
            "fn f() { let _ = fallible(); }\n",
        )
        .expect("parse");
        m.add_file(
            "crates/store/src/demo.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = fallible(); }\n}\n",
        )
        .expect("parse");
        assert!(run(&m).is_empty());
    }

    #[test]
    fn ok_with_question_mark_is_fine() {
        let mut m = Model::default();
        m.add_file(
            "crates/store/src/demo.rs",
            "fn f() -> Option<u8> { let x = parse().ok()?; Some(x) }\n",
        )
        .expect("parse");
        assert!(run(&m).is_empty(), "`.ok()?` converts, not discards");
    }
}
