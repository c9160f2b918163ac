//! `error-impl`: every public error type of a library crate implements
//! `std::error::Error`, so callers can box and chain it. The impl may sit
//! in any file of the type's crate. Zero-tolerance.

use super::model::Model;
use super::report::Violation;

/// The crates whose `src/` trees form the library surface (no binaries or
/// harnesses).
const LIB_CRATES: &[&str] = &["tree", "xml", "ted", "core", "diff", "store"];

/// The crate directory of a repo-relative source file (`crates/core` for
/// `crates/core/src/forest.rs`).
fn crate_dir(file: &str) -> Option<&str> {
    file.split_once("/src/").map(|(dir, _)| dir)
}

/// Flags each public `…Error` type of a library crate that its crate
/// does not implement `std::error::Error` for.
pub(crate) fn run(model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    for ty in &model.error_types {
        let Some(dir) = crate_dir(&ty.file) else {
            continue;
        };
        let in_library = dir
            .strip_prefix("crates/")
            .is_some_and(|name| LIB_CRATES.contains(&name));
        let implemented = model
            .error_impls
            .iter()
            .any(|(file, name)| *name == ty.name && crate_dir(file) == Some(dir));
        if in_library && !implemented {
            out.push(Violation {
                rule: "error-impl",
                file: ty.file.clone(),
                line: ty.line,
                message: format!(
                    "public error type `{}` does not implement `std::error::Error`",
                    ty.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<Violation> {
        let mut model = Model::default();
        for (file, text) in files {
            model.add_file(file, text).expect("model");
        }
        run(&model)
    }

    #[test]
    fn flags_an_error_type_without_an_impl() {
        let v = findings(&[("crates/core/src/a.rs", "\npub enum LoadError { Io }\n")]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].file.as_str(), v[0].line), ("crates/core/src/a.rs", 2));
    }

    #[test]
    fn accepts_an_impl_in_another_file_of_the_crate() {
        let v = findings(&[
            ("crates/store/src/a.rs", "pub struct LoadError;"),
            (
                "crates/store/src/b.rs",
                "impl std::error::Error for LoadError {}",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn does_not_take_a_longer_name_for_the_type() {
        let v = findings(&[(
            "crates/tree/src/a.rs",
            "pub enum MyError { A }\nimpl std::error::Error for MyErrorKind {}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
