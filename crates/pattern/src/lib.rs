//! Regular expressions over atoms — the destination patterns of ActorSpace.
//!
//! Paper §7.1: "attributes are concatenations of atoms, and patterns are
//! regular expressions over atoms – rather analogous to the structure of
//! files and directories in UNIX."
//!
//! The alphabet of these regular expressions is *atoms* (interned
//! identifiers), not characters. A pattern like `srv/fib/*` has three
//! symbols: the literal atoms `srv` and `fib`, then a wildcard matching any
//! single atom. Patterns are parsed ([`parse`]) into an [`ast::Ast`],
//! compiled ([`nfa`]) into a Thompson NFA over atom ids, and matched
//! ([`matcher`]) with the standard state-set simulation, which is
//! `O(states × path length)` with no pathological backtracking.
//!
//! # Syntax
//!
//! | form | meaning |
//! |---|---|
//! | `ident` | the literal atom `ident` |
//! | `a/b/c` | the atom sequence `a` then `b` then `c` |
//! | `*` | any single atom |
//! | `**` | any sequence of atoms (zero or more) |
//! | `[a b c]` | one atom from the set |
//! | `[^a b c]` | one atom *not* in the set |
//! | `{p, q}` | alternation between sub-patterns |
//! | `p \| q` | alternation (same as `{p, q}`) |
//! | `(p)` | grouping |
//! | `(p)*` `(p)+` `(p)?` | repetition / option (postfix, adjacent) |
//!
//! A postfix operator must be *adjacent* to what it repeats: `(a/b)*`
//! repeats the group, while `a/*` is "atom `a` then any one atom".
//!
//! ```
//! use actorspace_pattern::Pattern;
//! use actorspace_atoms::path;
//!
//! let p = Pattern::parse("srv/{fib, fact}/**").unwrap();
//! assert!(p.matches(&path("srv/fib/fast")));
//! assert!(p.matches(&path("srv/fact")));
//! assert!(!p.matches(&path("srv/sqrt/fast")));
//! ```
//!
//! The [`lattice`] module implements the description-lattice view of
//! attributes from paper §5 (generalization/specialization by conjunction
//! and disjunction) and decision procedures on whole patterns
//! (emptiness-of-intersection, subsumption on star-free patterns).

#![deny(unsafe_code)]

pub mod ast;
pub mod lattice;
pub mod matcher;
pub mod nfa;
pub mod parse;

use std::fmt;
use std::str::FromStr;

use actorspace_atoms::Path;

pub use ast::Ast;
pub use matcher::StateSet;
pub use nfa::Nfa;
pub use parse::ParseError;

/// A compiled destination pattern: parse once, match many times.
///
/// `Pattern` owns both the AST (for display, analysis, and lattice
/// operations) and the compiled NFA (for matching).
#[derive(Clone)]
pub struct Pattern {
    ast: Ast,
    nfa: Nfa,
    text: String,
}

impl Pattern {
    /// Parses and compiles a pattern.
    /// Fails on a syntax error, and on a pattern whose automaton would
    /// store more than [`nfa::MAX_PARSED_CLOSURES`] closure entries.
    pub fn parse(text: &str) -> Result<Pattern, ParseError> {
        let ast = parse::parse(text)?;
        let nfa = nfa::compile(&ast, nfa::MAX_PARSED_CLOSURES).ok_or_else(|| ParseError {
            offset: 0,
            message: format!(
                "pattern too large: its automaton needs more than {} closure entries",
                nfa::MAX_PARSED_CLOSURES
            ),
        })?;
        Ok(Pattern {
            ast,
            nfa,
            text: text.to_owned(),
        })
    }

    /// Compiles a pattern from an already-built AST.
    pub fn from_ast(ast: Ast) -> Pattern {
        let nfa = nfa::compile(&ast, usize::MAX).expect("NFA closures exceed u32 offsets");
        Pattern {
            text: ast.to_string(),
            ast,
            nfa,
        }
    }

    /// The pattern matching *any* attribute — the paper's `*` in
    /// `send(*@ProcPool, job, self)`. Equivalent to `**` here: it matches
    /// every visible actor regardless of its attributes.
    pub fn any() -> Pattern {
        Pattern::parse("**").expect("`**` always parses")
    }

    /// Whether this pattern matches an entire attribute path.
    pub fn matches(&self, path: &Path) -> bool {
        matcher::matches(&self.nfa, path.atoms())
    }

    /// Starts an incremental match (used to walk nested actorSpaces without
    /// materializing joined attribute paths).
    pub fn start(&self) -> StateSet {
        matcher::start(&self.nfa)
    }

    /// The compiled NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The pattern's AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The original (or regenerated) pattern text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// If the pattern matches exactly one literal path (no wildcards,
    /// classes, alternation, or repetition), returns it. The matching
    /// engine uses this for index-based fast paths.
    pub fn as_literal(&self) -> Option<Path> {
        self.ast.as_literal()
    }

    /// True if no path whatsoever can match this pattern.
    pub fn is_empty_language(&self) -> bool {
        !matcher::is_satisfiable(&self.nfa)
    }

    /// True if some path matches both `self` and `other`. Decidable for all
    /// patterns (product-NFA emptiness over an open alphabet).
    pub fn may_overlap(&self, other: &Pattern) -> bool {
        matcher::intersects(&self.nfa, &other.nfa)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern({})", self.text)
    }
}

impl FromStr for Pattern {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

impl PartialEq for Pattern {
    /// Structural equality on the AST (not language equivalence).
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

impl Eq for Pattern {}

/// Shorthand for `Pattern::parse(s).unwrap()` — for literals in examples
/// and tests. Panics on malformed input.
pub fn pattern(s: &str) -> Pattern {
    Pattern::parse(s).expect("invalid pattern literal")
}
