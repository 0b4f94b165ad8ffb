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
//! [`Pattern::parse`] is the only way to build an automaton, and it bounds
//! the automaton's size ([`nfa::MAX_PARSED_CLOSURES`]), so text from
//! outside the program cannot make compiling unbounded. Paper §5's
//! description lattice (generalization and specialization of attributes)
//! shows in resolution: a more general pattern reaches every actor a more
//! specific one reaches.

#![deny(unsafe_code)]

pub mod ast;
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
/// `Pattern` owns both the AST (for display and literal detection) and the
/// compiled NFA (for matching).
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
        let nfa = nfa::compile(&ast).ok_or_else(|| ParseError {
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

    /// The original pattern text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// If the pattern matches exactly one literal path (no wildcards,
    /// classes, alternation, or repetition), returns it. The matching
    /// engine uses this for index-based fast paths.
    pub fn as_literal(&self) -> Option<Path> {
        self.ast.as_literal()
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
