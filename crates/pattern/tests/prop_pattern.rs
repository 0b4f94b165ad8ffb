//! Property-based tests for the pattern engine.
//!
//! The key oracle is a naive backtracking matcher over the AST, written
//! independently of the NFA pipeline. Random ASTs are printed and parsed
//! back, so every property also exercises the parser, and the parsed
//! patterns are checked against the oracle on random paths over a small
//! alphabet. Incremental state sets are checked against a naive state-set
//! simulation, on NFAs small enough to keep their sets inline and on NFAs
//! of more than 64 states.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use actorspace_atoms::{atom, Atom, Path};
use actorspace_pattern::nfa::{Nfa, StateId};
use actorspace_pattern::{ast::Ast, Pattern, StateSet};
use proptest::prelude::*;

/// Naive backtracking match: does `ast` accept `path[i..]` exactly?
fn oracle(ast: &Ast, path: &[Atom]) -> bool {
    // Returns the set of suffix offsets reachable after consuming a prefix.
    fn step(ast: &Ast, path: &[Atom], at: usize, out: &mut Vec<usize>) {
        match ast {
            Ast::Empty => out.push(at),
            Ast::Atom(a) => {
                if path.get(at) == Some(a) {
                    out.push(at + 1);
                }
            }
            Ast::AnyAtom => {
                if at < path.len() {
                    out.push(at + 1);
                }
            }
            Ast::Class { atoms, negated } => {
                if let Some(x) = path.get(at) {
                    let inside = atoms.contains(x);
                    if inside != *negated {
                        out.push(at + 1);
                    }
                }
            }
            Ast::Seq(parts) => {
                let mut fronts = vec![at];
                for p in parts {
                    let mut next = Vec::new();
                    for &f in &fronts {
                        step(p, path, f, &mut next);
                    }
                    next.sort_unstable();
                    next.dedup();
                    fronts = next;
                    if fronts.is_empty() {
                        return;
                    }
                }
                out.extend(fronts);
            }
            Ast::Alt(parts) => {
                for p in parts {
                    step(p, path, at, out);
                }
            }
            Ast::Star(inner) => {
                let mut fronts = vec![at];
                let mut seen = vec![at];
                out.push(at);
                while let Some(f) = fronts.pop() {
                    let mut next = Vec::new();
                    step(inner, path, f, &mut next);
                    for n in next {
                        if !seen.contains(&n) {
                            seen.push(n);
                            fronts.push(n);
                            out.push(n);
                        }
                    }
                }
            }
            Ast::Plus(inner) => {
                // p+ = p then p*
                let star = Ast::Star(inner.clone());
                let mut mids = Vec::new();
                step(inner, path, at, &mut mids);
                mids.sort_unstable();
                mids.dedup();
                for m in mids {
                    step(&star, path, m, out);
                }
            }
            Ast::Opt(inner) => {
                out.push(at);
                step(inner, path, at, out);
            }
        }
    }
    let mut out = Vec::new();
    step(ast, path, 0, &mut out);
    out.contains(&path.len())
}

/// A small fixed alphabet so random patterns and paths collide often.
fn alphabet() -> Vec<Atom> {
    ["pa", "pb", "pc", "pd"].iter().map(|s| atom(s)).collect()
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0usize..4).prop_map(|i| alphabet()[i])
}

fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        arb_atom().prop_map(Ast::Atom),
        Just(Ast::AnyAtom),
        Just(Ast::Empty),
        (proptest::collection::vec(arb_atom(), 1..3), any::<bool>())
            .prop_map(|(atoms, neg)| Ast::class(atoms, neg)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Ast::seq),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Ast::alt),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.prop_map(|a| Ast::Opt(Box::new(a))),
        ]
    })
}

/// An alternation of 50 or more generated parts: at least 102 NFA states.
fn arb_large_alt() -> impl Strategy<Value = Ast> {
    proptest::collection::vec(arb_ast(), 50..56).prop_map(Ast::alt)
}

/// Patterns of 40 or more generated parts: an alternation, or a sequence
/// of optional parts (so that short paths still match). Their NFAs have
/// well over 64 states, so their state sets take the boxed representation.
fn arb_large_ast() -> impl Strategy<Value = Ast> {
    prop_oneof![
        arb_large_alt(),
        proptest::collection::vec(arb_ast(), 40..56).prop_map(|parts| {
            Ast::seq(parts.into_iter().map(|p| Ast::Opt(Box::new(p))).collect())
        }),
    ]
}

/// Small and large patterns alike.
fn arb_any_ast() -> impl Strategy<Value = Ast> {
    prop_oneof![arb_ast(), arb_large_ast()]
}

fn arb_path() -> impl Strategy<Value = Vec<Atom>> {
    proptest::collection::vec(arb_atom(), 0..6)
}

/// Live states after consuming `path` that can still consume an atom or
/// accept (the ones a [`StateSet`] holds), by a naive simulation over the
/// NFA's raw transitions and epsilon moves.
fn naive_states(nfa: &Nfa, path: &[Atom]) -> BTreeSet<StateId> {
    fn close(nfa: &Nfa, mut set: BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut stack: Vec<StateId> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &to in &nfa.states()[s as usize].eps {
                if set.insert(to) {
                    stack.push(to);
                }
            }
        }
        set
    }
    let mut set = close(nfa, BTreeSet::from([nfa.start()]));
    for &a in path {
        let mut next = BTreeSet::new();
        for &s in &set {
            for (label, to) in &nfa.states()[s as usize].trans {
                if label.accepts(a) {
                    next.insert(*to);
                }
            }
        }
        set = close(nfa, next);
    }
    set.retain(|&s| s == nfa.accept() || !nfa.states()[s as usize].trans.is_empty());
    set
}

/// The pattern `ast` prints as, parsed back; fails the test if it does not
/// parse.
fn parsed(ast: &Ast) -> Pattern {
    Pattern::parse(&ast.to_string())
        .unwrap_or_else(|e| panic!("printed pattern {ast} must parse: {e}"))
}

fn advance_all(pat: &Pattern, path: &[Atom]) -> StateSet {
    path.iter()
        .fold(pat.start(), |set, &a| set.advance(pat.nfa(), a))
}

fn hash_of(set: &StateSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The NFA pipeline agrees with the backtracking oracle.
    #[test]
    fn nfa_matches_oracle(ast in arb_ast(), p in arb_path()) {
        let pat = parsed(&ast);
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(pat.matches(&path), oracle(&ast, &p));
    }

    /// Printing a parsed pattern's AST and re-parsing it preserves the
    /// language.
    #[test]
    fn display_parse_round_trip_preserves_language(ast in arb_ast(), p in arb_path()) {
        let pat = parsed(&ast);
        let reparsed = parsed(pat.ast());
        let path = Path::from_atoms(p);
        prop_assert_eq!(pat.matches(&path), reparsed.matches(&path));
    }

    /// Patterns whose NFAs exceed 64 states agree with the oracle too.
    #[test]
    fn large_nfa_matches_oracle(ast in arb_large_ast(), p in arb_path()) {
        let pat = parsed(&ast);
        prop_assert!(pat.nfa().len() > 64, "only {} states", pat.nfa().len());
        prop_assert_eq!(pat.matches(&Path::from_atoms(p.clone())), oracle(&ast, &p));
    }

    /// Cutting a path into segments and stepping a forked state set across
    /// the cuts, pruning on a dead set, decides the same as a whole-path
    /// match. This is how resolution carries a match into nested spaces.
    #[test]
    fn stepping_across_cuts_equals_whole_path_match(
        ast in arb_any_ast(),
        p in proptest::collection::vec(arb_atom(), 0..8),
        cuts in proptest::collection::vec(0usize..8, 0..4),
    ) {
        let pat = parsed(&ast);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(p.len())).collect();
        cuts.push(p.len());
        cuts.sort_unstable();
        let mut set = pat.start();
        let mut from = 0;
        for &to in &cuts {
            let mut fork = set.clone();
            for &a in &p[from..to] {
                fork = fork.advance(pat.nfa(), a);
                if fork.is_dead() {
                    break;
                }
            }
            set = fork;
            from = to;
            if set.is_dead() {
                break;
            }
        }
        let expected = oracle(&ast, &p);
        prop_assert_eq!(set.is_accepting(pat.nfa()), expected);
        prop_assert_eq!(pat.matches(&Path::from_atoms(p)), expected);
    }

    /// State sets are equal, and hash equal, exactly when two paths reach
    /// the same live states — what the resolution walk's visited-set
    /// dedup relies on.
    #[test]
    fn state_sets_are_equal_iff_live_states_are(
        ast in arb_any_ast(),
        p in proptest::collection::vec(arb_atom(), 0..4),
        q in proptest::collection::vec(arb_atom(), 0..4),
    ) {
        let pat = parsed(&ast);
        let (sp, sq) = (advance_all(&pat, &p), advance_all(&pat, &q));
        let same = naive_states(pat.nfa(), &p) == naive_states(pat.nfa(), &q);
        prop_assert_eq!(sp == sq, same);
        if same {
            prop_assert_eq!(hash_of(&sp), hash_of(&sq));
        }
        prop_assert_eq!(sp.is_accepting(pat.nfa()), pat.matches(&Path::from_atoms(p)));
    }
}
