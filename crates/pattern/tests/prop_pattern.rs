//! Property-based tests for the pattern engine.
//!
//! The key oracle is a naive backtracking matcher over the AST, written
//! independently of the NFA pipeline. Random ASTs and random paths over a
//! small alphabet are checked for agreement, and the lattice constructions
//! (determinize / complement / meet / join / subsumes) are validated
//! against their logical definitions on sampled paths. Incremental state
//! sets are checked against a naive state-set simulation, on NFAs small
//! enough to keep their sets inline and on NFAs of more than 64 states.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use actorspace_atoms::{atom, Atom, Path};
use actorspace_pattern::nfa::{Nfa, StateId};
use actorspace_pattern::{ast::Ast, lattice, matcher, Pattern, StateSet};
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
        let pat = Pattern::from_ast(ast.clone());
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(pat.matches(&path), oracle(&ast, &p));
    }

    /// Printing a pattern and re-parsing it preserves the language.
    #[test]
    fn display_parse_round_trip_preserves_language(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let reparsed = Pattern::parse(pat.text()).expect("printed pattern must parse");
        let path = Path::from_atoms(p);
        prop_assert_eq!(pat.matches(&path), reparsed.matches(&path));
    }

    /// Determinization preserves the language.
    #[test]
    fn determinize_preserves_language(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let dfa = lattice::determinize(pat.nfa());
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(matcher::matches(&dfa, &p), pat.matches(&path));
    }

    /// The complement automaton accepts exactly the rejected paths.
    #[test]
    fn complement_is_negation(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let comp = lattice::complement(pat.nfa());
        let path = Path::from_atoms(p.clone());
        prop_assert_eq!(matcher::matches(&comp, &p), !pat.matches(&path));
    }

    /// meet = logical AND, join = logical OR on sampled paths.
    #[test]
    fn meet_and_join_are_and_or(a in arb_ast(), b in arb_ast(), p in arb_path()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        let path = Path::from_atoms(p.clone());
        let m = lattice::meet(pa.nfa(), pb.nfa());
        prop_assert_eq!(
            matcher::matches(&m, &p),
            pa.matches(&path) && pb.matches(&path)
        );
        let j = lattice::join(&pa, &pb);
        prop_assert_eq!(
            j.matches(&path),
            pa.matches(&path) || pb.matches(&path)
        );
    }

    /// Subsumption is sound: if `general` subsumes `specific`, every path
    /// matched by `specific` is matched by `general`.
    #[test]
    fn subsumption_soundness(a in arb_ast(), b in arb_ast(), p in arb_path()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        if lattice::subsumes(&pa, &pb) {
            let path = Path::from_atoms(p.clone());
            if pb.matches(&path) {
                prop_assert!(pa.matches(&path),
                    "{} subsumes {} but misses {}", pa, pb, path);
            }
        }
    }

    /// Both patterns always subsume their meet and are subsumed by their join.
    #[test]
    fn lattice_order_laws(a in arb_ast(), b in arb_ast()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        let j = lattice::join(&pa, &pb);
        prop_assert!(lattice::subsumes(&j, &pa));
        prop_assert!(lattice::subsumes(&j, &pb));
    }

    /// `may_overlap` agrees with a sampled witness: any path matching both
    /// implies overlap is reported.
    #[test]
    fn overlap_soundness(a in arb_ast(), b in arb_ast(), p in arb_path()) {
        let pa = Pattern::from_ast(a);
        let pb = Pattern::from_ast(b);
        let path = Path::from_atoms(p.clone());
        if pa.matches(&path) && pb.matches(&path) {
            prop_assert!(pa.may_overlap(&pb));
        }
    }

    /// Patterns whose NFAs exceed 64 states agree with the oracle too.
    #[test]
    fn large_nfa_matches_oracle(ast in arb_large_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast.clone());
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
        let pat = Pattern::from_ast(ast.clone());
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
        let pat = Pattern::from_ast(ast);
        let (sp, sq) = (advance_all(&pat, &p), advance_all(&pat, &q));
        let same = naive_states(pat.nfa(), &p) == naive_states(pat.nfa(), &q);
        prop_assert_eq!(sp == sq, same);
        if same {
            prop_assert_eq!(hash_of(&sp), hash_of(&sq));
        }
        prop_assert_eq!(sp.is_accepting(pat.nfa()), pat.matches(&Path::from_atoms(p)));
    }

    /// Emptiness: a pattern that matched some sampled path is satisfiable.
    #[test]
    fn satisfiability_soundness(ast in arb_ast(), p in arb_path()) {
        let pat = Pattern::from_ast(ast);
        let path = Path::from_atoms(p);
        if pat.matches(&path) {
            prop_assert!(!pat.is_empty_language());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The meet of two patterns of at least 100 states each builds and
    /// accepts exactly the paths both patterns match.
    #[test]
    fn meet_of_large_patterns_agrees_with_oracle(
        a in arb_large_alt(),
        b in arb_large_alt(),
        paths in proptest::collection::vec(arb_path(), 16..17),
    ) {
        let (pa, pb) = (Pattern::from_ast(a.clone()), Pattern::from_ast(b.clone()));
        prop_assert!(pa.nfa().len() >= 100 && pb.nfa().len() >= 100);
        let m = lattice::meet(pa.nfa(), pb.nfa());
        for p in paths {
            prop_assert_eq!(matcher::matches(&m, &p), oracle(&a, &p) && oracle(&b, &p));
        }
    }
}
