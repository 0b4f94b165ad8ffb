//! The description lattice over patterns (paper §5).
//!
//! "Attributes may be generalized and specialized through conjunction and
//! disjunction … thus attributes may be embedded in a description lattice
//! (e.g., see Omega)." Viewing a pattern extensionally — as the set of
//! attribute paths it matches — the lattice operations are language union
//! ([`join`]) and language intersection ([`meet`]), and the lattice order is
//! language inclusion ([`subsumes`]).
//!
//! All operations here are *exact*, not conservative. Inclusion is decided
//! by the textbook route: determinize the would-be superset pattern's NFA
//! into a symbolic DFA over atom minterms ([`determinize`]), complement it
//! ([`complement`]), and test product emptiness against the other pattern.
//! The atom alphabet is open (new atoms appear at run time), which the
//! minterm construction handles with a co-finite "every other atom" class.

use std::collections::HashMap;

use actorspace_atoms::Atom;

use crate::ast::Ast;
use crate::matcher::{self, StateSet};
use crate::nfa::{Nfa, State, StateId, Trans};
use crate::Pattern;

/// Disjunction (lattice join, generalization): matches what either pattern
/// matches.
pub fn join(p: &Pattern, q: &Pattern) -> Pattern {
    Pattern::from_ast(Ast::alt(vec![p.ast().clone(), q.ast().clone()]))
}

/// Conjunction (lattice meet, specialization): the product automaton
/// accepting exactly the paths both patterns match. Returned as a raw NFA —
/// the meet of two patterns is not always expressible in the surface syntax
/// without blowup, but it can be matched and analyzed like any other.
pub fn meet(a: &Nfa, b: &Nfa) -> Nfa {
    fn intern(
        x: StateId,
        y: StateId,
        index: &mut HashMap<(StateId, StateId), StateId>,
        states: &mut Vec<State>,
        work: &mut Vec<(StateId, StateId)>,
    ) -> StateId {
        *index.entry((x, y)).or_insert_with(|| {
            let id = states.len() as StateId;
            states.push(State::default());
            work.push((x, y));
            id
        })
    }

    let mut states = Vec::new();
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut work = Vec::new();

    let start = intern(a.start(), b.start(), &mut index, &mut states, &mut work);
    while let Some((x, y)) = work.pop() {
        let from = index[&(x, y)];
        // Epsilon moves on either side.
        for to in a.states()[x as usize].eps.clone() {
            let t = intern(to, y, &mut index, &mut states, &mut work);
            states[from as usize].eps.push(t);
        }
        for to in b.states()[y as usize].eps.clone() {
            let t = intern(x, to, &mut index, &mut states, &mut work);
            states[from as usize].eps.push(t);
        }
        // Joint consuming moves labelled with the meet of the two labels.
        let trans_a = a.states()[x as usize].trans.clone();
        let trans_b = b.states()[y as usize].trans.clone();
        for (la, ta) in &trans_a {
            for (lb, tb) in &trans_b {
                if let Some(label) = meet_label(la, lb) {
                    let t = intern(*ta, *tb, &mut index, &mut states, &mut work);
                    states[from as usize].trans.push((label, t));
                }
            }
        }
    }

    // Single-accept shape: fresh accept state with eps from the pair
    // (accept, accept) if it was ever materialized.
    let accept = states.len() as StateId;
    states.push(State::default());
    if let Some(&pair) = index.get(&(a.accept(), b.accept())) {
        states[pair as usize].eps.push(accept);
    }
    Nfa::from_parts(states, start, accept)
}

/// The meet of two transition labels: a label accepting exactly the atoms
/// both accept, or `None` if that set is empty. Exact over the open
/// alphabet.
fn sorted_intersect(s: &[Atom], t: &[Atom]) -> Vec<Atom> {
    s.iter()
        .filter(|x| t.binary_search(x).is_ok())
        .copied()
        .collect()
}

fn sorted_minus(s: &[Atom], t: &[Atom]) -> Vec<Atom> {
    s.iter()
        .filter(|x| t.binary_search(x).is_err())
        .copied()
        .collect()
}

fn sorted_union(s: &[Atom], t: &[Atom]) -> Vec<Atom> {
    let mut v: Vec<Atom> = s.iter().chain(t.iter()).copied().collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn meet_label(a: &Trans, b: &Trans) -> Option<Trans> {
    use Trans::*;
    match (a, b) {
        (Atom(x), other) | (other, Atom(x)) => other.accepts(*x).then_some(Atom(*x)),
        (Any, other) | (other, Any) => other.satisfiable().then(|| other.clone()),
        (In(s), In(t)) => {
            let m = sorted_intersect(s, t);
            (!m.is_empty()).then_some(In(m))
        }
        (In(s), NotIn(t)) | (NotIn(t), In(s)) => {
            let m = sorted_minus(s, t);
            (!m.is_empty()).then_some(In(m))
        }
        (NotIn(s), NotIn(t)) => Some(NotIn(sorted_union(s, t))),
    }
}

/// Lattice order: does `general` match everything `specific` matches
/// (`L(specific) ⊆ L(general)`)?
pub fn subsumes(general: &Pattern, specific: &Pattern) -> bool {
    let not_general = complement(general.nfa());
    !matcher::intersects(specific.nfa(), &not_general)
}

/// Language equivalence: each subsumes the other.
pub fn equivalent(p: &Pattern, q: &Pattern) -> bool {
    subsumes(p, q) && subsumes(q, p)
}

/// A deterministic automaton over atom minterms, in NFA clothing (every
/// state has disjoint outgoing labels covering the whole alphabet; no
/// epsilon edges except into the synthetic accept state).
pub fn determinize(nfa: &Nfa) -> Nfa {
    build_dfa(nfa, false)
}

/// The complement automaton: accepts exactly the paths `nfa` rejects.
pub fn complement(nfa: &Nfa) -> Nfa {
    build_dfa(nfa, true)
}

fn build_dfa(nfa: &Nfa, complemented: bool) -> Nfa {
    // Subset construction over symbolic minterms. A subset is the
    // epsilon-closed `StateSet` a match would hold, stepped the same way.
    struct Build<'a> {
        nfa: &'a Nfa,
        states: Vec<State>,
        accepting: Vec<bool>,
        index: HashMap<StateSet, StateId>,
        work: Vec<StateSet>,
    }
    impl Build<'_> {
        fn intern(&mut self, subset: StateSet) -> StateId {
            if let Some(&id) = self.index.get(&subset) {
                return id;
            }
            let id = self.states.len() as StateId;
            self.states.push(State::default());
            self.accepting.push(subset.is_accepting(self.nfa));
            self.index.insert(subset.clone(), id);
            self.work.push(subset);
            id
        }
    }

    let mut b = Build {
        nfa,
        states: Vec::new(),
        accepting: Vec::new(),
        index: HashMap::new(),
        work: Vec::new(),
    };

    let start = b.intern(matcher::start(nfa));
    while let Some(subset) = b.work.pop() {
        let from = b.index[&subset];
        // Atoms mentioned on any outgoing transition of the subset — these,
        // plus the co-finite "rest" class, partition the alphabet.
        let mut mentioned: Vec<Atom> = Vec::new();
        for s in subset.iter() {
            for (label, _) in &nfa.states()[s as usize].trans {
                match label {
                    Trans::Atom(a) => mentioned.push(*a),
                    Trans::In(set) | Trans::NotIn(set) => mentioned.extend(set.iter().copied()),
                    Trans::Any => {}
                }
            }
        }
        mentioned.sort_unstable();
        mentioned.dedup();

        // One successor per mentioned atom.
        for &a in &mentioned {
            let next = subset.advance(nfa, a);
            if next.is_dead() && !complemented {
                continue; // dead transitions only matter for the complement
            }
            let t = b.intern(next);
            b.states[from as usize].trans.push((Trans::Atom(a), t));
        }

        // The rest class: any atom not mentioned. Only `Any` and `NotIn`
        // labels (whose sets are all mentioned) can accept it.
        let next = subset.step(nfa, |label| matches!(label, Trans::Any | Trans::NotIn(_)));
        if !next.is_dead() || complemented {
            let t = b.intern(next);
            let label = if mentioned.is_empty() {
                Trans::Any
            } else {
                Trans::NotIn(mentioned.clone())
            };
            b.states[from as usize].trans.push((label, t));
        }
    }

    // Collapse to the single-accept NFA shape.
    let accept = b.states.len() as StateId;
    b.states.push(State::default());
    for (i, acc) in b.accepting.iter().enumerate() {
        if *acc != complemented {
            b.states[i].eps.push(accept);
        }
    }
    Nfa::from_parts(b.states, start, accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern;
    use actorspace_atoms::path;

    #[test]
    fn join_is_union() {
        let p = pattern("a");
        let q = pattern("b");
        let j = join(&p, &q);
        assert!(j.matches(&path("a")));
        assert!(j.matches(&path("b")));
        assert!(!j.matches(&path("c")));
    }

    #[test]
    fn meet_is_intersection() {
        let p = pattern("a/*");
        let q = pattern("*/b");
        let m = meet(p.nfa(), q.nfa());
        assert!(matcher::matches(&m, path("a/b").atoms()));
        assert!(!matcher::matches(&m, path("a/c").atoms()));
        assert!(!matcher::matches(&m, path("c/b").atoms()));
    }

    #[test]
    fn meet_of_disjoint_is_empty() {
        let p = pattern("a");
        let q = pattern("b");
        let m = meet(p.nfa(), q.nfa());
        assert!(!matcher::is_satisfiable(&m));
    }

    #[test]
    fn meet_with_stars() {
        let p = pattern("(a|b)*");
        let q = pattern("**/b");
        let m = meet(p.nfa(), q.nfa());
        assert!(matcher::matches(&m, path("a/b").atoms()));
        assert!(matcher::matches(&m, path("b").atoms()));
        assert!(!matcher::matches(&m, path("a").atoms()));
        assert!(!matcher::matches(&m, path("a/c/b").atoms()));
    }

    #[test]
    fn complement_flips_membership() {
        let p = pattern("srv/*");
        let c = complement(p.nfa());
        assert!(!matcher::matches(&c, path("srv/fib").atoms()));
        assert!(matcher::matches(&c, path("srv").atoms()));
        assert!(matcher::matches(&c, path("cli/fib").atoms()));
        assert!(matcher::matches(&c, path("srv/fib/fast").atoms()));
        assert!(matcher::matches(&c, path("").atoms()));
    }

    #[test]
    fn complement_of_everything_is_empty() {
        let all = pattern("**");
        let c = complement(all.nfa());
        assert!(!matcher::is_satisfiable(&c));
    }

    #[test]
    fn determinized_preserves_language() {
        for (pat, yes, no) in [
            ("a/b", "a/b", "a/c"),
            ("srv/{fib, fact}/**", "srv/fib/x/y", "cli/fib"),
            ("(a|b)*", "a/b/b/a", "a/c"),
            ("[^x]/end", "y/end", "x/end"),
        ] {
            let p = pattern(pat);
            let d = determinize(p.nfa());
            assert!(
                matcher::matches(&d, path(yes).atoms()),
                "{pat} should match {yes}"
            );
            assert!(
                !matcher::matches(&d, path(no).atoms()),
                "{pat} should reject {no}"
            );
        }
    }

    #[test]
    fn subsumption_chain() {
        let any = pattern("**");
        let srv = pattern("srv/**");
        let fib = pattern("srv/fib");
        assert!(subsumes(&any, &srv));
        assert!(subsumes(&any, &fib));
        assert!(subsumes(&srv, &fib));
        assert!(!subsumes(&fib, &srv));
        assert!(!subsumes(&srv, &any));
        assert!(subsumes(&fib, &fib));
    }

    #[test]
    fn subsumption_with_alternation() {
        let broad = pattern("srv/{fib, fact, sqrt}");
        let narrow = pattern("srv/{fib, fact}");
        assert!(subsumes(&broad, &narrow));
        assert!(!subsumes(&narrow, &broad));
    }

    #[test]
    fn subsumption_star_cases() {
        assert!(subsumes(&pattern("a*"), &pattern("a/a")));
        assert!(subsumes(&pattern("a*"), &pattern("")));
        assert!(!subsumes(&pattern("a+"), &pattern("a*")));
        assert!(subsumes(&pattern("a*"), &pattern("a+")));
        assert!(subsumes(&pattern("**"), &pattern("(a|b)+/c")));
    }

    #[test]
    fn equivalence() {
        assert!(equivalent(&pattern("{a, b}"), &pattern("b|a")));
        assert!(equivalent(&pattern("a/(b)?"), &pattern("{a, a/b}")));
        assert!(equivalent(&pattern("(a)+"), &pattern("a/a*")));
        assert!(!equivalent(&pattern("a*"), &pattern("a+")));
        // ** is equivalent to *|** but not to *.
        assert!(equivalent(&pattern("**"), &pattern("*|**")));
        assert!(!equivalent(&pattern("**"), &pattern("*")));
    }

    #[test]
    fn negated_class_subsumption() {
        // `*` matches any one atom, so it subsumes `[^x]`.
        assert!(subsumes(&pattern("*"), &pattern("[^x]")));
        assert!(!subsumes(&pattern("[^x]"), &pattern("*")));
        // [^x] subsumes [^x y] (fewer exclusions is more general).
        assert!(subsumes(&pattern("[^x]"), &pattern("[^x y]")));
        assert!(!subsumes(&pattern("[^x y]"), &pattern("[^x]")));
    }
}
