//! NFA simulation: whole-path matching, and incremental state sets for
//! walking nested actorSpaces.

use actorspace_atoms::Atom;

use crate::nfa::{Nfa, StateId};

/// A set of NFA states, as a bitset: the working representation of an
/// in-progress match. It holds the live states that can still consume an
/// atom or accept. Cheap to clone so the matching engine can fork it when
/// descending into nested actorSpaces. `Hash` supports visited-state
/// deduplication when walking (possibly cyclic) space graphs.
///
/// For NFAs of at most 64 states the bits live inline, so starting,
/// advancing and cloning allocate nothing; larger NFAs use a boxed bitset.
/// Both run the same stepping routine over the NFA's precomputed epsilon
/// closures.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StateSet {
    bits: Bits,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Bits {
    Inline(u64),
    Boxed(Box<[u64]>),
}

impl StateSet {
    fn empty(n_states: usize) -> StateSet {
        let bits = if n_states <= 64 {
            Bits::Inline(0)
        } else {
            Bits::Boxed(vec![0u64; n_states.div_ceil(64)].into_boxed_slice())
        };
        StateSet { bits }
    }

    fn words(&self) -> &[u64] {
        match &self.bits {
            Bits::Inline(w) => std::slice::from_ref(w),
            Bits::Boxed(ws) => ws,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.bits {
            Bits::Inline(w) => std::slice::from_mut(w),
            Bits::Boxed(ws) => ws,
        }
    }

    fn contains(&self, s: StateId) -> bool {
        let (w, b) = (s as usize / 64, s as usize % 64);
        self.words()[w] & (1 << b) != 0
    }

    /// True if no states are live — the match can never succeed, so tree
    /// walks prune here.
    pub fn is_dead(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// True if the accept state is live: the atoms consumed so far form a
    /// complete match.
    pub fn is_accepting(&self, nfa: &Nfa) -> bool {
        self.contains(nfa.accept())
    }

    /// Iterates over live state ids in ascending order.
    fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    (w * 64) as StateId + b
                })
            })
        })
    }

    /// Consumes one atom, returning the successor state set
    /// (epsilon-closed): every transition from a live state whose label
    /// accepts `atom` is taken.
    pub fn advance(&self, nfa: &Nfa, atom: Atom) -> StateSet {
        let mut next = StateSet::empty(nfa.len());
        let out = next.words_mut();
        for s in self.iter() {
            for (label, to) in &nfa.states()[s as usize].trans {
                if label.accepts(atom) {
                    or_closure(out, nfa, *to);
                }
            }
        }
        next
    }
}

/// ORs `nfa.step_closure(s)` into the bitset `words`.
fn or_closure(words: &mut [u64], nfa: &Nfa, s: StateId) {
    for &t in nfa.step_closure(s) {
        words[t as usize / 64] |= 1 << (t % 64);
    }
}

/// The epsilon-closed start set of `nfa`.
pub fn start(nfa: &Nfa) -> StateSet {
    let mut set = StateSet::empty(nfa.len());
    or_closure(set.words_mut(), nfa, nfa.start());
    set
}

/// Whole-path match: does `nfa` accept exactly the atom sequence `path`?
pub fn matches(nfa: &Nfa, path: &[Atom]) -> bool {
    let mut set = start(nfa);
    for &a in path {
        if set.is_dead() {
            return false;
        }
        set = set.advance(nfa, a);
    }
    set.is_accepting(nfa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::compile;
    use crate::parse::parse;
    use actorspace_atoms::path;

    fn nfa(s: &str) -> Nfa {
        compile(&parse(s).unwrap()).unwrap()
    }

    fn m(pat: &str, p: &str) -> bool {
        matches(&nfa(pat), path(p).atoms())
    }

    #[test]
    fn literal_matching() {
        assert!(m("a/b/c", "a/b/c"));
        assert!(!m("a/b/c", "a/b"));
        assert!(!m("a/b/c", "a/b/c/d"));
        assert!(!m("a/b/c", "a/x/c"));
    }

    #[test]
    fn empty_pattern_matches_empty_path() {
        assert!(m("", ""));
        assert!(!m("", "a"));
        assert!(!m("a", ""));
    }

    #[test]
    fn single_wildcard() {
        assert!(m("*", "anything"));
        assert!(!m("*", ""));
        assert!(!m("*", "two/atoms"));
        assert!(m("srv/*", "srv/fib"));
        assert!(!m("srv/*", "srv/fib/fast"));
    }

    #[test]
    fn double_wildcard() {
        assert!(m("**", ""));
        assert!(m("**", "a"));
        assert!(m("**", "a/b/c/d"));
        assert!(m("srv/**", "srv"));
        assert!(m("srv/**", "srv/fib/fast"));
        assert!(!m("srv/**", "cli/fib"));
        assert!(m("**/fast", "srv/fib/fast"));
        assert!(m("**/fast", "fast"));
        assert!(!m("**/fast", "fast/slow"));
    }

    #[test]
    fn alternation() {
        assert!(m("{fib, fact}", "fib"));
        assert!(m("{fib, fact}", "fact"));
        assert!(!m("{fib, fact}", "sqrt"));
        assert!(m("srv/{fib, fact}/v1", "srv/fact/v1"));
        assert!(m("a|b/c", "a"));
        assert!(m("a|b/c", "b/c"));
        assert!(!m("a|b/c", "a/c"));
    }

    #[test]
    fn classes() {
        assert!(m("[a b c]", "b"));
        assert!(!m("[a b c]", "d"));
        assert!(m("[^a b]", "c"));
        assert!(!m("[^a b]", "a"));
        assert!(!m("[^a b]", ""));
    }

    #[test]
    fn repetition() {
        assert!(m("a*", ""));
        assert!(m("a*", "a/a/a"));
        assert!(!m("a*", "a/b"));
        assert!(m("a+", "a"));
        assert!(!m("a+", ""));
        assert!(m("(a/b)*", "a/b/a/b"));
        assert!(!m("(a/b)*", "a/b/a"));
        assert!(m("a?", ""));
        assert!(m("a?", "a"));
        assert!(!m("a?", "a/a"));
    }

    #[test]
    fn incremental_state_sets_fork_correctly() {
        use actorspace_atoms::atom;
        let n = nfa("srv/{fib, fact}");
        let s0 = start(&n);
        let s1 = s0.advance(&n, atom("srv"));
        // Fork: both branches continue from the same prefix state.
        let fib = s1.advance(&n, atom("fib"));
        let fact = s1.advance(&n, atom("fact"));
        let nope = s1.advance(&n, atom("sqrt"));
        assert!(fib.is_accepting(&n));
        assert!(fact.is_accepting(&n));
        assert!(nope.is_dead());
        // The original sets are unchanged by advancing a clone.
        assert!(!s1.is_accepting(&n));
        assert!(!s1.is_dead());
    }

    #[test]
    fn dead_state_detection_prunes() {
        use actorspace_atoms::atom;
        let n = nfa("a/b");
        let s = start(&n).advance(&n, atom("x"));
        assert!(s.is_dead());
        // Advancing a dead set stays dead.
        assert!(s.advance(&n, atom("a")).is_dead());
    }

    #[test]
    fn long_paths_do_not_blow_up() {
        // 200-atom path against a pattern with nested stars: linear scan.
        let pat = nfa("(a|b)*");
        let mut p = Vec::new();
        for i in 0..200 {
            p.push(actorspace_atoms::atom(if i % 2 == 0 { "a" } else { "b" }));
        }
        assert!(matches(&pat, &p));
        p.push(actorspace_atoms::atom("c"));
        assert!(!matches(&pat, &p));
    }
}
