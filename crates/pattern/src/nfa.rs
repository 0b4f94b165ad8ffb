//! Thompson construction of an NFA over the atom alphabet.
//!
//! States and transitions are plain vectors; atom identity is the interned
//! id, so a transition test is an integer comparison (or a small sorted-set
//! membership test for classes). The alphabet is *open* — new atoms may be
//! interned at any time — so a negated class matches infinitely many atoms.

use actorspace_atoms::Atom;

use crate::ast::Ast;

/// Index of a state inside its [`Nfa`].
pub type StateId = u32;

/// A transition label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trans {
    /// Consume exactly this atom.
    Atom(Atom),
    /// Consume any single atom.
    Any,
    /// Consume one atom from a sorted set.
    In(Vec<Atom>),
    /// Consume one atom *not* in a sorted set.
    NotIn(Vec<Atom>),
}

impl Trans {
    /// Whether this label accepts `a`.
    pub fn accepts(&self, a: Atom) -> bool {
        match self {
            Trans::Atom(x) => *x == a,
            Trans::Any => true,
            Trans::In(set) => set.binary_search(&a).is_ok(),
            Trans::NotIn(set) => set.binary_search(&a).is_err(),
        }
    }
}

/// One NFA state: labelled transitions plus epsilon moves.
#[derive(Debug, Clone, Default)]
pub struct State {
    /// `(label, target)` pairs.
    pub trans: Vec<(Trans, StateId)>,
    /// Epsilon (no-consume) moves.
    pub eps: Vec<StateId>,
}

/// A compiled pattern automaton with a single start and a single accept
/// state (the classic Thompson shape).
///
/// Epsilon closures are computed once, on construction, so a match step is
/// a union of precomputed closures (see `Nfa::step_closure`). They are
/// stored as one flat list, which grows with the total closure size rather
/// than with the square of the state count.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<State>,
    start: StateId,
    accept: StateId,
    /// `step_closure(s)` is `closures[closure_at[s]..closure_at[s + 1]]`.
    closures: Vec<StateId>,
    closure_at: Vec<u32>,
}

impl Nfa {
    /// Precomputes the closures of a built automaton, or `None` once they
    /// would hold more than [`MAX_PARSED_CLOSURES`] entries.
    fn within(states: Vec<State>, start: StateId, accept: StateId) -> Option<Nfa> {
        debug_assert!((start as usize) < states.len());
        debug_assert!((accept as usize) < states.len());
        let mut entered = vec![false; states.len()];
        entered[start as usize] = true;
        for (_, to) in states.iter().flat_map(|st| &st.trans) {
            entered[*to as usize] = true;
        }
        let mut closures = Vec::new();
        let mut closure_at = Vec::with_capacity(states.len() + 1);
        closure_at.push(0);
        // `seen[t] == s + 1` marks `t` as already visited from `s`.
        let mut seen = vec![0u32; states.len()];
        let mut stack = Vec::new();
        for s in 0..states.len() as StateId {
            if entered[s as usize] {
                stack.push(s);
                while let Some(t) = stack.pop() {
                    if std::mem::replace(&mut seen[t as usize], s + 1) == s + 1 {
                        continue;
                    }
                    if t == accept || !states[t as usize].trans.is_empty() {
                        closures.push(t);
                    }
                    stack.extend_from_slice(&states[t as usize].eps);
                }
            }
            if closures.len() > MAX_PARSED_CLOSURES {
                return None;
            }
            closure_at.push(closures.len() as u32);
        }
        Some(Nfa {
            states,
            start,
            accept,
            closures,
            closure_at,
        })
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The unique accept state.
    pub fn accept(&self) -> StateId {
        self.accept
    }

    /// All states, indexed by [`StateId`].
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The states a match holds after entering `s`: those reachable from
    /// `s` by epsilon moves alone (`s` included) that have a transition or
    /// are the accept state. The others can neither consume an atom nor
    /// accept, so a match never needs them. Empty unless `s` is the start
    /// state or a transition target, the only states a match enters.
    pub(crate) fn step_closure(&self, s: StateId) -> &[StateId] {
        let s = s as usize;
        &self.closures[self.closure_at[s] as usize..self.closure_at[s + 1] as usize]
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// NFAs always have at least a start and accept state.
    pub fn is_empty(&self) -> bool {
        false
    }
}

struct Builder {
    states: Vec<State>,
}

impl Builder {
    fn new_state(&mut self) -> StateId {
        let id = u32::try_from(self.states.len()).expect("NFA too large");
        self.states.push(State::default());
        id
    }

    fn eps(&mut self, from: StateId, to: StateId) {
        self.states[from as usize].eps.push(to);
    }

    fn edge(&mut self, from: StateId, label: Trans, to: StateId) {
        self.states[from as usize].trans.push((label, to));
    }

    /// Builds the fragment for `ast` between fresh start/end states,
    /// returning `(start, end)`.
    fn fragment(&mut self, ast: &Ast) -> (StateId, StateId) {
        match ast {
            Ast::Empty => {
                let s = self.new_state();
                let e = self.new_state();
                self.eps(s, e);
                (s, e)
            }
            Ast::Atom(a) => {
                let s = self.new_state();
                let e = self.new_state();
                self.edge(s, Trans::Atom(*a), e);
                (s, e)
            }
            Ast::AnyAtom => {
                let s = self.new_state();
                let e = self.new_state();
                self.edge(s, Trans::Any, e);
                (s, e)
            }
            Ast::Class { atoms, negated } => {
                let s = self.new_state();
                let e = self.new_state();
                let label = if *negated {
                    Trans::NotIn(atoms.clone())
                } else {
                    Trans::In(atoms.clone())
                };
                self.edge(s, label, e);
                (s, e)
            }
            Ast::Seq(parts) => {
                let mut cur: Option<(StateId, StateId)> = None;
                for p in parts {
                    let (ps, pe) = self.fragment(p);
                    cur = Some(match cur {
                        None => (ps, pe),
                        Some((s, e)) => {
                            self.eps(e, ps);
                            (s, pe)
                        }
                    });
                }
                cur.unwrap_or_else(|| {
                    let s = self.new_state();
                    let e = self.new_state();
                    self.eps(s, e);
                    (s, e)
                })
            }
            Ast::Alt(parts) => {
                let s = self.new_state();
                let e = self.new_state();
                for p in parts {
                    let (ps, pe) = self.fragment(p);
                    self.eps(s, ps);
                    self.eps(pe, e);
                }
                (s, e)
            }
            Ast::Star(inner) => {
                let s = self.new_state();
                let e = self.new_state();
                let (is, ie) = self.fragment(inner);
                self.eps(s, is);
                self.eps(s, e);
                self.eps(ie, is);
                self.eps(ie, e);
                (s, e)
            }
            Ast::Plus(inner) => {
                // p+ ≡ p / p*
                let (is, ie) = self.fragment(inner);
                let e = self.new_state();
                self.eps(ie, is);
                self.eps(ie, e);
                (is, e)
            }
            Ast::Opt(inner) => {
                let s = self.new_state();
                let e = self.new_state();
                let (is, ie) = self.fragment(inner);
                self.eps(s, is);
                self.eps(s, e);
                self.eps(ie, e);
                (s, e)
            }
        }
    }
}

/// The most ε-closure entries one NFA may store; [`compile`], and so
/// [`Pattern::parse`](crate::Pattern::parse), rejects more. A sequence of k optional parts stores about k²/2
/// entries, so text from outside the program (an interpreted script, a
/// shell line) could otherwise make compiling quadratic in its length.
/// This bound is 4 MiB of closures; about 1,400 `(*)?` parts reach it.
pub const MAX_PARSED_CLOSURES: usize = 1 << 20;

/// Compiles an AST into its Thompson NFA, or `None` if its closures would
/// hold more than [`MAX_PARSED_CLOSURES`] entries.
pub fn compile(ast: &Ast) -> Option<Nfa> {
    let mut b = Builder { states: Vec::new() };
    let (start, accept) = b.fragment(ast);
    Nfa::within(b.states, start, accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn nfa(s: &str) -> Nfa {
        compile(&parse(s).unwrap()).unwrap()
    }

    #[test]
    fn trans_accepts() {
        use actorspace_atoms::atom;
        let a = atom("nfa-a");
        let b = atom("nfa-b");
        assert!(Trans::Atom(a).accepts(a));
        assert!(!Trans::Atom(a).accepts(b));
        assert!(Trans::Any.accepts(a));
        let mut set = vec![a, b];
        set.sort_unstable();
        assert!(Trans::In(set.clone()).accepts(a));
        assert!(!Trans::NotIn(set.clone()).accepts(a));
        assert!(Trans::NotIn(set).accepts(atom("nfa-c")));
    }

    #[test]
    fn parse_rejects_patterns_whose_closures_exceed_the_bound() {
        let optional_parts = |k: usize| vec!["(*)?"; k].join("/");
        let fits = nfa(&optional_parts(1_000));
        assert!(fits.closures.len() <= MAX_PARSED_CLOSURES);
        assert!(crate::Pattern::parse(&optional_parts(1_000)).is_ok());
        let err = crate::Pattern::parse(&optional_parts(10_000))
            .expect_err("10,000 optional parts exceed the bound");
        assert!(err.message.contains("too large"), "{err}");
    }

    #[test]
    fn state_counts_are_linear() {
        // Thompson construction: at most 2 states per AST node.
        let n = nfa("a/b/c/d/e");
        assert!(n.len() <= 2 * 6, "got {}", n.len());
        let n = nfa("(a|b)*");
        assert!(n.len() <= 2 * 5, "got {}", n.len());
    }

    #[test]
    fn empty_pattern_has_eps_path() {
        let n = nfa("");
        assert_eq!(n.states()[n.start() as usize].eps, vec![n.accept()]);
    }

    #[test]
    fn compile_is_deterministic() {
        let a = nfa("x/{y, z}/**");
        let b = nfa("x/{y, z}/**");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.start(), b.start());
        assert_eq!(a.accept(), b.accept());
    }
}
