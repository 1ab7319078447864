//! Interned symbols: predicates, constants, and variables.
//!
//! Every name that appears in a program (predicate symbols, constants,
//! variables) is interned once in a [`SymbolTable`] and referred to by a
//! small copyable id ([`PredId`], [`ConstId`], [`VarId`]). This keeps atoms
//! compact (`u32`s instead of strings) and makes equality/hashing cheap,
//! which matters because the chase compares and hashes atoms constantly.
//!
//! Predicates carry an arity that is fixed at interning time; re-interning
//! the same name with a different arity is an error (the paper's schemas
//! associate a single arity with each relation symbol).

use std::collections::HashMap;
use std::fmt;

use crate::error::ModelError;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a `usize`, for indexing side tables.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// An interned predicate symbol.
    PredId
);
id_type!(
    /// An interned constant.
    ConstId
);
id_type!(
    /// A variable. Variables are either global (parser-produced) or local
    /// to a rule/query after normalization; the id space is the same type.
    VarId
);
id_type!(
    /// A labelled null, as invented by the chase. The provenance
    /// `⊥^z_{σ, h|fr(σ)}` of each null lives in the chase engine's null
    /// store; the model layer only carries the opaque id.
    NullId
);

/// A string interner with stable ids.
#[derive(Debug, Default, Clone)]
struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.map.insert(name.to_owned(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.map.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// The shared symbol table of a program.
///
/// All crates in the workspace thread a `SymbolTable` (usually by `&mut`
/// reference while building, `&` while reading) so that ids are meaningful
/// across databases, TGD sets, rewrites, and query results.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    preds: Interner,
    consts: Interner,
    vars: Interner,
    arities: Vec<usize>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a predicate with the given arity.
    ///
    /// Returns an error if `name` was previously interned with a different
    /// arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, ModelError> {
        if let Some(id) = self.preds.lookup(name) {
            let have = self.arities[id as usize];
            if have != arity {
                return Err(ModelError::ArityMismatch {
                    pred: name.to_owned(),
                    have,
                    got: arity,
                });
            }
            return Ok(PredId(id));
        }
        let id = self.preds.intern(name);
        debug_assert_eq!(id as usize, self.arities.len());
        self.arities.push(arity);
        Ok(PredId(id))
    }

    /// Interns a predicate, panicking on arity mismatch. Convenient in
    /// tests and generators where the schema is controlled by the caller.
    pub fn pred_unchecked(&mut self, name: &str, arity: usize) -> PredId {
        self.pred(name, arity).expect("predicate arity mismatch")
    }

    /// Creates a fresh predicate whose name is guaranteed not to collide
    /// with any interned name, derived from `base`. Used by the rewriting
    /// crates for simplified predicates `R^{id}` and type predicates `[τ]`.
    ///
    /// A colliding `base` gets the new predicate's id appended (`base'17`),
    /// so the name stays within a few bytes of `base` however often `base`
    /// is reused on one table; the id counts up only past a name that
    /// already exists.
    pub fn fresh_pred(&mut self, base: &str, arity: usize) -> PredId {
        let mut n = self.preds.len();
        let mut name = base.to_owned();
        while self.preds.lookup(&name).is_some() {
            name = format!("{base}'{n}");
            n += 1;
        }
        self.pred(&name, arity).expect("fresh name cannot collide")
    }

    /// Looks up a predicate by name without interning.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.preds.lookup(name).map(PredId)
    }

    /// The arity of a predicate.
    #[inline]
    pub fn arity(&self, pred: PredId) -> usize {
        self.arities[pred.index()]
    }

    /// The display name of a predicate.
    pub fn pred_name(&self, pred: PredId) -> &str {
        self.preds.name(pred.0)
    }

    /// Number of interned predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        ConstId(self.consts.intern(name))
    }

    /// The display name of a constant.
    pub fn const_name(&self, c: ConstId) -> &str {
        self.consts.name(c.0)
    }

    /// Number of interned constants.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Interns a (global, named) variable.
    pub fn var(&mut self, name: &str) -> VarId {
        VarId(self.vars.intern(name))
    }

    /// The display name of a global variable. Rule-local (normalized)
    /// variables are displayed positionally by the `display` module instead.
    pub fn var_name(&self, v: VarId) -> &str {
        self.vars.name(v.0)
    }

    /// Number of interned variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable() {
        let mut syms = SymbolTable::new();
        let p1 = syms.pred("R", 2).unwrap();
        let p2 = syms.pred("R", 2).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(syms.arity(p1), 2);
        assert_eq!(syms.pred_name(p1), "R");
    }

    #[test]
    fn arity_mismatch_is_error() {
        let mut syms = SymbolTable::new();
        syms.pred("R", 2).unwrap();
        let err = syms.pred("R", 3).unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
    }

    #[test]
    fn fresh_pred_avoids_collisions() {
        let mut syms = SymbolTable::new();
        syms.pred("R", 2).unwrap();
        let f = syms.fresh_pred("R", 4);
        assert_ne!(syms.pred_name(f), "R");
        assert_eq!(syms.arity(f), 4);
        // A second fresh from the same base is again distinct.
        let g = syms.fresh_pred("R", 5);
        assert_ne!(f, g);
        // Reusing a base keeps names within a few bytes of it.
        for _ in 0..1000 {
            let p = syms.fresh_pred("R", 2);
            assert!(syms.pred_name(p).len() <= "R'1002".len());
        }
        assert_eq!(syms.pred_count(), 1003);
        // A `base'id` name that already exists is stepped over.
        syms.pred("R'1004", 1).unwrap();
        let h = syms.fresh_pred("R", 1);
        assert_eq!(syms.pred_name(h), "R'1005");
    }

    #[test]
    fn constants_and_variables_intern_independently() {
        let mut syms = SymbolTable::new();
        let a = syms.constant("a");
        let b = syms.constant("b");
        let a2 = syms.constant("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let x = syms.var("X");
        let y = syms.var("Y");
        assert_ne!(x, y);
        assert_eq!(syms.var("X"), x);
        assert_eq!(syms.const_count(), 2);
        assert_eq!(syms.var_count(), 2);
    }

    #[test]
    fn ids_index_cleanly() {
        assert_eq!(PredId(7).index(), 7);
        assert_eq!(format!("{:?}", ConstId(3)), "ConstId(3)");
    }
}
