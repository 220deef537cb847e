//! Query solutions: variable bindings and canonical solution sets.
//!
//! Every evaluation strategy in the workspace (naive reference, Pig-like,
//! Hive-like, NTGA eager/lazy) reduces its final output to a
//! [`SolutionSet`] so results can be compared for exact equality — the
//! workspace's headline correctness invariant. The MapReduce strategies
//! build it through one [`SlotLayout`]: fixed-width answer rows over the
//! query's sorted variables, each turned into a [`Binding`] exactly once.

use crate::query::Query;
use rdf_model::Atom;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One solution: a mapping from variable name to the bound token.
///
/// Ordered map so solutions have a canonical form and implement `Ord`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Binding(pub BTreeMap<String, Atom>);

impl Binding {
    /// Empty binding.
    pub fn new() -> Self {
        Binding::default()
    }

    /// Value bound to `var`, if any.
    pub fn get(&self, var: &str) -> Option<&Atom> {
        self.0.get(var)
    }

    /// Bind `var` to `value`, returning `false` (and leaving the binding
    /// unchanged) if `var` is already bound to a *different* value.
    pub fn bind(&mut self, var: &str, value: Atom) -> bool {
        match self.0.get(var) {
            Some(existing) => *existing == value,
            None => {
                self.0.insert(var.to_string(), value);
                true
            }
        }
    }

    /// Restrict to the given variables (missing variables are dropped).
    pub fn project(&self, vars: &[String]) -> Binding {
        let mut out = BTreeMap::new();
        for v in vars {
            if let Some(val) = self.0.get(v) {
                out.insert(v.clone(), val.clone());
            }
        }
        Binding(out)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over `(var, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Atom)> {
        self.0.iter()
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Atom)> for Binding {
    fn from_iter<I: IntoIterator<Item = (String, Atom)>>(iter: I) -> Self {
        Binding(iter.into_iter().collect())
    }
}

/// A canonical set of solutions (set semantics; duplicates collapse).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolutionSet(pub BTreeSet<Binding>);

impl SolutionSet {
    /// Empty set.
    pub fn new() -> Self {
        SolutionSet::default()
    }

    /// Insert one solution.
    pub fn insert(&mut self, b: Binding) {
        self.0.insert(b);
    }

    /// Number of distinct solutions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Project every solution onto `vars` (collapsing duplicates).
    pub fn project(&self, vars: &[String]) -> SolutionSet {
        SolutionSet(self.0.iter().map(|b| b.project(vars)).collect())
    }

    /// Iterate in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Binding> {
        self.0.iter()
    }
}

impl FromIterator<Binding> for SolutionSet {
    fn from_iter<I: IntoIterator<Item = Binding>>(iter: I) -> Self {
        SolutionSet(iter.into_iter().collect())
    }
}

/// An answer row, one slot per variable of a [`SlotLayout`]; `None` is a
/// slot not bound (yet).
pub type AnswerRow = Vec<Option<Atom>>;

/// The answer layout of a query: its variables in sorted order, one slot
/// each.
///
/// Evaluators compile where each of their columns or positions lands once
/// per query ([`SlotLayout::slot`]), fill [`AnswerRow`]s, and hand them to
/// [`SlotLayout::solutions`], which builds every [`Binding`] once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotLayout {
    vars: Vec<String>,
}

/// [`SlotLayout::solutions`] found an answer row that leaves this variable
/// unbound — an evaluator bug, never a reason to drop the answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundSlot(pub String);

impl fmt::Display for UnboundSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "answer row leaves ?{} unbound", self.0)
    }
}

impl std::error::Error for UnboundSlot {}

impl SlotLayout {
    /// The layout of the given variables (sorted, duplicates dropped).
    pub fn new(mut vars: Vec<String>) -> Self {
        vars.sort();
        vars.dedup();
        SlotLayout { vars }
    }

    /// The layout of every variable `query` binds.
    pub fn of(query: &Query) -> Self {
        Self::new(query.variables())
    }

    /// Slot of `var`, if the query binds it.
    pub fn slot(&self, var: &str) -> Option<usize> {
        self.vars.binary_search_by(|v| v.as_str().cmp(var)).ok()
    }

    /// A row with every slot unbound.
    pub fn empty_row(&self) -> AnswerRow {
        vec![None; self.vars.len()]
    }

    /// Build the solution set of `rows`, projected onto `projection` when
    /// given (variables the query does not bind are dropped, as
    /// [`Binding::project`] does).
    ///
    /// Projection is applied to the rows, which are then sorted and
    /// deduplicated, so each distinct answer builds one [`Binding`]. A row
    /// with an unbound slot is an [`UnboundSlot`] error.
    pub fn solutions(
        &self,
        mut rows: Vec<AnswerRow>,
        projection: Option<&[String]>,
    ) -> Result<SolutionSet, UnboundSlot> {
        for row in &rows {
            if let Some(i) = row.iter().position(Option::is_none) {
                return Err(UnboundSlot(self.vars[i].clone()));
            }
        }
        let keep: Vec<usize> = match projection {
            Some(vars) => {
                let mut keep: Vec<usize> = vars.iter().filter_map(|v| self.slot(v)).collect();
                keep.sort_unstable();
                keep.dedup();
                if keep.len() < self.vars.len() {
                    for row in &mut rows {
                        *row = keep.iter().map(|&i| row[i].take()).collect();
                    }
                }
                keep
            }
            None => (0..self.vars.len()).collect(),
        };
        rows.sort_unstable();
        rows.dedup();
        Ok(rows
            .into_iter()
            .map(|row| {
                let pairs = keep.iter().zip(row).map(|(&i, v)| (self.vars[i].clone(), v));
                Binding(pairs.map(|(k, v)| (k, v.expect("checked bound"))).collect())
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::atom::atom;

    #[test]
    fn bind_conflicts_detected() {
        let mut b = Binding::new();
        assert!(b.bind("x", atom("<a>")));
        assert!(b.bind("x", atom("<a>"))); // same value ok
        assert!(!b.bind("x", atom("<b>"))); // conflict
        assert_eq!(b.get("x").unwrap().as_ref(), "<a>");
    }

    #[test]
    fn projection_drops_and_dedups() {
        let mut set = SolutionSet::new();
        set.insert(
            [("x".to_string(), atom("<a>")), ("y".to_string(), atom("<1>"))].into_iter().collect(),
        );
        set.insert(
            [("x".to_string(), atom("<a>")), ("y".to_string(), atom("<2>"))].into_iter().collect(),
        );
        assert_eq!(set.len(), 2);
        let proj = set.project(&["x".to_string()]);
        assert_eq!(proj.len(), 1);
    }

    #[test]
    fn display_is_stable() {
        let b: Binding =
            [("y".to_string(), atom("<b>")), ("x".to_string(), atom("<a>"))].into_iter().collect();
        assert_eq!(b.to_string(), "{?x=<a>, ?y=<b>}");
    }

    fn layout() -> SlotLayout {
        let q = crate::parse_query("SELECT * WHERE { ?y <p> ?x . ?x <q> ?z . }").unwrap();
        SlotLayout::of(&q)
    }

    fn row(values: &[&str]) -> AnswerRow {
        values.iter().map(|v| Some(atom(v))).collect()
    }

    #[test]
    fn slots_follow_sorted_variables() {
        let l = layout();
        assert_eq!(l.slot("x"), Some(0));
        assert_eq!(l.slot("y"), Some(1));
        assert_eq!(l.slot("z"), Some(2));
        assert_eq!(l.slot("w"), None);
        assert_eq!(l.empty_row(), vec![None; 3]);
    }

    #[test]
    fn solutions_match_bindings_built_one_by_one() {
        let l = layout();
        let rows = vec![row(&["<b>", "<1>", "<z>"]), row(&["<a>", "<2>", "<z>"])];
        let mut gold = SolutionSet::new();
        for r in &rows {
            gold.insert(
                ["x", "y", "z"]
                    .iter()
                    .zip(r)
                    .map(|(k, v)| (k.to_string(), v.clone().unwrap()))
                    .collect(),
            );
        }
        let mut dup = rows.clone();
        dup.extend(rows);
        assert_eq!(l.solutions(dup, None).unwrap(), gold);
    }

    #[test]
    fn projection_collapses_rows_before_building() {
        let l = layout();
        let rows = vec![row(&["<a>", "<1>", "<z>"]), row(&["<a>", "<2>", "<z>"])];
        // Unknown and repeated projection variables are dropped once.
        let vars: Vec<String> = ["z", "x", "w", "x"].iter().map(|v| v.to_string()).collect();
        let got = l.solutions(rows.clone(), Some(&vars)).unwrap();
        let all = l.solutions(rows, None).unwrap();
        assert_eq!(got, all.project(&vars));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn unbound_slot_is_an_error() {
        let l = layout();
        let mut r = row(&["<a>", "<1>", "<z>"]);
        r[1] = None;
        assert_eq!(l.solutions(vec![r], None), Err(UnboundSlot("y".into())));
        // Projecting the unbound variable away does not hide it.
        let mut r = row(&["<a>", "<1>", "<z>"]);
        r[1] = None;
        assert!(l.solutions(vec![r], Some(&["x".to_string()])).is_err());
    }

    #[test]
    fn solution_set_dedups() {
        let b: Binding = [("x".to_string(), atom("<a>"))].into_iter().collect();
        let set: SolutionSet = vec![b.clone(), b].into_iter().collect();
        assert_eq!(set.len(), 1);
    }
}
