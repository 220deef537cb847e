//! Schema'd n-tuple rows — the relational materialization.
//!
//! A relational star join of `k` triple patterns materializes tuples of
//! **3k arity**: `(Sub, Prop, Obj)` per pattern (the paper, Section 3,
//! Figure 4). The subject is repeated `k` times, every bound property
//! token is repeated in every tuple, and every combination with an
//! unbound-property match repeats the whole bound component — this is
//! precisely the redundancy NTGA avoids, so the byte accounting here must
//! be faithful: a [`Row`] is the flat list of column tokens, sized as a
//! tab-separated text row.
//!
//! Column *meaning* is tracked out-of-band by [`RowSchema`] (relations have
//! schemas; Hadoop text rows don't carry column names), which also turns
//! final rows into the query's solution set.

use crate::run::PlanError;
use mrsim::Rec;
use rdf_model::atom::Atom;
use rdf_query::{SlotLayout, SolutionSet};

/// A flat n-tuple of interned tokens. `Vec<Atom>` already implements
/// [`Rec`] (byte-compatible with the historical `Vec<String>` wire
/// form); this alias names its role.
pub type Row = Vec<Atom>;

/// Column meanings for a row relation: for each column, the variable it
/// binds (or `None` for columns bound to constants / unnamed positions).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSchema {
    /// Variable bound by each column.
    pub cols: Vec<Option<String>>,
}

impl RowSchema {
    /// Schema with the given column variables.
    pub fn new(cols: Vec<Option<String>>) -> Self {
        RowSchema { cols }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Concatenate two schemas (the schema of a join output).
    pub fn concat(&self, other: &RowSchema) -> RowSchema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        RowSchema { cols }
    }

    /// Index of the first column binding `var`.
    pub fn index_of(&self, var: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.as_deref() == Some(var))
    }

    /// The solution set of `rows` under this schema: each row's columns
    /// fill the answer slots of `layout` through one column-to-slot
    /// mapping, then [`SlotLayout::solutions`] projects onto `projection`
    /// and builds each distinct answer once.
    ///
    /// A row whose arity mismatches the schema, whose columns binding one
    /// variable disagree, or that leaves a slot of `layout` unbound is a
    /// planner bug: [`PlanError::Internal`].
    pub fn solutions(
        &self,
        rows: Vec<Row>,
        layout: &SlotLayout,
        projection: Option<&[String]>,
    ) -> Result<SolutionSet, PlanError> {
        let slots = self
            .cols
            .iter()
            .map(|col| match col {
                None => Ok(None),
                Some(var) => layout.slot(var).map(Some).ok_or_else(|| {
                    PlanError::Internal(format!("column ?{var} missing from answer layout"))
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let inconsistent = || PlanError::Internal("inconsistent output row".into());
        let mut answers = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != slots.len() {
                return Err(inconsistent());
            }
            let mut answer = layout.empty_row();
            for (&slot, val) in slots.iter().zip(row) {
                let Some(slot) = slot else { continue };
                match &answer[slot] {
                    None => answer[slot] = Some(val),
                    Some(bound) if *bound == val => {}
                    Some(_) => return Err(inconsistent()),
                }
            }
            answers.push(answer);
        }
        layout.solutions(answers, projection).map_err(|e| PlanError::Internal(e.to_string()))
    }
}

/// Text size of a row record (used in tests; `Vec<Atom>`'s [`Rec`]
/// impl is what the engine uses — one byte separator per token, one
/// newline).
pub fn row_text_size(row: &Row) -> u64 {
    row.text_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RowSchema {
        // Star of 2 patterns: (?g <label> ?l) (?g <xGO> ?go) -> 6 columns.
        RowSchema::new(vec![
            Some("g".into()),
            None,
            Some("l".into()),
            Some("g".into()),
            None,
            Some("go".into()),
        ])
    }

    fn layout() -> SlotLayout {
        SlotLayout::new(vec!["g".into(), "l".into(), "go".into()])
    }

    fn row(subject2: &str) -> Row {
        vec![
            "<g1>".into(),
            "<label>".into(),
            "\"a\"".into(),
            subject2.into(),
            "<xGO>".into(),
            "<go1>".into(),
        ]
    }

    #[test]
    fn solutions_extraction() {
        let set = schema().solutions(vec![row("<g1>"), row("<g1>")], &layout(), None).unwrap();
        assert_eq!(set.len(), 1, "duplicate rows collapse");
        let b = set.iter().next().unwrap();
        assert_eq!(&**b.get("g").unwrap(), "<g1>");
        assert_eq!(&**b.get("l").unwrap(), "\"a\"");
        assert_eq!(&**b.get("go").unwrap(), "<go1>");
        assert_eq!(b.len(), 3);
        let projected =
            schema().solutions(vec![row("<g1>")], &layout(), Some(&["go".into()])).unwrap();
        assert_eq!(projected.iter().next().unwrap().len(), 1);
    }

    #[test]
    fn solutions_reject_inconsistent_row() {
        // Subject mismatch across patterns.
        let err = schema().solutions(vec![row("<g2>")], &layout(), None).unwrap_err();
        assert!(matches!(err, PlanError::Internal(_)), "{err:?}");
    }

    #[test]
    fn solutions_reject_arity_mismatch() {
        let rows: Vec<Row> = vec![vec!["<g1>".into()]];
        assert!(schema().solutions(rows, &layout(), None).is_err());
    }

    #[test]
    fn solutions_reject_unbound_slot() {
        // The layout binds ?x, which no column fills.
        let wide = SlotLayout::new(vec!["g".into(), "l".into(), "go".into(), "x".into()]);
        let err = schema().solutions(vec![row("<g1>")], &wide, None).unwrap_err();
        assert!(err.to_string().contains("?x"), "{err}");
    }

    #[test]
    fn concat_schemas() {
        let joined = schema().concat(&RowSchema::new(vec![Some("x".into())]));
        assert_eq!(joined.arity(), 7);
        assert_eq!(joined.index_of("x"), Some(6));
        assert_eq!(joined.index_of("g"), Some(0));
        assert_eq!(joined.index_of("zz"), None);
    }

    #[test]
    fn row_text_size_counts_repeated_tokens() {
        // The redundancy must show in bytes: subject repeated twice costs
        // twice.
        let row: Row = vec!["<g1>".into(), "<p>".into(), "<g1>".into()];
        assert_eq!(row_text_size(&row), (5 + 4 + 5) as u64);
    }
}
