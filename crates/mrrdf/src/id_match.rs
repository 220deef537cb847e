//! Plan-time compilation of star patterns to dictionary-id tests.
//!
//! ID-native mappers match triples by comparing `u32` dictionary ids, not
//! tokens: pattern constants are resolved to ids once at plan time, so
//! the per-record test is an integer compare. Only string filters
//! (`Contains`/`Prefix`) still need the token, which they resolve through
//! the task's dictionary snapshot (`Engine::with_dict`).

use crate::id_rec::IdTripleRec;
use mrsim::{MrError, TaskContext};
use rdf_model::Dictionary;
use rdf_query::{ObjFilter, ObjPattern, PropPattern, StarPattern, SubjPattern, TriplePattern};

/// One position's compiled test against a dictionary id.
#[derive(Debug, Clone)]
pub enum IdTest {
    /// Matches any id (variable / unbound position).
    Any,
    /// Matches exactly this id. `None` means the constant never appeared
    /// in the dictionary, so nothing can match it.
    Eq(Option<u32>),
    /// A string filter that must inspect the token (resolved through the
    /// task's dictionary snapshot).
    Str(ObjFilter),
}

impl IdTest {
    /// Compile an object filter: equality folds to an id compare, the
    /// string filters keep the token test.
    pub fn compile_filter(f: &ObjFilter, dict: &Dictionary) -> Self {
        match f {
            ObjFilter::Equals(a) => IdTest::Eq(dict.get(a)),
            other => IdTest::Str(other.clone()),
        }
    }

    /// Does `id` pass this test? `Str` filters resolve the token via the
    /// task's dictionary snapshot and fail the task if `id` is unknown.
    pub fn accepts(&self, id: u32, ctx: &TaskContext) -> Result<bool, MrError> {
        match self {
            IdTest::Any => Ok(true),
            IdTest::Eq(want) => Ok(*want == Some(id)),
            IdTest::Str(f) => Ok(f.accepts(&ctx.resolve_atom(id)?)),
        }
    }
}

/// A triple pattern compiled to id tests — the ID-plane mirror of
/// [`rdf_query::TriplePattern::matches_structurally`].
#[derive(Debug, Clone)]
pub struct IdPatternTest {
    /// Subject test.
    pub subject: IdTest,
    /// Property test.
    pub property: IdTest,
    /// Object test (includes compiled object filters).
    pub object: IdTest,
}

impl IdPatternTest {
    /// Compile one triple pattern against the dictionary.
    pub fn compile(pat: &TriplePattern, dict: &Dictionary) -> Self {
        let subject = match &pat.subject {
            SubjPattern::Var(_) => IdTest::Any,
            SubjPattern::Const(c) => IdTest::Eq(dict.get(c)),
        };
        let property = match &pat.property {
            PropPattern::Bound(p) => IdTest::Eq(dict.get(p)),
            PropPattern::Unbound(_) => IdTest::Any,
        };
        let object = match &pat.object {
            ObjPattern::Var(_) => IdTest::Any,
            ObjPattern::Const(a) => IdTest::Eq(dict.get(a)),
            ObjPattern::Filtered(_, f) => IdTest::compile_filter(f, dict),
        };
        IdPatternTest { subject, property, object }
    }

    /// Structural match of an id triple, mirroring
    /// [`rdf_query::TriplePattern::matches_structurally`].
    pub fn matches(&self, t: &IdTripleRec, ctx: &TaskContext) -> Result<bool, MrError> {
        Ok(self.subject.accepts(t.s, ctx)?
            && self.property.accepts(t.p, ctx)?
            && self.object.accepts(t.o, ctx)?)
    }
}

/// A star subpattern compiled to id tests.
#[derive(Debug, Clone)]
pub struct IdStarTest {
    /// The star's optional subject filter.
    pub subject: IdTest,
    /// Per-pattern tests, in pattern order.
    pub patterns: Vec<IdPatternTest>,
}

impl IdStarTest {
    /// Compile a star pattern against the dictionary.
    pub fn compile(star: &StarPattern, dict: &Dictionary) -> Self {
        let subject =
            star.subject_filter.as_ref().map_or(IdTest::Any, |f| IdTest::compile_filter(f, dict));
        let patterns = star.patterns.iter().map(|p| IdPatternTest::compile(p, dict)).collect();
        IdStarTest { subject, patterns }
    }

    /// The ID-plane mirror of the map-side relevance test: the subject
    /// filter accepts and some pattern matches structurally.
    pub fn relevant(&self, t: &IdTripleRec, ctx: &TaskContext) -> Result<bool, MrError> {
        if !self.subject.accepts(t.s, ctx)? {
            return Ok(false);
        }
        for pat in &self.patterns {
            if pat.matches(t, ctx)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::atom::atom;
    use rdf_query::parse_query;

    #[test]
    fn constants_fold_to_id_compares() {
        let mut dict = Dictionary::new();
        let label = dict.encode(&atom("<label>"));
        let query =
            parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . FILTER contains(?o, \"x\") }")
                .unwrap();
        let star = IdStarTest::compile(&query.stars[0], &dict);
        assert!(matches!(star.patterns[0].property, IdTest::Eq(Some(id)) if id == label));
        assert!(matches!(star.patterns[1].property, IdTest::Any));
        assert!(matches!(star.patterns[1].object, IdTest::Str(ObjFilter::Contains(_))));
    }

    #[test]
    fn missing_constant_is_unmatchable() {
        let dict = Dictionary::new();
        let query = parse_query("SELECT * WHERE { ?g <nope> ?l . }").unwrap();
        let star = IdStarTest::compile(&query.stars[0], &dict);
        assert!(matches!(star.patterns[0].property, IdTest::Eq(None)));
        // Eq(None) never accepts, whatever the id.
        let ctx = TaskContext::new();
        assert!(!star.patterns[0].property.accepts(0, &ctx).unwrap());
        assert!(!star.patterns[0].property.accepts(u32::MAX, &ctx).unwrap());
    }

    #[test]
    fn str_filter_without_snapshot_fails_the_task() {
        let t = IdTest::Str(ObjFilter::Contains("x".into()));
        let ctx = TaskContext::new();
        assert!(matches!(t.accepts(7, &ctx), Err(MrError::Codec(_))));
    }
}
