//! Triples as engine records.

use mrsim::{DfsFile, EncodeAs, Engine, MapInput, MrError, Rec, SliceReader};
use rdf_model::atom::AtomTable;
use rdf_model::{STriple, TripleStore};

/// Conventional DFS name for the base triple relation.
pub const TRIPLES_FILE: &str = "triples";

/// An [`STriple`] wrapped as an `mrsim` record.
///
/// The simulated text size is the N-Triples row size
/// ([`STriple::text_size`]), so scans of the base relation cost exactly
/// what scanning the N-Triples file would cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleRec(pub STriple);

impl Rec for TripleRec {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.s.encode_into(buf);
        self.0.p.encode_into(buf);
        self.0.o.encode_into(buf);
    }

    fn decode(r: &mut SliceReader<'_>) -> Result<Self, MrError> {
        let s = r.read_atom()?;
        let p = r.read_atom()?;
        let o = r.read_atom()?;
        Ok(TripleRec(STriple { s, p, o }))
    }

    fn text_size(&self) -> u64 {
        self.0.text_size()
    }
}

/// A [`TripleRec`] record read in place: the three tokens borrow the
/// record bytes.
///
/// As a map input format (`map_fn::<TripleView, _, _, _>`), each mapper
/// call receives a `TripleView<'_>` over the current record. Scans of the
/// triple relation only filter tokens and re-emit some of them, so they
/// never intern or copy a token; the borrowed tokens emit through the
/// token codec ([`EncodeAs`]) byte for byte. Parsing applies exactly the
/// checks of [`TripleRec::from_bytes`] — three length-prefixed UTF-8
/// tokens and no trailing bytes — so a bad record is a [`MrError::Codec`]
/// that skip mode quarantines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleView<'a> {
    /// Subject token.
    pub s: &'a str,
    /// Property token.
    pub p: &'a str,
    /// Object token.
    pub o: &'a str,
}

impl<'a> TripleView<'a> {
    /// Parse one whole [`TripleRec`] record.
    pub fn parse(record: &'a [u8]) -> Result<Self, MrError> {
        let mut r = SliceReader::new(record);
        let view = TripleView { s: r.read_str()?, p: r.read_str()?, o: r.read_str()? };
        r.finish()?;
        Ok(view)
    }
}

impl MapInput for TripleView<'static> {
    type Item<'a> = TripleView<'a>;

    fn read<'a>(record: &'a [u8], _atoms: &'a AtomTable) -> Result<TripleView<'a>, MrError> {
        TripleView::parse(record)
    }
}

/// A view re-emits as the record it was read from, byte for byte.
impl EncodeAs<TripleRec> for TripleView<'_> {
    fn encode_as(&self, buf: &mut Vec<u8>) {
        for token in [self.s, self.p, self.o] {
            token.encode_as(buf);
        }
    }

    fn text_size_as(&self) -> u64 {
        // The N-Triples row, as `STriple::text_size`.
        self.s.len() as u64 + self.p.len() as u64 + self.o.len() as u64 + 5
    }
}

/// Load a triple store into the engine's DFS under `name`.
pub fn load_store(engine: &Engine, name: &str, store: &TripleStore) -> Result<(), MrError> {
    let mut file = DfsFile::default();
    for t in store.iter() {
        let rec = TripleRec(t.clone());
        file.text_bytes += rec.text_size();
        file.records.push(rec.to_bytes());
    }
    engine.hdfs().lock().put(name, file)
}

/// Read a triple relation back out of the engine's DFS — the inverse of
/// [`load_store`]. Cost-based planning uses it to derive
/// [`rdf_model::StoreStats`] for whatever relation an engine actually
/// holds when the caller has no handle on the original store.
pub fn read_store(engine: &Engine, name: &str) -> Result<TripleStore, MrError> {
    let file = engine.hdfs().lock().get(name)?;
    let mut triples = Vec::with_capacity(file.records.len());
    for raw in &file.records {
        triples.push(TripleRec::from_bytes(raw)?.0);
    }
    Ok(TripleStore::from_triples(triples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rec = TripleRec(STriple::new("<s>", "<p>", "\"o value\""));
        let back = TripleRec::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn view_reads_and_reemits_the_record() {
        let rec = TripleRec(STriple::new("<s>", "<p>", "\"o \u{1F980}\""));
        let bytes = rec.to_bytes();
        let view = TripleView::parse(&bytes).unwrap();
        assert_eq!((view.s, view.p, view.o), (&*rec.0.s, &*rec.0.p, &*rec.0.o));
        let mut again = Vec::new();
        view.encode_as(&mut again);
        assert_eq!(again, bytes);
        assert_eq!(view.text_size_as(), rec.text_size());
    }

    #[test]
    fn view_rejects_what_from_bytes_rejects() {
        let bytes = TripleRec(STriple::new("<s>", "<p>", "<o>")).to_bytes();
        let mut trailing = bytes.clone();
        trailing.push(0);
        let mut bad_utf8 = bytes.clone();
        *bad_utf8.last_mut().unwrap() = 0xff;
        for bad in [&bytes[..bytes.len() - 1], &trailing, &bad_utf8, &[]] {
            assert!(TripleRec::from_bytes(bad).is_err());
            assert!(matches!(TripleView::parse(bad), Err(MrError::Codec(_))), "{bad:?}");
        }
    }

    #[test]
    fn text_size_is_ntriples_row() {
        let t = STriple::new("<s>", "<p>", "<o>");
        assert_eq!(TripleRec(t.clone()).text_size(), t.text_size());
    }

    #[test]
    fn load_store_accounts_bytes() {
        let engine = Engine::unbounded();
        let store = TripleStore::from_triples(vec![
            STriple::new("<a>", "<p>", "<b>"),
            STriple::new("<a>", "<q>", "\"x\""),
        ]);
        load_store(&engine, TRIPLES_FILE, &store).unwrap();
        let file = engine.hdfs().lock().get(TRIPLES_FILE).unwrap();
        assert_eq!(file.records.len(), 2);
        assert_eq!(file.text_bytes, store.text_bytes());
    }

    #[test]
    fn read_store_inverts_load_store() {
        let engine = Engine::unbounded();
        let store = TripleStore::from_triples(vec![
            STriple::new("<a>", "<p>", "<b>"),
            STriple::new("<a>", "<q>", "\"x\""),
        ]);
        load_store(&engine, TRIPLES_FILE, &store).unwrap();
        let back = read_store(&engine, TRIPLES_FILE).unwrap();
        assert_eq!(back.stats(), store.stats());
        assert!(matches!(read_store(&engine, "nope"), Err(MrError::NoSuchFile(_))));
    }
}
