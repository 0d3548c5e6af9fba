//! The value index: DB-content grounding for literal slots.
//!
//! Production Text-to-SQL systems (including FinSQL's deployment) keep an
//! offline index of distinct cell values so that literals in questions
//! can be matched to columns *without executing queries*. This module
//! builds that index, keeps it current under live appends, and extracts
//! literal spans (values, numbers, dates) from question text.

use sqlengine::{Database, Value};
use sqlkit::catalog::CatalogTable;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

/// Maximum distinct values a column may have to be indexed (large
/// free-text columns are useless for matching and bloat the index).
const MAX_DISTINCT: usize = 400;
/// Minimum value length worth matching.
const MIN_LEN: usize = 3;

/// A value occurrence in some column.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueHit {
    pub table: String,
    pub column: String,
    /// The original-cased value as stored.
    pub value: String,
}

/// One indexed value: `(lower-cased value, column id, original value)`.
/// Boxed strings keep it at 40 bytes, which a live append moves.
type Entry = (Box<str>, u32, Box<str>);

/// An index of distinct text values across a database's columns.
///
/// `entries`, the CSR buckets and `first_words` are derived from
/// `col_state`. [`ValueIndex::build`] derives them from scratch, and
/// [`ValueIndex::absorb_batch`] merges the entries an append adds into
/// them; both land on the same structure, which `==` compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueIndex {
    /// Every indexed value, sorted by [`entry_order`]: descending value
    /// length first, so maximal matches come first.
    entries: Vec<Entry>,
    /// CSR buckets over the leading byte pair of each lowercase value:
    /// `bucket_entries[bucket_offsets[p]..bucket_offsets[p + 1]]` lists
    /// (ascending) the indices of every entry whose value starts with the
    /// two bytes `p`. A value can only occur inside a question whose text
    /// contains that pair, so a lookup visits a handful of buckets
    /// instead of streaming every entry.
    bucket_offsets: Vec<u32>,
    bucket_entries: Vec<u32>,
    /// Per-entry lowercased leading word of the original value — `None`
    /// when the value has no word of at least 3 bytes. Precomputed so
    /// LIKE-prefix probes don't re-split and re-lowercase every value on
    /// every question.
    first_words: Vec<Option<Box<str>>>,
    /// Per-column distinct-value accumulator, indexed by column id. Ids
    /// are assigned once, in `(table, column)` name order, so comparing
    /// two ids compares the names. A live append unions its values into
    /// these sets and merges only the values new to them into the
    /// derived fields.
    col_state: Vec<ColState>,
    /// Each table's column ids, in catalog column order.
    tables: BTreeMap<String, Vec<u32>>,
}

/// Distinct string values seen in one `(table, column)`. Once the count
/// exceeds [`MAX_DISTINCT`] the column is permanently out (`over`) and
/// its set is dropped — a state that is monotone under appends, which is
/// what makes incremental absorption exact: a column over the cap from
/// scratch is over the cap incrementally, and vice versa.
///
/// The set only answers membership and counts. Nothing iterates it, so
/// its per-process order cannot reach the index.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColState {
    table: String,
    column: String,
    distinct: HashSet<String>,
    over: bool,
}

impl ColState {
    /// Unions a column's values into the accumulator, passing each value
    /// new to the set to `new_value`. Past the distinct cap it trips
    /// `over`, drops the set and returns `true`; the values it passed on
    /// in this call are then out of the index too.
    fn absorb<'a>(
        &mut self,
        values: impl Iterator<Item = &'a Value>,
        mut new_value: impl FnMut(&'a str),
    ) -> bool {
        if self.over {
            return false;
        }
        for v in values {
            let Value::Str(s) = v else { continue };
            if self.distinct.contains(s) {
                continue;
            }
            self.distinct.insert(s.clone());
            if self.distinct.len() > MAX_DISTINCT {
                self.over = true;
                self.distinct = HashSet::default();
                return true;
            }
            new_value(s);
        }
        false
    }
}

/// Number of distinct 2-byte windows (the CSR bucket key space).
const N_PAIRS: usize = 1 << 16;

fn pair_of(b0: u8, b1: u8) -> usize {
    usize::from(b0) << 8 | usize::from(b1)
}

/// The bucket of a lowercase value: its leading byte pair (an indexed
/// value has >= MIN_LEN chars, so >= 2 bytes).
fn bucket_of(lower: &str) -> usize {
    let b = lower.as_bytes();
    pair_of(b[0], b[1])
}

/// Whether a distinct value gets an entry: long enough, and not a date.
fn indexable(v: &str) -> bool {
    v.chars().count() >= MIN_LEN && !looks_like_date(v)
}

/// The entry of a value of column `id`.
fn entry_of(v: &str, id: u32) -> Entry {
    (v.to_lowercase().into(), id, v.into())
}

/// The leading word of an original value, when it has >= 3 bytes.
fn leading_word(original: &str) -> Option<&str> {
    original.split_whitespace().next().filter(|word| word.len() >= 3)
}

/// The `first_words` slot of an original value.
fn first_word(original: &str) -> Option<Box<str>> {
    leading_word(original).map(|word| word.to_lowercase().into())
}

/// The index's total order over entries: length descending, then every
/// field. Column ids follow `(table, column)` name order, so this is the
/// order over `(lowercase, table, column, original)`, and no two distinct
/// entries tie.
fn entry_order(a: &Entry, b: &Entry) -> Ordering {
    b.0.len()
        .cmp(&a.0.len())
        .then_with(|| a.0.cmp(&b.0))
        .then(a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

impl ValueIndex {
    /// Scans every text column of the database and derives the index
    /// from scratch — the reference [`ValueIndex::absorb_batch`] must
    /// reproduce: one entry per distinct indexable value of each column
    /// under the cap, totally sorted, then bucketed.
    pub fn build(db: &Database) -> Self {
        let mut names: Vec<(&str, &str)> = db
            .tables()
            .flat_map(|t| t.def.columns.iter().map(move |c| (t.def.name.as_str(), c.name.as_str())))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut col_state: Vec<ColState> = names
            .iter()
            .map(|&(table, column)| ColState {
                table: table.to_string(),
                column: column.to_string(),
                distinct: HashSet::default(),
                over: false,
            })
            .collect();
        let mut tables = BTreeMap::new();
        let mut entries = Vec::new();
        for table in db.tables() {
            let name = table.def.name.as_str();
            let ids: Vec<u32> = table
                .def
                .columns
                .iter()
                .map(|c| names.partition_point(|&k| k < (name, c.name.as_str())) as u32)
                .collect();
            for (ci, &id) in ids.iter().enumerate() {
                let values = table.rows.iter().map(|r| &r[ci]);
                col_state[id as usize].absorb(values, |v| {
                    if indexable(v) {
                        entries.push(entry_of(v, id));
                    }
                });
            }
            tables.insert(table.def.name.clone(), ids);
        }
        entries.retain(|e: &Entry| !col_state[e.1 as usize].over);
        entries.sort_by(entry_order);
        let first_words = entries.iter().map(|(_, _, original)| first_word(original)).collect();
        let mut index = ValueIndex {
            entries,
            bucket_offsets: vec![0; N_PAIRS + 1],
            bucket_entries: Vec::new(),
            first_words,
            col_state,
            tables,
        };
        index.rebucket();
        index
    }

    /// Absorbs freshly appended rows, one `(table, rows)` batch per
    /// change record. Each value is unioned into its column's set; only
    /// values new to a column that is still under the cap, long enough
    /// and not a date become fresh entries. Only those are lowercased and
    /// sorted, and they are merged into the entries and first words in
    /// place; the buckets are then recounted in place. No old entry is
    /// lowercased, cloned or sorted again. Beyond the work on the fresh
    /// values, a call moves each of the n old entries at most once and
    /// re-buckets in two passes over the entries and two over the 65,537
    /// offsets. A column that crosses the cap leaves the index in the
    /// same call, its old and fresh entries alike.
    ///
    /// The result is structurally equal (`==`) to [`ValueIndex::build`]
    /// on the grown database: set union is order-insensitive, the cap is
    /// monotone, and the merge keeps `build`'s total order. Every batch
    /// must belong to a table of the catalog the index was built from.
    pub fn absorb_batch<'a>(
        &mut self,
        batches: impl IntoIterator<Item = (&'a CatalogTable, &'a [Vec<Value>])>,
    ) {
        let mut fresh: Vec<Entry> = Vec::new();
        let mut tripped: Vec<u32> = Vec::new();
        for (def, rows) in batches {
            // INVARIANT: a database's catalog is fixed, and the caller
            // passes only tables of it (`FinSql::absorb_appends` filters
            // records through the runtime's copy of the catalog).
            let ids = self.tables.get(def.name.as_str()).expect("table of the indexed catalog");
            for (ci, &id) in ids.iter().enumerate() {
                let values = rows.iter().map(|r| &r[ci]);
                let over = self.col_state[id as usize].absorb(values, |v| {
                    if indexable(v) {
                        fresh.push(entry_of(v, id));
                    }
                });
                if over {
                    tripped.push(id);
                }
            }
        }
        if tripped.is_empty() && fresh.is_empty() {
            return;
        }
        if !tripped.is_empty() {
            fresh.retain(|e| !tripped.contains(&e.1));
            self.drop_columns(&tripped);
        }
        fresh.sort_by(entry_order);
        self.merge(fresh);
        self.rebucket();
    }

    /// Takes every entry of the columns `cols` out of the entries and
    /// first words, keeping the order of the rest.
    fn drop_columns(&mut self, cols: &[u32]) {
        let mut entries = self.entries.iter();
        self.first_words.retain(|_| entries.next().is_some_and(|e| !cols.contains(&e.1)));
        self.entries.retain(|e| !cols.contains(&e.1));
    }

    /// Merges `fresh` — sorted by [`entry_order`], none equal to an old
    /// entry — into the entries and first words, from the back. Before
    /// fresh entry j is placed, old entries `[0, read)` are still where
    /// they were and the j + 1 slots `[read, read + j + 1)` are free, so
    /// each old entry ordered after it swaps once into its final slot and
    /// no n-sized buffer is allocated.
    fn merge(&mut self, fresh: Vec<Entry>) {
        let (n, k) = (self.entries.len(), fresh.len());
        self.entries.resize_with(n + k, Entry::default);
        self.first_words.resize(n + k, None);
        let mut read = n;
        for (j, entry) in fresh.into_iter().enumerate().rev() {
            let a =
                self.entries[..read].partition_point(|e| entry_order(e, &entry) == Ordering::Less);
            for i in (a..read).rev() {
                self.entries.swap(i, i + j + 1);
                self.first_words.swap(i, i + j + 1);
            }
            self.first_words[a + j] = first_word(&entry.2);
            self.entries[a + j] = entry;
            read = a;
        }
    }

    /// Buckets the entries into the CSR arrays, reusing both: count each
    /// bucket, turn the counts into bucket ends with a running sum, then
    /// place the indices from the back. Each bucket's cursor walks down
    /// from its end to its start, so the entries, visited in descending
    /// index order, land ascending in their bucket. The last offset
    /// counts no bucket and stays at n.
    fn rebucket(&mut self) {
        let offsets = &mut self.bucket_offsets;
        offsets.fill(0);
        for (lower, ..) in &self.entries {
            offsets[bucket_of(lower)] += 1;
        }
        let mut end = 0;
        for offset in offsets.iter_mut() {
            end += *offset;
            *offset = end;
        }
        self.bucket_entries.resize(self.entries.len(), 0);
        for (i, (lower, ..)) in self.entries.iter().enumerate().rev() {
            let cursor = &mut offsets[bucket_of(lower)];
            *cursor -= 1;
            self.bucket_entries[*cursor as usize] = i as u32;
        }
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds indexed values occurring verbatim (case-insensitively) in
    /// the question, longest first.
    pub fn find_in_question(&self, question: &str) -> Vec<ValueHit> {
        let q = question.to_lowercase();
        let qb = q.as_bytes();
        let mut hits = Vec::new();
        if qb.len() < 2 {
            // No two-byte window exists, and every entry is at least
            // MIN_LEN (3) chars — nothing can match.
            return hits;
        }
        // Bitset of every 2-byte window of the question — the membership
        // oracle for both prefilters below.
        let mut pairs = [0u64; 1024];
        for w in qb.windows(2) {
            let p = pair_of(w[0], w[1]);
            pairs[p >> 6] |= 1u64 << (p & 63);
        }
        // Candidate gathering: walk the question's (distinct) pairs and
        // collect the CSR bucket of each — exactly the entries whose
        // leading pair occurs in the question, i.e. the set the old full
        // scan's leading-pair prefilter kept. Each entry lives in one
        // bucket, so indices are unique; sorting restores the original
        // scan order (entries are length-descending by index).
        let mut todo = pairs;
        let mut cand: Vec<u32> = Vec::new();
        for w in qb.windows(2) {
            let p = pair_of(w[0], w[1]);
            if todo[p >> 6] & (1u64 << (p & 63)) != 0 {
                todo[p >> 6] &= !(1u64 << (p & 63));
                let (lo, hi) =
                    (self.bucket_offsets[p] as usize, self.bucket_offsets[p + 1] as usize);
                cand.extend_from_slice(&self.bucket_entries[lo..hi]);
            }
        }
        cand.sort_unstable();
        'cand: for idx in cand {
            let (lower, id, original) = &self.entries[idx as usize];
            // Every 2-byte window of the value must occur in the question
            // for the value to be a substring — a cheap certain-reject
            // pass before the verbatim check. Pure prefilter: the hits
            // and their order are exactly the full scan's.
            for w in lower.as_bytes().windows(2) {
                let p = pair_of(w[0], w[1]);
                if pairs[p >> 6] & (1u64 << (p & 63)) == 0 {
                    continue 'cand;
                }
            }
            if q.contains(&**lower) {
                let col = &self.col_state[*id as usize];
                hits.push(ValueHit {
                    table: col.table.clone(),
                    column: col.column.clone(),
                    value: original.to_string(),
                });
            }
        }
        hits
    }

    /// `(table, column, original-cased leading word)` for every value
    /// whose leading word (>= 3 bytes) occurs case-insensitively in the
    /// already-lowercased question text, in entry order — the candidate
    /// set for LIKE-prefix matching.
    pub fn prefix_hits(&self, qlower: &str) -> Vec<(String, String, String)> {
        let qb = qlower.as_bytes();
        let mut out = Vec::new();
        if qb.len() < 2 {
            return out;
        }
        let mut pairs = [0u64; 1024];
        for w in qb.windows(2) {
            let p = pair_of(w[0], w[1]);
            pairs[p >> 6] |= 1u64 << (p & 63);
        }
        'entry: for ((_, id, original), word) in self.entries.iter().zip(&self.first_words) {
            let Some(lower_word) = word else { continue };
            // Same certain-reject window filter as `find_in_question`,
            // over the word instead of the whole value.
            for w in lower_word.as_bytes().windows(2) {
                let p = pair_of(w[0], w[1]);
                if pairs[p >> 6] & (1u64 << (p & 63)) == 0 {
                    continue 'entry;
                }
            }
            if !qlower.contains(&**lower_word) {
                continue;
            }
            if let Some(orig_word) = leading_word(original) {
                let col = &self.col_state[*id as usize];
                out.push((col.table.clone(), col.column.clone(), orig_word.to_string()));
            }
        }
        out
    }
}

/// `YYYY-MM-DD` check.
pub fn looks_like_date(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() == 10
        && b.iter().enumerate().all(|(i, c)| {
            if i == 4 || i == 7 {
                *c == b'-'
            } else {
                c.is_ascii_digit()
            }
        })
}

/// Extracts numeric literals (`123`, `45.20`) from raw question text, in
/// order of appearance. Digits that are part of a date are skipped.
pub fn extract_numbers(question: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for span in number_spans(question) {
        if let Ok(v) = span.parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Extracts `YYYY-MM-DD` dates from the question, in order.
pub fn extract_dates(question: &str) -> Vec<String> {
    let bytes = question.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 10 <= bytes.len() {
        // A date is pure ASCII, so byte-slicing is safe once the window
        // starts on a char boundary (CJK questions contain multi-byte
        // chars elsewhere).
        if !question.is_char_boundary(i) || !question.is_char_boundary(i + 10) {
            i += 1;
            continue;
        }
        let cand = &question[i..i + 10];
        if looks_like_date(cand)
            && (i == 0 || !bytes[i - 1].is_ascii_digit())
            && (i + 10 == bytes.len() || !bytes[i + 10].is_ascii_digit())
        {
            out.push(cand.to_string());
            i += 10;
        } else {
            i += 1;
        }
    }
    out
}

/// Extracts the raw numeric spans (`"3"`, `"45.20"`) from a question, in
/// order of appearance, skipping digits that belong to dates.
pub fn extract_number_spans(question: &str) -> Vec<String> {
    number_spans(question)
}

/// Numeric spans excluding date digits.
fn number_spans(question: &str) -> Vec<String> {
    // Blank out dates first.
    let mut masked: Vec<u8> = question.as_bytes().to_vec();
    let mut i = 0;
    while i + 10 <= masked.len() {
        if !question.is_char_boundary(i) || !question.is_char_boundary(i + 10) {
            i += 1;
            continue;
        }
        if looks_like_date(&question[i..i + 10]) {
            for b in &mut masked[i..i + 10] {
                *b = b' ';
            }
            i += 10;
        } else {
            i += 1;
        }
    }
    let text = String::from_utf8_lossy(&masked).into_owned();
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            let mut seen_dot = false;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || (bytes[i] == b'.'
                        && !seen_dot
                        && i + 1 < bytes.len()
                        && bytes[i + 1].is_ascii_digit()))
            {
                if bytes[i] == b'.' {
                    seen_dot = true;
                }
                i += 1;
            }
            out.push(text[start..i].to_string());
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::catalog::{CatalogColumn, CatalogSchema, CatalogTable, ColType};

    fn db() -> Database {
        let schema = CatalogSchema {
            db_id: "v".into(),
            tables: vec![CatalogTable {
                name: "fund".into(),
                desc_en: String::new(),
                desc_cn: String::new(),
                columns: vec![
                    CatalogColumn::new("fname", ColType::Text, "fund name", ""),
                    CatalogColumn::new("ftype", ColType::Text, "fund type", ""),
                    CatalogColumn::new("d", ColType::Date, "date", ""),
                ],
            }],
            foreign_keys: vec![],
        };
        let mut db = Database::new(schema);
        for (n, t, d) in [
            ("Harvest Growth A", "bond fund", "2022-01-04"),
            ("Bosera Value C", "stock fund", "2022-02-07"),
        ] {
            db.insert("fund", vec![Value::from(n), Value::from(t), Value::from(d)]).unwrap();
        }
        db
    }

    /// One-table database over a single text column.
    fn one_column_db(values: impl IntoIterator<Item = String>) -> Database {
        let schema = CatalogSchema {
            db_id: "v".into(),
            tables: vec![CatalogTable {
                name: "fund".into(),
                desc_en: String::new(),
                desc_cn: String::new(),
                columns: vec![CatalogColumn::new("fname", ColType::Text, "fund name", "")],
            }],
            foreign_keys: vec![],
        };
        let mut db = Database::new(schema);
        for v in values {
            db.insert("fund", vec![Value::from(v.as_str())]).unwrap();
        }
        db
    }

    /// Appends rows to the database and absorbs them as one batch.
    fn append(database: &mut Database, index: &mut ValueIndex, table: &str, rows: &[Vec<Value>]) {
        for row in rows {
            database.insert(table, row.clone()).unwrap();
        }
        let def = database.table(table).unwrap().def.clone();
        index.absorb_batch([(&def, rows)]);
    }

    #[test]
    fn index_finds_values_in_questions() {
        let idx = ValueIndex::build(&db());
        let hits = idx.find_in_question("What is the date of the fund whose fund type is bond fund?");
        assert!(hits.iter().any(|h| h.column == "ftype" && h.value == "bond fund"));
        // Longest match first.
        let hits = idx.find_in_question("show Harvest Growth A please");
        assert_eq!(hits[0].value, "Harvest Growth A");
    }

    #[test]
    fn dates_are_not_indexed_as_values() {
        let idx = ValueIndex::build(&db());
        let hits = idx.find_in_question("on 2022-01-04 what happened");
        assert!(hits.is_empty());
    }

    #[test]
    fn matching_is_case_insensitive() {
        let idx = ValueIndex::build(&db());
        let hits = idx.find_in_question("what about BOND FUND here");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, "bond fund");
    }

    #[test]
    fn build_is_deterministic_across_hashset_states() {
        // Case-variants of one value share (length, lowercase, table,
        // column) — exactly the ties that used to be broken by HashSet
        // iteration order. Every HashSet instance gets its own
        // RandomState, so repeated builds exercise different orders.
        let db = one_column_db(
            ["Bond Fund", "BOND FUND", "bond fund", "BoNd FuNd", "bOnD fUnD"].map(String::from),
        );
        let reference = ValueIndex::build(&db);
        for _ in 0..20 {
            assert!(ValueIndex::build(&db) == reference);
        }
    }

    #[test]
    fn absorb_batch_matches_from_scratch_build() {
        let mut database = db();
        let mut incremental = ValueIndex::build(&database);
        let new_rows = vec![
            vec![Value::from("Penghua Dividend C"), Value::from("mixed fund"), Value::from("2022-03-01")],
            vec![Value::from("Harvest Growth A"), Value::from("bond fund"), Value::from("2022-03-02")],
        ];
        append(&mut database, &mut incremental, "fund", &new_rows);
        assert!(incremental == ValueIndex::build(&database));
        // New values are findable; duplicates did not double-index.
        let hits = incremental.find_in_question("is Penghua Dividend C a mixed fund?");
        assert!(hits.iter().any(|h| h.value == "Penghua Dividend C"));
        assert_eq!(incremental.entries.iter().filter(|e| &*e.2 == "Harvest Growth A").count(), 1);
    }

    #[test]
    fn absorb_batch_equals_sequential_absorbs() {
        let database = db();
        let def = database.table("fund").unwrap().def.clone();
        let batch_a = vec![vec![
            Value::from("Penghua Dividend C"),
            Value::from("mixed fund"),
            Value::from("2022-03-01"),
        ]];
        let batch_b = vec![vec![
            Value::from("Invesco Balanced B"),
            Value::from("bond fund"),
            Value::from("2022-03-02"),
        ]];
        let mut sequential = ValueIndex::build(&database);
        sequential.absorb_batch([(&def, batch_a.as_slice())]);
        sequential.absorb_batch([(&def, batch_b.as_slice())]);
        let mut batched = ValueIndex::build(&database);
        batched.absorb_batch([(&def, batch_a.as_slice()), (&def, batch_b.as_slice())]);
        assert!(batched == sequential);
    }

    #[test]
    fn absorb_batch_trips_the_distinct_cap_exactly_like_build() {
        // One below the cap, the call's first new value is indexed before
        // the trip; at the cap, the call trips with no fresh entry.
        for base in [MAX_DISTINCT - 1, MAX_DISTINCT] {
            let mut database = one_column_db((0..base).map(|i| format!("fund {i:04}")));
            let mut incremental = ValueIndex::build(&database);
            // Push the column over the cap incrementally: the column must
            // go dark, exactly as a from-scratch build over the grown data.
            let new_rows: Vec<Vec<Value>> =
                (0..5).map(|i| vec![Value::from(format!("late {i}").as_str())]).collect();
            append(&mut database, &mut incremental, "fund", &new_rows);
            assert!(incremental == ValueIndex::build(&database));
            assert!(incremental.is_empty(), "over-cap column must drop out of the index");
            // And it stays out: further absorbs on an over column are no-ops.
            append(&mut database, &mut incremental, "fund", &[vec![Value::from("one more")]]);
            assert!(incremental.is_empty());
            assert!(incremental == ValueIndex::build(&database));
        }
    }

    #[test]
    fn number_extraction() {
        assert_eq!(extract_numbers("top 3 funds above 45.20 percent"), vec![3.0, 45.2]);
        assert_eq!(extract_numbers("no numbers here"), Vec::<f64>::new());
    }

    #[test]
    fn number_extraction_skips_dates() {
        assert_eq!(extract_numbers("between 2022-01-04 and 2022-02-07 above 1.5"), vec![1.5]);
    }

    #[test]
    fn date_extraction() {
        assert_eq!(
            extract_dates("from 2022-01-04 to 2022-02-07"),
            vec!["2022-01-04".to_string(), "2022-02-07".to_string()]
        );
        assert!(extract_dates("the code 20220104 is not a date").is_empty());
    }

    /// Cell values for the property test: case variants, values shorter
    /// than `MIN_LEN`, dates, values sharing a leading byte pair, and
    /// multi-byte text. Index `CELLS.len()` draws NULL.
    const CELLS: &[&str] = &[
        "Bond Fund",
        "bond fund",
        "BOND FUND",
        "Bonus",
        "bon",
        "Bo",
        "bo",
        "",
        "2022-01-04",
        "2021-12-31",
        "Harvest",
        "harvest growth",
        "Hare",
        "Ha",
        "华夏成长",
        "华夏",
        "华安基金",
        "Penghua C",
        "pen",
    ];
    /// Appended `code` values are `code 370` to `code 409`, and the base
    /// table holds `code 000` up to `code {base - 1}`, so with `base`
    /// near the cap the column crosses it after a few appends, often in
    /// the middle of a batch.
    const CODE_FROM: usize = 370;

    fn cell(i: usize) -> Value {
        CELLS.get(i).map_or(Value::Null, |s| Value::from(*s))
    }

    fn code(i: usize) -> Value {
        Value::from(format!("code {i:03}").as_str())
    }

    /// Two tables whose column ids (name order) differ from their
    /// catalog positions; `fund.code` is the near-cap column.
    fn prop_db(base: usize) -> Database {
        let table = |name: &str, columns| CatalogTable {
            name: name.into(),
            desc_en: String::new(),
            desc_cn: String::new(),
            columns,
        };
        let schema = CatalogSchema {
            db_id: "p".into(),
            tables: vec![
                table(
                    "fund",
                    vec![
                        CatalogColumn::new("fname", ColType::Text, "fund name", ""),
                        CatalogColumn::new("ftype", ColType::Text, "fund type", ""),
                        CatalogColumn::new("d", ColType::Date, "date", ""),
                        CatalogColumn::new("code", ColType::Text, "code", ""),
                    ],
                ),
                table(
                    "bank",
                    vec![
                        CatalogColumn::new("bname", ColType::Text, "bank name", ""),
                        CatalogColumn::new("amount", ColType::Int, "amount", ""),
                    ],
                ),
            ],
            foreign_keys: vec![],
        };
        let mut db = Database::new(schema);
        for i in 0..base {
            let row = vec![cell(i % 7), cell(i % 5 + 9), cell(8), code(i)];
            db.insert("fund", row).unwrap();
        }
        db.insert("bank", vec![cell(14), Value::Int(1)]).unwrap();
        db
    }

    /// A drawn row: four cells, the last an offset into the code range.
    type RowDraw = (usize, usize, usize, usize);

    fn row_of(fund: bool, &(a, b, c, o): &RowDraw) -> Vec<Value> {
        if fund {
            vec![cell(a), cell(b), cell(c), code(CODE_FROM + o)]
        } else {
            vec![cell(a), Value::Int(o as i64)]
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Any sequence of calls — each several batches over either
        /// table — leaves the incremental index equal to `build` on the
        /// grown database after every call.
        #[test]
        fn absorb_batch_equals_build_after_any_appends(
            base in CODE_FROM - 10..MAX_DISTINCT + 2,
            calls in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        any::<bool>(),
                        proptest::collection::vec(
                            (0..CELLS.len() + 1, 0..CELLS.len() + 1, 0..CELLS.len() + 1, 0usize..40),
                            1..7,
                        ),
                    ),
                    1..4,
                ),
                1..6,
            ),
        ) {
            let mut database = prop_db(base);
            let mut incremental = ValueIndex::build(&database);
            for (c, call) in calls.iter().enumerate() {
                let batches: Vec<(CatalogTable, Vec<Vec<Value>>)> = call
                    .iter()
                    .map(|(fund, draws)| {
                        let name = if *fund { "fund" } else { "bank" };
                        let rows: Vec<Vec<Value>> = draws.iter().map(|d| row_of(*fund, d)).collect();
                        for row in &rows {
                            database.insert(name, row.clone()).unwrap();
                        }
                        (database.table(name).unwrap().def.clone(), rows)
                    })
                    .collect();
                incremental.absorb_batch(batches.iter().map(|(def, rows)| (def, rows.as_slice())));
                let reference = ValueIndex::build(&database);
                prop_assert!(incremental == reference, "call {} of base {}: {:?}", c, base, call);
            }
        }
    }

    /// The CSR buckets list every entry once, under its leading byte
    /// pair, in ascending index order. `build` and `absorb_batch` bucket
    /// alike, so `==` between them cannot check this.
    fn assert_buckets_partition_entries(index: &ValueIndex) {
        let mut expected: Vec<(usize, u32)> =
            (0u32..).zip(&index.entries).map(|(i, e)| (bucket_of(&e.0), i)).collect();
        expected.sort_unstable();
        let mut listed = Vec::new();
        for p in 0..N_PAIRS {
            let (lo, hi) = (index.bucket_offsets[p] as usize, index.bucket_offsets[p + 1] as usize);
            listed.extend(index.bucket_entries[lo..hi].iter().map(|&i| (p, i)));
        }
        assert_eq!(listed, expected);
    }

    /// Replays live ticks on the three BULL databases, with a burst every
    /// few rounds that pushes columns over the cap, and compares with a
    /// from-scratch build at a dozen checkpoints.
    #[test]
    fn absorb_batch_tracks_bull_ticks_and_cap_bursts() {
        for db in bull::DbId::ALL {
            let mut gdb = bull::datagen::populate(db, bull::DEFAULT_SEED);
            let mut index = ValueIndex::build(&gdb.db);
            let mut went_dark = 0;
            for round in 1..=24u64 {
                let rows = if round % 6 == 0 { 120 } else { 1 };
                let ticks = bull::datagen::mint_ticks(db, &gdb, round, rows);
                let epoch = gdb.db.epoch();
                gdb.db.apply_changes(ticks).unwrap();
                let catalog = gdb.db.catalog();
                let tail = gdb.db.change_log().since(epoch.0);
                let over_before = index.col_state.iter().filter(|c| c.over).count();
                index.absorb_batch(
                    tail.iter().map(|r| (catalog.table(&r.table).unwrap(), r.rows.as_slice())),
                );
                went_dark += index.col_state.iter().filter(|c| c.over).count() - over_before;
                if round % 2 == 0 {
                    assert!(index == ValueIndex::build(&gdb.db), "{db} round {round}");
                    assert_buckets_partition_entries(&index);
                }
            }
            assert!(went_dark > 0, "{db}: no burst pushed a column over the cap");
        }
    }
}
