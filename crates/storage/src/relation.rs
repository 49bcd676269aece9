//! In-memory relations: a schema plus a vector of tuples, with byte-exact
//! size accounting for the DFS and cost model.

use crate::error::Result;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// A named relation: schema + rows.
///
/// Rows live behind an [`Arc`], so cloning a relation — and in
/// particular re-registering the same data under another schema name
/// via [`Relation::rename`], the self-join alias path — shares the row
/// storage instead of deep-copying it. Mutation ([`Relation::push`])
/// copies-on-write when the rows are shared.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
    /// Cached sum of encoded row lengths, maintained on push.
    encoded_bytes: usize,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Arc::new(Vec::new()),
            encoded_bytes: 0,
        }
    }

    /// Create a relation from pre-built rows, validating each against
    /// the schema. One bulk pass: every row is checked, the byte
    /// accounting is summed, and the storage is allocated exactly once
    /// — no per-row `Arc::make_mut` reservation as repeated
    /// [`Relation::push`] calls would pay.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self> {
        let mut encoded_bytes = 0usize;
        for r in &rows {
            schema.check(r.values())?;
            encoded_bytes += r.encoded_len();
        }
        Ok(Relation {
            schema,
            rows: Arc::new(rows),
            encoded_bytes,
        })
    }

    /// Create a relation from rows **without** validating. Used by
    /// generators that construct rows straight from the schema and by the
    /// engine's inner loops, where per-row validation would only re-check
    /// what construction already guarantees.
    pub fn from_rows_unchecked(schema: Schema, rows: Vec<Tuple>) -> Self {
        let encoded_bytes = rows.iter().map(Tuple::encoded_len).sum();
        Relation {
            schema,
            rows: Arc::new(rows),
            encoded_bytes,
        }
    }

    /// The same rows under another schema name (self-join instances
    /// `t1`, `t2`, … of one base table). Row storage is shared, not
    /// copied.
    pub fn rename(&self, name: &str) -> Self {
        Relation {
            schema: Schema::new(name, self.schema.fields().to_vec()),
            rows: Arc::clone(&self.rows),
            encoded_bytes: self.encoded_bytes,
        }
    }

    /// Append a row, validating against the schema.
    pub fn push(&mut self, row: Tuple) -> Result<()> {
        self.schema.check(row.values())?;
        self.encoded_bytes += row.encoded_len();
        Arc::make_mut(&mut self.rows).push(row);
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Cardinality `|R|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total encoded size in bytes — what the paper calls the input size
    /// `S_I` contribution of this relation.
    pub fn encoded_bytes(&self) -> usize {
        self.encoded_bytes
    }

    /// Average encoded row width in bytes (0 for an empty relation).
    pub fn avg_row_bytes(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.encoded_bytes as f64 / self.rows.len() as f64
        }
    }

    /// Project column `name` of every row.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let i = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(|r| r.get(i).clone()).collect())
    }

    /// Consume into rows (copies only if the row storage is shared).
    pub fn into_rows(self) -> Vec<Tuple> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Canonical sorted copy of the rows (for multiset comparison in
    /// tests and merge verification).
    pub fn sorted_rows(&self) -> Vec<Tuple> {
        let mut v = (*self.rows).clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::from_pairs("t", &[("a", DataType::Int), ("b", DataType::Str)])
    }

    #[test]
    fn push_validates_and_accounts_bytes() {
        let mut r = Relation::empty(schema());
        r.push(tuple![1, "x"]).unwrap();
        r.push(tuple![2, "yy"]).unwrap();
        assert!(r.push(tuple![1]).is_err());
        assert!(r.push(tuple!["bad", "x"]).is_err());
        assert_eq!(r.len(), 2);
        let expect: usize = r.rows().iter().map(Tuple::encoded_len).sum();
        assert_eq!(r.encoded_bytes(), expect);
        assert!(r.avg_row_bytes() > 0.0);
    }

    #[test]
    fn from_rows_bulk_validates_and_accounts_bytes() {
        let rows = vec![tuple![1, "x"], tuple![2, "yy"]];
        let expect: usize = rows.iter().map(Tuple::encoded_len).sum();
        let r = Relation::from_rows(schema(), rows).unwrap();
        assert_eq!(r.encoded_bytes(), expect);
        // A bad row anywhere rejects the whole batch.
        assert!(Relation::from_rows(schema(), vec![tuple![1, "x"], tuple![1]]).is_err());
        assert!(Relation::from_rows(schema(), vec![tuple!["bad", "x"]]).is_err());
    }

    #[test]
    fn from_rows_unchecked_accounts_bytes() {
        let rows = vec![tuple![1, "x"], tuple![2, "y"]];
        let expect: usize = rows.iter().map(Tuple::encoded_len).sum();
        let r = Relation::from_rows_unchecked(schema(), rows);
        assert_eq!(r.encoded_bytes(), expect);
    }

    #[test]
    fn column_projection() {
        let r = Relation::from_rows(schema(), vec![tuple![1, "x"], tuple![2, "y"]]).unwrap();
        assert_eq!(r.column("a").unwrap(), vec![Value::Int(1), Value::Int(2)]);
        assert!(r.column("zz").is_err());
    }

    #[test]
    fn sorted_rows_is_canonical() {
        let r = Relation::from_rows(
            schema(),
            vec![tuple![2, "y"], tuple![1, "x"], tuple![1, "a"]],
        )
        .unwrap();
        let s = r.sorted_rows();
        assert_eq!(s[0], tuple![1, "a"]);
        assert_eq!(s[2], tuple![2, "y"]);
    }

    #[test]
    fn empty_relation_properties() {
        let r = Relation::empty(schema());
        assert!(r.is_empty());
        assert_eq!(r.avg_row_bytes(), 0.0);
        assert_eq!(r.encoded_bytes(), 0);
    }
}
