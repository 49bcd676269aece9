//! CSV import/export for relations.
//!
//! The practical on-ramp for a release: the paper's mobile data set
//! arrives as "61 daily data files" of delimited records; this module
//! reads such files into [`Relation`]s (schema-directed parsing, with
//! NULLs as empty fields) and writes results back out. RFC-4180-style
//! quoting is supported on both paths.

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::{DataType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt::Write as _;

/// Parse CSV `text` into a relation under `schema`. The first record
/// may be a header (matched case-insensitively against the schema's
/// column names and skipped); empty fields become NULL. Records are
/// split on newlines *outside* RFC-4180 quotes, so quoted string
/// values spanning lines (which [`to_csv`] emits) round-trip. Every
/// field is parsed as its column's type, and the rows are validated
/// against the schema once more as the relation is built.
pub fn parse_csv(schema: &Schema, text: &str) -> Result<Relation> {
    let mut rows = Vec::new();
    let mut lines = split_records(text).into_iter().enumerate().peekable();
    // Header detection: every field equals a column name.
    if let Some(&(_, first)) = lines.peek() {
        let fields = split_line(first, 0)?;
        let is_header = fields.len() == schema.arity()
            && fields
                .iter()
                .zip(schema.fields())
                .all(|(f, c)| f.eq_ignore_ascii_case(&c.name));
        if is_header {
            lines.next();
        }
    }
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(line, lineno)?;
        if fields.len() != schema.arity() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "line {}: {} fields, schema `{}` has {} columns",
                    lineno + 1,
                    fields.len(),
                    schema.name(),
                    schema.arity()
                ),
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(schema.fields()) {
            values.push(parse_field(field, col.data_type, lineno)?);
        }
        rows.push(Tuple::new(values));
    }
    Relation::from_rows(schema.clone(), rows)
}

/// Render a relation as CSV with a header line.
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    for (i, f) in rel.schema().fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, &f.name);
    }
    out.push('\n');
    for row in rel.rows() {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match v {
                Value::Null => {}
                Value::Int(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::Double(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::Str(s) => write_field(&mut out, s),
            }
        }
        out.push('\n');
    }
    out
}

fn write_field(out: &mut String, s: &str) {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

fn parse_field(field: &str, ty: DataType, lineno: usize) -> Result<Value> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| Error::TypeError {
                detail: format!("line {}: `{field}` is not an INT: {e}", lineno + 1),
            }),
        DataType::Double => field
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|e| Error::TypeError {
                detail: format!("line {}: `{field}` is not a DOUBLE: {e}", lineno + 1),
            }),
        DataType::Str => Ok(Value::from(field)),
    }
}

/// Split `text` into records on newlines outside RFC-4180 quotes
/// (escaped quotes `""` toggle twice, netting out). A trailing newline
/// closes the last record instead of opening an empty one.
///
/// Public so wire formats carrying header-less CSV bodies (the
/// server's batch frames) can count records with exactly the rules
/// [`parse_csv`] splits by, instead of re-implementing the quoting
/// logic.
pub fn split_records(text: &str) -> Vec<&str> {
    let mut records = Vec::new();
    let mut in_quotes = false;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '\n' if !in_quotes => {
                records.push(text[start..i].trim_end_matches('\r'));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < text.len() {
        records.push(&text[start..]);
    }
    records
}

/// Split one CSV line with RFC-4180 quoting.
fn split_line(line: &str, lineno: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match (c, in_quotes) {
            ('"', false) => {
                if cur.is_empty() {
                    in_quotes = true;
                } else {
                    return Err(Error::Corrupt {
                        offset: lineno,
                        detail: format!("line {}: quote inside unquoted field", lineno + 1),
                    });
                }
            }
            ('"', true) => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (',', false) => {
                fields.push(std::mem::take(&mut cur));
            }
            (c, _) => cur.push(c),
        }
    }
    if in_quotes {
        return Err(Error::Corrupt {
            offset: lineno,
            detail: format!("line {}: unterminated quote", lineno + 1),
        });
    }
    fields.push(cur);
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::from_pairs(
            "calls",
            &[
                ("id", DataType::Int),
                ("who", DataType::Str),
                ("len", DataType::Double),
            ],
        )
    }

    #[test]
    fn roundtrip_with_header() {
        let rel = Relation::from_rows(
            schema(),
            vec![tuple![1, "alice", 2.5], tuple![2, "bob,jr", 0.125]],
        )
        .unwrap();
        let csv = to_csv(&rel);
        assert!(csv.starts_with("id,who,len\n"));
        let back = parse_csv(&schema(), &csv).unwrap();
        assert_eq!(back.sorted_rows(), rel.sorted_rows());
    }

    #[test]
    fn parses_without_header() {
        let rel = parse_csv(&schema(), "1,x,2.0\n2,y,3.0\n").unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0], tuple![1, "x", 2.0]);
    }

    #[test]
    fn empty_fields_are_null() {
        let rel = parse_csv(&schema(), "1,,\n").unwrap();
        assert!(rel.rows()[0].get(1).is_null());
        assert!(rel.rows()[0].get(2).is_null());
    }

    #[test]
    fn quoting_handles_commas_and_quotes() {
        let rel = Relation::from_rows(schema(), vec![tuple![1, "say \"hi\", ok", 1.0]]).unwrap();
        let csv = to_csv(&rel);
        let back = parse_csv(&schema(), &csv).unwrap();
        assert_eq!(back.rows()[0].get(1).as_str().unwrap(), "say \"hi\", ok");
    }

    #[test]
    fn quoted_newlines_roundtrip() {
        let rel =
            Relation::from_rows(schema(), vec![tuple![1, "two\nline \"value\"", 0.5]]).unwrap();
        let csv = to_csv(&rel);
        let back = parse_csv(&schema(), &csv).unwrap();
        assert_eq!(back.rows(), rel.rows());
        assert_eq!(
            back.rows()[0].get(1).as_str().unwrap(),
            "two\nline \"value\""
        );
    }

    #[test]
    fn blank_lines_skipped() {
        let rel = parse_csv(&schema(), "1,a,1.0\n\n2,b,2.0\n\n").unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn errors_are_informative() {
        // Wrong arity.
        let e = parse_csv(&schema(), "1,a\n").unwrap_err();
        assert!(e.to_string().contains("2 fields"), "{e}");
        // Bad int.
        let e = parse_csv(&schema(), "xx,a,1.0\n").unwrap_err();
        assert!(e.to_string().contains("not an INT"), "{e}");
        // Unterminated quote.
        assert!(parse_csv(&schema(), "1,\"oops,1.0\n").is_err());
        // Stray quote.
        assert!(parse_csv(&schema(), "1,a\"b,1.0\n").is_err());
    }

    #[test]
    fn header_detection_is_exact_arity_match() {
        // A data line that happens to have string fields is not a
        // header unless every field equals a column name.
        let s = Schema::from_pairs("t", &[("a", DataType::Str), ("b", DataType::Str)]);
        let rel = parse_csv(&s, "a,b\nx,y\n").unwrap(); // header + 1 row
        assert_eq!(rel.len(), 1);
        let rel2 = parse_csv(&s, "x,y\na,b\n").unwrap(); // no header
        assert_eq!(rel2.len(), 2);
    }
}
