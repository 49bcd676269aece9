//! Typed payloads against the independent oracle: for every method,
//! partition strategy and skip setting, a chain join whose rows drag
//! Double payloads (`-0.0`, values beyond 2^53) and Str payloads, with
//! NULLs in both, through every shuffle must return exactly the
//! oracle's rows, compared bit-for-bit after sorting. A property test
//! pins the CSV round trip on the row path: quoted embedded newlines,
//! NULLs, integers beyond 2^53 and non-finite doubles.

use mwtj_core::{Engine, Method, RunOptions};
use mwtj_hilbert::PartitionStrategy;
use mwtj_join::oracle::canonicalize;
use mwtj_query::{QueryBuilder, ThetaOp};
use mwtj_storage::{parse_csv, to_csv, DataType, Relation, Schema, Tuple, Value};
use proptest::prelude::*;

/// A relation exercising every value class: an Int join key, a Double
/// payload (including -0.0 and values beyond 2^53), a Str payload
/// with duplicates, and NULLs in both payload columns.
fn typed_rel(name: &str, n: i64, lo: i64) -> Relation {
    let schema = Schema::from_pairs(
        name,
        &[
            ("a", DataType::Int),
            ("d", DataType::Double),
            ("s", DataType::Str),
        ],
    );
    let tags = ["alpha", "beta", "gamma"];
    let rows = (0..n)
        .map(|i| {
            let d = match i % 5 {
                0 => Value::Null,
                1 => Value::Double(-0.0),
                2 => Value::Double(((1i64 << 53) + i) as f64),
                _ => Value::Double(i as f64 * 0.5 - 7.25),
            };
            let s = if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(tags[(i % 3) as usize])
            };
            Tuple::new(vec![Value::Int(lo + i), d, s])
        })
        .collect();
    Relation::from_rows(schema, rows).expect("typed_rel rows match schema")
}

/// Bit-exact `Value` equality: derived `PartialEq` treats -0.0 == 0.0
/// and NaN != NaN, so doubles are compared by bit pattern instead.
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn rows_bits_eq(a: &[Tuple], b: &[Tuple]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.values().len() == rb.values().len()
                && ra
                    .values()
                    .iter()
                    .zip(rb.values())
                    .all(|(va, vb)| value_bits_eq(va, vb))
        })
}

/// Every method × every partition strategy × skipping on/off returns
/// the oracle's rows, bit-for-bit once sorted.
#[test]
fn typed_chain_matches_oracle_across_methods_and_partitions() {
    let engine = Engine::with_units(16);
    let big = typed_rel("big", 4_000, 0);
    let mid = typed_rel("mid", 25, 50);
    let top = typed_rel("top", 25, 90);
    for rel in [&big, &mid, &top] {
        let _ = engine.load_relation(rel);
    }
    // Joins on the Int key; the Double/Str payloads ride along.
    let q = QueryBuilder::new("chain")
        .relation(big.schema().clone())
        .relation(mid.schema().clone())
        .relation(top.schema().clone())
        .join("big", "a", ThetaOp::Lt, "mid", "a")
        .join("mid", "a", ThetaOp::Le, "top", "a")
        .build()
        .unwrap();
    let want = canonicalize(engine.oracle(&q).expect("oracle runs"));
    assert!(!want.is_empty(), "degenerate test: empty oracle result");
    for m in Method::ALL {
        for p in [
            PartitionStrategy::Hilbert,
            PartitionStrategy::Grid,
            PartitionStrategy::ZOrder,
        ] {
            for skip in [true, false] {
                let opts = RunOptions::new().method(m).partition(p).skipping(skip);
                let run = engine
                    .run(&q, &opts)
                    .unwrap_or_else(|e| panic!("{m}:{p} skip={skip}: {e}"));
                let got = canonicalize(run.output.into_rows());
                assert_eq!(got.len(), want.len(), "{m}:{p}:{skip} row count");
                assert!(rows_bits_eq(&got, &want), "{m}:{p}:{skip} rows");
            }
        }
    }
}

/// One generated cell per column class, exercising the hard cases:
/// i64 beyond ±2^53, non-finite and negative-zero doubles, strings
/// with quotes, commas and embedded newlines, and NULLs everywhere.
fn int_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1000i64..1000).prop_map(Value::Int),
        Just(Value::Int((1i64 << 53) + 1)),
        Just(Value::Int(i64::MIN)),
    ]
}

fn double_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        // Raw bit patterns, with NaN payloads canonicalised: CSV text
        // spells every NaN "NaN", so only the canonical quiet NaN can
        // round-trip bit-exactly.
        any::<f64>().prop_map(|d| Value::Double(if d.is_nan() { f64::NAN } else { d })),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(f64::INFINITY)),
        Just(Value::Double(f64::NEG_INFINITY)),
        Just(Value::Double(-0.0)),
    ]
}

fn str_cell() -> impl Strategy<Value = Value> {
    // Never empty: the CSV dialect spells both NULL and the empty
    // string as an empty field, so only non-empty strings round-trip.
    prop_oneof![
        Just(Value::Null),
        "[a-c]{1,3}".prop_map(Value::str),
        prop::collection::vec(
            prop_oneof![
                Just('"'),
                Just(','),
                Just('\n'),
                Just('x'),
                Just('é'),
                Just(' ')
            ],
            1..6
        )
        .prop_map(|cs| Value::str(cs.into_iter().collect::<String>())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV text → parsed rows is an exact round trip: the parsed
    /// relation's rows equal the source rows bit-for-bit, and its
    /// encoded size matches theirs.
    #[test]
    fn csv_round_trip_is_bit_exact(
        rows in prop::collection::vec((int_cell(), double_cell(), str_cell()), 0..40)
    ) {
        let schema = Schema::from_pairs(
            "t",
            &[("a", DataType::Int), ("d", DataType::Double), ("s", DataType::Str)],
        );
        let source: Vec<Tuple> = rows
            .into_iter()
            .map(|(a, d, s)| Tuple::new(vec![a, d, s]))
            .collect();
        let reference = Relation::from_rows_unchecked(schema.clone(), source.clone());
        let text = to_csv(&reference);
        let parsed = parse_csv(&schema, &text).expect("generated CSV must parse");
        prop_assert!(rows_bits_eq(parsed.rows(), &source), "parsed rows differ");
        prop_assert_eq!(parsed.encoded_bytes(), reference.encoded_bytes());
    }
}
