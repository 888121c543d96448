//! Minimal CSV loading for relation instances.
//!
//! Values are parsed as `Int` when they look like integers, `Float` when
//! they parse as floats, and strings otherwise. Quoting follows RFC 4180
//! (double quotes, doubled to escape). This is how external datasets are
//! imported into the engine without a database server. Import produces a
//! [`WriteBatch`] ([`csv_batch`]) so CSV data flows through the same typed,
//! schema-validated mutation surface as every other write.

use crate::delta::WriteBatch;
use crate::schema::Schema;
use crate::value::Value;
use crate::EngineError;
use std::io::{BufRead, BufReader, Read};

/// Parses one CSV line into fields (RFC 4180 quoting).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Parses a CSV field into the closest [`Value`].
pub fn parse_value(field: &str) -> Value {
    let t = field.trim();
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        if f.is_finite() {
            return Value::Float(f);
        }
    }
    Value::str(t)
}

/// Reads CSV rows for `relation` into an insert-only [`WriteBatch`]. The
/// file's column count must match the relation's arity; a `header` row is
/// skipped when `true`. Apply the batch through the owning database (or
/// [`WriteBatch::resolve`] + [`crate::delta::ResolvedWrite::apply_mut`]) to
/// get integrity checking and incremental view propagation.
pub fn csv_batch<R: Read>(
    schema: &Schema,
    relation: &str,
    reader: R,
    header: bool,
) -> Result<WriteBatch, EngineError> {
    let rel = schema.relation(relation)?;
    let mut batch = WriteBatch::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| EngineError::MalformedQuery(e.to_string()))?;
        if line.trim().is_empty() || (header && idx == 0) {
            continue;
        }
        let fields = split_csv_line(&line);
        if fields.len() != rel.arity() {
            return Err(EngineError::ArityMismatch {
                relation: relation.to_string(),
                expected: rel.arity(),
                got: fields.len(),
            });
        }
        batch.insert(relation, fields.iter().map(|f| parse_value(f)).collect());
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::schema::graph_schema_node_dp;

    #[test]
    fn batch_loads_typed_values() {
        let schema = graph_schema_node_dp();
        let batch =
            csv_batch(&schema, "Edge", "src,dst\n1,2\n2,3\n".as_bytes(), true).expect("parses");
        let inst =
            batch.resolve(&schema, &Instance::new()).expect("resolves").apply_to(&Instance::new());
        assert_eq!(inst.rows("Edge").len(), 2);
        assert_eq!(inst.rows("Edge")[0], vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn batch_rejects_unknown_relation() {
        let schema = graph_schema_node_dp();
        assert!(matches!(
            csv_batch(&schema, "Nope", "1\n".as_bytes(), false),
            Err(EngineError::UnknownRelation(r)) if r == "Nope"
        ));
    }

    #[test]
    fn quoting_and_floats() {
        assert_eq!(
            split_csv_line(r#"a,"b,c","say ""hi""",1.5"#),
            vec!["a", "b,c", "say \"hi\"", "1.5"]
        );
        assert_eq!(parse_value("1.5"), Value::Float(1.5));
        assert_eq!(parse_value("x"), Value::str("x"));
        assert_eq!(parse_value(" 7 "), Value::Int(7));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = graph_schema_node_dp();
        let r = csv_batch(&schema, "Edge", "1,2,3\n".as_bytes(), false);
        assert!(matches!(r, Err(EngineError::ArityMismatch { .. })));
    }

    #[test]
    fn blank_lines_skipped() {
        let schema = graph_schema_node_dp();
        let batch = csv_batch(&schema, "Node", "1\n\n2\n".as_bytes(), false).expect("parses");
        let inst =
            batch.resolve(&schema, &Instance::new()).expect("resolves").apply_to(&Instance::new());
        assert_eq!(inst.rows("Node").len(), 2);
    }
}
