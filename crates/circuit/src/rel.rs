//! Relations on wires: fixed-capacity slot arrays with validity flags.

use qec_relation::{Database, Relation, Var, VarSet};

use crate::{Builder, WireId};

/// The reserved "`?`" value from the primary-key join construction
/// (Sec. 5.3): a value guaranteed not to occur in any database instance.
/// Domain values must therefore be `< u64::MAX`.
pub const QMARK: u64 = u64::MAX;

/// Wires of one tuple slot: `arity` field wires plus a validity flag
/// (`1` = real tuple, `0` = dummy — the paper's attribute `Z`, Sec. 5).
#[derive(Clone, Debug)]
pub struct SlotWires {
    /// Field wires, in schema order.
    pub fields: Vec<WireId>,
    /// Validity flag wire.
    pub valid: WireId,
}

/// A relation travelling through the circuit: a fixed number of slots over
/// a fixed schema. The capacity is the *bounded wire* parameter of
/// Sec. 4.3 — it depends only on the degree constraints, never on data.
#[derive(Clone, Debug)]
pub struct RelWires {
    /// Schema (sorted variable order, matching `qec_relation::Relation`).
    pub schema: Vec<Var>,
    /// Tuple slots.
    pub slots: Vec<SlotWires>,
}

impl RelWires {
    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Schema as a [`VarSet`].
    pub fn vars(&self) -> VarSet {
        self.schema.iter().copied().collect()
    }

    /// Column index of `v` in the schema.
    pub fn col(&self, v: Var) -> Option<usize> {
        self.schema.iter().position(|&s| s == v)
    }

    /// All wires in canonical output order (`fields…, valid` per slot).
    pub fn flatten(&self) -> Vec<WireId> {
        let mut out = Vec::with_capacity(self.capacity() * (self.arity() + 1));
        for s in &self.slots {
            out.extend_from_slice(&s.fields);
            out.push(s.valid);
        }
        out
    }

    /// An all-dummy relation of the given capacity (fields `0`, valid `0`).
    pub fn dummies(b: &mut Builder, schema: Vec<Var>, capacity: usize) -> RelWires {
        let zero = b.constant(0);
        let arity = schema.len();
        let slots = (0..capacity)
            .map(|_| SlotWires {
                fields: vec![zero; arity],
                valid: zero,
            })
            .collect();
        RelWires { schema, slots }
    }
}

/// Declares input wires for a relation of the given capacity. Input order
/// is `fields…, valid` per slot — the same order
/// [`relation_to_values`] produces.
pub fn encode_relation(b: &mut Builder, schema: Vec<Var>, capacity: usize) -> RelWires {
    let arity = schema.len();
    let slots = (0..capacity)
        .map(|_| {
            let fields = (0..arity).map(|_| b.input()).collect();
            let valid = b.input();
            SlotWires { fields, valid }
        })
        .collect();
    RelWires { schema, slots }
}

/// Flattens a relation into the input-value layout of [`encode_relation`],
/// padding with dummy slots.
///
/// Returns `None` if the relation does not fit the capacity (an instance
/// violating the declared constraints — the circuit is not sized for it).
pub fn relation_to_values(rel: &Relation, capacity: usize) -> Option<Vec<u64>> {
    if rel.len() > capacity {
        return None;
    }
    let arity = rel.arity();
    let mut out = Vec::with_capacity(capacity * (arity + 1));
    for row in rel.iter() {
        debug_assert!(
            row.iter().all(|&v| v < QMARK),
            "domain values must be < u64::MAX"
        );
        out.extend_from_slice(row);
        out.push(1);
    }
    for _ in rel.len()..capacity {
        out.extend(std::iter::repeat_n(0, arity));
        out.push(0);
    }
    Some(out)
}

/// Reads a relation back from evaluated output values laid out as
/// [`RelWires::flatten`]: `capacity · (arity+1)` words.
///
/// # Panics
/// Panics if `values.len()` is not a multiple of `arity + 1`.
pub fn decode_relation(schema: &[Var], values: &[u64]) -> Relation {
    let stride = schema.len() + 1;
    assert_eq!(values.len() % stride, 0, "output layout mismatch");
    let rows = values
        .chunks(stride)
        .filter(|chunk| chunk[schema.len()] != 0)
        .map(|chunk| chunk[..schema.len()].to_vec())
        .collect();
    Relation::from_rows(schema.to_vec(), rows)
}

/// Declares inputs for several relations and maps database instances onto
/// them. This is the uniform-circuit interface: the layout (hence the
/// circuit) depends only on schemas and capacities.
#[derive(Clone, Debug, Default)]
pub struct InputLayout {
    entries: Vec<(String, Vec<Var>, usize)>,
}

/// Instance-to-layout mismatches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// The database lacks a relation the layout declares.
    Missing(String),
    /// A relation has more tuples than its declared capacity.
    Overflow {
        /// Relation name.
        name: String,
        /// Declared capacity.
        capacity: usize,
        /// Actual tuple count.
        len: usize,
    },
    /// A relation's schema does not match the layout.
    SchemaMismatch(String),
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::Missing(n) => write!(f, "database is missing relation {n}"),
            LayoutError::Overflow {
                name,
                capacity,
                len,
            } => {
                write!(f, "relation {name} has {len} tuples, capacity {capacity}")
            }
            LayoutError::SchemaMismatch(n) => write!(f, "relation {n} schema mismatch"),
        }
    }
}

impl std::error::Error for LayoutError {}

impl InputLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation slot in the layout.
    pub fn add(&mut self, name: impl Into<String>, schema: Vec<Var>, capacity: usize) {
        self.entries.push((name.into(), schema, capacity));
    }

    /// The declared slots, in layout order: `(name, schema, capacity)`.
    pub fn entries(&self) -> &[(String, Vec<Var>, usize)] {
        &self.entries
    }

    /// Rebuilds a layout from serialized entries (plan-cache warm start).
    pub fn from_entries(entries: Vec<(String, Vec<Var>, usize)>) -> Self {
        Self { entries }
    }

    /// Declares all input wires, in layout order.
    pub fn wires(&self, b: &mut Builder) -> Vec<RelWires> {
        self.entries
            .iter()
            .map(|(_, schema, cap)| encode_relation(b, schema.clone(), *cap))
            .collect()
    }

    /// Flattens a database into the input vector the wires expect.
    pub fn values(&self, db: &Database) -> Result<Vec<u64>, LayoutError> {
        let mut out = Vec::new();
        for (name, schema, cap) in &self.entries {
            let rel = db
                .get(name)
                .ok_or_else(|| LayoutError::Missing(name.clone()))?;
            let vars: VarSet = schema.iter().copied().collect();
            if rel.vars() != vars {
                return Err(LayoutError::SchemaMismatch(name.clone()));
            }
            let vals = relation_to_values(rel, *cap).ok_or_else(|| LayoutError::Overflow {
                name: name.clone(),
                capacity: *cap,
                len: rel.len(),
            })?;
            out.extend(vals);
        }
        Ok(out)
    }
}

/// Declares inputs for every relation of a database at once, with
/// capacities supplied per relation name. Convenience wrapper used by the
/// examples.
pub fn encode_database(b: &mut Builder, layout: &InputLayout) -> Vec<RelWires> {
    layout.wires(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn rel(schema: &[u32], rows: &[&[u64]]) -> Relation {
        Relation::from_rows(
            schema.iter().map(|&i| Var(i)).collect(),
            rows.iter().map(|r| r.to_vec()).collect(),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let mut b = Builder::new(Mode::Build);
        let wires = encode_relation(&mut b, r.schema().to_vec(), 5);
        let out = wires.flatten();
        let c = b.finish(out);
        let values = relation_to_values(&r, 5).unwrap();
        let result = c.evaluate(&values).unwrap();
        assert_eq!(decode_relation(r.schema(), &result), r);
    }

    #[test]
    fn capacity_overflow_detected() {
        let r = rel(&[0], &[&[1], &[2], &[3]]);
        assert!(relation_to_values(&r, 2).is_none());
        assert!(relation_to_values(&r, 3).is_some());
    }

    #[test]
    fn layout_binds_database() {
        let mut layout = InputLayout::new();
        layout.add("R", vec![Var(0), Var(1)], 4);
        layout.add("S", vec![Var(1), Var(2)], 4);

        let mut db = Database::new();
        db.insert("R", rel(&[0, 1], &[&[1, 2]]));
        db.insert("S", rel(&[1, 2], &[&[2, 3], &[2, 4]]));

        let mut b = Builder::new(Mode::Build);
        let ws = layout.wires(&mut b);
        assert_eq!(ws.len(), 2);
        let outs: Vec<WireId> = ws.iter().flat_map(|w| w.flatten()).collect();
        let c = b.finish(outs);
        let vals = layout.values(&db).unwrap();
        let res = c.evaluate(&vals).unwrap();
        let r_out = decode_relation(&[Var(0), Var(1)], &res[..12]);
        let s_out = decode_relation(&[Var(1), Var(2)], &res[12..]);
        assert_eq!(r_out, *db.get("R").unwrap());
        assert_eq!(s_out, *db.get("S").unwrap());
    }

    #[test]
    fn layout_errors() {
        let mut layout = InputLayout::new();
        layout.add("R", vec![Var(0), Var(1)], 1);
        let mut db = Database::new();
        assert_eq!(layout.values(&db), Err(LayoutError::Missing("R".into())));
        db.insert("R", rel(&[0, 2], &[&[1, 2]]));
        assert_eq!(
            layout.values(&db),
            Err(LayoutError::SchemaMismatch("R".into()))
        );
        db.insert("R", rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        assert!(matches!(
            layout.values(&db),
            Err(LayoutError::Overflow { .. })
        ));
    }

    #[test]
    fn dummies_relation() {
        let mut b = Builder::new(Mode::Build);
        let d = RelWires::dummies(&mut b, vec![Var(0), Var(1)], 3);
        let c = b.finish(d.flatten());
        let out = c.evaluate(&[]).unwrap();
        assert_eq!(decode_relation(&[Var(0), Var(1)], &out).len(), 0);
    }
}
