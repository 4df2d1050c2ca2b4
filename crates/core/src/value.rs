//! Runtime value model for compiled entity programs.
//!
//! The paper's prototype executes Python objects; we interpret the compiled
//! method bodies over a small dynamic [`Value`] model. Entity references are
//! first-class values ([`Value::EntityRef`]) — they are what callers pass
//! around instead of object pointers, and they carry the partition key the
//! routers use.

use crate::error::{RuntimeError, RuntimeResult};
use crate::ids::ClassId;
use crate::layout::FieldLayout;
use entity_lang::ast::{BinOp, CmpOp, UnaryOp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A partition key: entity keys must be `int` or `str` (enforced by the
/// type checker), mirroring the paper's `__key__` requirement. String keys
/// carry an `Arc<str>` payload, so cloning a key (and therefore an
/// [`EntityAddr`]) is a refcount bump, not a heap copy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Key {
    /// Integer key.
    Int(i64),
    /// String key (shared payload; O(1) clone).
    Str(Arc<str>),
}

impl Key {
    /// Deterministic partition assignment for this key (FNV-1a based, so it is
    /// stable across processes and runs — important for replay/recovery tests).
    pub fn partition(&self, partitions: usize) -> usize {
        assert!(partitions > 0, "partition count must be positive");
        (self.stable_hash() % partitions as u64) as usize
    }

    /// A stable 64-bit hash of the key (FNV-1a, allocation-free).
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let fnv = |bytes: &[u8]| {
            let mut hash = OFFSET;
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
            hash
        };
        match self {
            Key::Int(v) => fnv(&v.to_le_bytes()),
            Key::Str(s) => fnv(s.as_bytes()),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Int(v) => write!(f, "{v}"),
            Key::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Key {
    fn from(v: &str) -> Self {
        Key::Str(Arc::from(v))
    }
}

impl From<String> for Key {
    fn from(v: String) -> Self {
        Key::Str(Arc::from(v))
    }
}

impl From<Arc<str>> for Key {
    fn from(v: Arc<str>) -> Self {
        Key::Str(v)
    }
}

// Only lossless integer conversions: a `u64` (or `usize`) impl would have to
// wrap values above `i64::MAX` into negative keys that silently alias other
// entities — callers with wide types must convert explicitly.
macro_rules! key_int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Key {
            fn from(v: $t) -> Self {
                Key::Int(i64::from(v))
            }
        }
    )*};
}

key_int_from!(i64, i32, u8, u32);

/// The address of a stateful entity instance: which operator (entity class,
/// as its interned [`ClassId`]) and which key within that operator's
/// partitioned state. Since PR 2 this is a fixed-width, hash-friendly
/// structure — cloning it bumps a refcount at most, comparing two addresses
/// starts with a single `u32` compare, and hashing writes two integers (the
/// key's stable 64-bit hash is computed once at construction and cached).
/// The class *name* is recoverable through the global interner
/// ([`EntityAddr::entity_name`]) for display and debugging.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EntityAddr {
    /// Entity class (dataflow operator) id.
    pub class: ClassId,
    /// Partition key of the instance. Private so the cached hash cannot
    /// drift: addresses are immutable once built.
    key: Key,
    /// `key.stable_hash()`, cached at construction. Deterministic in `key`,
    /// so deriving `PartialEq`/`Ord` over it is sound (it can never
    /// disagree with the key comparison that precedes it).
    key_hash: u64,
}

impl EntityAddr {
    /// Create an address from an entity *name* (ingress/test shim: interns
    /// the name; the per-hop path passes addresses around by id).
    pub fn new(entity: impl AsRef<str>, key: Key) -> Self {
        Self::from_ids(ClassId::intern(entity.as_ref()), key)
    }

    /// Create an address from an already-resolved class id (hot path).
    pub fn from_ids(class: ClassId, key: Key) -> Self {
        let key_hash = key.stable_hash();
        EntityAddr {
            class,
            key,
            key_hash,
        }
    }

    /// The partition key.
    #[inline]
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// The key's stable 64-bit hash (cached; partition routing uses this
    /// without re-walking the key bytes).
    #[inline]
    pub fn key_hash(&self) -> u64 {
        self.key_hash
    }

    /// Deterministic partition assignment for this address's key.
    #[inline]
    pub fn partition(&self, partitions: usize) -> usize {
        assert!(partitions > 0, "partition count must be positive");
        (self.key_hash % partitions as u64) as usize
    }

    /// Consume the address, returning its key.
    pub fn into_key(self) -> Key {
        self.key
    }

    /// The class name (debug/display path; resolves through the interner).
    pub fn entity_name(&self) -> &'static str {
        self.class.name()
    }
}

// Hashing writes two fixed-width integers — no key bytes are re-walked.
// Contract holds because equal addresses have equal (deterministic) cached
// hashes.
impl std::hash::Hash for EntityAddr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.class.as_u32().hash(state);
        self.key_hash.hash(state);
    }
}

impl Serialize for EntityAddr {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![
            (
                serde::Content::Str("class".to_string()),
                self.class.serialize(),
            ),
            (serde::Content::Str("key".to_string()), self.key.serialize()),
        ])
    }
}

impl Deserialize for EntityAddr {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::DeError> {
        let fields = content.as_fields()?;
        Ok(EntityAddr::from_ids(
            serde::de_field(fields, "class")?,
            serde::de_field(fields, "key")?,
        ))
    }
}

impl fmt::Display for EntityAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.entity_name(), self.key)
    }
}

/// A dynamic runtime value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String (shared `Arc<str>` payload: reading or cloning a large string
    /// field is O(1), no heap copy).
    Str(Arc<str>),
    /// List.
    List(Vec<Value>),
    /// The `None` value (also the return value of `-> None` methods).
    None,
    /// A reference to another stateful entity.
    EntityRef(EntityAddr),
}

/// The shared empty string (pre-initialised `str` fields all point here).
fn empty_str() -> Arc<str> {
    static EMPTY: std::sync::OnceLock<Arc<str>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

impl Value {
    /// Construct an entity reference value (name-resolving shim).
    pub fn entity_ref(entity: impl AsRef<str>, key: Key) -> Self {
        Value::EntityRef(EntityAddr::new(entity, key))
    }

    /// Extract an integer.
    pub fn as_int(&self) -> RuntimeResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(RuntimeError::new(format!("expected int, found {other}"))),
        }
    }

    /// Extract a float (ints widen).
    pub fn as_float(&self) -> RuntimeResult<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(RuntimeError::new(format!("expected float, found {other}"))),
        }
    }

    /// Extract a bool.
    pub fn as_bool(&self) -> RuntimeResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(RuntimeError::new(format!("expected bool, found {other}"))),
        }
    }

    /// Extract a string.
    pub fn as_str(&self) -> RuntimeResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(RuntimeError::new(format!("expected str, found {other}"))),
        }
    }

    /// Extract a list.
    pub fn as_list(&self) -> RuntimeResult<&[Value]> {
        match self {
            Value::List(v) => Ok(v),
            other => Err(RuntimeError::new(format!("expected list, found {other}"))),
        }
    }

    /// Extract an entity reference.
    pub fn as_entity_ref(&self) -> RuntimeResult<&EntityAddr> {
        match self {
            Value::EntityRef(addr) => Ok(addr),
            other => Err(RuntimeError::new(format!(
                "expected entity reference, found {other}"
            ))),
        }
    }

    /// Convert this value into a partition key, if possible. For string
    /// values this shares the payload (refcount bump, no copy).
    pub fn as_key(&self) -> RuntimeResult<Key> {
        match self {
            Value::Int(v) => Ok(Key::Int(*v)),
            Value::Str(s) => Ok(Key::Str(s.clone())),
            other => Err(RuntimeError::new(format!(
                "value {other} cannot be used as a partition key"
            ))),
        }
    }

    /// Approximate serialized size in bytes; used by the state-size overhead
    /// experiment (Section 4 "System overhead").
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) | Value::None => 1,
            Value::Str(s) => s.len() + 8,
            Value::List(items) => 8 + items.iter().map(Value::approx_size).sum::<usize>(),
            Value::EntityRef(addr) => {
                addr.entity_name().len()
                    + 8
                    + match &addr.key() {
                        Key::Int(_) => 8,
                        Key::Str(s) => s.len() + 8,
                    }
            }
        }
    }

    /// Apply a binary arithmetic operator.
    pub fn binary(op: BinOp, left: &Value, right: &Value) -> RuntimeResult<Value> {
        use Value::*;
        let err = || {
            RuntimeError::new(format!(
                "operator `{op}` not defined for {left} and {right}"
            ))
        };
        match (op, left, right) {
            (BinOp::Add, Str(a), Str(b)) => Ok(Str(format!("{a}{b}").into())),
            (BinOp::Add, List(a), List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Ok(List(out))
            }
            (BinOp::Add, Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (BinOp::Sub, Int(a), Int(b)) => Ok(Int(a.wrapping_sub(*b))),
            (BinOp::Mul, Int(a), Int(b)) => Ok(Int(a.wrapping_mul(*b))),
            (BinOp::FloorDiv, Int(a), Int(b)) => {
                if *b == 0 {
                    Err(RuntimeError::new("integer division by zero"))
                } else {
                    Ok(Int(a.div_euclid(*b)))
                }
            }
            (BinOp::Mod, Int(a), Int(b)) => {
                if *b == 0 {
                    Err(RuntimeError::new("integer modulo by zero"))
                } else {
                    Ok(Int(a.rem_euclid(*b)))
                }
            }
            (BinOp::Div, a, b) if a.is_numeric() && b.is_numeric() => {
                let denom = b.as_float()?;
                if denom == 0.0 {
                    Err(RuntimeError::new("division by zero"))
                } else {
                    Ok(Float(a.as_float()? / denom))
                }
            }
            (op, a, b) if a.is_numeric() && b.is_numeric() => {
                let (a, b) = (a.as_float()?, b.as_float()?);
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::FloorDiv => (a / b).floor(),
                    BinOp::Mod => a.rem_euclid(b),
                    BinOp::Div => unreachable!("handled above"),
                };
                Ok(Float(v))
            }
            _ => Err(err()),
        }
    }

    /// Apply a comparison operator.
    pub fn compare(op: CmpOp, left: &Value, right: &Value) -> RuntimeResult<Value> {
        use std::cmp::Ordering;
        let ord: Option<Ordering> = match (left, right) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) if a.is_numeric() && b.is_numeric() => a.as_float()?.partial_cmp(&b.as_float()?),
            _ => None,
        };
        let result = match (op, ord) {
            (CmpOp::Eq, _) => left == right,
            (CmpOp::Ne, _) => left != right,
            (CmpOp::Lt, Some(o)) => o.is_lt(),
            (CmpOp::Le, Some(o)) => o.is_le(),
            (CmpOp::Gt, Some(o)) => o.is_gt(),
            (CmpOp::Ge, Some(o)) => o.is_ge(),
            _ => {
                return Err(RuntimeError::new(format!(
                    "cannot order {left} and {right}"
                )));
            }
        };
        Ok(Value::Bool(result))
    }

    /// Apply a unary operator.
    pub fn unary(op: UnaryOp, operand: &Value) -> RuntimeResult<Value> {
        match (op, operand) {
            (UnaryOp::Neg, Value::Int(v)) => Ok(Value::Int(-v)),
            (UnaryOp::Neg, Value::Float(v)) => Ok(Value::Float(-v)),
            (UnaryOp::Not, Value::Bool(v)) => Ok(Value::Bool(!v)),
            (op, v) => Err(RuntimeError::new(format!(
                "unary operator {op:?} not defined for {v}"
            ))),
        }
    }

    /// True if the value is an int or float.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// The default value for a declared type, used to pre-initialise entity
    /// fields before `__init__` runs.
    pub fn default_for(ty: &entity_lang::Type) -> Value {
        use entity_lang::Type;
        match ty {
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Bool => Value::Bool(false),
            Type::Str => Value::Str(empty_str()),
            Type::List(_) => Value::List(Vec::new()),
            Type::Entity(_) | Type::None => Value::None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(true) => write!(f, "True"),
            Value::Bool(false) => write!(f, "False"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::None => write!(f, "None"),
            Value::EntityRef(addr) => write!(f, "<{addr}>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl Value {
    /// A coarse static type describing this value (used when tests build
    /// ad-hoc entity states whose layout was not produced by the compiler).
    pub fn type_hint(&self) -> entity_lang::Type {
        use entity_lang::Type;
        match self {
            Value::Int(_) => Type::Int,
            Value::Float(_) => Type::Float,
            Value::Bool(_) => Type::Bool,
            Value::Str(_) => Type::Str,
            Value::List(items) => Type::List(Box::new(
                items.first().map(Value::type_hint).unwrap_or(Type::None),
            )),
            Value::EntityRef(addr) => Type::Entity(addr.entity_name().to_string()),
            Value::None => Type::None,
        }
    }
}

/// The state of one entity instance: a fixed-layout slot array indexed by
/// the entity class's [`FieldLayout`] slots.
///
/// The slot array is **copy-on-write** (`Arc<[Value]>`): cloning a state
/// costs two refcount bumps, so snapshot captures and the service read view
/// share slot arrays with the live partition. The first write after such a
/// clone forks the array once ([`Arc::make_mut`]); later writes are in place.
///
/// This is what operators store per key and what snapshots persist. The hot
/// path (the interpreter) reads and writes fields by `u32` slot; the
/// string-keyed accessors ([`get`], [`insert`], [`as_map`]) remain for tests,
/// pretty-printing, and the oracle interpreter, which the paper's programming
/// model treats as a debugging aid rather than the execution path.
///
/// [`get`]: EntityState::get
/// [`insert`]: EntityState::insert
/// [`as_map`]: EntityState::as_map
#[derive(Debug, Clone)]
pub struct EntityState {
    layout: Arc<FieldLayout>,
    slots: Arc<[Value]>,
    /// Transient write marker: set by every field write, cleared by the
    /// runtime before executing a hop, so "did this invocation write?" is an
    /// O(1) question instead of a deep state comparison. Not part of
    /// equality or serialization.
    written: bool,
}

impl Default for EntityState {
    fn default() -> Self {
        Self::new()
    }
}

impl EntityState {
    /// An empty, ad-hoc state; fields are added by [`EntityState::insert`].
    pub fn new() -> Self {
        EntityState {
            layout: Arc::new(FieldLayout::empty()),
            slots: Arc::default(),
            written: false,
        }
    }

    /// A state laid out per `layout`, with every field set to its type's
    /// default value (what the paper's model prescribes before `__init__`).
    /// The slot array is built in one exactly-sized allocation.
    pub fn with_layout(layout: Arc<FieldLayout>) -> Self {
        let slots = layout
            .iter()
            .map(|(_, ty)| Value::default_for(ty))
            .collect();
        EntityState {
            layout,
            slots,
            written: false,
        }
    }

    /// Rebuild a state from a layout and its slot values (snapshot recovery).
    pub fn from_parts(layout: Arc<FieldLayout>, slots: Arc<[Value]>) -> Self {
        assert_eq!(layout.len(), slots.len(), "slot count must match layout");
        EntityState {
            layout,
            slots,
            written: false,
        }
    }

    /// True if any field was written since the last [`clear_written`].
    ///
    /// [`clear_written`]: EntityState::clear_written
    pub fn was_written(&self) -> bool {
        self.written
    }

    /// Reset the write marker (runtimes call this before executing a hop).
    pub fn clear_written(&mut self) {
        self.written = false;
    }

    /// The shared field layout.
    pub fn layout(&self) -> &Arc<FieldLayout> {
        &self.layout
    }

    /// Read a field slot (hot path).
    #[inline]
    pub fn slot(&self, slot: u32) -> &Value {
        &self.slots[slot as usize]
    }

    /// Write a field slot (hot path). Forks the slot array first if it is
    /// shared (with a capture or a read view); otherwise writes in place.
    #[inline]
    pub fn set_slot(&mut self, slot: u32, value: Value) {
        self.written = true;
        Arc::make_mut(&mut self.slots)[slot as usize] = value;
    }

    /// All slot values in layout order.
    pub fn slots(&self) -> &[Value] {
        &self.slots
    }

    /// Read a field by name (debug view).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.layout
            .slot_of(name)
            .map(|slot| &self.slots[slot as usize])
    }

    /// Write a field by name, growing the layout if the field is new (used by
    /// tests that build ad-hoc states; compiled states always hit an existing
    /// slot). Growing clones the layout for this instance only (`Arc` CoW).
    pub fn insert(&mut self, name: String, value: Value) {
        self.written = true;
        match self.layout.slot_of(&name) {
            Some(slot) => Arc::make_mut(&mut self.slots)[slot as usize] = value,
            None => {
                let ty = value.type_hint();
                Arc::make_mut(&mut self.layout).push(name, ty);
                let mut slots = self.slots.to_vec();
                slots.push(value);
                self.slots = slots.into();
            }
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the state has no fields.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate `(field name, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.layout.iter().map(|(n, _)| n).zip(self.slots.iter())
    }

    /// The `BTreeMap` debug view (pretty-printing, test assertions).
    pub fn as_map(&self) -> BTreeMap<String, Value> {
        self.iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect()
    }
}

impl PartialEq for EntityState {
    fn eq(&self, other: &Self) -> bool {
        // Fast path: instances of the same compiled class share one layout
        // Arc, so slot arrays compare positionally — and a state compared
        // with its own unwritten clone shares the array itself.
        if Arc::ptr_eq(&self.layout, &other.layout) {
            return Arc::ptr_eq(&self.slots, &other.slots) || self.slots == other.slots;
        }
        // Layouts may differ in declaration order (e.g. ad-hoc test states vs
        // compiled ones); equality is by field name → value.
        self.len() == other.len()
            && self
                .iter()
                .all(|(name, value)| other.get(name) == Some(value))
    }
}

impl std::ops::Index<&str> for EntityState {
    type Output = Value;

    fn index(&self, name: &str) -> &Value {
        self.get(name)
            .unwrap_or_else(|| panic!("entity state has no field `{name}`"))
    }
}

impl Serialize for EntityState {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(
            self.iter()
                .map(|(n, v)| (serde::Content::Str(n.to_string()), v.serialize()))
                .collect(),
        )
    }
}

impl Deserialize for EntityState {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::DeError> {
        let mut state = EntityState::new();
        for (key, value) in content.as_fields()? {
            let name = String::deserialize(key)?;
            state.insert(name, Value::deserialize(value)?);
        }
        Ok(state)
    }
}

/// The local-variable frame of one method invocation: a dense slot vector
/// indexed by the method's [`crate::layout::LocalTable`]. `None` marks a local
/// that has not been assigned yet (reading it is the classic "undefined
/// variable" runtime error).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Locals {
    slots: Vec<Option<Value>>,
}

impl Locals {
    /// A frame with `len` unassigned slots.
    pub fn with_len(len: usize) -> Self {
        Locals {
            slots: vec![None; len],
        }
    }

    /// A frame with `len` slots whose leading slots hold `args` (parameters
    /// occupy the first slots of every local table).
    pub fn from_args(len: usize, args: &[Value]) -> Self {
        debug_assert!(args.len() <= len);
        let mut slots: Vec<Option<Value>> = Vec::with_capacity(len);
        slots.extend(args.iter().cloned().map(Some));
        slots.resize(len, None);
        Locals { slots }
    }

    /// Read a slot; `None` if the local was never assigned.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&Value> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    /// Assign a slot.
    #[inline]
    pub fn set(&mut self, slot: u32, value: Value) {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        self.slots[idx] = Some(value);
    }

    /// Grow to at least `len` slots (resuming a frame saved by an older
    /// compile of the same method).
    pub fn ensure_len(&mut self, len: usize) {
        if self.slots.len() < len {
            self.slots.resize(len, None);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the frame has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate serialized size in bytes (overhead experiment).
    pub fn approx_size(&self) -> usize {
        self.slots
            .iter()
            .map(|s| 1 + s.as_ref().map(Value::approx_size).unwrap_or(0))
            .sum()
    }

    /// Drop every slot not in `live` (a sorted list of slot ids), resetting
    /// it to the *unassigned* state, then trim trailing unassigned slots.
    /// Used by the split-point liveness optimization: a suspended frame only
    /// carries the locals some resume path still reads. Reading a wrongly
    /// dropped slot fails loudly as an undefined variable, never as stale
    /// data.
    pub fn retain_slots(&mut self, live: &[u32]) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            // `live` is sorted and tiny; binary search beats a set here.
            if slot.is_some() && live.binary_search(&(i as u32)).is_err() {
                *slot = None;
            }
        }
        while matches!(self.slots.last(), Some(None)) {
            self.slots.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_partition_is_stable_and_in_range() {
        for p in [1usize, 2, 7, 64] {
            for i in 0..100i64 {
                let k = Key::Int(i);
                let a = k.partition(p);
                let b = k.partition(p);
                assert_eq!(a, b);
                assert!(a < p);
            }
        }
        assert_eq!(
            Key::Str("user42".into()).partition(8),
            Key::Str("user42".into()).partition(8)
        );
    }

    #[test]
    fn integer_arithmetic() {
        use BinOp::*;
        let v = |a: i64| Value::Int(a);
        assert_eq!(Value::binary(Add, &v(2), &v(3)).unwrap(), v(5));
        assert_eq!(Value::binary(Sub, &v(2), &v(3)).unwrap(), v(-1));
        assert_eq!(Value::binary(Mul, &v(4), &v(3)).unwrap(), v(12));
        assert_eq!(Value::binary(FloorDiv, &v(7), &v(2)).unwrap(), v(3));
        assert_eq!(Value::binary(Mod, &v(7), &v(3)).unwrap(), v(1));
        assert_eq!(Value::binary(Div, &v(7), &v(2)).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::binary(BinOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(Value::binary(BinOp::FloorDiv, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(Value::binary(BinOp::Mod, &Value::Int(1), &Value::Int(0)).is_err());
    }

    #[test]
    fn string_and_list_concatenation() {
        assert_eq!(
            Value::binary(BinOp::Add, &"ab".into(), &"cd".into()).unwrap(),
            Value::Str("abcd".into())
        );
        let l1 = Value::List(vec![Value::Int(1)]);
        let l2 = Value::List(vec![Value::Int(2)]);
        assert_eq!(
            Value::binary(BinOp::Add, &l1, &l2).unwrap(),
            Value::List(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            Value::compare(CmpOp::Lt, &Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::compare(CmpOp::Eq, &"a".into(), &"a".into()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::compare(CmpOp::Ge, &Value::Float(2.0), &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::compare(CmpOp::Lt, &"a".into(), &Value::Int(1)).is_err());
    }

    #[test]
    fn mixed_numeric_widens_to_float() {
        assert_eq!(
            Value::binary(BinOp::Add, &Value::Int(1), &Value::Float(0.5)).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert_eq!(Value::Int(5).as_float().unwrap(), 5.0);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(
            Value::Str("k".into()).as_key().unwrap(),
            Key::Str("k".into())
        );
        assert!(Value::Bool(true).as_key().is_err());
        let r = Value::entity_ref("Item", Key::Str("apple".into()));
        assert_eq!(r.as_entity_ref().unwrap().entity_name(), "Item");
    }

    #[test]
    fn approx_size_grows_with_payload() {
        let small = Value::Str("x".repeat(10).into());
        let big = Value::Str("x".repeat(1000).into());
        assert!(big.approx_size() > small.approx_size());
        assert!(Value::List(vec![Value::Int(1); 100]).approx_size() >= 800);
    }

    #[test]
    fn default_values_match_types() {
        use entity_lang::Type;
        assert_eq!(Value::default_for(&Type::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Type::Str), Value::Str("".into()));
        assert_eq!(
            Value::default_for(&Type::List(Box::new(Type::Int))),
            Value::List(vec![])
        );
    }

    #[test]
    fn display_is_python_like() {
        assert_eq!(Value::Bool(true).to_string(), "True");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(
            Value::entity_ref("User", Key::Str("alice".into())).to_string(),
            "<User[alice]>"
        );
    }
}
