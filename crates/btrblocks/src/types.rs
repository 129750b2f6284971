//! Column data model: typed columns, the string arena, NULL bitmaps.

use btr_roaring::RoaringBitmap;
use std::ops::Range;

/// The three column types BtrBlocks compresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 32-bit signed integers.
    Integer,
    /// 64-bit IEEE 754 doubles.
    Double,
    /// Variable-length byte strings.
    String,
}

impl ColumnType {
    /// Tag byte used in the serialized format (and in btr-scan's layout
    /// sidecar).
    pub fn tag(self) -> u8 {
        match self {
            ColumnType::Integer => 0,
            ColumnType::Double => 1,
            ColumnType::String => 2,
        }
    }

    /// The type a [`ColumnType::tag`] byte names; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ColumnType::Integer),
            1 => Some(ColumnType::Double),
            2 => Some(ColumnType::String),
            _ => None,
        }
    }
}

/// Variable-length strings stored as one byte pool plus offsets.
///
/// `offsets` has `len + 1` entries; string `i` is
/// `bytes[offsets[i] .. offsets[i + 1]]`. This layout (rather than
/// `Vec<String>`) is what allows decompression to hand out string *views*
/// without copying — the optimization the paper credits with >10× speedups on
/// low-cardinality string columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringArena {
    /// Concatenated string bytes.
    pub bytes: Vec<u8>,
    /// Start offsets; `offsets[len]` equals `bytes.len()`.
    pub offsets: Vec<u32>,
}

impl StringArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        StringArena {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an arena with reserved capacity.
    pub fn with_capacity(strings: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(strings + 1);
        offsets.push(0);
        StringArena {
            bytes: Vec::with_capacity(bytes),
            offsets,
        }
    }

    /// Builds an arena from string slices.
    pub fn from_strs<S: AsRef<[u8]>>(strings: &[S]) -> Self {
        let total: usize = strings.iter().map(|s| s.as_ref().len()).sum();
        let mut arena = StringArena::with_capacity(strings.len(), total);
        for s in strings {
            arena.push(s.as_ref());
        }
        arena
    }

    /// Appends one string.
    pub fn push(&mut self, s: &[u8]) {
        self.bytes.extend_from_slice(s);
        // lint: allow(cast) encode side: arena pools are far smaller than 4 GiB
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the arena holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns string `i` as a byte slice.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        // lint: allow(indexing) arena invariant: offsets are monotone and end at bytes.len()
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates all strings.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + Clone {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Uncompressed in-memory size (bytes + offsets), the numerator of every
    /// compression-ratio computation for strings.
    pub fn heap_size(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }

    /// Returns a sub-arena with the strings at `indices`, string by string.
    pub fn gather(&self, indices: impl Iterator<Item = usize>) -> StringArena {
        let mut out = StringArena::new();
        self.gather_into(indices, &mut out);
        out
    }

    /// [`gather`](Self::gather) into a caller-owned arena (cleared first),
    /// for sparse index lists; contiguous rows move as one run with
    /// [`extend_from_range`](Self::extend_from_range).
    pub fn gather_into(&self, indices: impl Iterator<Item = usize>, out: &mut StringArena) {
        out.clear();
        for i in indices {
            out.push(self.get(i));
        }
    }

    /// Appends strings `rows` of `src` (`rows.end <= src.len()`) as one run:
    /// one copy of their bytes and one pass rebasing their offsets. Offsets
    /// are u32, so a caller whose pool could pass 4 GiB checks that first.
    pub fn extend_from_range(&mut self, src: &StringArena, rows: Range<usize>) {
        // lint: allow(indexing) arena invariant: len()+1 offsets; callers pass rows.end <= len()
        let (first, offsets) = (src.offsets[rows.start], &src.offsets[rows.start + 1..=rows.end]);
        let last = offsets.last().copied().unwrap_or(first);
        // `o - first + base` as one add, exact whenever the result fits a u32.
        let rebase = self.offsets.last().copied().unwrap_or(0).wrapping_sub(first);
        // lint: allow(indexing) arena invariant: offsets are monotone and end at bytes.len()
        self.bytes.extend_from_slice(&src.bytes[first as usize..last as usize]);
        self.offsets.extend(offsets.iter().map(|&o| o.wrapping_add(rebase)));
    }

    /// Appends every string of a decoded block: one pass writing the offsets,
    /// one reservation for the bytes, and one pass copying them, in which
    /// views that follow each other in the pool (any block that was not
    /// dictionary-decoded) move as a single run.
    pub(crate) fn extend_from_views(&mut self, views: &StringViews) {
        let len_of = |v: u64| (v & 0xFFFF_FFFF) as usize;
        let mut end = self.bytes.len();
        self.offsets.extend(views.views.iter().map(|&v| {
            end += len_of(v);
            // lint: allow(cast) encode side: arena pools are far smaller than 4 GiB
            end as u32
        }));
        self.bytes.reserve(end - self.bytes.len());
        let mut run = 0..0;
        for &v in &views.views {
            let start = (v >> 32) as usize;
            if start != run.end {
                // lint: allow(indexing) views invariant: every view was validated against the pool at decode time
                self.bytes.extend_from_slice(&views.pool[run]);
                run = start..start;
            }
            run.end += len_of(v);
        }
        // lint: allow(indexing) views invariant: every view was validated against the pool at decode time
        self.bytes.extend_from_slice(&views.pool[run]);
    }

    /// Empties the arena, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Bytes of backing capacity (bytes pool + offsets), used by the encode
    /// scratch arena to charge pooled arenas against its byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.bytes.capacity() + self.offsets.capacity() * 4
    }
}

/// Typed column values (without NULL information).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit integers.
    Int(Vec<i32>),
    /// 64-bit doubles.
    Double(Vec<f64>),
    /// Variable-length strings.
    Str(StringArena),
}

impl ColumnData {
    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int(_) => ColumnType::Integer,
            ColumnData::Double(_) => ColumnType::Double,
            ColumnData::Str(_) => ColumnType::String,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(a) => a.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed in-memory size in bytes (the paper's "binary format").
    pub fn heap_size(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * 4,
            ColumnData::Double(v) => v.len() * 8,
            ColumnData::Str(a) => a.heap_size(),
        }
    }
}

/// Decompressed strings as `(offset, length)` views into a shared pool.
///
/// This is the paper's copy-free string decompression (§5): a dictionary
/// block decodes each code to a fixed-size 64-bit `(offset, len)` tuple
/// pointing into the dictionary's pool instead of copying string bytes. The
/// views are *not* necessarily contiguous or ordered within the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringViews {
    /// Byte pool the views point into.
    pub pool: Vec<u8>,
    /// Per-string `(offset << 32) | length` packed views.
    pub views: Vec<u64>,
}

impl StringViews {
    /// Packs an `(offset, len)` pair into a view word.
    #[inline]
    pub fn pack(offset: u32, len: u32) -> u64 {
        (u64::from(offset) << 32) | u64::from(len)
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether there are no strings.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Returns string `i` as a byte slice.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        // lint: allow(indexing) views invariant: every view was validated against the pool at decode time
        let v = self.views[i];
        let off = (v >> 32) as usize;
        let len = (v & 0xFFFF_FFFF) as usize;
        // lint: allow(indexing) views invariant: every view was validated against the pool at decode time
        &self.pool[off..off + len]
    }

    /// Iterates all strings.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Materializes into a contiguous [`StringArena`] (copies bytes).
    pub fn to_arena(&self) -> StringArena {
        let mut arena = StringArena::new();
        arena.extend_from_views(self);
        arena
    }

    /// Builds views over an arena's pool (sequential layout).
    pub fn from_arena(arena: &StringArena) -> StringViews {
        let ends = arena.offsets.iter().skip(1);
        let views = (arena.offsets.iter().zip(ends))
            .map(|(&start, &end)| StringViews::pack(start, end - start))
            .collect();
        StringViews {
            pool: arena.bytes.clone(),
            views,
        }
    }
}

/// A decompressed column block, as handed back to scan consumers.
///
/// Strings come back as views into one pool — no per-string copies were made
/// during decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedColumn {
    /// 32-bit integers.
    Int(Vec<i32>),
    /// 64-bit doubles.
    Double(Vec<f64>),
    /// Strings as a pool + views.
    Str(StringViews),
}

impl DecodedColumn {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            DecodedColumn::Int(v) => v.len(),
            DecodedColumn::Double(v) => v.len(),
            DecodedColumn::Str(a) => a.len(),
        }
    }

    /// Whether the block holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column type this decoded block holds.
    pub fn column_type(&self) -> ColumnType {
        match self {
            DecodedColumn::Int(_) => ColumnType::Integer,
            DecodedColumn::Double(_) => ColumnType::Double,
            DecodedColumn::Str(_) => ColumnType::String,
        }
    }

    /// Converts into owned [`ColumnData`] (materializes string views).
    pub fn into_column_data(self) -> ColumnData {
        match self {
            DecodedColumn::Int(v) => ColumnData::Int(v),
            DecodedColumn::Double(v) => ColumnData::Double(v),
            DecodedColumn::Str(v) => ColumnData::Str(v.to_arena()),
        }
    }
}

/// NULL positions for one column block.
pub type NullBitmap = RoaringBitmap;

/// Comparison operator of a pushed-down predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `value == literal`
    Eq,
    /// `value < literal`
    Lt,
    /// `value <= literal`
    Le,
    /// `value > literal`
    Gt,
    /// `value >= literal`
    Ge,
}

impl CmpOp {
    /// Whether `value op literal` holds (`PartialOrd`; NaN never matches).
    #[inline]
    pub fn matches<T: PartialOrd>(self, value: &T, literal: &T) -> bool {
        match self {
            CmpOp::Eq => value == literal,
            CmpOp::Lt => value < literal,
            CmpOp::Le => value <= literal,
            CmpOp::Gt => value > literal,
            CmpOp::Ge => value >= literal,
        }
    }

    /// The operator with its operands swapped: `a op b == b op.flip() a`.
    /// Used when normalizing `literal op column` comparisons into the
    /// canonical `column op literal` form.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// A typed predicate literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i32),
    /// Double literal (compared by `PartialOrd`; NaN never matches).
    Double(f64),
    /// String literal (byte-wise comparison).
    Str(Vec<u8>),
}

impl Literal {
    /// The column type this literal compares against.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Literal::Int(_) => ColumnType::Integer,
            Literal::Double(_) => ColumnType::Double,
            Literal::Str(_) => ColumnType::String,
        }
    }
}

impl From<i32> for Literal {
    fn from(v: i32) -> Literal {
        Literal::Int(v)
    }
}

impl From<f64> for Literal {
    fn from(v: f64) -> Literal {
        Literal::Double(v)
    }
}

impl From<&str> for Literal {
    fn from(v: &str) -> Literal {
        Literal::Str(v.as_bytes().to_vec())
    }
}

impl From<&[u8]> for Literal {
    fn from(v: &[u8]) -> Literal {
        Literal::Str(v.to_vec())
    }
}

impl From<Vec<u8>> for Literal {
    fn from(v: Vec<u8>) -> Literal {
        Literal::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_roundtrip() {
        let arena = StringArena::from_strs(&["hello", "", "world", "Maceió"]);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.get(0), b"hello");
        assert_eq!(arena.get(1), b"");
        assert_eq!(arena.get(2), b"world");
        assert_eq!(arena.get(3), "Maceió".as_bytes());
        assert_eq!(arena.get(3).len(), 7);
        assert_eq!(arena.iter().count(), 4);
    }

    #[test]
    fn arena_gather() {
        let arena = StringArena::from_strs(&["a", "bb", "ccc", "dddd"]);
        let sub = arena.gather([3usize, 1].into_iter());
        assert_eq!(sub.get(0), b"dddd");
        assert_eq!(sub.get(1), b"bb");
    }

    #[test]
    fn arena_extend_from_range() {
        let src = StringArena::from_strs(&["a", "", "ccc", "dd"]);
        let mut out = StringArena::from_strs(&["xy"]);
        out.extend_from_range(&src, 1..4);
        out.extend_from_range(&src, 2..2);
        out.extend_from_range(&src, 0..1);
        assert_eq!(out, StringArena::from_strs(&["xy", "", "ccc", "dd", "a"]));
    }

    #[test]
    fn empty_arena() {
        let arena = StringArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.heap_size(), 4);
    }

    #[test]
    fn column_data_sizes() {
        assert_eq!(ColumnData::Int(vec![1, 2, 3]).heap_size(), 12);
        assert_eq!(ColumnData::Double(vec![1.0]).heap_size(), 8);
        let s = ColumnData::Str(StringArena::from_strs(&["ab", "c"]));
        assert_eq!(s.heap_size(), 3 + 3 * 4);
    }

    #[test]
    fn type_tags_roundtrip() {
        for t in [ColumnType::Integer, ColumnType::Double, ColumnType::String] {
            assert_eq!(ColumnType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(ColumnType::from_tag(9), None);
    }
}
