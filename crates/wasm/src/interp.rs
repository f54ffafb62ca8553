//! Runtime state: values, sandboxed linear memory and funcref tables.
//!
//! The execution engine itself lives in [`crate::instance`]; this module
//! holds the data structures it operates on. [`Memory`] is the security
//! boundary the paper's §5.D experiments exercise: every access is bounds
//! checked against the current size, growth is capped by both the module's
//! declared limits and the embedder's policy, and out-of-bounds access is a
//! recoverable [`Trap`], never host UB.

use crate::trap::Trap;
use crate::types::{Limits, ValType, MAX_PAGES, PAGE_SIZE};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Value {
    /// The value's type.
    pub fn ty(self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
            Value::F32(_) => ValType::F32,
            Value::F64(_) => ValType::F64,
        }
    }

    /// Zero value of the given type (locals initialize to this).
    pub fn zero(ty: ValType) -> Value {
        match ty {
            ValType::I32 => Value::I32(0),
            ValType::I64 => Value::I64(0),
            ValType::F32 => Value::F32(0.0),
            ValType::F64 => Value::F64(0.0),
        }
    }

    /// The payload as an untyped 64-bit register cell: i32/f32
    /// zero-extended, i64/f64 as their bits. The register executor runs on
    /// these; the type stays behind in whatever declared it.
    #[inline(always)]
    pub fn to_bits(self) -> u64 {
        match self {
            Value::I32(v) => v as u32 as u64,
            Value::I64(v) => v as u64,
            Value::F32(v) => v.to_bits() as u64,
            Value::F64(v) => v.to_bits(),
        }
    }

    /// Re-tag a register cell with the type a declaration gives it (a
    /// signature, a global, an operator). 32-bit types read the low half
    /// only, so whatever an earlier i64 left in the upper half is dropped.
    #[inline(always)]
    pub fn from_bits(ty: ValType, bits: u64) -> Value {
        match ty {
            ValType::I32 => Value::I32(bits as i32),
            ValType::I64 => Value::I64(bits as i64),
            ValType::F32 => Value::F32(f32::from_bits(bits as u32)),
            ValType::F64 => Value::F64(f64::from_bits(bits)),
        }
    }

    /// Extract an i32; panics on type confusion (validated code cannot
    /// trigger this).
    pub fn as_i32(self) -> i32 {
        match self {
            Value::I32(v) => v,
            other => panic!("expected i32, got {other:?}"),
        }
    }

    /// Extract an i64.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            other => panic!("expected i64, got {other:?}"),
        }
    }

    /// Extract an f32.
    pub fn as_f32(self) -> f32 {
        match self {
            Value::F32(v) => v,
            other => panic!("expected f32, got {other:?}"),
        }
    }

    /// Extract an f64.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F64(v) => v,
            other => panic!("expected f64, got {other:?}"),
        }
    }

    /// Extract an i32 as u32 (wasm integers are sign-agnostic).
    pub fn as_u32(self) -> u32 {
        self.as_i32() as u32
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}_i32"),
            Value::I64(v) => write!(f, "{v}_i64"),
            Value::F32(v) => write!(f, "{v}_f32"),
            Value::F64(v) => write!(f, "{v}_f64"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::I32(v as i32)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

/// Sandboxed linear memory.
///
/// Growth is bounded by `min(module max, embedder policy max, spec 4 GiB)`.
/// All accesses are bounds checked; failures surface as
/// [`Trap::MemoryOutOfBounds`].
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    /// Effective maximum size in pages.
    max_pages: u32,
    /// High-water mark of pages ever reached (for host-side accounting).
    peak_pages: u32,
    /// High-water mark of *written* bytes: every byte at index
    /// `>= dirty_max` is still zero (conservative — writes of zero bytes
    /// advance it too). The buffer pool uses this to re-zero only the
    /// touched prefix when recycling a buffer, and template snapshots to
    /// keep only the initialized prefix of their image.
    dirty_max: usize,
}

impl Memory {
    /// Create a memory from the module's declared limits, additionally
    /// capped by the embedder's `policy_max_pages`.
    pub fn new(limits: Limits, policy_max_pages: u32) -> Result<Memory, Trap> {
        let max_pages = limits
            .max
            .unwrap_or(MAX_PAGES)
            .min(policy_max_pages)
            .min(MAX_PAGES);
        if limits.min > max_pages {
            return Err(Trap::MemoryLimitExceeded);
        }
        Ok(Memory {
            data: vec![0; limits.min as usize * PAGE_SIZE],
            max_pages,
            peak_pages: limits.min,
            dirty_max: 0,
        })
    }

    /// An absent memory (modules may declare none).
    pub fn empty() -> Memory {
        Memory {
            data: Vec::new(),
            max_pages: 0,
            peak_pages: 0,
            dirty_max: 0,
        }
    }

    /// High-water mark of written bytes: everything at and past this
    /// index is guaranteed zero.
    pub fn dirty_max(&self) -> usize {
        self.dirty_max
    }

    /// The written prefix `[0, dirty_max)`.
    pub(crate) fn initialized(&self) -> &[u8] {
        &self.data[..self.dirty_max.min(self.data.len())]
    }

    #[inline]
    fn mark_dirty(&mut self, end: usize) {
        if end > self.dirty_max {
            self.dirty_max = end;
        }
    }

    /// Surrender the backing buffer (for buffer-pool recycling); the
    /// memory is left empty.
    pub(crate) fn take_data(&mut self) -> Vec<u8> {
        self.dirty_max = 0;
        std::mem::take(&mut self.data)
    }

    /// Build a memory around an all-zero `data` buffer by copying in
    /// `image`, the initialized prefix of a template's captured
    /// post-segment-init state (every image byte past it is zero).
    pub(crate) fn from_image(mut data: Vec<u8>, image: &[u8], max_pages: u32) -> Memory {
        data[..image.len()].copy_from_slice(image);
        Memory {
            peak_pages: (data.len() / PAGE_SIZE) as u32,
            data,
            max_pages,
            dirty_max: image.len(),
        }
    }

    /// Current size in pages.
    pub fn size_pages(&self) -> u32 {
        (self.data.len() / PAGE_SIZE) as u32
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// High-water mark in pages.
    pub fn peak_pages(&self) -> u32 {
        self.peak_pages
    }

    /// Effective maximum size in pages.
    pub fn max_pages(&self) -> u32 {
        self.max_pages
    }

    /// Grow by `delta` pages. Returns the previous size in pages, or `None`
    /// when the growth would exceed the effective maximum (the instruction
    /// then pushes -1, per spec — growth failure is *not* a trap).
    pub fn grow(&mut self, delta: u32) -> Option<u32> {
        let old = self.size_pages();
        let new = old.checked_add(delta)?;
        if new > self.max_pages {
            return None;
        }
        self.data.resize(new as usize * PAGE_SIZE, 0);
        self.peak_pages = self.peak_pages.max(new);
        Some(old)
    }

    #[inline]
    fn check(&self, addr: u32, offset: u32, len: u32) -> Result<usize, Trap> {
        // addr + offset can exceed u32; compute in u64.
        let start = addr as u64 + offset as u64;
        let end = start + len as u64;
        if end > self.data.len() as u64 {
            return Err(Trap::MemoryOutOfBounds {
                addr: start,
                len: len as u64,
                size: self.data.len() as u64,
            });
        }
        Ok(start as usize)
    }

    /// Read `N` bytes at `addr + offset`.
    #[inline]
    pub fn read<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], Trap> {
        let start = self.check(addr, offset, N as u32)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[start..start + N]);
        Ok(out)
    }

    /// Write `N` bytes at `addr + offset`.
    #[inline]
    pub fn write<const N: usize>(
        &mut self,
        addr: u32,
        offset: u32,
        bytes: [u8; N],
    ) -> Result<(), Trap> {
        let start = self.check(addr, offset, N as u32)?;
        self.data[start..start + N].copy_from_slice(&bytes);
        self.mark_dirty(start + N);
        Ok(())
    }

    /// Read an arbitrary byte range (host-side ABI transfers).
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = self.check(addr, 0, len)?;
        Ok(&self.data[start..start + len as usize])
    }

    /// Write an arbitrary byte range (host-side ABI transfers).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Trap> {
        let len = u32::try_from(bytes.len()).map_err(|_| Trap::MemoryOutOfBounds {
            addr: addr as u64,
            len: bytes.len() as u64,
            size: self.data.len() as u64,
        })?;
        let start = self.check(addr, 0, len)?;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        self.mark_dirty(start + bytes.len());
        Ok(())
    }

    /// `memory.fill`: set `len` bytes at `dst` to `byte`.
    pub fn fill(&mut self, dst: u32, byte: u8, len: u32) -> Result<(), Trap> {
        let start = self.check(dst, 0, len)?;
        self.data[start..start + len as usize].fill(byte);
        self.mark_dirty(start + len as usize);
        Ok(())
    }

    /// `memory.copy`: overlapping-safe copy of `len` bytes from `src` to `dst`.
    pub fn copy(&mut self, dst: u32, src: u32, len: u32) -> Result<(), Trap> {
        let s = self.check(src, 0, len)?;
        let d = self.check(dst, 0, len)?;
        self.data.copy_within(s..s + len as usize, d);
        self.mark_dirty(d + len as usize);
        Ok(())
    }

    /// Reset all memory contents to zero without changing the size.
    /// Used by the plugin host when recycling an instance.
    pub fn zero_all(&mut self) {
        // Only the written prefix can be nonzero.
        let dirty = self.dirty_max.min(self.data.len());
        self.data[..dirty].fill(0);
        self.dirty_max = 0;
    }
}

/// A funcref table: each slot is `None` (uninitialized) or a function index.
#[derive(Debug, Clone, Default)]
pub struct Table {
    elems: Vec<Option<u32>>,
}

impl Table {
    /// Create a table with `min` null slots.
    pub fn new(limits: Limits) -> Table {
        Table {
            elems: vec![None; limits.min as usize],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Install a function index at `idx` (instantiation-time element
    /// segments; grows never happen in the MVP).
    pub fn set(&mut self, idx: u32, func: u32) -> Result<(), Trap> {
        let slot = self
            .elems
            .get_mut(idx as usize)
            .ok_or(Trap::TableOutOfBounds)?;
        *slot = Some(func);
        Ok(())
    }

    /// Read the function index at `idx`.
    pub fn get(&self, idx: u32) -> Result<u32, Trap> {
        self.elems
            .get(idx as usize)
            .ok_or(Trap::TableOutOfBounds)?
            .ok_or(Trap::UninitializedElement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5i32).ty(), ValType::I32);
        assert_eq!(Value::from(5u32), Value::I32(5));
        assert_eq!(Value::from(u32::MAX), Value::I32(-1));
        assert_eq!(Value::zero(ValType::F64), Value::F64(0.0));
        assert_eq!(Value::I64(9).as_i64(), 9);
    }

    #[test]
    fn memory_bounds_checked() {
        let mut mem = Memory::new(Limits::new(1, Some(2)), u32::MAX).unwrap();
        assert_eq!(mem.size_pages(), 1);
        mem.write::<4>(0, 0, [1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read::<4>(0, 0).unwrap(), [1, 2, 3, 4]);
        // Last valid 4-byte slot.
        mem.write::<4>(PAGE_SIZE as u32 - 4, 0, [9; 4]).unwrap();
        // One past the end.
        let err = mem.write::<4>(PAGE_SIZE as u32 - 3, 0, [9; 4]).unwrap_err();
        assert!(matches!(err, Trap::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn memory_offset_overflow_is_oob_not_wrap() {
        let mem = Memory::new(Limits::new(1, None), u32::MAX).unwrap();
        // addr + offset overflows u32; must be OOB, not wrap to 3.
        let err = mem.read::<4>(u32::MAX, 4).unwrap_err();
        assert!(matches!(err, Trap::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn memory_grow_respects_module_max() {
        let mut mem = Memory::new(Limits::new(1, Some(2)), u32::MAX).unwrap();
        assert_eq!(mem.grow(1), Some(1));
        assert_eq!(mem.grow(1), None);
        assert_eq!(mem.size_pages(), 2);
    }

    #[test]
    fn memory_grow_respects_policy_cap() {
        // Module allows 100 pages but the host policy caps at 3.
        let mut mem = Memory::new(Limits::new(1, Some(100)), 3).unwrap();
        assert_eq!(mem.grow(2), Some(1));
        assert_eq!(mem.grow(1), None);
        assert_eq!(mem.peak_pages(), 3);
    }

    #[test]
    fn memory_min_over_policy_rejected() {
        assert_eq!(
            Memory::new(Limits::new(10, None), 5).unwrap_err(),
            Trap::MemoryLimitExceeded
        );
    }

    #[test]
    fn memory_fill_and_copy() {
        let mut mem = Memory::new(Limits::new(1, None), u32::MAX).unwrap();
        mem.fill(10, 0xab, 4).unwrap();
        assert_eq!(mem.read::<4>(10, 0).unwrap(), [0xab; 4]);
        mem.copy(100, 10, 4).unwrap();
        assert_eq!(mem.read::<4>(100, 0).unwrap(), [0xab; 4]);
        // Overlapping copy.
        mem.copy(11, 10, 4).unwrap();
        assert_eq!(mem.read::<4>(11, 0).unwrap(), [0xab; 4]);
        // OOB fill.
        assert!(mem.fill(PAGE_SIZE as u32 - 1, 0, 2).is_err());
    }

    #[test]
    fn zero_length_access_at_boundary_ok() {
        let mem = Memory::new(Limits::new(1, None), u32::MAX).unwrap();
        assert!(mem.read_bytes(PAGE_SIZE as u32, 0).is_ok());
        assert!(mem.read_bytes(PAGE_SIZE as u32 + 1, 0).is_err());
    }

    #[test]
    fn table_semantics() {
        let mut t = Table::new(Limits::new(2, None));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Err(Trap::UninitializedElement));
        t.set(0, 7).unwrap();
        assert_eq!(t.get(0), Ok(7));
        assert_eq!(t.get(5), Err(Trap::TableOutOfBounds));
        assert_eq!(t.set(5, 1), Err(Trap::TableOutOfBounds));
    }
}
