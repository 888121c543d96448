//! On-disk columnar archives: the out-of-core storage tier.
//!
//! [`write_archive`] serializes a validated [`Instance`] — interned once into
//! a single global [`Interner`] — into a page-aligned, checksummed file.
//! [`Archive::open`] memory-maps that file and exposes every relation as a
//! [`ColumnarTable`] whose columns are zero-copy `&[u32]` views straight into
//! the mapping ([`crate::interner::ColumnData::Mapped`]). Cold start is
//! therefore *mmap + validate* instead of re-interning every row, and the
//! columns never need to be resident all at once: the kernel pages them in
//! on demand as the executor streams over them.
//!
//! # Format (version 1)
//!
//! All integers little-endian; all section starts 4096-aligned (so every
//! column begins on a page boundary and `&[u32]` views are always aligned).
//!
//! ```text
//! page 0   header: magic "R2TARCH1" · endian mark 0x01020304 · version ·
//!          schema fingerprint (FNV-1a 64 of the canonical schema string) ·
//!          validated flag · relation count ·
//!          interner section (off, len, checksum) ·
//!          directory section (off, len, checksum) · header checksum
//! page 1+  interner: value count (u64), then tagged values
//!          (0 = Int i64 · 1 = Float f64 bits · 2 = Str u32 len + UTF-8)
//! ...      column sections: one per (relation, column), page-aligned,
//!          nrows × u32 interned ids in row order
//! tail     directory: per relation (schema order): name · nrows · ncols ·
//!          per-column (off, len, checksum)
//! ```
//!
//! Every section carries an FNV-1a 64 checksum (verified word-at-a-time on
//! open), so a truncated or bit-flipped archive fails with a clean
//! [`EngineError::Storage`] instead of UB. The schema fingerprint rejects
//! archives written under a different schema before any data is trusted.
//!
//! # In-memory images
//!
//! [`Archive::from_instance`] builds the same [`Archive`] straight from heap
//! rows — one global interner, one heap-backed [`ColumnarTable`] per
//! relation, no file and no format. The serving layer keeps one such image
//! per heap snapshot, so every query on that snapshot runs the executor over
//! pre-interned columns instead of re-interning the relations it joins.

use crate::instance::Instance;
use crate::interner::{ColumnData, ColumnarTable, Interner};
use crate::schema::Schema;
use crate::value::Value;
use crate::EngineError;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"R2TARCH1";
const ENDIAN_MARK: u32 = 0x0102_0304;
const VERSION: u32 = 1;
const PAGE: u64 = 4096;
/// Fixed header size in bytes (before the trailing header checksum).
const HEADER_BYTES: usize = 8 + 4 + 4 + 8 + 4 + 4 + 24 + 24 + 8;

fn serr(msg: impl Into<String>) -> EngineError {
    EngineError::Storage(msg.into())
}

/// FNV-1a 64, folded a word at a time so checksumming hundreds of megabytes
/// of column data stays a small fraction of the re-intern cost it replaces.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Canonical schema digest: relation names, columns, PKs, FKs, and the
/// privacy policy. An archive only opens under a schema with the same digest.
fn schema_fingerprint(schema: &Schema) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    for rel in schema.relations() {
        s.push_str(&rel.name);
        s.push('(');
        for c in &rel.columns {
            s.push_str(c);
            s.push(',');
        }
        s.push(';');
        if let Some(pk) = rel.primary_key {
            let _ = write!(s, "pk={pk};");
        }
        for fk in &rel.foreign_keys {
            let _ = write!(s, "fk={}>{};", fk.column, fk.references);
        }
        s.push(')');
    }
    s.push('|');
    for p in schema.primary_private() {
        s.push_str(p);
        s.push(',');
    }
    fnv1a64(s.as_bytes())
}

// ---------------------------------------------------------------------------
// Memory mapping
// ---------------------------------------------------------------------------

/// A read-only view of an archive file's bytes: a `mmap(2)` mapping on
/// Linux/x86-64 (zero-copy, demand-paged) or a heap copy everywhere else.
/// Page-aligned by construction, so u32 views over page-aligned sections are
/// always correctly aligned.
pub struct Mapping {
    inner: MapInner,
}

enum MapInner {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mmap { ptr: *const u8, len: usize },
    /// Fallback: file bytes copied into u32-aligned heap storage.
    Heap { words: Vec<u32>, byte_len: usize },
}

// The mapping is read-only (PROT_READ, MAP_PRIVATE) for its whole lifetime.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
    if len == 0 {
        return None;
    }
    let ret: i64;
    // mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0) — raw syscall; the
    // workspace links no libc crate.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 9i64 => ret, // SYS_mmap
            in("rdi") 0i64,
            in("rsi") len,
            in("rdx") 1i64,               // PROT_READ
            in("r10") 2i64,               // MAP_PRIVATE
            in("r8") fd as i64,
            in("r9") 0i64,
            out("rcx") _, out("r11") _,
            options(nostack)
        );
    }
    if (-4095..0).contains(&ret) {
        None
    } else {
        Some(ret as usize as *const u8)
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_munmap(ptr: *const u8, len: usize) {
    let _ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 11i64 => _ret, // SYS_munmap
            in("rdi") ptr as usize,
            in("rsi") len,
            out("rcx") _, out("r11") _,
            options(nostack)
        );
    }
}

impl Mapping {
    /// Maps (or, on unsupported targets, reads) `path` read-only.
    pub fn open(path: &Path) -> Result<Mapping, EngineError> {
        let mut file =
            File::open(path).map_err(|e| serr(format!("open {}: {e}", path.display())))?;
        let len = file.metadata().map_err(|e| serr(format!("stat {}: {e}", path.display())))?.len()
            as usize;
        if len == 0 {
            return Err(serr(format!("{}: empty file", path.display())));
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::unix::io::AsRawFd;
            if let Some(ptr) = sys_mmap_readonly(file.as_raw_fd(), len) {
                return Ok(Mapping { inner: MapInner::Mmap { ptr, len } });
            }
        }
        // Fallback: copy the file into u32-aligned heap storage.
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes).map_err(|e| serr(format!("read {}: {e}", path.display())))?;
        let mut words = vec![0u32; bytes.len().div_ceil(4)];
        // Safe: words is zero-initialised and at least bytes.len() bytes long.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        Ok(Mapping { inner: MapInner::Heap { words, byte_len: bytes.len() } })
    }

    /// The mapped file bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            MapInner::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            MapInner::Heap { words, byte_len } => unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, *byte_len)
            },
        }
    }

    /// The mapping viewed as little-endian u32 words (the whole-file id
    /// space that [`ColumnData::Mapped`] offsets index into). Any trailing
    /// bytes short of a full word are excluded; column sections are
    /// page-aligned so they always fall inside the word view.
    pub fn as_u32s(&self) -> &[u32] {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            MapInner::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u32, *len / 4)
            },
            MapInner::Heap { words, byte_len } => &words[..byte_len / 4],
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            MapInner::Mmap { len, .. } => *len,
            MapInner::Heap { byte_len, .. } => *byte_len,
        }
    }

    /// Whether the mapping is empty (never true for an opened archive).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let MapInner::Mmap { ptr, len } = self.inner {
            sys_munmap(ptr, len);
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            MapInner::Mmap { .. } => "mmap",
            MapInner::Heap { .. } => "heap",
        };
        write!(f, "Mapping({kind}, {} bytes)", self.len())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct SectionWriter {
    file: File,
    off: u64,
}

impl SectionWriter {
    fn write(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.file.write_all(bytes).map_err(|e| serr(format!("write archive: {e}")))?;
        self.off += bytes.len() as u64;
        Ok(())
    }

    fn pad_to_page(&mut self) -> Result<(), EngineError> {
        let rem = self.off % PAGE;
        if rem != 0 {
            self.write(&vec![0u8; (PAGE - rem) as usize])?;
        }
        Ok(())
    }
}

fn put_section(buf: &mut Vec<u8>, (off, len, sum): (u64, u64, u64)) {
    buf.extend_from_slice(&off.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Validates `instance` against `schema`, interns every relation (schema
/// order, row order) into one global interner, and writes the archive to
/// `path`. The write is atomic-ish: data lands in `path` only after all
/// sections and the header are flushed.
pub fn write_archive(schema: &Schema, instance: &Instance, path: &Path) -> Result<(), EngineError> {
    instance.validate(schema)?;

    // One global interner across all relations: ids are stable database-wide,
    // so any query can reuse them without re-interning.
    let Archive { interner, tables, .. } = Archive::from_instance(schema, instance);

    let file = File::create(path).map_err(|e| serr(format!("create {}: {e}", path.display())))?;
    let mut w = SectionWriter { file, off: 0 };
    w.write(&vec![0u8; PAGE as usize])?; // header placeholder

    // Interner section.
    let mut ibuf = Vec::new();
    ibuf.extend_from_slice(&(interner.len() as u64).to_le_bytes());
    for v in interner.values() {
        match v {
            Value::Int(i) => {
                ibuf.push(0);
                ibuf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                ibuf.push(1);
                ibuf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                ibuf.push(2);
                ibuf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                ibuf.extend_from_slice(s.as_bytes());
            }
        }
    }
    let isec = (w.off, ibuf.len() as u64, fnv1a64(&ibuf));
    w.write(&ibuf)?;
    w.pad_to_page()?;

    // Column sections: each page-aligned so the mapped view is a plain
    // aligned `&[u32]`.
    let mut col_secs: Vec<Vec<(u64, u64, u64)>> = Vec::with_capacity(tables.len());
    for t in &tables {
        let mut secs = Vec::with_capacity(t.cols.len());
        for col in &t.cols {
            let mut cbuf = Vec::with_capacity(col.len() * 4);
            for &id in col.iter() {
                cbuf.extend_from_slice(&id.to_le_bytes());
            }
            secs.push((w.off, cbuf.len() as u64, fnv1a64(&cbuf)));
            w.write(&cbuf)?;
            w.pad_to_page()?;
        }
        col_secs.push(secs);
    }

    // Directory.
    let mut dbuf = Vec::new();
    for (rel, (t, secs)) in schema.relations().iter().zip(tables.iter().zip(&col_secs)) {
        dbuf.extend_from_slice(&(rel.name.len() as u32).to_le_bytes());
        dbuf.extend_from_slice(rel.name.as_bytes());
        dbuf.extend_from_slice(&(t.nrows as u64).to_le_bytes());
        dbuf.extend_from_slice(&(t.cols.len() as u32).to_le_bytes());
        for &sec in secs {
            put_section(&mut dbuf, sec);
        }
    }
    let dsec = (w.off, dbuf.len() as u64, fnv1a64(&dbuf));
    w.write(&dbuf)?;
    w.pad_to_page()?;

    // Header (page 0), written last so a crashed write never looks valid.
    let mut h = Vec::with_capacity(HEADER_BYTES + 8);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&ENDIAN_MARK.to_le_bytes());
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&schema_fingerprint(schema).to_le_bytes());
    h.extend_from_slice(&1u32.to_le_bytes()); // validated-at-write flag
    h.extend_from_slice(&(schema.relations().len() as u32).to_le_bytes());
    put_section(&mut h, isec);
    put_section(&mut h, dsec);
    h.extend_from_slice(&w.off.to_le_bytes()); // total file length
    debug_assert_eq!(h.len(), HEADER_BYTES);
    let hsum = fnv1a64(&h);
    h.extend_from_slice(&hsum.to_le_bytes());
    w.file
        .seek(SeekFrom::Start(0))
        .and_then(|_| w.file.write_all(&h))
        .and_then(|_| w.file.sync_all())
        .map_err(|e| serr(format!("finalize {}: {e}", path.display())))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over the mapped bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| serr("archive section truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn section(&mut self) -> Result<(u64, u64, u64), EngineError> {
        Ok((self.u64()?, self.u64()?, self.u64()?))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Slices a checksummed section out of the mapping, verifying bounds and
/// integrity before any byte is interpreted.
fn checked_section<'a>(
    bytes: &'a [u8],
    (off, len, sum): (u64, u64, u64),
    what: &str,
) -> Result<&'a [u8], EngineError> {
    let off = usize::try_from(off).map_err(|_| serr(format!("{what}: offset overflow")))?;
    let len = usize::try_from(len).map_err(|_| serr(format!("{what}: length overflow")))?;
    let end = off
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| serr(format!("{what}: section out of bounds (truncated archive?)")))?;
    let sec = &bytes[off..end];
    if fnv1a64(sec) != sum {
        return Err(serr(format!("{what}: checksum mismatch")));
    }
    Ok(sec)
}

/// An interned columnar image of a database: one global interner and one
/// [`ColumnarTable`] per schema relation. Either opened from an archive
/// file ([`Archive::open`]: zero-copy columns, each holding the mapping
/// alive) or built from heap rows ([`Archive::from_instance`]: heap
/// columns). The executor reads both the same way. The interner and tables
/// are shared, so [`Archive::restrict`] can keep a subset alive without
/// copying it.
#[derive(Debug)]
pub struct Archive {
    interner: Arc<Interner>,
    tables: Vec<Arc<ColumnarTable>>,
    names: Vec<String>,
    by_name: HashMap<String, usize>,
    total_rows: usize,
}

impl Archive {
    /// Interns every schema relation of `instance` (schema order, row order)
    /// into one interner with heap columns: the in-memory image of the
    /// instance, with the ids [`write_archive`] would write. The instance is
    /// taken as valid; relations it lacks come out empty.
    pub fn from_instance(schema: &Schema, instance: &Instance) -> Archive {
        let names: Vec<&str> = schema.relations().iter().map(|rel| rel.name.as_str()).collect();
        Archive::from_relations(instance, &names)
    }

    /// [`Self::from_instance`] restricted to `relations` (interned in that
    /// order); every other relation is absent from the image.
    pub(crate) fn from_relations(instance: &Instance, relations: &[&str]) -> Archive {
        let mut interner = Interner::new();
        let tables: Vec<Arc<ColumnarTable>> =
            relations.iter().map(|rel| Arc::new(instance.columnar(rel, &mut interner))).collect();
        let names = relations.iter().map(|rel| rel.to_string()).collect();
        Archive::assemble(Arc::new(interner), names, tables)
    }

    /// This image restricted to `relations`; every other relation is absent.
    /// It shares the interner and the kept tables with `self` and copies no
    /// column, so holding it keeps only those tables alive.
    pub fn restrict(&self, relations: &[String]) -> Archive {
        let keep: Vec<usize> =
            relations.iter().filter_map(|r| self.by_name.get(r.as_str()).copied()).collect();
        let names = keep.iter().map(|&i| self.names[i].clone()).collect();
        let tables = keep.iter().map(|&i| Arc::clone(&self.tables[i])).collect();
        Archive::assemble(Arc::clone(&self.interner), names, tables)
    }

    fn assemble(
        interner: Arc<Interner>,
        names: Vec<String>,
        tables: Vec<Arc<ColumnarTable>>,
    ) -> Archive {
        let by_name = names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let total_rows = tables.iter().map(|t| t.nrows).sum();
        Archive { interner, tables, names, by_name, total_rows }
    }

    /// Opens and fully validates an archive: magic, endianness, version,
    /// schema fingerprint, and every section checksum. Any corruption or
    /// truncation returns [`EngineError::Storage`]; no partially-validated
    /// archive is ever returned.
    pub fn open(schema: &Schema, path: &Path) -> Result<Archive, EngineError> {
        let map = Arc::new(Mapping::open(path)?);
        let bytes = map.as_bytes();
        if bytes.len() < HEADER_BYTES + 8 {
            return Err(serr("archive shorter than its header"));
        }
        let mut c = Cursor::new(&bytes[..HEADER_BYTES + 8]);
        if c.take(8)? != MAGIC {
            return Err(serr("bad magic (not an R2T archive)"));
        }
        if c.u32()? != ENDIAN_MARK {
            return Err(serr("endianness mismatch (archive written on a foreign byte order)"));
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(serr(format!("unsupported archive version {version}")));
        }
        let fingerprint = c.u64()?;
        let _validated = c.u32()?;
        let nrel = c.u32()? as usize;
        let isec = c.section()?;
        let dsec = c.section()?;
        let file_len = c.u64()?;
        let hsum = c.u64()?;
        if fnv1a64(&bytes[..HEADER_BYTES]) != hsum {
            return Err(serr("header checksum mismatch"));
        }
        if bytes.len() as u64 != file_len {
            return Err(serr(format!(
                "archive is {} bytes, header says {file_len} (truncated or grown)",
                bytes.len()
            )));
        }
        if fingerprint != schema_fingerprint(schema) {
            return Err(serr(
                "schema fingerprint mismatch (archive written under a different schema)",
            ));
        }
        if nrel != schema.relations().len() {
            return Err(serr(format!(
                "archive has {nrel} relations, schema has {}",
                schema.relations().len()
            )));
        }

        // Interner section.
        let ibytes = checked_section(bytes, isec, "interner section")?;
        let mut ic = Cursor::new(ibytes);
        let nvalues = ic.u64()? as usize;
        if nvalues >= u32::MAX as usize {
            return Err(serr("interner section claims more values than the id space"));
        }
        let mut values = Vec::with_capacity(nvalues.min(ibytes.len()));
        for _ in 0..nvalues {
            let v = match ic.u8()? {
                0 => Value::Int(i64::from_le_bytes(ic.take(8)?.try_into().expect("8 bytes"))),
                1 => Value::Float(f64::from_bits(ic.u64()?)),
                2 => {
                    let len = ic.u32()? as usize;
                    let s = std::str::from_utf8(ic.take(len)?)
                        .map_err(|_| serr("interner section: invalid UTF-8 string"))?;
                    Value::str(s)
                }
                t => return Err(serr(format!("interner section: unknown value tag {t}"))),
            };
            values.push(v);
        }
        if !ic.done() {
            return Err(serr("interner section: trailing bytes"));
        }
        let interner = Interner::from_values(values)
            .ok_or_else(|| serr("interner section contains duplicate values"))?;

        // Directory + column sections.
        let dbytes = checked_section(bytes, dsec, "directory section")?;
        let mut dc = Cursor::new(dbytes);
        let mut tables = Vec::with_capacity(nrel);
        let mut names = Vec::with_capacity(nrel);
        let mut covered: Vec<(u64, u64)> =
            vec![(0, HEADER_BYTES as u64 + 8), (isec.0, isec.1), (dsec.0, dsec.1)];
        for rel in schema.relations() {
            let nlen = dc.u32()? as usize;
            let name = std::str::from_utf8(dc.take(nlen)?)
                .map_err(|_| serr("directory: invalid UTF-8 relation name"))?;
            if name != rel.name {
                return Err(serr(format!(
                    "directory lists relation {name:?} where schema has {:?}",
                    rel.name
                )));
            }
            let nrows = dc.u64()? as usize;
            let ncols = dc.u32()? as usize;
            if nrows > 0 && ncols != rel.arity() {
                return Err(serr(format!(
                    "relation {name}: archive has {ncols} columns, schema arity is {}",
                    rel.arity()
                )));
            }
            let mut cols = Vec::with_capacity(ncols);
            for ci in 0..ncols {
                let sec = dc.section()?;
                let cbytes = checked_section(bytes, sec, &format!("column {name}.{ci}"))?;
                if sec.0 % 4 != 0 {
                    return Err(serr(format!("column {name}.{ci}: unaligned section offset")));
                }
                if cbytes.len() != nrows * 4 {
                    return Err(serr(format!(
                        "column {name}.{ci}: {} bytes for {nrows} rows",
                        cbytes.len()
                    )));
                }
                for i in (0..cbytes.len()).step_by(4) {
                    let id = u32::from_le_bytes(cbytes[i..i + 4].try_into().expect("4 bytes"));
                    if id as usize >= interner.len() {
                        return Err(serr(format!(
                            "column {name}.{ci}: id {id} out of interner range"
                        )));
                    }
                }
                covered.push((sec.0, sec.1));
                cols.push(ColumnData::Mapped {
                    map: Arc::clone(&map),
                    off: sec.0 as usize / 4,
                    len: nrows,
                });
            }
            names.push(rel.name.clone());
            tables.push(Arc::new(ColumnarTable { cols, nrows }));
        }
        if !dc.done() {
            return Err(serr("directory section: trailing bytes"));
        }
        // Section checksums cover their contents; everything between them is
        // page-alignment padding and must be zero. Checking it means a
        // single flipped bit *anywhere* in the file fails open — no byte is
        // outside the validation surface.
        covered.sort_unstable();
        let mut end = 0u64;
        for &(off, len) in &covered {
            if off > end && bytes[end as usize..off as usize].iter().any(|&b| b != 0) {
                return Err(serr("nonzero bytes in archive padding"));
            }
            end = end.max(off.saturating_add(len));
        }
        if (end as usize) < bytes.len() && bytes[end as usize..].iter().any(|&b| b != 0) {
            return Err(serr("nonzero bytes in archive padding"));
        }
        Ok(Archive::assemble(Arc::new(interner), names, tables))
    }

    /// The database-wide interner (rebuilt from the file, or built by
    /// [`Self::from_instance`]).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The columnar image of `relation`, if this image holds it (every
    /// schema relation unless [`Self::restrict`]ed).
    pub fn table(&self, relation: &str) -> Option<&ColumnarTable> {
        self.by_name.get(relation).map(|&i| &*self.tables[i])
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.total_rows
    }

    /// Decodes the archive back into a heap [`Instance`] (row-major
    /// `Value`s). This is the escape hatch for code paths that genuinely
    /// need rows — it costs full materialization, so query execution should
    /// prefer the columnar tables.
    pub fn materialize(&self) -> Instance {
        let mut inst = Instance::new();
        for (name, t) in self.names.iter().zip(&self.tables) {
            if t.nrows == 0 {
                continue;
            }
            let rows = (0..t.nrows).map(|r| {
                t.cols.iter().map(|c| self.interner.resolve(c[r]).clone()).collect::<Vec<_>>()
            });
            inst.insert_all(name, rows);
        }
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::graph_schema_node_dp;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("r2t-storage-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("db.r2t")
    }

    fn sample() -> (Schema, Instance) {
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..5).map(|i| vec![Value::Int(i)]));
        inst.insert_all(
            "Edge",
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 0)]
                .map(|(a, b)| vec![Value::Int(a), Value::Int(b)]),
        );
        (s, inst)
    }

    #[test]
    fn round_trip_preserves_rows_and_values() {
        let (s, inst) = sample();
        let path = tmp("roundtrip");
        write_archive(&s, &inst, &path).unwrap();
        let a = Archive::open(&s, &path).unwrap();
        assert_eq!(a.total_tuples(), inst.total_tuples());
        let back = a.materialize();
        for rel in s.relations() {
            assert_eq!(back.rows(&rel.name), inst.rows(&rel.name), "{}", rel.name);
        }
        // Mapped columns behave exactly like heap columns.
        let t = a.table("Edge").unwrap();
        assert_eq!(t.nrows, 6);
        assert_eq!(t.cols.len(), 2);
        let first_src = a.interner().resolve(t.cols[0][0]);
        assert_eq!(first_src, &Value::Int(0));
    }

    #[test]
    fn reopen_matches_writer_interner_ids() {
        let (s, inst) = sample();
        let path = tmp("ids");
        write_archive(&s, &inst, &path).unwrap();
        let a = Archive::open(&s, &path).unwrap();
        // Writer interns in schema order / row order; reopening must
        // reproduce exactly that id assignment.
        let mut interner = Interner::new();
        for rel in s.relations() {
            let t = inst.columnar(&rel.name, &mut interner);
            let at = a.table(&rel.name).unwrap();
            assert_eq!(at.nrows, t.nrows);
            for (hc, mc) in t.cols.iter().zip(&at.cols) {
                assert_eq!(&hc[..], &mc[..], "{}", rel.name);
            }
        }
        assert_eq!(interner.len(), a.interner().len());
    }

    #[test]
    fn in_memory_image_matches_reopened_archive() {
        let (s, inst) = sample();
        let path = tmp("image");
        write_archive(&s, &inst, &path).unwrap();
        let mapped = Archive::open(&s, &path).unwrap();
        let image = Archive::from_instance(&s, &inst);
        assert_eq!(image.total_tuples(), mapped.total_tuples());
        assert_eq!(image.interner().values(), mapped.interner().values());
        for rel in s.relations() {
            let (it, mt) = (image.table(&rel.name).unwrap(), mapped.table(&rel.name).unwrap());
            assert_eq!(it.nrows, mt.nrows, "{}", rel.name);
            for (ic, mc) in it.cols.iter().zip(&mt.cols) {
                assert!(matches!(ic, ColumnData::Heap(_)));
                assert_eq!(&ic[..], &mc[..], "{}", rel.name);
            }
        }
        for rel in s.relations() {
            assert_eq!(image.materialize().rows(&rel.name), inst.rows(&rel.name));
        }
        // A restriction shares the interner and the kept columns.
        let edges = image.restrict(&["Edge".to_string()]);
        assert!(edges.table("Node").is_none());
        assert_eq!(edges.total_tuples(), inst.rows("Edge").len());
        assert!(std::ptr::eq(edges.interner(), image.interner()));
        let (kept, full) =
            (&edges.table("Edge").unwrap().cols[0], &image.table("Edge").unwrap().cols[0]);
        assert_eq!(kept.as_ptr(), full.as_ptr());
    }

    #[test]
    fn unvalidated_instance_is_rejected() {
        let (s, mut inst) = sample();
        inst.insert("Edge", vec![Value::Int(0), Value::Int(99)]); // broken FK
        let path = tmp("invalid");
        assert!(matches!(
            write_archive(&s, &inst, &path),
            Err(EngineError::BrokenForeignKey { .. })
        ));
    }

    #[test]
    fn truncated_archive_fails_cleanly() {
        let (s, inst) = sample();
        let path = tmp("trunc");
        write_archive(&s, &inst, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [0usize, 7, 100, PAGE as usize, full.len() - 1] {
            std::fs::write(&path, &full[..keep.min(full.len())]).unwrap();
            match Archive::open(&s, &path) {
                Err(EngineError::Storage(_)) => {}
                other => panic!("truncated to {keep} bytes: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_fail_checksums() {
        let (s, inst) = sample();
        let path = tmp("flip");
        write_archive(&s, &inst, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip one byte in every live region: header, interner, a column
        // page, and the directory (which occupies the last page).
        for pos in [9usize, PAGE as usize + 12, 2 * PAGE as usize + 2, full.len() - PAGE as usize] {
            let mut bad = full.clone();
            let p = pos.min(bad.len() - 1);
            bad[p] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            match Archive::open(&s, &path) {
                Err(EngineError::Storage(_)) => {}
                other => panic!("flip at {pos}: {other:?}"),
            }
        }
    }

    #[test]
    fn schema_drift_is_rejected() {
        let (s, inst) = sample();
        let path = tmp("drift");
        write_archive(&s, &inst, &path).unwrap();
        let other = crate::schema::graph_schema_edge_dp();
        match Archive::open(&other, &path) {
            Err(EngineError::Storage(msg)) => assert!(msg.contains("fingerprint"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_file_is_not_an_archive() {
        let path = tmp("garbage");
        std::fs::write(&path, vec![0xABu8; 9000]).unwrap();
        let s = graph_schema_node_dp();
        match Archive::open(&s, &path) {
            Err(EngineError::Storage(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_relation_round_trips() {
        let s = graph_schema_node_dp();
        let mut inst = Instance::new();
        inst.insert_all("Node", (0..3).map(|i| vec![Value::Int(i)]));
        // No edges at all.
        let path = tmp("empty-rel");
        write_archive(&s, &inst, &path).unwrap();
        let a = Archive::open(&s, &path).unwrap();
        assert_eq!(a.table("Edge").unwrap().nrows, 0);
        assert_eq!(a.materialize().rows("Edge"), inst.rows("Edge"));
    }
}
