//! Chunked, stable-address arenas for instance storage.
//!
//! [`ChunkedArena`] replaces the flat `Vec` pools behind the instance
//! term arena and the fired-set tuple arena: storage grows in fixed-size
//! chunks, so (a) growth never reallocates or copies what is already
//! stored — addresses are stable for the arena's lifetime, and the
//! doubling-copy spikes of a flat `Vec` disappear — and (b) each chunk
//! can be file-backed (`mmap` on a pre-sized unlinked temp file) when
//! `NUCHASE_INSTANCE_SPILL_DIR` names a directory, letting an instance
//! grow past RAM with bounded resident set: the kernel pages cold chunks
//! out instead of the allocator OOMing.
//!
//! The arena hands out **global `u32` indexes**; a slice pushed with
//! [`ChunkedArena::push_slice`] never straddles a chunk boundary (the
//! arena pads to the next chunk instead), so a `(start, len)` pair always
//! denotes contiguous memory and reads stay a single pointer add. The
//! padding means global indexes are *allocation* positions, not element
//! counts — callers that iterate must walk their own `(start, len)`
//! records, never the raw index space.
//!
//! [`SpillArena`] builds growable posting lists on top: each list lives
//! in one region, doubles by relocating to a fresh region (append-only,
//! so old copies are simply abandoned — the arena is a high-water-mark
//! allocator, reclaimed wholesale via [`ChunkedArena::truncate_to`] or
//! drop), and graduates to a dedicated heap `Vec` once it outgrows a
//! chunk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default chunk capacity in *elements* (a power of two). At the 8-byte
/// `Term` this is 512 KiB per chunk — big enough that per-chunk
/// bookkeeping (one pointer load per access) is noise, small enough that
/// file-backed chases page in working-set-sized pieces. Override with
/// `NUCHASE_CHUNK_LEN` (a power of two; malformed values warn to stderr
/// once and fall back to the default).
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Chunk capacity for arenas created while the spill tier is **off**:
/// 32 KiB at the 8-byte `Term`. The full [`DEFAULT_CHUNK_LEN`] puts a
/// ~768 KiB floor under every instance (one term-pool chunk + one
/// posting chunk, eagerly pad-filled), which is invisible for a single
/// chase but catastrophic for the serve regime — thousands of
/// concurrent tiny tenant sessions each paying the floor add up to
/// gigabytes of resident padding. Small chunks keep a tiny session at
/// tens of KiB; a big chase just allocates more of them (addressing
/// stays one shift+mask either way).
pub const SMALL_CHUNK_LEN: usize = 1 << 12;

/// Chunk length for a **new** arena: an explicit `NUCHASE_CHUNK_LEN`
/// always wins; otherwise arenas sized while the spill tier is
/// configured use the full default (file-backed chases want few, large
/// mappings), and everything else uses [`SMALL_CHUNK_LEN`]. Both
/// environment decisions are resolved **once**, at the first arena
/// creation — this sits on the Instance-construction path of the serve
/// regime (thousands of tiny tenant sessions per second), where
/// per-creation `env::var` calls would contend on the process-global
/// environment lock. Chunk length never changes the contents or
/// order of what an arena stores, only its padding layout, so this
/// choice is invisible through the model API; clones keep their
/// source's chunk length (the layout **is** the index space, so a clone
/// must preserve it).
pub fn adaptive_chunk_len() -> usize {
    match explicit_chunk_len() {
        Some(n) => n,
        None if spill_chunking() => DEFAULT_CHUNK_LEN,
        None => SMALL_CHUNK_LEN,
    }
}

/// Is the spill tier on, for arena sizing? The environment is consulted
/// once, at the first query (i.e. the first arena creation).
fn spill_chunking() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("NUCHASE_INSTANCE_SPILL_DIR").is_ok_and(|d| !d.is_empty()))
}

/// Chunk length resolved from `NUCHASE_CHUNK_LEN` (`None` when unset),
/// cached per process.
fn explicit_chunk_len() -> Option<usize> {
    static LEN: OnceLock<Option<usize>> = OnceLock::new();
    *LEN.get_or_init(|| match std::env::var("NUCHASE_CHUNK_LEN") {
        Ok(s) => Some(match s.trim().parse::<usize>() {
            Ok(n) if n.is_power_of_two() && n >= 64 => n,
            _ => {
                eprintln!(
                    "nuchase: ignoring malformed NUCHASE_CHUNK_LEN={s:?} \
                     (want a power of two >= 64); using {DEFAULT_CHUNK_LEN}"
                );
                DEFAULT_CHUNK_LEN
            }
        }),
        Err(_) => None,
    })
}

/// One fixed-size chunk: a raw allocation of `chunk_len` elements, either
/// heap memory or a shared file mapping. Raw pointers (rather than a
/// `Box`) keep the aliasing story simple: the arena is the sole owner and
/// all access is funneled through its `&self`/`&mut self` methods.
struct Chunk<T> {
    ptr: *mut T,
    /// Mapping length in bytes for file-backed chunks; `0` marks a heap
    /// chunk (whose layout is reconstructed from the arena's `chunk_len`).
    mmap_bytes: usize,
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
}

/// Bounded-retry policy for transient (`EINTR`/`EAGAIN`-class) spill
/// I/O errors: attempts beyond the first, from `NUCHASE_SPILL_RETRIES`
/// (default 3; read per mapping attempt — the spill path already reads
/// the environment per allocation, and it is far off the hot path).
fn spill_retries() -> u32 {
    std::env::var("NUCHASE_SPILL_RETRIES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(3)
}

/// Backoff between spill retries, in milliseconds per attempt index
/// (linear), from `NUCHASE_SPILL_BACKOFF_MS` (default 1).
fn spill_backoff_ms() -> u64 {
    std::env::var("NUCHASE_SPILL_BACKOFF_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// Is this I/O error worth a bounded retry rather than a fallback?
fn spill_error_is_transient(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    )
}

/// One attempt at creating, sizing, and mapping a spill file. Fault
/// sites: [`crate::fault::FaultSite::SpillTransient`] simulates an
/// `EINTR`-class error (absorbed by the caller's retry loop),
/// [`crate::fault::FaultSite::SpillMap`] a hard failure (caller falls
/// back to a heap chunk).
#[cfg(unix)]
fn try_map_spill_file(dir: &str, bytes: usize) -> std::io::Result<*mut u8> {
    use std::os::unix::io::AsRawFd;
    if crate::fault::trip(crate::fault::FaultSite::SpillTransient) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected transient spill failure",
        ));
    }
    if crate::fault::trip(crate::fault::FaultSite::SpillMap) {
        return Err(std::io::Error::other("injected spill mapping failure"));
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let name = format!(
        "nuchase-arena-{}-{}.bin",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let path = std::path::Path::new(dir).join(name);
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    let mapped = (|| {
        file.set_len(bytes as u64)?;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                bytes,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ptr as *mut u8)
        }
    })();
    let _ = std::fs::remove_file(&path);
    mapped
}

/// Maps a fresh pre-sized temp file in `dir`, unlinking it immediately so
/// the space is reclaimed on process exit no matter how we die. Transient
/// (`EINTR`/`EAGAIN`-class) errors are retried a bounded number of times
/// with linear backoff; anything else — or exhausting the retries —
/// returns `None` (caller falls back to a heap chunk).
#[cfg(unix)]
fn map_spill_file(dir: &str, bytes: usize) -> Option<*mut u8> {
    let retries = spill_retries();
    let mut attempt = 0u32;
    loop {
        match try_map_spill_file(dir, bytes) {
            Ok(ptr) => return Some(ptr),
            Err(e) if spill_error_is_transient(&e) && attempt < retries => {
                attempt += 1;
                crate::fault::note_retry();
                let backoff = spill_backoff_ms().saturating_mul(attempt as u64);
                if backoff > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
            }
            Err(_) => return None,
        }
    }
}

/// Warns once per process when a configured spill directory is unusable.
fn warn_spill_unusable(dir: &str) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        eprintln!(
            "nuchase: NUCHASE_INSTANCE_SPILL_DIR={dir:?} is not usable for \
             file-backed chunks; falling back to heap allocation"
        );
    });
}

/// A grow-only arena of fixed-size chunks addressed by global `u32`
/// index. See the module docs for the layout contract.
pub struct ChunkedArena<T: Copy> {
    chunks: Vec<Chunk<T>>,
    /// log2 of the chunk length.
    shift: u32,
    /// `chunk_len - 1`.
    mask: usize,
    /// High-water mark: the next free global index (counts padding).
    len: u32,
    /// Filler for boundary padding and fresh chunks.
    pad: T,
}

// The arena owns its chunks exclusively (heap allocations and private
// unlinked file mappings); the raw pointers are an implementation detail
// of that ownership, so threading the arena around is as safe as a `Vec`.
unsafe impl<T: Copy + Send> Send for ChunkedArena<T> {}
unsafe impl<T: Copy + Sync> Sync for ChunkedArena<T> {}

impl<T: Copy> ChunkedArena<T> {
    /// An empty arena with the [`adaptive_chunk_len`] for the current
    /// regime (small unless the spill tier is on or `NUCHASE_CHUNK_LEN`
    /// pins it). `pad` fills fresh chunks and boundary padding; it is
    /// never observable through correctly-ranged reads.
    pub fn new(pad: T) -> Self {
        Self::with_chunk_len(adaptive_chunk_len(), pad)
    }

    /// An empty arena with an explicit chunk length (a power of two;
    /// tests use small lengths to exercise boundary behavior).
    pub fn with_chunk_len(chunk_len: usize, pad: T) -> Self {
        assert!(
            chunk_len.is_power_of_two(),
            "chunk_len must be a power of two"
        );
        ChunkedArena {
            chunks: Vec::new(),
            shift: chunk_len.trailing_zeros(),
            mask: chunk_len - 1,
            len: 0,
            pad,
        }
    }

    /// The chunk capacity in elements.
    #[inline]
    pub fn chunk_len(&self) -> usize {
        self.mask + 1
    }

    /// The high-water mark: the next global index to be allocated.
    /// Counts boundary padding, so this is an upper bound on (not a count
    /// of) stored elements.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Has nothing been allocated?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates one chunk, file-backed when `NUCHASE_INSTANCE_SPILL_DIR`
    /// is set and usable (checked per allocation, so the knob can be
    /// toggled mid-process). Fresh chunks are filled with `pad`.
    fn new_chunk(&self) -> Chunk<T> {
        let chunk_len = self.chunk_len();
        #[cfg(unix)]
        if let Ok(dir) = std::env::var("NUCHASE_INSTANCE_SPILL_DIR") {
            if !dir.is_empty() {
                let bytes = chunk_len * std::mem::size_of::<T>();
                match map_spill_file(&dir, bytes) {
                    Some(base) => {
                        let ptr = base as *mut T;
                        for i in 0..chunk_len {
                            unsafe { ptr.add(i).write(self.pad) };
                        }
                        return Chunk {
                            ptr,
                            mmap_bytes: bytes,
                        };
                    }
                    None => {
                        crate::fault::note_spill_fallback();
                        warn_spill_unusable(&dir);
                    }
                }
            }
        }
        let boxed = vec![self.pad; chunk_len].into_boxed_slice();
        Chunk {
            ptr: Box::into_raw(boxed) as *mut T,
            mmap_bytes: 0,
        }
    }

    /// Reserves a region of `n <= chunk_len` elements, padding to the
    /// next chunk boundary first if the region would straddle one.
    /// Returns the region's global start index; its contents are
    /// unspecified (pad or stale data from before a truncate).
    pub fn reserve(&mut self, n: usize) -> u32 {
        assert!(
            n <= self.chunk_len(),
            "region of {n} exceeds chunk length {}",
            self.chunk_len()
        );
        if n == 0 {
            return self.len;
        }
        let off = (self.len as usize) & self.mask;
        if off + n > self.chunk_len() {
            self.len += (self.chunk_len() - off) as u32;
        }
        let chunk_i = (self.len as usize) >> self.shift;
        while self.chunks.len() <= chunk_i {
            // Fault site: fires *before* the allocation, so an injected
            // growth failure leaves the arena untouched (the region was
            // never handed out) and a round replay is idempotent.
            crate::fault::check(crate::fault::FaultSite::ArenaGrow);
            let c = self.new_chunk();
            self.chunks.push(c);
        }
        let start = self.len;
        self.len += n as u32;
        start
    }

    /// Appends a slice (never straddling a chunk) and returns its global
    /// start index.
    pub fn push_slice(&mut self, s: &[T]) -> u32 {
        let start = self.reserve(s.len());
        if !s.is_empty() {
            unsafe { std::ptr::copy_nonoverlapping(s.as_ptr(), self.ptr_at(start), s.len()) };
        }
        start
    }

    /// Raw pointer to global index `i` (must lie in an allocated chunk).
    #[inline]
    fn ptr_at(&self, i: u32) -> *mut T {
        let i = i as usize;
        debug_assert!((i >> self.shift) < self.chunks.len());
        unsafe {
            self.chunks
                .get_unchecked(i >> self.shift)
                .ptr
                .add(i & self.mask)
        }
    }

    /// The `len` elements starting at global index `start`. The region
    /// must come from a single [`ChunkedArena::reserve`]/
    /// [`ChunkedArena::push_slice`] call (so it cannot straddle chunks).
    #[inline]
    pub fn get(&self, start: u32, len: u32) -> &[T] {
        if len == 0 {
            return &[];
        }
        debug_assert!(
            ((start as usize) & self.mask) + len as usize <= self.chunk_len(),
            "region straddles a chunk"
        );
        debug_assert!(start + len <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr_at(start), len as usize) }
    }

    /// Mutable view of a region (same contract as [`ChunkedArena::get`]).
    #[inline]
    pub fn get_mut(&mut self, start: u32, len: u32) -> &mut [T] {
        if len == 0 {
            return &mut [];
        }
        debug_assert!(((start as usize) & self.mask) + len as usize <= self.chunk_len());
        debug_assert!(start + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr_at(start), len as usize) }
    }

    /// The element at global index `i`.
    #[inline]
    pub fn at(&self, i: u32) -> T {
        debug_assert!(i < self.len);
        unsafe { *self.ptr_at(i) }
    }

    /// Overwrites the element at global index `i`.
    #[inline]
    pub fn set(&mut self, i: u32, v: T) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr_at(i) = v };
    }

    /// Relocates a region to a fresh one of `new_cap` elements, copying
    /// the `old_len` stored elements. The arena is append-only, so the
    /// new region never overlaps the old; the abandoned copy is reclaimed
    /// only by [`ChunkedArena::truncate_to`] past it (or drop).
    pub fn grow_region(&mut self, old_start: u32, old_len: u32, new_cap: usize) -> u32 {
        debug_assert!(old_len as usize <= new_cap);
        let new_start = self.reserve(new_cap);
        debug_assert!(
            new_start >= old_start + old_len,
            "grow_region must not overlap"
        );
        if old_len > 0 {
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.ptr_at(old_start) as *const T,
                    self.ptr_at(new_start),
                    old_len as usize,
                );
            }
        }
        new_start
    }

    /// The current high-water mark, for a later
    /// [`ChunkedArena::truncate_to`].
    #[inline]
    pub fn mark(&self) -> u32 {
        self.len
    }

    /// Rolls the high-water mark back to a previous [`ChunkedArena::mark`]
    /// (the mid-run budget-stop path). Chunks stay allocated for reuse;
    /// regions allocated after the mark become invalid.
    pub fn truncate_to(&mut self, mark: u32) {
        assert!(mark <= self.len, "truncate_to past the high-water mark");
        self.len = mark;
    }

    /// Drops everything but keeps the chunks for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resident heap bytes (heap chunks only — file-backed chunks are the
    /// kernel's to page, counted by [`ChunkedArena::file_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        let per = self.chunk_len() * std::mem::size_of::<T>();
        self.chunks.capacity() * std::mem::size_of::<Chunk<T>>()
            + self.chunks.iter().filter(|c| c.mmap_bytes == 0).count() * per
    }

    /// Bytes held in file-backed chunks.
    pub fn file_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.mmap_bytes).sum()
    }

    /// Number of allocated chunks (heap or file-backed).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl<T: Copy + Default> Default for ChunkedArena<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Copy> Drop for ChunkedArena<T> {
    fn drop(&mut self) {
        let chunk_len = self.chunk_len();
        for c in &self.chunks {
            if c.mmap_bytes > 0 {
                #[cfg(unix)]
                unsafe {
                    sys::munmap(c.ptr as *mut std::os::raw::c_void, c.mmap_bytes);
                }
            } else {
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        c.ptr, chunk_len,
                    )));
                }
            }
        }
    }
}

impl<T: Copy> Clone for ChunkedArena<T> {
    /// Clones into heap chunks regardless of the source's backing (a
    /// clone is a fresh working set; it re-spills on its own growth).
    fn clone(&self) -> Self {
        let chunk_len = self.chunk_len();
        let mut out = ChunkedArena::with_chunk_len(chunk_len, self.pad);
        out.len = self.len;
        out.chunks.reserve(self.chunks.len());
        for c in &self.chunks {
            let src = unsafe { std::slice::from_raw_parts(c.ptr as *const T, chunk_len) };
            let boxed: Box<[T]> = src.into();
            out.chunks.push(Chunk {
                ptr: Box::into_raw(boxed) as *mut T,
                mmap_bytes: 0,
            });
        }
        out
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for ChunkedArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedArena")
            .field("len", &self.len)
            .field("chunk_len", &self.chunk_len())
            .field("chunks", &self.chunks.len())
            .field("file_bytes", &self.file_bytes())
            .finish()
    }
}

/// Sentinel `cap` marking a list that graduated to a dedicated `Vec`.
const LARGE: u32 = u32::MAX;

/// One growable list inside a [`SpillArena`].
#[derive(Clone, Copy, Debug)]
struct SpillList {
    /// Region start in the data arena, or an index into `large` when
    /// `cap == LARGE`.
    start: u32,
    len: u32,
    cap: u32,
}

/// Growable posting lists packed into a [`ChunkedArena`]: the overflow
/// storage for instance posting lists ([`crate::instance::Instance`]'s
/// per-predicate spill arena). Lists double by relocation within the
/// arena and graduate to dedicated heap `Vec`s once they outgrow a
/// chunk, so the chunked backing (and its file-spill mode) covers the
/// long tail of small lists while hub-scale lists keep `Vec` behavior.
#[derive(Clone, Debug)]
pub struct SpillArena<T: Copy> {
    data: ChunkedArena<T>,
    lists: Vec<SpillList>,
    large: Vec<Vec<T>>,
}

impl<T: Copy + Default> Default for SpillArena<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Copy> SpillArena<T> {
    /// An empty arena; `pad` as in [`ChunkedArena::new`].
    pub fn new(pad: T) -> Self {
        SpillArena {
            data: ChunkedArena::new(pad),
            lists: Vec::new(),
            large: Vec::new(),
        }
    }

    /// Test hook: an explicit chunk length to exercise graduation.
    #[cfg(test)]
    fn with_chunk_len(chunk_len: usize, pad: T) -> Self {
        SpillArena {
            data: ChunkedArena::with_chunk_len(chunk_len, pad),
            lists: Vec::new(),
            large: Vec::new(),
        }
    }

    /// Creates a new list seeded with `first`, returning its slot id.
    pub fn alloc(&mut self, first: &[T]) -> u32 {
        let slot = self.lists.len() as u32;
        let cap = first.len().next_power_of_two().max(8);
        if cap > self.data.chunk_len() {
            let idx = self.large.len() as u32;
            self.large.push(first.to_vec());
            self.lists.push(SpillList {
                start: idx,
                len: 0,
                cap: LARGE,
            });
            return slot;
        }
        let start = self.data.reserve(cap);
        self.data
            .get_mut(start, first.len() as u32)
            .copy_from_slice(first);
        self.lists.push(SpillList {
            start,
            len: first.len() as u32,
            cap: cap as u32,
        });
        slot
    }

    /// Appends `v` to list `slot`, doubling (or graduating) on overflow.
    pub fn push(&mut self, slot: u32, v: T) {
        let list = &mut self.lists[slot as usize];
        if list.cap == LARGE {
            self.large[list.start as usize].push(v);
            return;
        }
        if list.len == list.cap {
            let new_cap = (list.cap as usize) * 2;
            if new_cap > self.data.chunk_len() {
                // Graduate: beyond a chunk, a dedicated Vec is both
                // simpler and cheaper than multi-chunk stitching.
                let idx = self.large.len() as u32;
                let mut v2 = Vec::with_capacity(new_cap);
                v2.extend_from_slice(self.data.get(list.start, list.len));
                v2.push(v);
                self.large.push(v2);
                *list = SpillList {
                    start: idx,
                    len: 0,
                    cap: LARGE,
                };
                return;
            }
            list.start = self.data.grow_region(list.start, list.len, new_cap);
            list.cap = new_cap as u32;
            // Reborrow: grow_region took `&mut self.data`.
            let list = &mut self.lists[slot as usize];
            self.data.set(list.start + list.len, v);
            list.len += 1;
            return;
        }
        self.data.set(list.start + list.len, v);
        list.len += 1;
    }

    /// The contents of list `slot`.
    #[inline]
    pub fn list(&self, slot: u32) -> &[T] {
        let list = self.lists[slot as usize];
        if list.cap == LARGE {
            &self.large[list.start as usize]
        } else {
            self.data.get(list.start, list.len)
        }
    }

    /// Number of lists ever allocated.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// Resident heap bytes (lists bookkeeping + heap chunks + graduated
    /// `Vec`s); file-backed chunk bytes via [`SpillArena::file_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.data.heap_bytes()
            + self.lists.capacity() * std::mem::size_of::<SpillList>()
            + self.large.capacity() * std::mem::size_of::<Vec<T>>()
            + self
                .large
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<T>())
                .sum::<usize>()
    }

    /// Bytes held in file-backed chunks.
    pub fn file_bytes(&self) -> usize {
        self.data.file_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set `NUCHASE_INSTANCE_SPILL_DIR`: the
    /// variable is process-global, and one test's value must not leak
    /// into another's chunk allocations.
    static SPILL_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn push_slice_pads_instead_of_straddling() {
        let mut a: ChunkedArena<u32> = ChunkedArena::with_chunk_len(8, 0);
        let r1 = a.push_slice(&[1, 2, 3]);
        let r2 = a.push_slice(&[4, 5, 6]);
        // The third slice would straddle the 8-element boundary: it must
        // start at the next chunk, leaving a 2-element pad.
        let r3 = a.push_slice(&[7, 8, 9]);
        assert_eq!((r1, r2, r3), (0, 3, 8));
        assert_eq!(a.get(r1, 3), &[1, 2, 3]);
        assert_eq!(a.get(r2, 3), &[4, 5, 6]);
        assert_eq!(a.get(r3, 3), &[7, 8, 9]);
        assert_eq!(a.len(), 11);
        assert_eq!(a.chunk_count(), 2);
        // A chunk-filling slice is the largest legal region.
        let r4 = a.push_slice(&[0; 8]);
        assert_eq!(r4 % 8, 0);
        assert_eq!(a.get(r4, 8), &[0; 8]);
    }

    #[test]
    fn empty_slices_are_free() {
        let mut a: ChunkedArena<u32> = ChunkedArena::with_chunk_len(8, 0);
        let r = a.push_slice(&[]);
        assert_eq!(r, 0);
        assert_eq!(a.len(), 0);
        assert_eq!(a.chunk_count(), 0);
        assert_eq!(a.get(r, 0), &[] as &[u32]);
    }

    #[test]
    fn truncate_rolls_back_across_a_chunk_seam() {
        let mut a: ChunkedArena<u32> = ChunkedArena::with_chunk_len(4, 99);
        a.push_slice(&[1, 2, 3]); // chunk 0 (+1 pad)
        let mark = a.mark();
        a.push_slice(&[4, 5]); // chunk 1 after padding
        a.push_slice(&[6, 7, 8]); // chunk 2
        assert_eq!(a.chunk_count(), 3);
        a.truncate_to(mark);
        assert_eq!(a.len(), mark);
        // Chunks stay allocated; re-pushing reuses them and the replayed
        // regions land at the same indexes a fresh run would produce.
        let r = a.push_slice(&[40, 50]);
        assert_eq!(r, 4);
        assert_eq!(a.get(r, 2), &[40, 50]);
        assert_eq!(a.chunk_count(), 3);
        assert_eq!(a.get(0, 3), &[1, 2, 3]);
    }

    #[test]
    fn grow_region_copies_across_chunks() {
        let mut a: ChunkedArena<u32> = ChunkedArena::with_chunk_len(8, 0);
        let r = a.push_slice(&[1, 2, 3, 4]);
        a.push_slice(&[9, 9]); // force the grown region into a new spot
        let r2 = a.grow_region(r, 4, 8);
        assert_eq!(a.get(r2, 4), &[1, 2, 3, 4]);
        assert!(r2 >= 6);
        // Old region is abandoned but still readable until truncated.
        assert_eq!(a.get(r, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn at_and_set_address_single_elements() {
        let mut a: ChunkedArena<u64> = ChunkedArena::with_chunk_len(4, 0);
        let r = a.reserve(4);
        for i in 0..4u32 {
            a.set(r + i, u64::from(i) * 10);
        }
        let r2 = a.reserve(3); // next chunk stays independent
        a.set(r2, 777);
        for i in 0..4u32 {
            assert_eq!(a.at(r + i), u64::from(i) * 10);
        }
        assert_eq!(a.at(r2), 777);
    }

    #[test]
    fn clone_detaches_storage() {
        let mut a: ChunkedArena<u32> = ChunkedArena::with_chunk_len(4, 0);
        let r = a.push_slice(&[1, 2, 3]);
        let mut b = a.clone();
        b.get_mut(r, 3)[0] = 100;
        assert_eq!(a.get(r, 3), &[1, 2, 3]);
        assert_eq!(b.get(r, 3), &[100, 2, 3]);
        assert_eq!(b.len(), a.len());
    }

    #[test]
    fn spill_lists_grow_and_interleave() {
        let mut s: SpillArena<u32> = SpillArena::with_chunk_len(64, 0);
        let a = s.alloc(&[1, 2, 3]);
        let b = s.alloc(&[10]);
        for i in 0..40 {
            s.push(a, 100 + i);
            s.push(b, 200 + i);
        }
        let want_a: Vec<u32> = [1, 2, 3]
            .into_iter()
            .chain((0..40).map(|i| 100 + i))
            .collect();
        let want_b: Vec<u32> = [10].into_iter().chain((0..40).map(|i| 200 + i)).collect();
        assert_eq!(s.list(a), &want_a[..]);
        assert_eq!(s.list(b), &want_b[..]);
        assert_eq!(s.list_count(), 2);
    }

    #[test]
    fn oversized_lists_graduate_to_heap_vecs() {
        let mut s: SpillArena<u32> = SpillArena::with_chunk_len(16, 0);
        let a = s.alloc(&[0]);
        for i in 1..1000 {
            s.push(a, i);
        }
        let want: Vec<u32> = (0..1000).collect();
        assert_eq!(s.list(a), &want[..]);
        // An alloc already bigger than a chunk starts out graduated.
        let big: Vec<u32> = (0..50).collect();
        let b = s.alloc(&big);
        s.push(b, 50);
        let want_b: Vec<u32> = (0..51).collect();
        assert_eq!(s.list(b), &want_b[..]);
        assert!(s.heap_bytes() > 0);
    }

    #[cfg(unix)]
    #[test]
    fn file_backed_chunks_round_trip() {
        let _env = SPILL_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("nuchase-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("NUCHASE_INSTANCE_SPILL_DIR", &dir);
        let mut a: ChunkedArena<u64> = ChunkedArena::with_chunk_len(1 << 12, 7);
        let r1 = a.push_slice(&[11, 22, 33]);
        let r2 = a.reserve(1 << 12); // second chunk
        std::env::remove_var("NUCHASE_INSTANCE_SPILL_DIR");
        a.get_mut(r2, 4)[..4].copy_from_slice(&[5, 6, 7, 8]);
        assert_eq!(a.get(r1, 3), &[11, 22, 33]);
        assert_eq!(a.get(r2, 4), &[5, 6, 7, 8]);
        assert_eq!(a.file_bytes(), 2 * (1 << 12) * std::mem::size_of::<u64>());
        assert_eq!(
            a.heap_bytes(),
            a.chunks.capacity() * std::mem::size_of::<Chunk<u64>>()
        );
        // Clones land on the heap and survive the mapping's drop.
        let b = a.clone();
        drop(a);
        assert_eq!(b.get(r1, 3), &[11, 22, 33]);
        assert_eq!(b.file_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_spill_dir_falls_back_to_heap() {
        let _env = SPILL_ENV.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(
            "NUCHASE_INSTANCE_SPILL_DIR",
            "/nonexistent/nuchase-no-such-dir",
        );
        let mut a: ChunkedArena<u32> = ChunkedArena::with_chunk_len(8, 0);
        let r = a.push_slice(&[1, 2]);
        std::env::remove_var("NUCHASE_INSTANCE_SPILL_DIR");
        assert_eq!(a.get(r, 2), &[1, 2]);
        assert_eq!(a.file_bytes(), 0);
    }
}
