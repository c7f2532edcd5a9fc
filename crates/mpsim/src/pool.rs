//! Size-classed, thread-safe buffer pool backing the zero-allocation fabric.
//!
//! Every message the threaded backend moves used to pay one heap allocation
//! (`buf.to_vec().into_boxed_slice()`) on the send side and one deallocation
//! after copy-out on the receive side. In a steady-state collective the same
//! handful of buffer sizes cycle between sender and receiver, so the
//! allocator traffic is pure overhead — and at small message sizes it
//! dominates the copy the paper's byte-count argument cares about.
//!
//! [`BufferPool`] keeps one freelist per power-of-two size class. Renting
//! ([`BufferPool::rent`]) pops a recycled buffer when one is available and
//! allocates otherwise; dropping the returned [`PooledBuf`] pushes the
//! buffer back onto its class freelist. Counters ([`PoolStats`]) record
//! hits, misses (= actual heap allocations) and outstanding rentals, so
//! benches and tests can *prove* the steady-state zero-allocation claim.
//!
//! The pool is deliberately not global: each `ThreadWorld`/`Fabric` owns one
//! `Arc<BufferPool>`, so worlds cannot poison each other's statistics and
//! all memory is released when the world's last handle drops.

use std::borrow::Cow;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

/// Smallest size class: `1 << MIN_SHIFT` bytes (64 B).
const MIN_SHIFT: u32 = 6;
/// Largest size class: `1 << MAX_SHIFT` bytes (64 MiB). Larger rentals are
/// served by plain allocation and freed on drop (never pooled).
const MAX_SHIFT: u32 = 26;
/// Number of freelists.
const NUM_CLASSES: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;
/// Per-class freelist cap: beyond this, returned buffers are freed instead
/// of pooled, bounding worst-case held memory.
const MAX_PER_CLASS: usize = 64;

/// Snapshot of a pool's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Rentals served from a freelist (no heap allocation).
    pub hits: u64,
    /// Rentals that had to allocate (freelist empty, oversized, or zero-len).
    pub misses: u64,
    /// Buffers returned to a freelist so far.
    pub returned: u64,
    /// Buffers currently rented out (rents minus returns/frees).
    pub outstanding: u64,
}

impl PoolStats {
    /// Fraction of rentals served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe buffer pool with power-of-two size classes.
#[derive(Default)]
pub struct BufferPool {
    classes: [Mutex<Vec<Box<[u8]>>>; NUM_CLASSES],
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    dropped: AtomicU64,
}

/// Size class index for `len`, or `None` when the rental bypasses the pool
/// (zero-length or beyond the largest class).
fn class_of(len: usize) -> Option<usize> {
    if len == 0 || len > (1usize << MAX_SHIFT) {
        return None;
    }
    let shift = len.next_power_of_two().trailing_zeros().max(MIN_SHIFT);
    Some((shift - MIN_SHIFT) as usize)
}

impl BufferPool {
    /// Create an empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Rent a zero-initialized buffer of logical length `len`.
    ///
    /// The backing capacity is `len` rounded up to its size class, so a
    /// recycled buffer serves every rental of the same class. The returned
    /// handle dereferences to exactly `len` bytes.
    pub fn rent(self: &Arc<Self>, len: usize) -> PooledBuf {
        self.rent_raw(len, true)
    }

    fn rent_raw(self: &Arc<Self>, len: usize, zero: bool) -> PooledBuf {
        let Some(class) = class_of(len) else {
            // Oversized or empty: plain allocation, freed on drop.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return PooledBuf {
                data: ManuallyDrop::new(vec![0u8; len].into_boxed_slice()),
                len,
                pool: Some(Arc::clone(self)),
                class: None,
            };
        };
        let recycled = self.classes[class].lock().pop();
        let data = match recycled {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Only the logical prefix is handed out; zero it so a rental
                // never observes a previous message's bytes. `rent_copy`
                // skips this — its copy overwrites the whole prefix.
                if zero {
                    buf[..len].fill(0);
                }
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 1usize << (class as u32 + MIN_SHIFT)].into_boxed_slice()
            }
        };
        PooledBuf {
            data: ManuallyDrop::new(data),
            len,
            pool: Some(Arc::clone(self)),
            class: Some(class),
        }
    }

    /// Rent a buffer and copy `src` into it — the send-path one-liner.
    pub fn rent_copy(self: &Arc<Self>, src: &[u8]) -> PooledBuf {
        let mut buf = self.rent_raw(src.len(), false);
        buf.copy_from_slice(src);
        buf
    }

    /// Current counter values.
    pub fn stats(&self) -> PoolStats {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let returned = self.returned.load(Ordering::Relaxed);
        let dropped = self.dropped.load(Ordering::Relaxed);
        PoolStats {
            hits,
            misses,
            returned,
            outstanding: (hits + misses).saturating_sub(returned + dropped),
        }
    }

    fn recycle(&self, data: Box<[u8]>, class: Option<usize>) {
        match class {
            Some(class) => {
                let mut list = self.classes[class].lock();
                if list.len() < MAX_PER_CLASS {
                    list.push(data);
                    drop(list);
                    self.returned.fetch_add(1, Ordering::Relaxed);
                } else {
                    drop(list);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// RAII handle to a rented (or standalone) buffer.
///
/// Dereferences to its logical `len` bytes. Dropping a pooled handle returns
/// the backing buffer to its freelist; handles created from raw storage via
/// [`From`] simply free it, which keeps call sites (tests, the simulator's
/// trace tooling) free to construct envelopes without a pool.
pub struct PooledBuf {
    data: ManuallyDrop<Box<[u8]>>,
    len: usize,
    pool: Option<Arc<BufferPool>>,
    class: Option<usize>,
}

impl PooledBuf {
    /// Logical length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the handle holds no payload bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[..self.len]
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[..self.len]
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len)
            .field("pooled", &self.class.is_some())
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        // SAFETY: `data` is never touched again after this take.
        let data = unsafe { ManuallyDrop::take(&mut self.data) };
        match &self.pool {
            Some(pool) => pool.recycle(data, self.class),
            None => drop(data),
        }
    }
}

impl From<Box<[u8]>> for PooledBuf {
    fn from(data: Box<[u8]>) -> Self {
        let len = data.len();
        PooledBuf { data: ManuallyDrop::new(data), len, pool: None, class: None }
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(data: Vec<u8>) -> Self {
        data.into_boxed_slice().into()
    }
}

/// Immutable, refcounted view of a [`PooledBuf`] — the zero-copy envelope
/// payload.
///
/// Cloning a `SharedBuf` bumps a refcount instead of copying bytes, so one
/// rented buffer can sit in many mailboxes at once (a broadcast fan-out is
/// `children` clones of the same rental). The backing buffer returns to its
/// pool when the **last** clone drops, exactly like a uniquely-owned
/// `PooledBuf`. [`slice`](SharedBuf::slice) carves shared sub-views (scatter
/// chunks of one root buffer) that keep the whole rental alive.
///
/// The view is immutable by construction — no `DerefMut` — which is what
/// makes handing the same bytes to several receivers sound.
#[derive(Clone)]
pub struct SharedBuf {
    inner: Arc<PooledBuf>,
    off: usize,
    len: usize,
}

impl SharedBuf {
    /// Wrap a uniquely-owned buffer into a shareable view (no copy).
    pub fn new(buf: PooledBuf) -> Self {
        let len = buf.len();
        SharedBuf { inner: Arc::new(buf), off: 0, len }
    }

    /// Logical length of this view in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view holds no payload bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many live views (including this one) share the backing buffer.
    pub fn shares(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// A shared sub-view of `range` (relative to this view). The sub-view
    /// holds the whole backing rental alive; no bytes move.
    pub fn slice(&self, range: std::ops::Range<usize>) -> SharedBuf {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds of SharedBuf of len {}",
            self.len
        );
        SharedBuf {
            inner: Arc::clone(&self.inner),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }
}

impl std::ops::Deref for SharedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner[self.off..self.off + self.len]
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBuf")
            .field("len", &self.len)
            .field("off", &self.off)
            .field("shares", &self.shares())
            .finish()
    }
}

impl From<PooledBuf> for SharedBuf {
    fn from(buf: PooledBuf) -> Self {
        SharedBuf::new(buf)
    }
}

impl From<Vec<u8>> for SharedBuf {
    fn from(data: Vec<u8>) -> Self {
        SharedBuf::new(PooledBuf::from(data))
    }
}

/// An envelope payload: uniquely owned (the classic copy path, no refcount
/// overhead), shared (a zero-copy fan-out clone), or a shared body with a
/// four-byte protocol prefix riding beside it.
///
/// The wire image of a payload is its bytes in order — for
/// [`Prefixed`](Payload::Prefixed), `prefix ‖ body` — and every accessor
/// here speaks in those terms, so a receive path that only *reads* the
/// payload does not care which variant arrived.
///
/// The `#[inline]`s on the accessors the receive polls call are measured,
/// not habit: with a third arm to match the compiler stopped inlining them,
/// which cost the million-envelope workloads (`ring-msgs`, `heal-clean`)
/// 2–5 % of a broadcast. The one arm that copies stays out of line.
#[derive(Debug)]
pub enum Payload {
    /// Uniquely-owned rental — the classic copy path, no refcount.
    Unique(PooledBuf),
    /// Refcounted view — possibly aliased by the sender and other receivers.
    Shared(SharedBuf),
    /// A protocol header travelling *beside* a refcounted body instead of
    /// being packed in front of a copy of it: what a framing decorator
    /// (`ReliableComm`'s sequence number) sends so that a retransmission is
    /// another clone of the same rental.
    Prefixed([u8; 4], SharedBuf),
}

impl Payload {
    /// Length of the wire image in bytes.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Payload::Unique(b) => b.len(),
            Payload::Shared(s) => s.len(),
            Payload::Prefixed(p, s) => p.len() + s.len(),
        }
    }

    /// True when the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wire image as one slice: borrowed, except for a prefixed payload,
    /// whose two parts are concatenated into a fresh allocation (a plain
    /// receive of a framed envelope — only protocol-mixing tests do that).
    #[inline]
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            Payload::Unique(b) => Cow::Borrowed(b),
            Payload::Shared(s) => Cow::Borrowed(s),
            Payload::Prefixed(p, s) => Cow::Owned(flatten(p, s)),
        }
    }

    /// Convert into a shared view of the wire image. A unique payload pays
    /// one `Arc` allocation and a shared one is handed through as-is; only a
    /// prefixed one has to be flattened (see [`bytes`](Payload::bytes)).
    #[inline]
    pub fn into_shared(self) -> SharedBuf {
        match self {
            Payload::Unique(b) => SharedBuf::new(b),
            Payload::Shared(s) => s,
            Payload::Prefixed(p, s) => SharedBuf::from(flatten(&p, &s)),
        }
    }

    /// Split the wire image into its first four bytes and a view of the
    /// rest, without copying either: a prefixed payload hands back exactly
    /// what the sender posted, any other one is sliced (so a byte-for-byte
    /// resend of `prefix ‖ body` is indistinguishable). `None` when the
    /// image is shorter than a prefix.
    pub fn split_prefix(self) -> Option<([u8; 4], SharedBuf)> {
        match self {
            Payload::Prefixed(prefix, body) => Some((prefix, body)),
            flat => {
                let whole = flat.into_shared();
                let prefix = whole.get(..4)?.try_into().ok()?;
                Some((prefix, whole.slice(4..whole.len())))
            }
        }
    }
}

/// `prefix ‖ body` in one allocation — the arm that copies, out of line.
#[cold]
#[inline(never)]
fn flatten(prefix: &[u8; 4], body: &[u8]) -> Vec<u8> {
    [&prefix[..], body].concat()
}

impl From<PooledBuf> for Payload {
    fn from(buf: PooledBuf) -> Self {
        Payload::Unique(buf)
    }
}

impl From<SharedBuf> for Payload {
    fn from(buf: SharedBuf) -> Self {
        Payload::Shared(buf)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Self {
        Payload::Unique(data.into())
    }
}

impl From<Box<[u8]>> for Payload {
    fn from(data: Box<[u8]>) -> Self {
        Payload::Unique(data.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers currently sitting on freelists.
    fn idle_buffers(pool: &BufferPool) -> usize {
        pool.classes.iter().map(|c| c.lock().len()).sum()
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(1), Some(0)); // rounds up to 64
        assert_eq!(class_of(64), Some(0));
        assert_eq!(class_of(65), Some(1)); // 128
        assert_eq!(class_of(4096), Some(6));
        assert_eq!(class_of(1 << 26), Some(NUM_CLASSES - 1));
        assert_eq!(class_of((1 << 26) + 1), None);
    }

    #[test]
    fn rent_miss_then_hit() {
        let pool = BufferPool::new();
        let a = pool.rent(100);
        assert_eq!(a.len(), 100);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().outstanding, 1);
        drop(a);
        assert_eq!(pool.stats().returned, 1);
        assert_eq!(pool.stats().outstanding, 0);
        // same class (128B) is a hit, even at a different logical length
        let b = pool.rent(128);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        drop(b);
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rentals_are_zeroed() {
        let pool = BufferPool::new();
        let mut a = pool.rent(64);
        a.copy_from_slice(&[0xFF; 64]);
        drop(a);
        let b = pool.rent(32); // same class, shorter logical length
        assert!(b.iter().all(|&x| x == 0), "recycled buffer leaked bytes");
    }

    #[test]
    fn rent_copy_round_trips_payload() {
        let pool = BufferPool::new();
        let src: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let buf = pool.rent_copy(&src);
        assert_eq!(&*buf, &src[..]);
    }

    #[test]
    fn zero_len_and_oversized_bypass_freelists() {
        let pool = BufferPool::new();
        let z = pool.rent(0);
        assert!(z.is_empty());
        drop(z);
        assert_eq!(idle_buffers(&pool), 0);
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.outstanding, 0);
    }

    #[test]
    fn unpooled_from_impls() {
        let v: PooledBuf = vec![1, 2, 3].into();
        assert_eq!(&*v, &[1, 2, 3]);
        let b: PooledBuf = Box::<[u8]>::from([9u8; 4]).into();
        assert_eq!(b.len(), 4);
        drop(b); // must not panic or touch any pool
    }

    #[test]
    fn freelist_is_capped() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..MAX_PER_CLASS + 8).map(|_| pool.rent(64)).collect();
        drop(bufs);
        assert_eq!(idle_buffers(&pool), MAX_PER_CLASS);
        let stats = pool.stats();
        assert_eq!(stats.returned, MAX_PER_CLASS as u64);
        assert_eq!(stats.outstanding, 0);
    }

    #[test]
    fn shared_buf_returns_to_pool_on_last_drop() {
        let pool = BufferPool::new();
        let s = SharedBuf::new(pool.rent_copy(&[7u8; 100]));
        let clones: Vec<_> = (0..5).map(|_| s.clone()).collect();
        assert_eq!(s.shares(), 6);
        assert_eq!(pool.stats().outstanding, 1, "clones share one rental");
        drop(clones);
        assert_eq!(s.shares(), 1);
        assert_eq!(pool.stats().returned, 0, "still held by the original");
        drop(s);
        assert_eq!(pool.stats().returned, 1);
        assert_eq!(pool.stats().outstanding, 0);
        // the recycled buffer serves the next same-class rental
        let _b = pool.rent(100);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn shared_buf_slices_alias_the_rental() {
        let pool = BufferPool::new();
        let s = SharedBuf::new(pool.rent_copy(&(0..64u8).collect::<Vec<_>>()));
        let a = s.slice(8..16);
        let b = a.slice(2..6); // slice of a slice
        assert_eq!(&*a, &(8..16u8).collect::<Vec<_>>()[..]);
        assert_eq!(&*b, &[10, 11, 12, 13]);
        assert_eq!(s.shares(), 3);
        drop(s);
        drop(a);
        assert_eq!(pool.stats().outstanding, 1, "sub-view keeps the rental alive");
        drop(b);
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_buf_slice_bounds_checked() {
        let s = SharedBuf::from(vec![0u8; 8]);
        let _ = s.slice(4..12);
    }

    #[test]
    fn payload_variants_read_and_convert() {
        let pool = BufferPool::new();
        let u = Payload::from(pool.rent_copy(&[3u8; 10]));
        assert_eq!(u.len(), 10);
        assert_eq!(&*u.bytes(), &[3u8; 10]);
        assert_eq!(u.into_shared().shares(), 1, "a unique payload shares by wrapping");
        let s = Payload::from(SharedBuf::new(pool.rent_copy(&[4u8; 6])));
        assert_eq!(&*s.bytes(), &[4u8; 6]);
        let shared = s.into_shared();
        assert_eq!(shared.shares(), 1);
        // a shared payload hands its view through: no second rental
        assert_eq!(pool.stats().outstanding, 1);
    }

    #[test]
    fn prefixed_payload_has_the_concatenated_wire_image() {
        let pool = BufferPool::new();
        let body = SharedBuf::new(pool.rent_copy(&[5, 6, 7]));
        let framed = Payload::Prefixed([1, 2, 3, 4], body.clone());
        assert_eq!(framed.len(), 7);
        assert_eq!(&*framed.bytes(), &[1, 2, 3, 4, 5, 6, 7]);
        // The split hands back the sender's own view: same rental, no copy.
        let (prefix, got) = framed.split_prefix().unwrap();
        assert_eq!((prefix, &got[..]), ([1, 2, 3, 4], &[5u8, 6, 7][..]));
        assert_eq!(body.shares(), 2);
        drop(got);
        // A flat resend of the same bytes splits to the same two parts…
        let (prefix, got) = Payload::from(vec![1, 2, 3, 4, 5, 6, 7]).split_prefix().unwrap();
        assert_eq!((prefix, &got[..]), ([1, 2, 3, 4], &[5u8, 6, 7][..]));
        // …a bare prefix to an empty body, and a runt to nothing.
        assert!(Payload::from(vec![9u8; 4]).split_prefix().unwrap().1.is_empty());
        assert!(Payload::from(vec![9u8; 3]).split_prefix().is_none());
        // Flattening is the only conversion that copies.
        let flat = Payload::Prefixed([1, 2, 3, 4], body.clone()).into_shared();
        assert_eq!(&flat[..], &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(body.shares(), 1);
        // The enum did not grow: the variant rides in `Unique`'s footprint.
        assert_eq!(std::mem::size_of::<Payload>(), std::mem::size_of::<PooledBuf>());
    }

    #[test]
    fn pool_is_shared_across_threads() {
        let pool = BufferPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..100 {
                        let mut b = pool.rent(256);
                        b[0] = i as u8;
                        drop(b);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert_eq!(stats.outstanding, 0);
    }
}
