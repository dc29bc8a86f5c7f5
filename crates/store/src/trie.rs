//! Copy-on-write binary Merkle trie over `sha256(key)` paths.
//!
//! Each key is addressed by the bit string of its SHA-256 hash. A leaf
//! sits at the shallowest depth where its hash prefix is unique, so with
//! hashed (uniformly distributed) keys the expected path length is
//! `log2(n)`, not 256. The structure is *canonical*: the shape — and
//! therefore the root — is a pure function of the entry set, which is
//! what lets the non-trie backends recompute the identical commitment
//! from scratch ([`scratch_root`]) and lets deletions restore exactly
//! the shape an insert-only build would have produced.
//!
//! Hash rules (domain-separated):
//!
//! ```text
//! leaf   = sha256(0x00 ‖ key_hash ‖ value_hash)      value_hash = sha256(value)
//! branch = sha256(0x01 ‖ left ‖ right)               absent child = 32 zero bytes
//! empty trie root = 32 zero bytes
//! ```
//!
//! The trie is the only copy of the entries: each leaf owns its key and
//! value bytes, and [`StateBackend::entries`] and proofs read them there.
//!
//! A commit records and the flush settles. [`StateBackend::commit`]
//! appends its batch's bytes to the block's pending writes and touches
//! nothing else. [`StateBackend::flush_block`] settles them in one pass:
//! the last write to each key wins, the keys are hashed sixteen to a
//! `sha256_x16_short` call, and the writes, sorted by key hash, split
//! into the runs under each subtree at a fixed depth. Worker threads (or
//! the caller alone, for a small block) each take a subtree, apply its
//! run and fill its memos while its nodes are still in cache; the caller
//! then restores the canonical shape above the split and hashes the
//! top. Applying a write edits structure only: a node nobody else holds
//! is edited where it lies (a value of unchanged length is overwritten in
//! its own buffer), a node shared with a `TrieBackend::clone` copy is
//! cloned first (`Arc::make_mut` — copy-on-write, one level at a time),
//! and every node on the way down loses its memoised hash. Memos are
//! filled one way: deepest level first, the level's leaf values sixteen
//! to a `sha256_x16_short` call, then its node preimages sixteen to a
//! `sha256_x16` call, so each dirty node costs one hash per block however
//! many commits crossed it. A settled trie has every memo filled, so
//! [`StateBackend::root`] and [`TrieBackend::prove`] are memo reads after
//! a flush; read mid-block, they (and [`StateBackend::entries`]) settle a
//! copy that shares every untouched node, and leave the trie as it was.
//!
//! [`TrieBackend::prove`] produces inclusion proofs for present keys and
//! two kinds of exclusion proof for absent ones (the search path ends in
//! an empty slot, or in a leaf for a *different* key that owns the
//! shared prefix). [`verify_proof`] checks either against a bare root —
//! the light-client side of the paper's proof-of-location story needs
//! nothing else.

use crate::{BatchEntry, StateBackend, StoreError};
use pol_crypto::sha256;
use pol_crypto::sha256::{sha256_x16, sha256_x16_short, SHORT_MESSAGE_MAX};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// The root commitment of an empty trie.
pub const EMPTY_ROOT: [u8; 32] = [0u8; 32];

/// Bit `depth` (big-endian, MSB-first) of a 32-byte hash.
fn bit(hash: &[u8; 32], depth: usize) -> bool {
    (hash[depth / 8] >> (7 - depth % 8)) & 1 == 1
}

/// Tag byte of a leaf's preimage.
const LEAF: u8 = 0;
/// Tag byte of a branch's preimage.
const BRANCH: u8 = 1;

/// `tag ‖ first ‖ second` — the 65 bytes every node hash is taken over.
fn preimage(tag: u8, first: &[u8; 32], second: &[u8; 32]) -> [u8; 65] {
    let mut buf = [0u8; 65];
    buf[0] = tag;
    buf[1..33].copy_from_slice(first);
    buf[33..65].copy_from_slice(second);
    buf
}

/// `sha256(0x00 ‖ key_hash ‖ value_hash)` — the leaf commitment.
fn leaf_hash(key_hash: &[u8; 32], value_hash: &[u8; 32]) -> [u8; 32] {
    #[cfg(test)]
    tally::count(|t| t.leaves += 1);
    sha256(&preimage(LEAF, key_hash, value_hash))
}

/// `sha256(0x01 ‖ left ‖ right)` — the branch commitment.
fn branch_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    #[cfg(test)]
    tally::count(|t| t.branches += 1);
    sha256(&preimage(BRANCH, left, right))
}

/// A trie node. A leaf holds its entry's bytes and `sha256(key)`, its
/// path; the value's hash is taken when the leaf's is. `hash` memoises
/// the node's commitment: empty from the moment a settle's edit passes
/// through the node until the same settle fills it again. An empty memo
/// never sits below a filled one — every edit clears the whole path from
/// the root — so a filled memo vouches for its entire subtree.
#[derive(Debug, Clone)]
enum Node {
    Leaf { key_hash: [u8; 32], key: Box<[u8]>, value: Box<[u8]>, hash: OnceLock<[u8; 32]> },
    Branch { left: Option<Arc<Node>>, right: Option<Arc<Node>>, hash: OnceLock<[u8; 32]> },
}

impl Node {
    fn leaf(key_hash: [u8; 32], key: &[u8], value: &[u8]) -> Arc<Node> {
        Arc::new(Node::Leaf {
            key_hash,
            key: key.into(),
            value: value.into(),
            hash: OnceLock::new(),
        })
    }

    fn branch(left: Option<Arc<Node>>, right: Option<Arc<Node>>) -> Arc<Node> {
        Arc::new(Node::Branch { left, right, hash: OnceLock::new() })
    }

    /// The node's commitment: a memo read, for every memo of a settled
    /// trie is filled.
    fn hash(&self) -> [u8; 32] {
        *self.memo().get().expect("a settled trie has every memo filled")
    }

    fn memo(&self) -> &OnceLock<[u8; 32]> {
        let (Node::Leaf { hash, .. } | Node::Branch { hash, .. }) = self;
        hash
    }

    fn is_hashed(&self) -> bool {
        self.memo().get().is_some()
    }

    fn key_hash(&self) -> [u8; 32] {
        match self {
            Node::Leaf { key_hash, .. } => *key_hash,
            Node::Branch { .. } => unreachable!("key_hash of a branch"),
        }
    }
}

fn child_hash(child: &Option<Arc<Node>>) -> [u8; 32] {
    child.as_ref().map(|n| n.hash()).unwrap_or(EMPTY_ROOT)
}

/// Places two leaves with distinct key hashes under one subtree rooted
/// at `depth`, descending until their paths diverge.
fn join(depth: usize, a: Arc<Node>, b: Arc<Node>) -> Arc<Node> {
    assert!(depth < 256, "state key hash collision");
    let (ka, kb) = (a.key_hash(), b.key_hash());
    match (bit(&ka, depth), bit(&kb, depth)) {
        (false, false) => Node::branch(Some(join(depth + 1, a, b)), None),
        (true, true) => Node::branch(None, Some(join(depth + 1, a, b))),
        (false, true) => Node::branch(Some(a), Some(b)),
        (true, false) => Node::branch(Some(b), Some(a)),
    }
}

/// Inserts or updates `key → value` (`kh = sha256(key)`) under `slot`,
/// which sits at `depth`, editing unshared nodes in place, copying
/// shared ones, and clearing the memo of every node it passes. Hashes
/// nothing.
fn insert(
    mut slot: &mut Option<Arc<Node>>,
    mut depth: usize,
    kh: [u8; 32],
    key: &[u8],
    value: &[u8],
) {
    loop {
        match slot.as_deref() {
            None => {
                *slot = Some(Node::leaf(kh, key, value));
                return;
            }
            // Another key owns this prefix: both leaves move down to
            // where their paths part. The old leaf is moved, not edited,
            // so it keeps its memo and is never copied.
            Some(Node::Leaf { key_hash, .. }) if *key_hash != kh => {
                let other = slot.take().expect("matched Some");
                *slot = Some(join(depth, other, Node::leaf(kh, key, value)));
                return;
            }
            Some(_) => {}
        }
        match Arc::make_mut(slot.as_mut().expect("matched Some")) {
            Node::Leaf { value: old, hash, .. } => {
                if old.len() == value.len() {
                    old.copy_from_slice(value);
                } else {
                    *old = value.into();
                }
                hash.take();
                return;
            }
            Node::Branch { left, right, hash } => {
                hash.take();
                slot = if bit(&kh, depth) { right } else { left };
                depth += 1;
            }
        }
    }
}

/// Removes `kh` from under `slot`, which sits at `depth`, with the same
/// in-place, copy-if-shared, clear-as-you-pass discipline as [`insert`].
/// Collapses single-leaf branches on the way up so the shape under
/// `slot` stays canonical (a leaf always sits at the shallowest depth
/// where its prefix is unique). The caller knows the key is present
/// ([`holds`]); an absent one would cost a dirtied path and change
/// nothing.
fn remove(slot: &mut Option<Arc<Node>>, depth: usize, kh: &[u8; 32]) {
    match slot.as_deref() {
        None => return,
        Some(Node::Leaf { key_hash, .. }) => {
            if key_hash == kh {
                *slot = None;
            }
            return;
        }
        Some(Node::Branch { .. }) => {}
    }
    let Node::Branch { left, right, hash } = Arc::make_mut(slot.as_mut().expect("matched Some"))
    else {
        unreachable!("matched Branch")
    };
    hash.take();
    remove(if bit(kh, depth) { right } else { left }, depth + 1, kh);
    lift(slot);
}

/// Restores the canonical shape at a branch whose children are
/// canonical: a branch only exists where at least two keys share the
/// prefix, so an empty one goes and one left holding a lone leaf is
/// replaced by it (memo and all — a leaf's hash does not depend on its
/// depth). A branch still holding two children, or one branch, stays.
fn lift(slot: &mut Option<Arc<Node>>) {
    let Some(Node::Branch { left, right, .. }) = slot.as_deref() else { return };
    let lone = match (left.as_deref(), right.as_deref()) {
        (None, None) => None,
        (Some(Node::Leaf { .. }), None) => left.clone(),
        (None, Some(Node::Leaf { .. })) => right.clone(),
        _ => return,
    };
    *slot = lone;
}

/// Whether a leaf for `kh` sits under the root `slot`: the read-only
/// descent that keeps [`remove`] off the paths of absent keys.
fn holds(mut slot: &Option<Arc<Node>>, kh: &[u8; 32]) -> bool {
    let mut depth = 0usize;
    loop {
        match slot.as_deref() {
            None => return false,
            Some(Node::Leaf { key_hash, .. }) => return key_hash == kh,
            Some(Node::Branch { left, right, .. }) => {
                slot = if bit(kh, depth) { right } else { left };
                depth += 1;
            }
        }
    }
}

/// Fewest writes pending at a flush for which the settle runs on worker
/// threads; below it the calling thread does all of it. Set from the
/// 2-vCPU development host, blocks of `n` overwrites on a 40 000-key
/// trie, median flush of 100 blocks in µs (the whole settle: key hashes,
/// structure, value and node hashes), one thread and two alternating
/// block by block; the free rows are the median of three runs, the busy
/// rows one run with a spinning process on the second core
/// (`flush_threshold_table` in the tests prints the rows, see its doc):
///
/// ```text
/// n                    16    32    64   128   256   512   1024
/// free, one thread    175   260   523   922  1667  3134   6691
/// free, two threads   194   348   574   684  1141  2186   4050
/// busy, one thread    224   394   722   797  2127  3845   6194
/// busy, two threads   456   726  1245  1170  2648  4286   6356
/// ```
///
/// With a free second core, two threads break even between 64 and 128
/// keys and win 26 % at 128, 32 % at 256, 30 % at 512 and 39 % at 1024;
/// with a busy one they lose 24 % at 256, 11 % at 512 and 3 % at 1024 (a
/// second busy run: 23 %, 23 % and 2 %). At 512 a free core saves 30 %
/// and a busy one costs 11–23 %; at 256 the busy loss nears the free
/// gain, so the threshold stays where it was when the flush only hashed.
const PARALLEL_FLUSH_MIN_KEYS: usize = 512;

/// Subtrees handed out per thread. A parallel settle splits the trie at
/// the depth that has this many subtrees per thread and threads take
/// them one at a time, so a worker that starts late or shares its core
/// with another tenant costs the flush one subtree's wait and not half
/// the trie's (hashing alone, two threads, quartiles of 100 flushes:
/// 2151–2678 µs at 512 keys against 2096–3631 with one subtree each,
/// 3316–3963 at 1024 against 3358–4352; the medians are within 7 %, the
/// slow quarter is not).
const SUBTREES_PER_WORKER: usize = 4;

/// Fewest messages worth one sixteen-lane call: a call costs about what
/// six or seven scalar hashes do (`hash/sha256-x16/65` and
/// `hash/sha256-x16/33` read 2.3–2.8× their scalar rows per message), so
/// a chunk of seven or more is padded to sixteen lanes and a smaller one
/// is hashed one by one.
const LANES_MIN: usize = 7;

/// The children of `level`'s nodes whose memos are empty, left to right.
fn unhashed_children<'a>(level: &[&'a Node]) -> Vec<&'a Node> {
    level
        .iter()
        .flat_map(|node| match node {
            Node::Branch { left, right, .. } => [left.as_deref(), right.as_deref()],
            Node::Leaf { .. } => [None, None],
        })
        .flatten()
        .filter(|node| !node.is_hashed())
        .collect()
}

/// Fills every empty memo at and under `node`. Gathers the unhashed
/// nodes level by level from `node` down, then hashes the levels deepest
/// first through [`hash_level`]: a node's children are always one level
/// further down, so their memos are filled before its preimage is read.
fn fill_subtree(node: &Node) {
    if node.is_hashed() {
        return;
    }
    let mut levels = vec![vec![node]];
    loop {
        let below = unhashed_children(levels.last().expect("starts with one level"));
        if below.is_empty() {
            break;
        }
        levels.push(below);
    }
    for level in levels.iter().rev() {
        hash_level(level);
    }
}

/// Fills the memo of every node in `level`, whose children are all
/// hashed. The leaves' values are hashed first ([`value_hashes`]); then
/// the node preimages go sixteen at a time through [`sha256_x16`], the
/// last fewer than sixteen padded to a full call when there are at least
/// [`LANES_MIN`] of them and one by one otherwise.
fn hash_level(level: &[&Node]) {
    let value_hashes = value_hashes(level);
    let preimage = |i: usize| {
        let bytes = match level[i] {
            Node::Leaf { key_hash, .. } => preimage(LEAF, key_hash, &value_hashes[i]),
            Node::Branch { left, right, .. } => {
                preimage(BRANCH, &child_hash(left), &child_hash(right))
            }
        };
        #[cfg(test)]
        tally::count(|t| match bytes[0] {
            LEAF => t.leaves += 1,
            _ => t.branches += 1,
        });
        bytes
    };
    for (start, nodes) in (0..).step_by(16).zip(level.chunks(16)) {
        if nodes.len() < LANES_MIN {
            for (i, node) in (start..).zip(nodes) {
                _ = node.memo().set(sha256(&preimage(i)));
            }
            continue;
        }
        let lanes =
            core::array::from_fn(|j| if j < nodes.len() { preimage(start + j) } else { [0u8; 65] });
        for (node, digest) in nodes.iter().zip(sha256_x16(&lanes)) {
            _ = node.memo().set(digest);
        }
    }
}

/// `sha256` of every message, by position (zeros for `None`). Messages
/// of at most [`SHORT_MESSAGE_MAX`] bytes go sixteen to a
/// [`sha256_x16_short`] call, the last fewer than sixteen padded with
/// empty lanes when there are at least [`LANES_MIN`] of them; longer
/// messages, and a smaller last chunk, one by one.
fn sha256_each<'a>(msgs: impl ExactSizeIterator<Item = Option<&'a [u8]>>) -> Vec<[u8; 32]> {
    let mut hashes = vec![[0u8; 32]; msgs.len()];
    let mut short: Vec<(usize, &[u8])> = Vec::new();
    for (i, msg) in msgs.enumerate() {
        match msg {
            Some(msg) if msg.len() <= SHORT_MESSAGE_MAX => short.push((i, msg)),
            Some(msg) => hashes[i] = sha256(msg),
            None => {}
        }
    }
    for chunk in short.chunks(16) {
        if chunk.len() < LANES_MIN {
            for &(i, msg) in chunk {
                hashes[i] = sha256(msg);
            }
            continue;
        }
        let lanes = core::array::from_fn(|j| chunk.get(j).map_or(&[][..], |&(_, msg)| msg));
        for (&(i, _), digest) in chunk.iter().zip(sha256_x16_short(lanes)) {
            hashes[i] = digest;
        }
    }
    hashes
}

/// `sha256(value)` of every leaf in `level`, by position (zeros where a
/// branch stands), through [`sha256_each`]: every value the ledger's
/// codec writes but code and long byte strings is short.
fn value_hashes(level: &[&Node]) -> Vec<[u8; 32]> {
    sha256_each(level.iter().map(|node| match node {
        Node::Leaf { value, .. } => Some(&value[..]),
        Node::Branch { .. } => None,
    }))
}

/// The writes committed since the last flush, in commit order. Their
/// keys and values lie back to back in one buffer, so recording a write
/// copies its bytes and, once the buffers have grown to a block's size,
/// allocates nothing. A flush empties the buffers and keeps their
/// capacity: dropping it and growing them again every block read 4–14 %
/// lower `state-churn` `ops_per_s` over five alternating pairs, and the
/// capacity the preload leaves costs that workload about 3 MiB of peak
/// RSS.
#[derive(Debug, Default, Clone)]
struct Pending {
    bytes: Vec<u8>,
    /// Each write's key and value (`None` deletes) as ranges of `bytes`.
    writes: Vec<(Range<usize>, Option<Range<usize>>)>,
}

/// A pending write that changes the trie: its key's path and its place
/// among the pending writes.
#[derive(Debug, Clone, Copy)]
struct Write {
    kh: [u8; 32],
    at: usize,
}

impl Pending {
    fn record(&mut self, batch: &[BatchEntry]) {
        for (key, value) in batch {
            let key = self.push(key);
            let value = value.as_deref().map(|value| self.push(value));
            self.writes.push((key, value));
        }
    }

    fn push(&mut self, bytes: &[u8]) -> Range<usize> {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(bytes);
        start..self.bytes.len()
    }

    /// The key and value (`None` deletes) of pending write `at`.
    fn write(&self, at: usize) -> (&[u8], Option<&[u8]>) {
        let (key, value) = &self.writes[at];
        (&self.bytes[key.clone()], value.clone().map(|value| &self.bytes[value]))
    }

    /// The writes that change the trie under `root`, sorted by key hash:
    /// the last write to each key, less deletes of keys `root` does not
    /// hold. Every key is hashed, sixteen to a call ([`sha256_each`]).
    fn changes(&self, root: &Option<Arc<Node>>) -> Vec<Write> {
        let keys = sha256_each(self.writes.iter().map(|(key, _)| Some(&self.bytes[key.clone()])));
        let mut writes: Vec<Write> =
            keys.into_iter().zip(0..).map(|(kh, at)| Write { kh, at }).collect();
        // Latest first within a key, so the one `dedup_by` keeps is the
        // last write.
        writes.sort_unstable_by(|a, b| a.kh.cmp(&b.kh).then(b.at.cmp(&a.at)));
        writes.dedup_by(|older, kept| older.kh == kept.kh);
        writes.retain(|w| self.writes[w.at].1.is_some() || holds(root, &w.kh));
        writes
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.writes.clear();
    }
}

/// Applies `writes` (sorted by key hash, one per key, every delete of a
/// present key) under `slot`, which sits at `depth`. Structure only.
fn apply(slot: &mut Option<Arc<Node>>, depth: usize, writes: &[Write], pending: &Pending) {
    for w in writes {
        match pending.write(w.at) {
            (key, Some(value)) => insert(slot, depth, w.kh, key, value),
            (_, None) => remove(slot, depth, &w.kh),
        }
    }
}

/// A slot at the split depth and the writes that fall under it.
type Subtree<'a> = (&'a mut Option<Arc<Node>>, &'a [Write]);

/// Opens the levels above `split` along every prefix that `writes`
/// (sorted by key hash) fall under, and hands out the slots at `split`
/// with their runs: on the way down a branch loses its memo (copied
/// first if shared), and an empty slot or a leaf becomes a branch, the
/// leaf moved down by its own bit. [`close_top`] undoes what the writes
/// left non-canonical.
fn open_top<'a>(
    slot: &'a mut Option<Arc<Node>>,
    depth: usize,
    split: usize,
    writes: &'a [Write],
    out: &mut Vec<Subtree<'a>>,
) {
    if writes.is_empty() {
        return;
    }
    if depth == split {
        out.push((slot, writes));
        return;
    }
    if !matches!(slot.as_deref(), Some(Node::Branch { .. })) {
        *slot = Some(match slot.take() {
            Some(leaf) if bit(&leaf.key_hash(), depth) => Node::branch(None, Some(leaf)),
            leaf => Node::branch(leaf, None),
        });
    }
    let Node::Branch { left, right, hash } = Arc::make_mut(slot.as_mut().expect("a branch")) else {
        unreachable!("made a branch")
    };
    hash.take();
    // Sorted by hash ⇒ sorted by bit path: one partition point splits
    // the zero-bit prefix from the one-bit suffix.
    let (zero, one) = writes.split_at(writes.partition_point(|w| !bit(&w.kh, depth)));
    open_top(left, depth + 1, split, zero, out);
    open_top(right, depth + 1, split, one, out);
}

/// Restores the canonical shape of the levels [`open_top`] opened above
/// `split`, deepest first ([`lift`]). A branch whose memo is filled was
/// not opened, and is canonical already.
fn close_top(slot: &mut Option<Arc<Node>>, depth: usize, split: usize) {
    if depth == split || slot.as_deref().is_none_or(Node::is_hashed) {
        return;
    }
    if let Node::Branch { left, right, .. } = Arc::make_mut(slot.as_mut().expect("matched Some")) {
        close_top(left, depth + 1, split);
        close_top(right, depth + 1, split);
        lift(slot);
    }
}

/// Settles `pending` into the trie under `root` using `ways` threads,
/// the caller among them, and fills every memo the writes emptied. With
/// one way the root is the one subtree; with more, the trie is split at
/// the depth that gives [`SUBTREES_PER_WORKER`] subtrees per thread, and
/// each thread takes a subtree at a time, applies its run and hashes it.
fn settle(root: &mut Option<Arc<Node>>, pending: &Pending, ways: usize) {
    let writes = pending.changes(root);
    let split = match ways {
        1 => 0,
        _ => (ways * SUBTREES_PER_WORKER).next_power_of_two().trailing_zeros() as usize,
    };
    let mut subtrees = Vec::new();
    open_top(root, 0, split, &writes, &mut subtrees);
    let threads = ways.min(subtrees.len());
    // A ticket dispenser: each thread takes the next subtree until none
    // is left, so the lock is held only to hand one out.
    let tickets = Mutex::new(subtrees.into_iter());
    let work = || loop {
        let Some((slot, run)) = tickets.lock().expect("no worker panics").next() else { break };
        apply(slot, split, run, pending);
        if let Some(node) = slot.as_deref() {
            fill_subtree(node);
        }
    };
    #[cfg(test)]
    let hashed_by_workers = Mutex::new(tally::Tally::default());
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                work();
                #[cfg(test)]
                (*hashed_by_workers.lock().unwrap() += tally::take());
            });
        }
        work();
    });
    #[cfg(test)]
    tally::count(|t| *t += hashed_by_workers.into_inner().unwrap());
    close_top(root, 0, split);
    if let Some(node) = root.as_deref() {
        fill_subtree(node);
    }
}

/// The host's available parallelism, resolved once.
fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Test-only count of the node hashes computed on behalf of the current
/// thread: its own, plus those of the [`settle`] workers it waited for.
#[cfg(test)]
mod tally {
    use std::cell::Cell;

    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Tally {
        pub leaves: usize,
        pub branches: usize,
    }

    impl std::ops::AddAssign for Tally {
        fn add_assign(&mut self, other: Tally) {
            self.leaves += other.leaves;
            self.branches += other.branches;
        }
    }

    thread_local! {
        static TALLY: Cell<Tally> = const { Cell::new(Tally { leaves: 0, branches: 0 }) };
    }

    pub(crate) fn count(bump: impl FnOnce(&mut Tally)) {
        TALLY.with(|cell| {
            let mut tally = cell.get();
            bump(&mut tally);
            cell.set(tally);
        });
    }

    /// Reads and zeroes the current thread's tally.
    pub(crate) fn take() -> Tally {
        TALLY.with(Cell::take)
    }
}

/// The canonical trie root over an arbitrary entry set, built from
/// scratch in `O(n log n)`: this is the commitment definition every
/// backend's [`StateBackend::root`] must agree with. `leaves` yields
/// `(sha256(key), sha256(value))` pairs in any order.
pub(crate) fn scratch_root<I: IntoIterator<Item = ([u8; 32], [u8; 32])>>(leaves: I) -> [u8; 32] {
    let mut hashed: Vec<([u8; 32], [u8; 32])> =
        leaves.into_iter().map(|(kh, vh)| (kh, leaf_hash(&kh, &vh))).collect();
    hashed.sort_unstable_by_key(|a| a.0);
    build(&hashed, 0)
}

fn build(leaves: &[([u8; 32], [u8; 32])], depth: usize) -> [u8; 32] {
    match leaves.len() {
        0 => EMPTY_ROOT,
        1 => leaves[0].1,
        _ => {
            assert!(depth < 256, "state key hash collision");
            // Sorted by hash ⇒ sorted by bit path: one partition point
            // splits the zero-bit prefix from the one-bit suffix.
            let split = leaves.partition_point(|(kh, _)| !bit(kh, depth));
            branch_hash(&build(&leaves[..split], depth + 1), &build(&leaves[split..], depth + 1))
        }
    }
}

/// What a [`MerkleProof`] asserts about its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofClaim {
    /// The key is present and maps to these value bytes.
    Present(Vec<u8>),
    /// The key is absent: its search path ends in an empty slot.
    AbsentEmpty,
    /// The key is absent: its search path ends at the leaf of a
    /// *different* key that owns the shared prefix.
    AbsentLeaf {
        /// `sha256(key)` of the leaf actually occupying the path.
        other_key_hash: [u8; 32],
        /// `sha256(value)` of that leaf.
        other_value_hash: [u8; 32],
    },
}

/// A Merkle inclusion/exclusion proof, verifiable against a bare root
/// by [`verify_proof`]. `siblings[i]` is the hash of the sibling subtree
/// at depth `i + 1` (absent sibling = 32 zero bytes); the bit path comes
/// from the key being proven, so it is not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// The claim being proven.
    pub claim: ProofClaim,
    /// Sibling hashes from the root down to the terminal slot.
    pub siblings: Vec<[u8; 32]>,
}

impl MerkleProof {
    /// Canonical byte encoding (what a light client would receive).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.claim {
            ProofClaim::Present(value) => {
                out.push(1);
                out.extend_from_slice(&(value.len() as u32).to_be_bytes());
                out.extend_from_slice(value);
            }
            ProofClaim::AbsentEmpty => out.push(2),
            ProofClaim::AbsentLeaf { other_key_hash, other_value_hash } => {
                out.push(3);
                out.extend_from_slice(other_key_hash);
                out.extend_from_slice(other_value_hash);
            }
        }
        out.extend_from_slice(&(self.siblings.len() as u16).to_be_bytes());
        for sibling in &self.siblings {
            out.extend_from_slice(sibling);
        }
        out
    }

    /// Strict inverse of [`MerkleProof::encode`]: every byte must be
    /// consumed and every length must be exact.
    ///
    /// # Errors
    ///
    /// [`ProofError::Malformed`] on any framing violation.
    pub fn decode(bytes: &[u8]) -> Result<MerkleProof, ProofError> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], ProofError> {
            let end = at.checked_add(n).ok_or(ProofError::Malformed("length overflow"))?;
            let slice =
                bytes.get(*at..end).ok_or(ProofError::Malformed("truncated proof encoding"))?;
            *at = end;
            Ok(slice)
        };
        let tag = take(&mut at, 1)?[0];
        let claim = match tag {
            1 => {
                let len =
                    u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
                ProofClaim::Present(take(&mut at, len)?.to_vec())
            }
            2 => ProofClaim::AbsentEmpty,
            3 => {
                let okh: [u8; 32] = take(&mut at, 32)?.try_into().expect("32 bytes");
                let ovh: [u8; 32] = take(&mut at, 32)?.try_into().expect("32 bytes");
                ProofClaim::AbsentLeaf { other_key_hash: okh, other_value_hash: ovh }
            }
            _ => return Err(ProofError::Malformed("unknown claim tag")),
        };
        let count = u16::from_be_bytes(take(&mut at, 2)?.try_into().expect("2 bytes")) as usize;
        if count > 256 {
            return Err(ProofError::Malformed("sibling path longer than 256"));
        }
        let mut siblings = Vec::with_capacity(count);
        for _ in 0..count {
            siblings.push(take(&mut at, 32)?.try_into().expect("32 bytes"));
        }
        if at != bytes.len() {
            return Err(ProofError::Malformed("trailing bytes after proof"));
        }
        Ok(MerkleProof { claim, siblings })
    }
}

/// Why a proof failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The recomputed root does not match the trusted root.
    RootMismatch,
    /// Framing/structure violation.
    Malformed(&'static str),
    /// An exclusion-by-leaf proof whose leaf does not share the absent
    /// key's path prefix.
    PrefixMismatch,
    /// An exclusion-by-leaf proof whose leaf *is* the key it claims
    /// absent.
    SameKey,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::RootMismatch => write!(f, "recomputed root does not match"),
            ProofError::Malformed(msg) => write!(f, "malformed proof: {msg}"),
            ProofError::PrefixMismatch => write!(f, "exclusion leaf off the key's path"),
            ProofError::SameKey => write!(f, "exclusion leaf is the key itself"),
        }
    }
}

impl std::error::Error for ProofError {}

/// Verifies `proof` for `key` against `root` with no other state — the
/// standalone light-client check. Returns the proven value for an
/// inclusion proof, `None` for a valid exclusion proof.
///
/// # Errors
///
/// Any [`ProofError`] when the proof does not bind `key` to `root`.
pub fn verify_proof(
    root: &[u8; 32],
    key: &[u8],
    proof: &MerkleProof,
) -> Result<Option<Vec<u8>>, ProofError> {
    let kh = sha256(key);
    let depth = proof.siblings.len();
    if depth > 256 {
        return Err(ProofError::Malformed("sibling path longer than 256"));
    }
    let mut cur = match &proof.claim {
        ProofClaim::Present(value) => leaf_hash(&kh, &sha256(value)),
        ProofClaim::AbsentEmpty => EMPTY_ROOT,
        ProofClaim::AbsentLeaf { other_key_hash, other_value_hash } => {
            if *other_key_hash == kh {
                return Err(ProofError::SameKey);
            }
            // The occupying leaf must sit on the absent key's path: its
            // hash shares the first `depth` bits.
            if (0..depth).any(|i| bit(other_key_hash, i) != bit(&kh, i)) {
                return Err(ProofError::PrefixMismatch);
            }
            leaf_hash(other_key_hash, other_value_hash)
        }
    };
    for i in (0..depth).rev() {
        let sibling = &proof.siblings[i];
        cur = if bit(&kh, i) { branch_hash(sibling, &cur) } else { branch_hash(&cur, sibling) };
    }
    if cur != *root {
        return Err(ProofError::RootMismatch);
    }
    Ok(match &proof.claim {
        ProofClaim::Present(value) => Some(value.clone()),
        _ => None,
    })
}

/// The copy-on-write Merkle trie backend: a commit records its batch,
/// [`StateBackend::flush_block`] settles the block's writes — structure
/// in `O(k log n)`, then one hash for each value and node they dirtied —
/// and every key yields an inclusion or exclusion proof.
/// [`StateBackend::root`], [`TrieBackend::prove`] and
/// [`StateBackend::entries`] are exact at any point: mid-block they
/// settle a copy. The leaves hold the only copy of the entries;
/// [`StateBackend::entries`] walks them.
#[derive(Debug, Default, Clone)]
pub struct TrieBackend {
    /// Settled: every memo under it is filled.
    root: Option<Arc<Node>>,
    /// Writes committed since the last flush.
    pending: Pending,
}

impl TrieBackend {
    /// An empty trie.
    pub fn new() -> TrieBackend {
        TrieBackend::default()
    }

    /// An inclusion proof for a present `key`, or an exclusion proof for
    /// an absent one — always succeeds.
    pub(crate) fn prove_key(&self, key: &[u8]) -> MerkleProof {
        self.settled().walk(key)
    }

    /// [`TrieBackend::prove_key`] on a trie with no writes pending.
    fn walk(&self, key: &[u8]) -> MerkleProof {
        let kh = sha256(key);
        let mut siblings = Vec::new();
        let mut cursor = self.root.as_deref();
        loop {
            match cursor {
                None => return MerkleProof { claim: ProofClaim::AbsentEmpty, siblings },
                Some(Node::Leaf { key_hash, value, .. }) => {
                    let claim = if *key_hash == kh {
                        ProofClaim::Present(value.to_vec())
                    } else {
                        ProofClaim::AbsentLeaf {
                            other_key_hash: *key_hash,
                            other_value_hash: sha256(value),
                        }
                    };
                    return MerkleProof { claim, siblings };
                }
                Some(Node::Branch { left, right, .. }) => {
                    let (next, sibling) =
                        if bit(&kh, siblings.len()) { (right, left) } else { (left, right) };
                    siblings.push(child_hash(sibling));
                    cursor = next.as_deref();
                }
            }
        }
    }

    /// [`StateBackend::flush_block`]'s settle, with the thread count a
    /// parameter so tests can force the split.
    fn flush_with(&mut self, ways: usize) {
        settle(&mut self.root, &self.pending, ways);
        self.pending.clear();
    }

    /// Settles the pending writes, on the host's cores when there are
    /// enough of them to pay for the threads.
    fn flush(&mut self) {
        let parallel = self.pending.writes.len() >= PARALLEL_FLUSH_MIN_KEYS;
        self.flush_with(if parallel { host_parallelism() } else { 1 });
    }

    /// The trie with its pending writes settled: itself when none are
    /// pending (always, after a flush), else a settled copy that shares
    /// every untouched node with it.
    fn settled(&self) -> Cow<'_, TrieBackend> {
        if self.pending.writes.is_empty() {
            return Cow::Borrowed(self);
        }
        let mut copy = self.clone();
        copy.flush();
        Cow::Owned(copy)
    }
}

impl StateBackend for TrieBackend {
    fn name(&self) -> &'static str {
        "trie"
    }

    /// Records the batch among the block's pending writes; the flush
    /// applies and hashes them.
    fn commit(&mut self, batch: &[BatchEntry]) -> Result<(), StoreError> {
        self.pending.record(batch);
        Ok(())
    }

    fn root(&self) -> [u8; 32] {
        child_hash(&self.settled().root)
    }

    /// Settles the block's pending writes, so [`StateBackend::root`] and
    /// [`StateBackend::prove`] are memo reads until the next commit.
    fn flush_block(&mut self, _height: u64) -> Result<(), StoreError> {
        self.flush();
        Ok(())
    }

    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let settled = self.settled();
        let mut entries = Vec::new();
        let mut stack: Vec<&Node> = settled.root.as_deref().into_iter().collect();
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf { key, value, .. } => entries.push((key.to_vec(), value.to_vec())),
                Node::Branch { left, right, .. } => {
                    stack.extend([left.as_deref(), right.as_deref()].into_iter().flatten());
                }
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    fn prove(&self, key: &[u8]) -> Option<MerkleProof> {
        Some(self.prove_key(key))
    }
}

/// Convenience: the scratch root over a plain byte map (what the
/// non-trie backends use to implement [`StateBackend::root`]).
pub(crate) fn map_root(map: &BTreeMap<Vec<u8>, Vec<u8>>) -> [u8; 32] {
    scratch_root(map.iter().map(|(k, v)| (sha256(k), sha256(v))))
}

#[cfg(test)]
mod tests {
    use super::tally::Tally;
    use super::*;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (format!("key-{i}").into_bytes(), format!("value-{i}").into_bytes())
    }

    #[test]
    fn empty_root_is_zero_and_single_leaf_matches_scratch() {
        let mut trie = TrieBackend::new();
        assert_eq!(trie.root(), EMPTY_ROOT);
        let (k, v) = kv(1);
        trie.commit(&[(k.clone(), Some(v.clone()))]).unwrap();
        assert_eq!(trie.root(), scratch_root([(sha256(&k), sha256(&v))]));
    }

    #[test]
    fn incremental_root_matches_scratch_build_under_churn() {
        let mut trie = TrieBackend::new();
        let mut model = BTreeMap::new();
        for i in 0..200u32 {
            let (k, v) = kv(i);
            trie.commit(&[(k.clone(), Some(v.clone()))]).unwrap();
            model.insert(k, v);
            if i % 3 == 0 {
                let (dk, _) = kv(i / 2);
                trie.commit(&[(dk.clone(), None)]).unwrap();
                model.remove(&dk);
            }
            if i % 7 == 0 {
                // Overwrite an existing key with a new value.
                let (ok, _) = kv(i.saturating_sub(1));
                if model.contains_key(&ok) {
                    let nv = format!("updated-{i}").into_bytes();
                    trie.commit(&[(ok.clone(), Some(nv.clone()))]).unwrap();
                    model.insert(ok, nv);
                }
            }
            assert_eq!(trie.root(), map_root(&model), "divergence after op {i}");
            let model_entries: Vec<_> = model.clone().into_iter().collect();
            assert_eq!(trie.entries(), model_entries, "entries after op {i}");
        }
    }

    #[test]
    fn inclusion_and_exclusion_proofs_verify() {
        let mut trie = TrieBackend::new();
        for i in 0..64u32 {
            let (k, v) = kv(i);
            trie.commit(&[(k, Some(v))]).unwrap();
        }
        let root = trie.root();
        for i in 0..64u32 {
            let (k, v) = kv(i);
            let proof = trie.prove_key(&k);
            assert!(matches!(proof.claim, ProofClaim::Present(_)));
            assert_eq!(verify_proof(&root, &k, &proof).unwrap(), Some(v));
        }
        for i in 100..164u32 {
            let (k, _) = kv(i);
            let proof = trie.prove_key(&k);
            assert!(!matches!(proof.claim, ProofClaim::Present(_)));
            assert_eq!(verify_proof(&root, &k, &proof).unwrap(), None);
        }
    }

    #[test]
    fn proof_encoding_round_trips() {
        let mut trie = TrieBackend::new();
        for i in 0..16u32 {
            let (k, v) = kv(i);
            trie.commit(&[(k, Some(v))]).unwrap();
        }
        for i in [0u32, 5, 15, 999] {
            let (k, _) = kv(i);
            let proof = trie.prove_key(&k);
            let decoded = MerkleProof::decode(&proof.encode()).unwrap();
            assert_eq!(decoded, proof);
            assert!(verify_proof(&trie.root(), &k, &decoded).is_ok());
        }
    }

    #[test]
    fn wrong_value_or_wrong_root_rejected() {
        let mut trie = TrieBackend::new();
        let (k, v) = kv(1);
        trie.commit(&[(k.clone(), Some(v))]).unwrap();
        let root = trie.root();
        let mut proof = trie.prove_key(&k);
        if let ProofClaim::Present(value) = &mut proof.claim {
            value[0] ^= 1;
        }
        assert_eq!(verify_proof(&root, &k, &proof), Err(ProofError::RootMismatch));
        let good = trie.prove_key(&k);
        let mut bad_root = root;
        bad_root[31] ^= 0x80;
        assert_eq!(verify_proof(&bad_root, &k, &good), Err(ProofError::RootMismatch));
    }

    #[test]
    fn snapshot_is_independent() {
        let mut trie = TrieBackend::new();
        let (k, v) = kv(7);
        trie.commit(&[(k.clone(), Some(v))]).unwrap();
        let snap = trie.clone();
        let before = snap.root();
        trie.commit(&[(k, None)]).unwrap();
        assert_eq!(snap.root(), before, "snapshot mutated by original");
        assert_ne!(trie.root(), before);
    }

    /// The nodes whose memo is empty, by kind — the hashing a flush owes —
    /// checking on the way that none of them hides below a filled memo.
    fn unhashed(node: &Node, under_hashed: bool, owed: &mut Tally) {
        assert!(!under_hashed || node.is_hashed(), "an empty memo below a filled one");
        match node {
            Node::Leaf { .. } => owed.leaves += usize::from(!node.is_hashed()),
            Node::Branch { left, right, .. } => {
                owed.branches += usize::from(!node.is_hashed());
                for child in [left, right].into_iter().flatten() {
                    unhashed(child, node.is_hashed(), owed);
                }
            }
        }
    }

    /// The hashing the next flush owes: the empty memos the pending
    /// writes leave once applied, one key at a time from the root, to a
    /// copy of the settled trie.
    fn owed(trie: &TrieBackend) -> Tally {
        let mut root = trie.root.clone();
        let changes = trie.pending.changes(&root);
        apply(&mut root, 0, &changes, &trie.pending);
        let mut owed = Tally::default();
        if let Some(root) = &root {
            unhashed(root, false, &mut owed);
        }
        owed
    }

    #[test]
    fn a_key_overwritten_all_block_is_hashed_once_at_the_flush() {
        let mut trie = TrieBackend::new();
        let batch: Vec<_> = (0..500).map(|i| (kv(i).0, Some(kv(i).1))).collect();
        trie.commit(&batch).unwrap();
        trie.flush_block(1).unwrap();
        let (key, _) = kv(123);
        let depth = trie.prove_key(&key).siblings.len();
        assert!(depth >= 8, "500 hashed keys put a leaf {depth} levels down");

        tally::take();
        for round in 0..100u32 {
            trie.commit(&[(key.clone(), Some(round.to_be_bytes().to_vec()))]).unwrap();
        }
        assert_eq!(tally::take(), Tally::default(), "a commit hashes no node");
        trie.flush_block(2).unwrap();
        assert_eq!(tally::take(), Tally { leaves: 1, branches: depth });
    }

    #[test]
    fn a_block_hashes_each_dirty_node_once_and_a_clean_trie_none() {
        let key = |i: u32| i.to_be_bytes().to_vec();
        let mut trie = TrieBackend::new();
        let preload: Vec<_> = (0..40_000).map(|i| (key(i), Some(vec![0u8; 16]))).collect();
        trie.commit(&preload).unwrap();
        trie.flush_block(0).unwrap();
        assert_eq!(owed(&trie), Tally::default());

        // 1,024 keys in 256 commits: overwrites, fresh keys and deletes.
        for set in 0..256u32 {
            let batch = [
                (key(set * 151), Some(set.to_be_bytes().to_vec())),
                (key(set * 151 + 7), Some(vec![1u8; 16])),
                (key(50_000 + set), Some(vec![2u8; 32])),
                (key(set * 97 + 3), None),
            ];
            trie.commit(&batch).unwrap();
        }
        let owed_before = owed(&trie);
        assert!(owed_before.leaves >= 512 && owed_before.branches > 4 * owed_before.leaves);

        tally::take();
        trie.flush_block(1).unwrap();
        assert_eq!(tally::take(), owed_before, "flush hashed something other than the debt");
        assert_eq!(owed(&trie), Tally::default());
        trie.flush_block(2).unwrap();
        let root = trie.root();
        trie.prove_key(&key(151));
        assert_eq!(tally::take(), Tally::default(), "a flushed trie answers from memos");
        assert_eq!(root, map_root(&trie.entries().into_iter().collect()));
    }

    #[test]
    fn the_root_does_not_depend_on_how_many_ways_the_flush_splits() {
        // From tries too small to split (none, one and two keys) upward.
        for keys in [0u32, 1, 2, 3, 40, 3_000] {
            let batch: Vec<_> = (0..keys).map(|i| (kv(i).0, Some(kv(i).1))).collect();
            let mut flushes = Vec::new();
            for ways in [1usize, 2, 8] {
                let mut trie = TrieBackend::new();
                trie.commit(&batch).unwrap();
                let owed_before = owed(&trie);
                tally::take();
                trie.flush_with(ways);
                assert_eq!(tally::take(), owed_before, "{keys} keys, {ways} ways");
                assert_eq!(owed(&trie), Tally::default(), "{keys} keys, {ways} ways");
                flushes.push(trie.root());
            }
            let model: BTreeMap<_, _> = (0..keys).map(kv).collect();
            assert_eq!(flushes, [map_root(&model); 3], "{keys} keys");
        }
    }

    #[test]
    fn a_block_settles_as_one_key_flushes_do_on_every_split() {
        // Key lengths on both sides of SHORT_MESSAGE_MAX, so the settle
        // hashes keys in full sixteen-lane calls, in padded ones and one
        // by one.
        let key = |i: u32| {
            let mut key = i.to_be_bytes().to_vec();
            key.resize([4, 21, 55, 56, 100][i as usize % 5], 0xA5);
            key
        };
        let put = |i: u32, tag: u32| (key(i), Some(vec![tag as u8; 1 + i as usize % 7]));
        let delete = |i: u32| (key(i), None);
        // The preloaded keys whose hash starts with the `bits`-bit `prefix`.
        let under = |prefix: u8, bits: u32| -> Vec<u32> {
            (0..300)
                .filter(|&i| u32::from(sha256(&key(i))[0] >> (8 - bits)) == u32::from(prefix))
                .collect()
        };
        let all_but_first = |keys: Vec<u32>| -> Vec<BatchEntry> {
            assert!(keys.len() > 2, "{} keys under the prefix", keys.len());
            keys[1..].iter().map(|&i| delete(i)).collect()
        };
        let mut blocks: Vec<(String, Vec<BatchEntry>)> = vec![
            ("300 keys into an empty trie".into(), (0..300).map(|i| put(i, 0)).collect()),
            ("a key overwritten twice".into(), vec![put(1, 1), put(2, 1), put(1, 2)]),
            ("a key inserted, then deleted".into(), vec![put(1_000, 3), put(3, 3), delete(1_000)]),
            ("a key deleted, then inserted again".into(), vec![delete(4), put(5, 4), put(4, 4)]),
            // The survivor lifts past the split at depth 4 (four ways);
            // then, a block later, past the one at depth 3 (two ways).
            ("all but one key of a depth-3 subtree deleted".into(), all_but_first(under(0b101, 3))),
            ("all but one key of a depth-2 subtree deleted".into(), all_but_first(under(0b10, 2))),
        ];
        // Pending counts whose short keys leave a last chunk below
        // LANES_MIN, one at or above it, and whole chunks; each block
        // writes a key twice and deletes one the trie never held.
        for (n, first) in [(6u32, 400), (16, 410), (33, 430), (44, 470)] {
            let mut batch: Vec<BatchEntry> = (first..first + n).map(|i| put(i, n)).collect();
            batch.push(put(first, n + 1));
            batch.push(delete(5_000 + n));
            blocks.push((format!("{} writes", batch.len()), batch));
        }
        let probes: Vec<Vec<u8>> = (0..520).step_by(13).chain([1_000, 5_006]).map(key).collect();
        let read = |trie: &TrieBackend| {
            let proofs: Vec<_> = probes.iter().map(|key| trie.prove_key(key)).collect();
            (trie.root(), trie.entries(), proofs)
        };
        for ways in [1usize, 2, 4] {
            let mut trie = TrieBackend::new();
            let mut one_by_one = TrieBackend::new();
            for (name, batch) in &blocks {
                trie.commit(batch).unwrap();
                for entry in batch {
                    one_by_one.commit(std::slice::from_ref(entry)).unwrap();
                    one_by_one.flush_block(0).unwrap();
                }
                let mid_block = read(&trie);
                let owed_before = owed(&trie);
                tally::take();
                trie.flush_with(ways);
                assert_eq!(tally::take(), owed_before, "{name}, {ways} ways: hashed the debt");
                let flushed = read(&trie);
                let expected = read(&one_by_one);
                assert_eq!(flushed.0, expected.0, "{name}, {ways} ways: root");
                assert_eq!(flushed.1, expected.1, "{name}, {ways} ways: entries");
                assert!(flushed.2 == expected.2, "{name}, {ways} ways: proofs");
                assert!(mid_block == flushed, "{name}, {ways} ways: read before the flush");
                assert_eq!(flushed.0, map_root(&flushed.1.into_iter().collect()), "{name}");
                for (key, proof) in probes.iter().zip(&flushed.2) {
                    assert!(verify_proof(&flushed.0, key, proof).is_ok(), "{name}, {ways} ways");
                }
            }
        }
    }

    #[test]
    fn values_on_both_sides_of_the_one_block_limit_hash_like_the_scratch_root() {
        // Lengths around SHORT_MESSAGE_MAX, so most levels batch short
        // values through the kernel and hash long ones, and a chunk's
        // remainder, one by one.
        let value = |i: u32, round: u32| {
            let len = [0, 1, 54, 55, 56, 64, 200, 9, 33][((i + round) % 9) as usize];
            vec![(i ^ round) as u8; len]
        };
        let mut trie = TrieBackend::new();
        let mut model = BTreeMap::new();
        for round in 0..3u32 {
            // Round 0 inserts; later rounds overwrite with new lengths,
            // and the same length in place every ninth key.
            let batch: Vec<_> =
                (0..3_000u32).map(|i| (kv(i).0, Some(value(i, round * 9 + i % 2)))).collect();
            trie.commit(&batch).unwrap();
            model.extend(batch.into_iter().map(|(k, v)| (k, v.expect("a write"))));
            assert_eq!(trie.root(), map_root(&model), "mid-block, round {round}");
            trie.flush_block(u64::from(round)).unwrap();
            assert_eq!(trie.root(), map_root(&model), "flushed, round {round}");
        }
        let (key, _) = kv(17);
        let proof = trie.prove_key(&key);
        assert_eq!(verify_proof(&trie.root(), &key, &proof).unwrap(), model.get(&key).cloned());
    }

    #[test]
    fn deleting_an_absent_key_after_a_flush_dirties_nothing() {
        let mut trie = TrieBackend::new();
        trie.commit(&[(kv(0).0, None)]).unwrap();
        assert_eq!(trie.root(), EMPTY_ROOT);
        let batch: Vec<_> = (0..500).map(|i| (kv(i).0, Some(kv(i).1))).collect();
        trie.commit(&batch).unwrap();
        trie.flush_block(1).unwrap();
        let root = trie.root();
        // Absent keys of both kinds: a path that ends in an empty slot,
        // and one that ends at another key's leaf.
        let absent: Vec<_> = (1_000..1_100).map(|i| (kv(i).0, None)).collect();
        let claims: Vec<_> = absent.iter().map(|(key, _)| trie.prove_key(key).claim).collect();
        assert!(claims.contains(&ProofClaim::AbsentEmpty));
        assert!(claims.iter().any(|claim| matches!(claim, ProofClaim::AbsentLeaf { .. })));
        tally::take();
        trie.commit(&absent).unwrap();
        assert_eq!(owed(&trie), Tally::default(), "a delete of nothing dirtied a path");
        assert_eq!(trie.root(), root);
        assert_eq!(tally::take(), Tally::default());
    }

    /// Prints the rows of [`PARALLEL_FLUSH_MIN_KEYS`]' table: the median
    /// and quartiles of 100 flushes of `n` overwrites on a 40 000-key
    /// trie, one thread and two alternating block by block. Run it on an
    /// idle host with
    /// `cargo test --release -p pol-store --lib flush_threshold_table -- --ignored --nocapture`,
    /// and again with a spinning process on the second core for the busy
    /// row.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn flush_threshold_table() {
        let key = |i: u32| i.to_be_bytes().to_vec();
        let mut preloaded = TrieBackend::new();
        let preload: Vec<_> = (0..40_000u32).map(|i| (key(i), Some(vec![0u8; 16]))).collect();
        preloaded.commit(&preload).unwrap();
        preloaded.flush_with(1);
        for n in [16u32, 32, 64, 128, 256, 512, 1024] {
            let mut tries = [preloaded.clone(), preloaded.clone()];
            let mut micros = [Vec::new(), Vec::new()];
            for block in 0..100u32 {
                let batch: Vec<_> = (0..n)
                    .map(|j| {
                        let value = (block * n + j).to_be_bytes().to_vec();
                        (key((block * 7919 + j * 131) % 40_000), Some(value))
                    })
                    .collect();
                for turn in 0..2 {
                    let one_or_two = if block % 2 == 0 { turn } else { 1 - turn };
                    let trie = &mut tries[one_or_two];
                    trie.commit(&batch).unwrap();
                    let start = std::time::Instant::now();
                    trie.flush_with(one_or_two + 1);
                    micros[one_or_two].push(start.elapsed().as_micros());
                }
            }
            let [one, two] = micros.map(|mut m| {
                m.sort_unstable();
                format!("{} [{}, {}]", m[50], m[25], m[75])
            });
            println!("n = {n}: one thread {one} µs, two {two} µs");
        }
    }
}
