//! The append-only write-ahead-log backend with periodic snapshots and
//! crash-restart replay.
//!
//! On-disk layout under the backend's directory:
//!
//! ```text
//! wal.bin       append-only commit log
//! snapshot.bin  full state image, rolled by the snapshot policy
//! ```
//!
//! **Log record** (one per [`StateBackend::commit`], so a batch is the
//! atomicity unit):
//!
//! ```text
//! 0xC1 ‖ seq:u64 ‖ n:u32 ‖ n × (klen:u32 ‖ key ‖ flag:u8 ‖ [vlen:u32 ‖ value]) ‖ check:8
//! ```
//!
//! `check` is the first 8 bytes of `sha256` over everything before it.
//! Replay stops at the first incomplete or corrupt record and truncates
//! the file there: a crash mid-append loses at most the interrupted
//! commit and never tears an earlier one — the property the
//! crash-restart proptest pins by killing the log at arbitrary byte
//! offsets.
//!
//! **Snapshot** (`POLSNAP1` magic): the full entry set as of commit
//! `seq`, written to a temp file and atomically renamed. After a
//! snapshot the log is truncated; records with `seq` at or below the
//! snapshot's are skipped on replay, so a crash between rename and
//! truncate is harmless. The policy is block-aligned: `flush_block`
//! rolls a snapshot once `snapshot_every` commits have accumulated in
//! the log, so restart cost stays bounded no matter how long the chain
//! runs.

use crate::{BatchEntry, MemoryBackend, StateBackend, StoreError};
use pol_crypto::sha256;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const RECORD_MAGIC: u8 = 0xC1;
const SNAPSHOT_MAGIC: &[u8; 8] = b"POLSNAP1";
const CHECK_LEN: usize = 8;

/// The write-ahead-log backend: a log in front of a [`MemoryBackend`].
/// All reads are served from the in-memory image; the log and snapshot
/// files exist to rebuild that image after a restart (clean or crashed).
pub struct WalBackend {
    dir: PathBuf,
    image: MemoryBackend,
    log: File,
    /// Monotone commit sequence number (1-based; 0 = nothing committed).
    commit_seq: u64,
    /// Commit seq the current snapshot covers (0 = no snapshot).
    snapshot_seq: u64,
    /// Records currently in the log (commits since the last snapshot).
    commits_in_log: u64,
    snapshot_every: u64,
}

impl std::fmt::Debug for WalBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalBackend")
            .field("dir", &self.dir)
            .field("entries", &self.image.len())
            .field("commit_seq", &self.commit_seq)
            .field("snapshot_seq", &self.snapshot_seq)
            .finish()
    }
}

fn check_of(payload: &[u8]) -> [u8; CHECK_LEN] {
    let digest = sha256(payload);
    let mut out = [0u8; CHECK_LEN];
    out.copy_from_slice(&digest[..CHECK_LEN]);
    out
}

fn push_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(bytes);
}

/// Encodes one commit batch as a log record (checksum included).
fn encode_record(seq: u64, batch: &[BatchEntry]) -> Vec<u8> {
    let mut buf = vec![RECORD_MAGIC];
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&(batch.len() as u32).to_be_bytes());
    for (key, value) in batch {
        push_bytes(&mut buf, key);
        match value {
            Some(v) => {
                buf.push(1);
                push_bytes(&mut buf, v);
            }
            None => buf.push(0),
        }
    }
    let check = check_of(&buf);
    buf.extend_from_slice(&check);
    buf
}

/// Cursor-based reader over a byte buffer; `None` = ran off the end.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// One decoded log record.
struct Record {
    seq: u64,
    batch: Vec<BatchEntry>,
    /// Byte offset just past this record.
    end: usize,
}

/// Decodes the record starting at `at`; `None` for a torn, corrupt or
/// absent record (replay stops there).
fn decode_record(bytes: &[u8], at: usize) -> Option<Record> {
    let mut cur = Cursor { bytes, at };
    if *cur.take(1)?.first()? != RECORD_MAGIC {
        return None;
    }
    let seq = cur.u64()?;
    let n = cur.u32()? as usize;
    let mut batch = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let klen = cur.u32()? as usize;
        let key = cur.take(klen)?.to_vec();
        let flag = *cur.take(1)?.first()?;
        let value = match flag {
            0 => None,
            1 => {
                let vlen = cur.u32()? as usize;
                Some(cur.take(vlen)?.to_vec())
            }
            _ => return None,
        };
        batch.push((key, value));
    }
    let payload_end = cur.at;
    let check: [u8; CHECK_LEN] = cur.take(CHECK_LEN)?.try_into().ok()?;
    if check != check_of(&bytes[at..payload_end]) {
        return None;
    }
    Some(Record { seq, batch, end: cur.at })
}

impl WalBackend {
    /// Opens (or creates) a WAL store under `dir`, replaying
    /// `snapshot.bin` and then every intact `wal.bin` record. A torn or
    /// corrupt log tail is truncated away; the state observed is exactly
    /// the longest durable commit prefix.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Corrupt`] when the snapshot itself
    /// (not the log tail) fails validation.
    pub fn open(dir: impl AsRef<Path>, snapshot_every: u64) -> Result<WalBackend, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let snapshot_path = dir.join("snapshot.bin");
        let log_path = dir.join("wal.bin");

        let (mut image, snapshot_seq) = if snapshot_path.exists() {
            load_snapshot(&snapshot_path)?
        } else {
            (MemoryBackend::new(), 0)
        };

        let mut log = OpenOptions::new().create(true).read(true).append(true).open(&log_path)?;
        let mut bytes = Vec::new();
        log.seek(SeekFrom::Start(0))?;
        log.read_to_end(&mut bytes)?;

        let mut at = 0usize;
        let mut commit_seq = snapshot_seq;
        let mut commits_in_log = 0u64;
        while let Some(record) = decode_record(&bytes, at) {
            at = record.end;
            // A crash between snapshot-rename and log-truncate leaves
            // already-snapshotted records behind: skip, don't re-apply.
            if record.seq <= snapshot_seq {
                continue;
            }
            for (key, value) in record.batch {
                image.apply(key, value);
            }
            commit_seq = record.seq;
            commits_in_log += 1;
        }
        if at < bytes.len() {
            // Torn tail: drop the partial record so future appends start
            // on a clean boundary.
            log.set_len(at as u64)?;
            log.seek(SeekFrom::End(0))?;
        }

        Ok(WalBackend {
            dir,
            image,
            log,
            commit_seq,
            snapshot_seq,
            commits_in_log,
            snapshot_every: snapshot_every.max(1),
        })
    }

    /// The last durable commit sequence number (0 before any commit).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// The commit sequence covered by the on-disk snapshot (0 = none).
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Writes a full snapshot now and truncates the log. Called by the
    /// block-boundary policy; also available for explicit checkpoints.
    ///
    /// # Errors
    ///
    /// I/O failures while writing or renaming the snapshot.
    pub(crate) fn snapshot_now(&mut self) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&self.commit_seq.to_be_bytes());
        buf.extend_from_slice(&(self.image.len() as u64).to_be_bytes());
        for (key, value) in self.image.iter() {
            push_bytes(&mut buf, key);
            push_bytes(&mut buf, value);
        }
        let check = check_of(&buf);
        buf.extend_from_slice(&check);

        let tmp = self.dir.join("snapshot.tmp");
        let fin = self.dir.join("snapshot.bin");
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, &fin)?;
        self.snapshot_seq = self.commit_seq;
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::End(0))?;
        self.commits_in_log = 0;
        Ok(())
    }
}

fn load_snapshot(path: &Path) -> Result<(MemoryBackend, u64), StoreError> {
    let bytes = std::fs::read(path)?;
    let corrupt = |msg: &str| StoreError::Corrupt(format!("{}: {msg}", path.display()));
    if bytes.len() < SNAPSHOT_MAGIC.len() + 16 + CHECK_LEN {
        return Err(corrupt("snapshot shorter than header"));
    }
    let (payload, check) = bytes.split_at(bytes.len() - CHECK_LEN);
    if check != check_of(payload) {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    let mut cur = Cursor { bytes: payload, at: 0 };
    if cur.take(SNAPSHOT_MAGIC.len()) != Some(SNAPSHOT_MAGIC.as_slice()) {
        return Err(corrupt("bad snapshot magic"));
    }
    let seq = cur.u64().ok_or_else(|| corrupt("truncated seq"))?;
    let count = cur.u64().ok_or_else(|| corrupt("truncated count"))?;
    let mut image = MemoryBackend::new();
    for _ in 0..count {
        let klen = cur.u32().ok_or_else(|| corrupt("truncated key length"))? as usize;
        let key = cur.take(klen).ok_or_else(|| corrupt("truncated key"))?.to_vec();
        let vlen = cur.u32().ok_or_else(|| corrupt("truncated value length"))? as usize;
        let value = cur.take(vlen).ok_or_else(|| corrupt("truncated value"))?.to_vec();
        image.apply(key, Some(value));
    }
    if cur.at != payload.len() {
        return Err(corrupt("trailing bytes after entries"));
    }
    Ok((image, seq))
}

impl StateBackend for WalBackend {
    fn name(&self) -> &'static str {
        "wal"
    }

    fn commit(&mut self, batch: &[BatchEntry]) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        let seq = self.commit_seq + 1;
        let record = encode_record(seq, batch);
        // Durability point: the record hits the log before the in-memory
        // image changes, so a crash right here replays cleanly either way.
        self.log.write_all(&record)?;
        self.commit_seq = seq;
        self.commits_in_log += 1;
        self.image.commit(batch)
    }

    fn root(&self) -> [u8; 32] {
        self.image.root()
    }

    fn flush_block(&mut self, _height: u64) -> Result<(), StoreError> {
        self.log.flush()?;
        if self.commits_in_log >= self.snapshot_every {
            self.snapshot_now()?;
        }
        Ok(())
    }

    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.image.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pol-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put(k: &str, v: &str) -> BatchEntry {
        (k.as_bytes().to_vec(), Some(v.as_bytes().to_vec()))
    }

    fn del(k: &str) -> BatchEntry {
        (k.as_bytes().to_vec(), None)
    }

    fn get(wal: &WalBackend, k: &str) -> Option<Vec<u8>> {
        wal.entries().into_iter().find(|(key, _)| key == k.as_bytes()).map(|(_, v)| v)
    }

    #[test]
    fn clean_restart_replays_log() {
        let dir = temp_dir("clean");
        let root = {
            let mut wal = WalBackend::open(&dir, 1_000).unwrap();
            wal.commit(&[put("a", "1"), put("b", "2")]).unwrap();
            wal.commit(&[del("a"), put("c", "3")]).unwrap();
            wal.root()
        };
        let reopened = WalBackend::open(&dir, 1_000).unwrap();
        assert_eq!(reopened.commit_seq(), 2);
        assert_eq!(get(&reopened, "a"), None);
        assert_eq!(get(&reopened, "b"), Some(b"2".to_vec()));
        assert_eq!(get(&reopened, "c"), Some(b"3".to_vec()));
        assert_eq!(reopened.root(), root);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_then_restart_skips_replayed_records() {
        let dir = temp_dir("snap");
        {
            let mut wal = WalBackend::open(&dir, 2).unwrap();
            wal.commit(&[put("a", "1")]).unwrap();
            wal.commit(&[put("b", "2")]).unwrap();
            wal.flush_block(1).unwrap(); // rolls a snapshot (2 >= 2)
            assert_eq!(wal.snapshot_seq(), 2);
            wal.commit(&[put("c", "3")]).unwrap();
        }
        let reopened = WalBackend::open(&dir, 2).unwrap();
        assert_eq!(reopened.snapshot_seq(), 2);
        assert_eq!(reopened.commit_seq(), 3);
        assert_eq!(reopened.image.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_loses_only_the_interrupted_commit() {
        let dir = temp_dir("torn");
        let (mid_root, full_len) = {
            let mut wal = WalBackend::open(&dir, 1_000).unwrap();
            wal.commit(&[put("a", "1")]).unwrap();
            let mid = wal.root();
            wal.commit(&[put("b", "2")]).unwrap();
            (mid, std::fs::metadata(dir.join("wal.bin")).unwrap().len())
        };
        // Chop 3 bytes off the second record: it must be dropped whole.
        let log_path = dir.join("wal.bin");
        let log = OpenOptions::new().write(true).open(&log_path).unwrap();
        log.set_len(full_len - 3).unwrap();
        drop(log);
        let reopened = WalBackend::open(&dir, 1_000).unwrap();
        assert_eq!(reopened.commit_seq(), 1, "partial record must not apply");
        assert_eq!(get(&reopened, "b"), None);
        assert_eq!(reopened.root(), mid_root);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_flipped_byte_stops_replay_at_prefix() {
        let dir = temp_dir("flip");
        {
            let mut wal = WalBackend::open(&dir, 1_000).unwrap();
            wal.commit(&[put("a", "1")]).unwrap();
            wal.commit(&[put("b", "2")]).unwrap();
        }
        let log_path = dir.join("wal.bin");
        let mut bytes = std::fs::read(&log_path).unwrap();
        let mid = bytes.len() / 2 + 4; // inside the second record
        bytes[mid] ^= 0xFF;
        std::fs::write(&log_path, &bytes).unwrap();
        let reopened = WalBackend::open(&dir, 1_000).unwrap();
        assert_eq!(reopened.commit_seq(), 1);
        assert_eq!(get(&reopened, "a"), Some(b"1".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_torn_recovery_stay_intact() {
        let dir = temp_dir("resume");
        {
            let mut wal = WalBackend::open(&dir, 1_000).unwrap();
            wal.commit(&[put("a", "1")]).unwrap();
            wal.commit(&[put("b", "2")]).unwrap();
        }
        let log_path = dir.join("wal.bin");
        let len = std::fs::metadata(&log_path).unwrap().len();
        OpenOptions::new().write(true).open(&log_path).unwrap().set_len(len - 1).unwrap();
        {
            let mut wal = WalBackend::open(&dir, 1_000).unwrap();
            assert_eq!(wal.commit_seq(), 1);
            wal.commit(&[put("c", "3")]).unwrap();
        }
        let reopened = WalBackend::open(&dir, 1_000).unwrap();
        assert_eq!(reopened.commit_seq(), 2);
        assert_eq!(get(&reopened, "c"), Some(b"3".to_vec()));
        assert_eq!(get(&reopened, "b"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
