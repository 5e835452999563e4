//! Persistent log-structured backend: one append-only segment file per
//! shard, an in-memory index rebuilt on open, and batch-atomic commit
//! records — the durability story the migration executor's
//! acknowledgements were waiting for.
//!
//! The on-disk format (byte layout diagram in `docs/STORES.md`) is a
//! sequence of length-prefixed, checksummed records:
//!
//! ```text
//! record := len:u32le  crc:u64le  body[len]        crc = fnv1a(body)
//! body   := PUT    (0x01) table:u16le row:u64le vlen:u32le value[vlen]
//!         | DELETE (0x02) table:u16le row:u64le
//!         | COMMIT (0x03) ops:u32le
//! ```
//!
//! Mutations are *staged* in the log and take effect only at a `COMMIT`
//! record whose `ops` count matches the staged run — `apply_batch`
//! appends all of its op records plus the commit marker in a single
//! positioned write at the committed tail, so a crash anywhere inside the
//! batch leaves a tail that replay refuses to apply. On open, each
//! segment is scanned record by record; the first torn record (short
//! read, checksum mismatch, bad tag, or a commit whose count disagrees)
//! ends the committed prefix and the file is truncated back to it.
//! Acknowledged batches survive; torn tails are discarded — exactly the
//! all-or-nothing contract [`MemStore`] provides in memory.
//!
//! With [`LogStoreConfig::sync_commits`] on, a commit that would run past
//! the file's length first grows the file, sparsely, to the next multiple
//! of [`EXTENT`]. That commit's `fdatasync` carries the one size change;
//! the commits after it land inside the file and flush only data, where
//! an append past EOF would make every `fdatasync` journal a new inode
//! size too. The unwritten rest of the extent reads as zeros, and a zero
//! header (`len` 0, `crc` 0) fails its checksum, so replay ends there
//! like at any torn record and `open` truncates it away. Without syncing,
//! the file is exactly the committed records.
//!
//! Overwrites and deletes strand dead records in the segment; when a
//! segment exceeds [`LogStoreConfig::compact_min_bytes`] and its dead
//! fraction reaches one half (`COMPACT_DEAD_RATIO`), the shard is
//! rewritten live-records-only into a sibling `.tmp` file which is
//! fsynced and atomically renamed over the segment, and the directory is
//! fsynced so the rename itself survives a power loss.
//!
//! [`MemStore`]: crate::MemStore

use crate::fault::FaultHook;
use crate::{fnv1a, ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism_sql::TableId;
use schism_workload::TupleId;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// `len` + `crc` prefix before every record body.
const HEADER_LEN: u64 = 12;
/// Fixed part of a PUT body: tag + table + row + vlen.
const PUT_FIXED: u64 = 1 + 2 + 8 + 4;
/// Bodies larger than this are rejected as corrupt rather than allocated.
const MAX_BODY: u32 = 1 << 30;
/// Largest value `apply_batch` accepts. Anything bigger would frame a
/// record that replay rejects as corrupt (`MAX_BODY`) — i.e. a write that
/// "succeeds" but is silently discarded on reopen — so it must be refused
/// up front.
pub const MAX_VALUE_LEN: u64 = MAX_BODY as u64 - PUT_FIXED;
/// Ops per commit record during compaction (bounds staged-replay memory).
const COMPACT_OPS_PER_COMMIT: u32 = 1 << 20;
/// A segment of at least [`LogStoreConfig::compact_min_bytes`] compacts
/// when `1 - live_record_bytes / segment_bytes` reaches this fraction.
const COMPACT_DEAD_RATIO: f64 = 0.5;
/// Under [`LogStoreConfig::sync_commits`], segments grow in sparse steps
/// of this many bytes, so one commit's `fdatasync` in ~3 000 (at ~90-byte
/// records) journals a size change instead of every one of them.
pub const EXTENT: u64 = 256 << 10;
/// Every shard and fault lock is held only across index and accounting
/// updates that cannot fail and file I/O whose failures return
/// [`StoreError::Io`]. A poisoned lock therefore means a panic (a bug, or
/// a panicking [`FaultHook`]) interrupted a mutation, after which the
/// index may disagree with the segment: refusing to go on is the answer.
const POISONED: &str = "LogStore lock poisoned by a panic mid-mutation";

const TAG_PUT: u8 = 0x01;
const TAG_DELETE: u8 = 0x02;
const TAG_COMMIT: u8 = 0x03;

/// Tuning for [`LogStore`].
#[derive(Clone, Copy, Debug)]
pub struct LogStoreConfig {
    /// Segments smaller than this never compact (avoids churn on tiny
    /// shards where the rewrite costs more than the space).
    pub compact_min_bytes: u64,
    /// `fdatasync` after every commit record. Off by default: the store's
    /// crash model in tests and benches is process kill (OS page cache
    /// survives), and the executor's verify pass re-reads what it wrote.
    /// When on, segments grow in sparse [`EXTENT`]s (see the module docs).
    pub sync_commits: bool,
}

impl Default for LogStoreConfig {
    fn default() -> Self {
        Self {
            compact_min_bytes: 1 << 20,
            sync_commits: false,
        }
    }
}

/// Where a live row's payload sits in its segment.
#[derive(Clone, Copy, Debug)]
struct ValueRef {
    /// Byte offset of the value (not the record) in the segment file.
    offset: u64,
    /// Value length in bytes.
    vlen: u32,
    /// Full on-disk footprint of the PUT record (header + body).
    record_len: u64,
}

/// One staged, not-yet-committed mutation during replay.
type Staged = (TupleId, Option<ValueRef>);

/// One shard's segment file and the index over its committed records.
struct ShardLog {
    file: File,
    path: PathBuf,
    index: BTreeMap<TupleId, ValueRef>,
    /// Committed end of the segment: where the next commit is written.
    tail: u64,
    /// File length: `tail`, plus under `sync_commits` the unwritten rest
    /// of the last [`EXTENT`].
    len: u64,
    /// Sum of `vlen` over the index — what [`ShardStats::bytes`] reports.
    live_payload: u64,
    /// Sum of `record_len` over the index; `tail - live_record` is the
    /// reclaimable dead space (superseded records, commits, deletes).
    live_record: u64,
    compactions: u64,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{what} {}: {e}", path.display()))
}

fn push_record(buf: &mut Vec<u8>, body: &[u8]) {
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(body).to_le_bytes());
    buf.extend_from_slice(body);
}

fn encode_put(buf: &mut Vec<u8>, t: TupleId, value: &[u8]) {
    let mut body = Vec::with_capacity(PUT_FIXED as usize + value.len());
    body.push(TAG_PUT);
    body.extend_from_slice(&t.table.to_le_bytes());
    body.extend_from_slice(&t.row.to_le_bytes());
    body.extend_from_slice(&(value.len() as u32).to_le_bytes());
    body.extend_from_slice(value);
    push_record(buf, &body);
}

fn encode_delete(buf: &mut Vec<u8>, t: TupleId) {
    let mut body = [0u8; 11];
    body[0] = TAG_DELETE;
    body[1..3].copy_from_slice(&t.table.to_le_bytes());
    body[3..11].copy_from_slice(&t.row.to_le_bytes());
    push_record(buf, &body);
}

fn encode_commit(buf: &mut Vec<u8>, ops: u32) {
    let mut body = [0u8; 5];
    body[0] = TAG_COMMIT;
    body[1..5].copy_from_slice(&ops.to_le_bytes());
    push_record(buf, &body);
}

/// On-disk size of a committed PUT of `vlen` payload bytes.
fn put_record_len(vlen: u32) -> u64 {
    HEADER_LEN + PUT_FIXED + u64::from(vlen)
}

/// On-disk size of a COMMIT record.
fn commit_record_len() -> u64 {
    HEADER_LEN + 5
}

/// A parsed record body (values are not materialized during replay —
/// only their position is).
enum Rec {
    Put { t: TupleId, vlen: u32 },
    Delete(TupleId),
    Commit(u32),
}

/// `None` = corrupt body (bad tag or short fields) → torn tail.
fn parse_body(body: &[u8]) -> Option<Rec> {
    let tag = *body.first()?;
    let tuple = |b: &[u8]| -> Option<TupleId> {
        Some(TupleId::new(
            TableId::from_le_bytes(b.get(1..3)?.try_into().ok()?),
            u64::from_le_bytes(b.get(3..11)?.try_into().ok()?),
        ))
    };
    match tag {
        TAG_PUT => {
            let t = tuple(body)?;
            let vlen = u32::from_le_bytes(body.get(11..15)?.try_into().ok()?);
            (body.len() as u64 == PUT_FIXED + u64::from(vlen)).then_some(Rec::Put { t, vlen })
        }
        TAG_DELETE => {
            let t = tuple(body)?;
            (body.len() == 11).then_some(Rec::Delete(t))
        }
        TAG_COMMIT => {
            let ops = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?);
            (body.len() == 5).then_some(Rec::Commit(ops))
        }
        _ => None,
    }
}

impl ShardLog {
    /// Opens (or creates) the segment at `path`, replays its committed
    /// prefix into a fresh index, and truncates any torn tail.
    fn open(path: PathBuf) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open segment", &path, e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("stat segment", &path, e))?
            .len();
        let mut log = Self {
            file,
            path,
            index: BTreeMap::new(),
            tail: 0,
            len: 0,
            live_payload: 0,
            live_record: 0,
            compactions: 0,
        };
        let committed = log.replay(file_len)?;
        if committed < file_len {
            log.file
                .set_len(committed)
                .map_err(|e| io_err("truncate torn tail of", &log.path, e))?;
        }
        log.tail = committed;
        log.len = committed;
        Ok(log)
    }

    /// Scans records from the start of the just-opened file (every other
    /// access is positioned, so the cursor is still at 0), applying staged
    /// ops at each valid commit. Returns the end offset of the committed
    /// prefix.
    fn replay(&mut self, file_len: u64) -> Result<u64, StoreError> {
        let mut reader = std::io::BufReader::new(&self.file);
        let mut pos = 0u64;
        let mut committed = 0u64;
        let mut staged: Vec<Staged> = Vec::new();
        loop {
            let (mut len, mut crc) = ([0u8; 4], [0u8; 8]);
            if pos + HEADER_LEN > file_len
                || reader
                    .read_exact(&mut len)
                    .and_then(|()| reader.read_exact(&mut crc))
                    .is_err()
            {
                break; // clean EOF or torn header
            }
            let (len, crc) = (u32::from_le_bytes(len), u64::from_le_bytes(crc));
            if len > MAX_BODY || pos + HEADER_LEN + u64::from(len) > file_len {
                break; // body would run past EOF: torn
            }
            let mut body = vec![0u8; len as usize];
            if reader.read_exact(&mut body).is_err() || fnv1a(&body) != crc {
                break; // torn or bit-rotted body, or the zeros of an extent
            }
            let rec_end = pos + HEADER_LEN + u64::from(len);
            match parse_body(&body) {
                Some(Rec::Put { t, vlen }) => staged.push((
                    t,
                    Some(ValueRef {
                        offset: pos + HEADER_LEN + PUT_FIXED,
                        vlen,
                        record_len: put_record_len(vlen),
                    }),
                )),
                Some(Rec::Delete(t)) => staged.push((t, None)),
                Some(Rec::Commit(ops)) => {
                    if ops as usize != staged.len() {
                        break; // commit does not match its staged run: torn
                    }
                    for (t, vref) in staged.drain(..) {
                        apply_committed(
                            &mut self.index,
                            &mut self.live_payload,
                            &mut self.live_record,
                            t,
                            vref,
                        );
                    }
                    committed = rec_end;
                }
                None => break, // unknown tag / malformed fields: torn
            }
            pos = rec_end;
        }
        Ok(committed)
    }

    /// Writes `buf` (op records + their commit) at the committed tail.
    /// With `sync` on, a write that would cross the file's length first
    /// grows it, sparsely, to the next multiple of [`EXTENT`], so this
    /// commit's `fdatasync` carries the size change and the next ones
    /// flush only data. `fault` fires
    /// [`sync_points::LOG_SYNC`](crate::fault::sync_points) after the
    /// write but before the `fdatasync` — the commit is not acknowledged
    /// until the hook returns *and* the sync completes, so an injected
    /// stall delays the ack rather than letting it race ahead of
    /// durability.
    fn append(
        &mut self,
        buf: &[u8],
        sync: bool,
        fault: Option<(&dyn FaultHook, ShardId)>,
    ) -> Result<(), StoreError> {
        let end = self.tail + buf.len() as u64;
        if sync && end > self.len {
            let len = end.div_ceil(EXTENT) * EXTENT;
            self.file
                .set_len(len)
                .map_err(|e| io_err("extend", &self.path, e))?;
            self.len = len;
        }
        self.file
            .write_all_at(buf, self.tail)
            .map_err(|e| io_err("append to", &self.path, e))?;
        if sync {
            if let Some((hook, shard)) = fault {
                hook.at(crate::fault::sync_points::LOG_SYNC, shard);
            }
            self.file
                .sync_data()
                .map_err(|e| io_err("sync", &self.path, e))?;
        }
        self.tail = end;
        self.len = self.len.max(end);
        Ok(())
    }

    /// Reads one live value out of the segment.
    fn read_value(&self, vref: ValueRef) -> Result<Vec<u8>, StoreError> {
        let mut value = vec![0u8; vref.vlen as usize];
        self.file
            .read_exact_at(&mut value, vref.offset)
            .map_err(|e| io_err("read value from", &self.path, e))?;
        Ok(value)
    }

    /// Whether the dead fraction warrants a rewrite.
    fn needs_compaction(&self, cfg: &LogStoreConfig) -> bool {
        self.tail >= cfg.compact_min_bytes
            && (self.tail - self.live_record) as f64 >= COMPACT_DEAD_RATIO * self.tail as f64
    }

    /// Rewrites the segment live-records-only: stream every indexed row
    /// into `<segment>.tmp` (committing every [`COMPACT_OPS_PER_COMMIT`]
    /// ops), fsync, atomically rename over the segment, then fsync the
    /// directory so the rename outlives a power loss.
    fn compact(&mut self) -> Result<(), StoreError> {
        let tmp_path = {
            let mut os = self.path.clone().into_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let tmp = File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
        let mut writer = std::io::BufWriter::new(tmp);
        let mut new_index = BTreeMap::new();
        let mut new_tail = 0u64;
        let mut pending = 0u32;
        let mut buf = Vec::new();
        for (&t, &vref) in &self.index {
            let value = self.read_value(vref)?;
            buf.clear();
            encode_put(&mut buf, t, &value);
            new_index.insert(
                t,
                ValueRef {
                    offset: new_tail + HEADER_LEN + PUT_FIXED,
                    vlen: vref.vlen,
                    record_len: put_record_len(vref.vlen),
                },
            );
            new_tail += buf.len() as u64;
            pending += 1;
            if pending == COMPACT_OPS_PER_COMMIT {
                encode_commit(&mut buf, pending);
                new_tail += commit_record_len();
                pending = 0;
            }
            writer
                .write_all(&buf)
                .map_err(|e| io_err("write", &tmp_path, e))?;
        }
        if pending > 0 || new_index.is_empty() {
            buf.clear();
            encode_commit(&mut buf, pending);
            new_tail += commit_record_len();
            writer
                .write_all(&buf)
                .map_err(|e| io_err("write", &tmp_path, e))?;
        }
        let tmp = writer
            .into_inner()
            .map_err(|e| io_err("flush", &tmp_path, e.into()))?;
        tmp.sync_data().map_err(|e| io_err("sync", &tmp_path, e))?;
        std::fs::rename(&tmp_path, &self.path)
            .map_err(|e| io_err("rename compacted segment over", &self.path, e))?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen compacted", &self.path, e))?;
        self.live_record = new_index.values().map(|v| v.record_len).sum();
        self.live_payload = new_index.values().map(|v| u64::from(v.vlen)).sum();
        self.index = new_index;
        self.tail = new_tail;
        self.len = new_tail;
        self.compactions += 1;
        sync_dir(self.path.parent().unwrap_or(Path::new(".")))
    }
}

/// Makes the entries of `dir` durable: a created segment or `MANIFEST`, or
/// a compacted segment renamed over its original.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync directory", dir, e))
}

/// Applies one committed mutation to the index, keeping the live
/// payload/record accounting exact under overwrites — replay, the write
/// path, and compaction all funnel through here so the three can never
/// disagree about what a committed op does.
fn apply_committed(
    index: &mut BTreeMap<TupleId, ValueRef>,
    live_payload: &mut u64,
    live_record: &mut u64,
    t: TupleId,
    vref: Option<ValueRef>,
) {
    let prev = match vref {
        Some(v) => {
            *live_payload += u64::from(v.vlen);
            *live_record += v.record_len;
            index.insert(t, v)
        }
        None => index.remove(&t),
    };
    if let Some(old) = prev {
        *live_payload -= u64::from(old.vlen);
        *live_record -= old.record_len;
    }
}

/// Persistent log-structured [`ShardStore`]: a directory holding one
/// append-only segment file per shard plus a `MANIFEST` recording the
/// shard count.
///
/// See the [module docs](self) for the record format and recovery rules,
/// and `docs/STORES.md` for the full storage chapter.
pub struct LogStore {
    dir: PathBuf,
    cfg: LogStoreConfig,
    shards: Vec<Mutex<ShardLog>>,
    /// Optional fault-injection hook fired at the `log.sync` point (see
    /// [`set_fault_hook`](Self::set_fault_hook)).
    fault: RwLock<Option<Arc<dyn FaultHook>>>,
}

impl LogStore {
    /// Opens (creating if absent) a store of `num_shards` shards under
    /// `dir` with the default [`LogStoreConfig`]. Replays every segment's
    /// committed prefix and truncates torn tails.
    pub fn open(dir: impl AsRef<Path>, num_shards: u32) -> Result<Self, StoreError> {
        Self::with_config(dir, num_shards, LogStoreConfig::default())
    }

    /// [`open`](Self::open) with explicit tuning.
    pub fn with_config(
        dir: impl AsRef<Path>,
        num_shards: u32,
        cfg: LogStoreConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", &dir, e))?;
        let manifest = dir.join("MANIFEST");
        // Whether this open made a directory entry: then the directory is
        // synced before the store acknowledges anything.
        let mut created = false;
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                let found = text
                    .lines()
                    .find_map(|l| l.strip_prefix("shards="))
                    .and_then(|v| v.trim().parse::<u32>().ok());
                if found != Some(num_shards) {
                    return Err(StoreError::Io(format!(
                        "manifest {} declares shards={:?}, caller asked for {num_shards}",
                        manifest.display(),
                        found
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(
                    &manifest,
                    format!("schism-logstore v1\nshards={num_shards}\n"),
                )
                .map_err(|e| io_err("write", &manifest, e))?;
                created = true;
            }
            Err(e) => return Err(io_err("read", &manifest, e)),
        }
        let shards = (0..num_shards)
            .map(|s| {
                let path = Self::segment_path_in(&dir, s);
                created |= !path.exists();
                ShardLog::open(path).map(Mutex::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        if created {
            sync_dir(&dir)?;
        }
        Ok(Self {
            dir,
            cfg,
            shards,
            fault: RwLock::new(None),
        })
    }

    /// Installs (or clears) a [`FaultHook`] fired at the
    /// [`LOG_SYNC`](crate::fault::sync_points::LOG_SYNC) point: between
    /// writing a commit record and `fdatasync`ing it, for every synced
    /// commit. Only meaningful with
    /// [`sync_commits`](LogStoreConfig::sync_commits) enabled.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        *self.fault.write().expect(POISONED) = hook;
    }

    fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        self.fault.read().expect(POISONED).clone()
    }

    fn segment_path_in(dir: &Path, shard: ShardId) -> PathBuf {
        dir.join(format!("shard-{shard:04}.log"))
    }

    /// Path of `shard`'s segment file (recovery tests truncate this to
    /// simulate a kill mid-write).
    pub fn segment_path(&self, shard: ShardId) -> PathBuf {
        Self::segment_path_in(&self.dir, shard)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard(&self, shard: ShardId) -> Result<&Mutex<ShardLog>, StoreError> {
        self.shards
            .get(shard as usize)
            .ok_or(StoreError::NoSuchShard(shard))
    }

    fn locked(&self, shard: ShardId) -> Result<std::sync::MutexGuard<'_, ShardLog>, StoreError> {
        Ok(self.shard(shard)?.lock().expect(POISONED))
    }

    /// `f` summed over every shard.
    fn sum_shards(&self, f: impl Fn(&ShardLog) -> u64) -> u64 {
        self.shards
            .iter()
            .map(|s| f(&s.lock().expect(POISONED)))
            .sum()
    }

    /// Total compaction rewrites across all shards since open.
    pub fn compactions(&self) -> u64 {
        self.sum_shards(|log| log.compactions)
    }

    /// Committed size of `shard`'s segment in bytes. Under `sync_commits`
    /// the file can be longer: the sparse rest of its last [`EXTENT`].
    pub fn segment_bytes(&self, shard: ShardId) -> Result<u64, StoreError> {
        Ok(self.locked(shard)?.tail)
    }

    /// Total live payload bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.sum_shards(|log| log.live_payload)
    }

    /// Forces `fdatasync` on every segment (epoch boundaries; tests).
    pub fn sync_all(&self) -> Result<(), StoreError> {
        for s in 0..self.num_shards() {
            let guard = self.locked(s)?;
            guard
                .file
                .sync_data()
                .map_err(|e| io_err("sync", &guard.path, e))?;
        }
        Ok(())
    }

    /// Appends an encoded op run + commit and maintains the index; the
    /// single `write_all` is what makes the batch all-or-nothing under a
    /// kill (replay only applies ops covered by an intact commit). Staged
    /// put offsets arrive buffer-relative and are rebased onto the shard
    /// tail here, under the one lock acquisition that also appends — the
    /// tail is only stable while the lock is held.
    fn commit_ops(&self, shard: ShardId, buf: &[u8], ops: Vec<Staged>) -> Result<(), StoreError> {
        let hook = self.fault_hook();
        let mut guard = self.locked(shard)?;
        Self::commit_locked(&mut guard, &self.cfg, buf, ops, shard, hook.as_deref())
    }

    /// The under-lock half of [`commit_ops`](Self::commit_ops): append,
    /// index, maybe compact.
    fn commit_locked(
        log: &mut ShardLog,
        cfg: &LogStoreConfig,
        buf: &[u8],
        mut ops: Vec<Staged>,
        shard: ShardId,
        fault: Option<&dyn FaultHook>,
    ) -> Result<(), StoreError> {
        for (_, vref) in ops.iter_mut() {
            if let Some(v) = vref {
                v.offset += log.tail;
            }
        }
        log.append(buf, cfg.sync_commits, fault.map(|h| (h, shard)))?;
        for (t, vref) in ops {
            apply_committed(
                &mut log.index,
                &mut log.live_payload,
                &mut log.live_record,
                t,
                vref,
            );
        }
        if log.needs_compaction(cfg) {
            // The batch above is already durably committed and indexed; a
            // failed compaction must not turn that success into an error
            // (compact's rename is its own commit point, so a failure
            // leaves either the old or the fully rewritten segment — both
            // replay to the same state, and the next mutation retries).
            let _ = log.compact();
        }
        Ok(())
    }
}

impl ShardStore for LogStore {
    fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        let guard = self.locked(shard)?;
        match guard.index.get(&t).copied() {
            Some(vref) => Ok(Some(guard.read_value(vref)?)),
            None => Ok(None),
        }
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        self.apply_batch(shard, &[WriteOp::Put(t, value)])
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
        // Presence check and append happen under one lock acquisition so
        // the returned bool reflects a single linearization point (two
        // racing deletes must not both report `true`, as MemStore's
        // single-guard delete cannot). A delete of an absent key writes
        // nothing — matches MemStore's no-op and keeps the log from
        // growing on misses.
        let hook = self.fault_hook();
        let mut guard = self.locked(shard)?;
        if !guard.index.contains_key(&t) {
            return Ok(false);
        }
        let mut buf = Vec::new();
        encode_delete(&mut buf, t);
        encode_commit(&mut buf, 1);
        Self::commit_locked(
            &mut guard,
            &self.cfg,
            &buf,
            vec![(t, None)],
            shard,
            hook.as_deref(),
        )?;
        Ok(true)
    }

    fn scan_range(
        &self,
        shard: ShardId,
        table: TableId,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError> {
        let guard = self.locked(shard)?;
        if rows.start >= rows.end {
            return Ok(Vec::new()); // BTreeMap::range panics on start > end
        }
        guard
            .index
            .range(TupleId::new(table, rows.start)..TupleId::new(table, rows.end))
            .map(|(&t, &vref)| Ok((t, guard.read_value(vref)?)))
            .collect()
    }

    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError> {
        self.shard(shard)?; // range-check before encoding work
        let mut buf = Vec::new();
        let mut staged: Vec<Staged> = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                WriteOp::Put(t, value) => {
                    if value.len() as u64 > MAX_VALUE_LEN {
                        return Err(StoreError::Io(format!(
                            "value for tuple {t} is {} bytes; LogStore records cap at {MAX_VALUE_LEN}",
                            value.len()
                        )));
                    }
                    staged.push((
                        *t,
                        Some(ValueRef {
                            // Buffer-relative; commit_ops rebases onto the
                            // shard tail under the lock.
                            offset: buf.len() as u64 + HEADER_LEN + PUT_FIXED,
                            vlen: value.len() as u32,
                            record_len: put_record_len(value.len() as u32),
                        }),
                    ));
                    encode_put(&mut buf, *t, value);
                }
                WriteOp::Delete(t) => {
                    staged.push((*t, None));
                    encode_delete(&mut buf, *t);
                }
            }
        }
        encode_commit(&mut buf, ops.len() as u32);
        self.commit_ops(shard, &buf, staged)
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        let guard = self.locked(shard)?;
        Ok(ShardStats {
            rows: guard.index.len() as u64,
            bytes: guard.live_payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn t(row: u64) -> TupleId {
        TupleId::new(0, row)
    }

    #[test]
    fn roundtrip_and_accounting_match_contract() {
        let dir = TempDir::new("logstore-roundtrip").unwrap();
        let s = LogStore::open(dir.path(), 2).unwrap();
        s.put(0, t(5), vec![1, 2, 3]).unwrap();
        assert_eq!(s.get(0, t(5)).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(s.get(1, t(5)).unwrap(), None);
        assert_eq!(s.stats(0).unwrap(), ShardStats { rows: 1, bytes: 3 });
        s.put(0, t(5), vec![9; 10]).unwrap();
        assert_eq!(s.stats(0).unwrap(), ShardStats { rows: 1, bytes: 10 });
        assert!(s.delete(0, t(5)).unwrap());
        assert!(!s.delete(0, t(5)).unwrap(), "second delete is a no-op");
        assert_eq!(s.stats(0).unwrap(), ShardStats::default());
        assert_eq!(s.get(9, t(0)).unwrap_err(), StoreError::NoSuchShard(9));
    }

    #[test]
    fn scan_range_is_table_scoped_and_ordered() {
        let dir = TempDir::new("logstore-scan").unwrap();
        let s = LogStore::open(dir.path(), 1).unwrap();
        for row in [4u64, 1, 9] {
            s.put(0, TupleId::new(1, row), vec![row as u8]).unwrap();
        }
        s.put(0, TupleId::new(0, 2), vec![0]).unwrap();
        s.put(0, TupleId::new(2, 2), vec![0]).unwrap();
        let rows: Vec<u64> = s
            .scan_range(0, 1, 0..10)
            .unwrap()
            .iter()
            .map(|(t, _)| t.row)
            .collect();
        assert_eq!(rows, vec![1, 4, 9]);
        assert!(s.scan_range(0, 1, 4..4).unwrap().is_empty());
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 9u64..2u64;
        assert!(s.scan_range(0, 1, inverted).unwrap().is_empty());
    }

    #[test]
    fn survives_drop_and_reopen() {
        let dir = TempDir::new("logstore-reopen").unwrap();
        {
            let s = LogStore::open(dir.path(), 2).unwrap();
            s.apply_batch(
                0,
                &[
                    WriteOp::Put(t(1), vec![1; 8]),
                    WriteOp::Put(t(2), vec![2; 16]),
                    WriteOp::Delete(t(1)),
                ],
            )
            .unwrap();
            s.put(1, t(3), vec![3]).unwrap();
        }
        let s = LogStore::open(dir.path(), 2).unwrap();
        assert_eq!(s.get(0, t(1)).unwrap(), None, "delete replayed");
        assert_eq!(s.get(0, t(2)).unwrap(), Some(vec![2; 16]));
        assert_eq!(s.get(1, t(3)).unwrap(), Some(vec![3]));
        assert_eq!(s.stats(0).unwrap(), ShardStats { rows: 1, bytes: 16 });
    }

    #[test]
    fn torn_tail_is_truncated_to_last_commit() {
        let dir = TempDir::new("logstore-torn").unwrap();
        let seg;
        let committed_len;
        {
            let s = LogStore::open(dir.path(), 1).unwrap();
            s.put(0, t(1), vec![0xAA; 32]).unwrap();
            seg = s.segment_path(0);
            committed_len = s.segment_bytes(0).unwrap();
            s.put(0, t(2), vec![0xBB; 32]).unwrap();
        }
        let full = std::fs::metadata(&seg).unwrap().len();
        // Kill mid-write of the second batch: every truncation point
        // strictly inside it must recover to exactly the first batch.
        for cut in [committed_len + 1, committed_len + HEADER_LEN + 3, full - 1] {
            let bytes = std::fs::read(&seg).unwrap();
            std::fs::write(&seg, &bytes[..cut as usize]).unwrap();
            let s = LogStore::open(dir.path(), 1).unwrap();
            assert_eq!(s.get(0, t(1)).unwrap(), Some(vec![0xAA; 32]));
            assert_eq!(s.get(0, t(2)).unwrap(), None, "torn batch discarded");
            assert_eq!(s.segment_bytes(0).unwrap(), committed_len);
            // The truncated store accepts new writes.
            s.put(0, t(7), vec![7]).unwrap();
            drop(s);
            let s = LogStore::open(dir.path(), 1).unwrap();
            assert_eq!(s.get(0, t(7)).unwrap(), Some(vec![7]));
            // Restore the intact file for the next cut.
            std::fs::write(&seg, &bytes).unwrap();
        }
    }

    #[test]
    fn bit_rot_inside_committed_prefix_cuts_there() {
        let dir = TempDir::new("logstore-rot").unwrap();
        let seg;
        {
            let s = LogStore::open(dir.path(), 1).unwrap();
            s.put(0, t(1), vec![0x11; 16]).unwrap();
            s.put(0, t(2), vec![0x22; 16]).unwrap();
            seg = s.segment_path(0);
        }
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // corrupt the second batch
        std::fs::write(&seg, &bytes).unwrap();
        let s = LogStore::open(dir.path(), 1).unwrap();
        assert_eq!(s.get(0, t(1)).unwrap(), Some(vec![0x11; 16]));
        assert_eq!(s.get(0, t(2)).unwrap(), None, "corrupt batch dropped");
    }

    #[test]
    fn compaction_reclaims_dead_space_and_preserves_rows() {
        for sync_commits in [false, true] {
            let dir = TempDir::new("logstore-compact").unwrap();
            let cfg = LogStoreConfig {
                compact_min_bytes: 512,
                sync_commits,
            };
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            // Overwrite the same few keys many times: almost all records dead.
            for round in 0..50u64 {
                for row in 0..4u64 {
                    s.put(0, t(row), vec![round as u8; 64]).unwrap();
                }
            }
            assert!(s.compactions() > 0, "dead-ratio trigger fired");
            let seg = s.segment_bytes(0).unwrap();
            assert!(
                seg < 4 * (put_record_len(64) + commit_record_len()) + 512,
                "segment stays near live size, got {seg}"
            );
            for row in 0..4u64 {
                assert_eq!(s.get(0, t(row)).unwrap(), Some(vec![49; 64]));
            }
            let live = ShardStats {
                rows: 4,
                bytes: 256,
            };
            assert_eq!(s.stats(0).unwrap(), live);
            // Compacted segment replays cleanly.
            drop(s);
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            assert_eq!(s.stats(0).unwrap(), live, "sync_commits {sync_commits}");
            assert_eq!(s.get(0, t(2)).unwrap(), Some(vec![49; 64]));
        }
    }

    #[test]
    fn only_synced_segments_grow_past_the_committed_end() {
        for sync_commits in [false, true] {
            let dir = TempDir::new("logstore-extent").unwrap();
            let cfg = LogStoreConfig {
                sync_commits,
                ..LogStoreConfig::default()
            };
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            let file_len = || std::fs::metadata(s.segment_path(0)).unwrap().len();
            s.put(0, t(1), vec![1; 100]).unwrap();
            let committed = s.segment_bytes(0).unwrap();
            if sync_commits {
                assert_eq!(file_len(), EXTENT, "one sparse extent");
            } else {
                assert_eq!(file_len(), committed, "byte-for-byte the records");
            }
            // Cross the first extent: a synced segment grows by one more.
            let big = vec![2; EXTENT as usize];
            s.put(0, t(2), big.clone()).unwrap();
            let committed = s.segment_bytes(0).unwrap();
            if sync_commits {
                assert_eq!(file_len(), committed.div_ceil(EXTENT) * EXTENT);
            } else {
                assert_eq!(file_len(), committed);
            }
            // Reopening truncates the sparse rest; the rows are intact.
            drop(s);
            let s = LogStore::with_config(dir.path(), 1, cfg).unwrap();
            assert_eq!(
                std::fs::metadata(s.segment_path(0)).unwrap().len(),
                committed
            );
            assert_eq!(s.get(0, t(1)).unwrap(), Some(vec![1; 100]));
            assert_eq!(s.get(0, t(2)).unwrap(), Some(big));
        }
    }

    #[test]
    fn manifest_guards_shard_count() {
        let dir = TempDir::new("logstore-manifest").unwrap();
        LogStore::open(dir.path(), 3).unwrap();
        assert!(LogStore::open(dir.path(), 3).is_ok());
        match LogStore::open(dir.path(), 4) {
            Err(StoreError::Io(msg)) => assert!(msg.contains("shards=")),
            Err(other) => panic!("expected manifest mismatch, got {other:?}"),
            Ok(_) => panic!("manifest mismatch must not open"),
        }
    }

    #[test]
    fn empty_batch_commits_and_replays() {
        let dir = TempDir::new("logstore-empty").unwrap();
        {
            let s = LogStore::open(dir.path(), 1).unwrap();
            s.apply_batch(0, &[]).unwrap();
        }
        let s = LogStore::open(dir.path(), 1).unwrap();
        assert_eq!(s.stats(0).unwrap(), ShardStats::default());
    }
}
