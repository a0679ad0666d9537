//! The per-server collection of local files backing CSAR parallel files.

use crate::accounting::StreamUsage;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::payload::Payload;
use crate::sparse::SparseFile;
use std::collections::BTreeMap;

/// One local file of a [`StoreImage`]: `(fh, stream, extents, logical
/// size)`, each extent an `(offset, payload)` pair.
pub type FileImage = (u64, StreamKind, Vec<(u64, Payload)>, u64);

/// A serializable snapshot of one server's [`LocalStore`].
#[derive(Debug, Clone)]
pub struct StoreImage {
    /// One entry per local file.
    pub files: Vec<FileImage>,
    /// Overflow-log append cursors.
    pub cursors: Vec<(u64, StreamKind, u64)>,
}

impl ToJson for StoreImage {
    fn to_json(&self) -> Json {
        let files = self.files.iter().map(|(fh, stream, extents, size)| {
            Json::obj([
                ("fh", Json::from(*fh)),
                ("stream", stream.to_json()),
                (
                    "extents",
                    Json::Arr(
                        extents
                            .iter()
                            .map(|(off, p)| Json::Arr(vec![Json::from(*off), p.to_json()]))
                            .collect(),
                    ),
                ),
                ("size", Json::from(*size)),
            ])
        });
        let cursors = self.cursors.iter().map(|(fh, stream, cur)| {
            Json::Arr(vec![Json::from(*fh), stream.to_json(), Json::from(*cur)])
        });
        Json::obj([("files", Json::Arr(files.collect())), ("cursors", Json::Arr(cursors.collect()))])
    }
}

impl FromJson for StoreImage {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let files = j
            .field("files")?
            .as_array()
            .ok_or_else(|| JsonError("`files` must be an array".into()))?
            .iter()
            .map(|f| {
                let extents = f
                    .field("extents")?
                    .as_array()
                    .ok_or_else(|| JsonError("`extents` must be an array".into()))?
                    .iter()
                    .map(|e| {
                        let off = e
                            .at(0)
                            .as_u64()
                            .ok_or_else(|| JsonError("extent offset must be a u64".into()))?;
                        Ok((off, Payload::from_json(e.at(1))?))
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Ok((
                    f.u64_field("fh")?,
                    StreamKind::from_json(f.field("stream")?)?,
                    extents,
                    f.u64_field("size")?,
                ))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let cursors = j
            .field("cursors")?
            .as_array()
            .ok_or_else(|| JsonError("`cursors` must be an array".into()))?
            .iter()
            .map(|c| {
                let fh = c.at(0).as_u64().ok_or_else(|| JsonError("cursor fh must be a u64".into()))?;
                let cur =
                    c.at(2).as_u64().ok_or_else(|| JsonError("cursor offset must be a u64".into()))?;
                Ok((fh, StreamKind::from_json(c.at(1))?, cur))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(StoreImage { files, cursors })
    }
}

/// The local streams a CSAR I/O server keeps for one parallel file.
///
/// * `Data` — the PVFS data file (layout identical to stock PVFS).
/// * `Mirror` — RAID1 redundancy file: mirror copies of *other* servers'
///   blocks (block `b`'s mirror lives on server `home(b) + 1`).
/// * `Parity` — RAID5/Hybrid redundancy file: one parity block per parity
///   group this server is responsible for.
/// * `Overflow` — Hybrid overflow region: primary copies of
///   partial-stripe writes (append-only).
/// * `OverflowMirror` — mirror copies of the *previous* server's overflow
///   appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamKind {
    Data,
    Mirror,
    Parity,
    Overflow,
    OverflowMirror,
}

impl ToJson for StreamKind {
    fn to_json(&self) -> Json {
        Json::from(self.label())
    }
}

impl FromJson for StreamKind {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let label = j.as_str().ok_or_else(|| JsonError("stream kind must be a string".into()))?;
        StreamKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| JsonError(format!("unknown stream kind `{label}`")))
    }
}

impl StreamKind {
    /// All stream kinds, in reporting order.
    pub const ALL: [StreamKind; 5] = [
        StreamKind::Data,
        StreamKind::Mirror,
        StreamKind::Parity,
        StreamKind::Overflow,
        StreamKind::OverflowMirror,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::Data => "data",
            StreamKind::Mirror => "mirror",
            StreamKind::Parity => "parity",
            StreamKind::Overflow => "overflow",
            StreamKind::OverflowMirror => "overflow-mirror",
        }
    }
}

/// All local storage of one I/O server: `(file handle, stream) → file`.
#[derive(Debug, Clone, Default)]
pub struct LocalStore {
    files: BTreeMap<(u64, StreamKind), SparseFile>,
    /// Append cursors for the append-only overflow streams.
    overflow_cursor: BTreeMap<(u64, StreamKind), u64>,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow (creating on first touch) the file for `(fh, stream)`.
    pub fn file_mut(&mut self, fh: u64, stream: StreamKind) -> &mut SparseFile {
        self.files.entry((fh, stream)).or_default()
    }

    /// Borrow the file for `(fh, stream)` if it exists.
    pub fn file(&self, fh: u64, stream: StreamKind) -> Option<&SparseFile> {
        self.files.get(&(fh, stream))
    }

    /// Write `payload` at `off` in the given stream.
    pub fn write(&mut self, fh: u64, stream: StreamKind, off: u64, payload: Payload) {
        self.file_mut(fh, stream).write(off, payload);
    }

    /// Read `[off, off+len)` from a stream, zero-filling holes/absence.
    pub fn read(&self, fh: u64, stream: StreamKind, off: u64, len: u64) -> Payload {
        match self.file(fh, stream) {
            Some(f) => f.read_zero_filled(off, len),
            None => Payload::zeros(len as usize),
        }
    }

    /// Append to an append-only overflow stream, returning the offset the
    /// payload landed at.
    ///
    /// # Panics
    /// Panics if `stream` is not one of the overflow streams.
    pub fn append(&mut self, fh: u64, stream: StreamKind, payload: Payload) -> u64 {
        assert!(
            matches!(stream, StreamKind::Overflow | StreamKind::OverflowMirror),
            "append is only defined on overflow streams"
        );
        let cursor = self.overflow_cursor.entry((fh, stream)).or_insert(0);
        let off = *cursor;
        *cursor += payload.len();
        self.file_mut(fh, stream).write(off, payload);
        off
    }

    /// True if `[off, off+len)` of the stream was ever written.
    pub fn range_exists(&self, fh: u64, stream: StreamKind, off: u64, len: u64) -> bool {
        self.file(fh, stream)
            .map(|f| f.range_covered(off, len))
            .unwrap_or(false)
    }

    /// Logical size of a stream file (0 when absent).
    pub fn stream_size(&self, fh: u64, stream: StreamKind) -> u64 {
        self.file(fh, stream).map(SparseFile::size).unwrap_or(0)
    }

    /// Per-stream storage usage for one parallel file on this server.
    pub fn usage_for(&self, fh: u64) -> StreamUsage {
        let mut u = StreamUsage::default();
        for &stream in &StreamKind::ALL {
            if let Some(f) = self.file(fh, stream) {
                // Overflow files are append-only logs: space consumed is
                // everything ever appended (invalidation does not reclaim),
                // i.e. the logical size. Other streams are densely
                // rewritten in place: covered bytes == file size on disk.
                let bytes = match stream {
                    StreamKind::Overflow | StreamKind::OverflowMirror => f.size(),
                    _ => f.covered(),
                };
                u.add(stream, bytes);
            }
        }
        u
    }

    /// File handles present on this server.
    pub fn handles(&self) -> Vec<u64> {
        let mut hs: Vec<u64> = self.files.keys().map(|(fh, _)| *fh).collect();
        hs.dedup();
        hs
    }

    /// Total usage over all files on this server.
    pub fn usage_total(&self) -> StreamUsage {
        let mut u = StreamUsage::default();
        for ((_, stream), f) in &self.files {
            let bytes = match stream {
                StreamKind::Overflow | StreamKind::OverflowMirror => f.size(),
                _ => f.covered(),
            };
            u.add(*stream, bytes);
        }
        u
    }

    /// Reset an overflow log: drop its contents and rewind the append
    /// cursor (compaction support).
    ///
    /// # Panics
    /// Panics if `stream` is not one of the overflow streams.
    pub fn reset_log(&mut self, fh: u64, stream: StreamKind) {
        assert!(
            matches!(stream, StreamKind::Overflow | StreamKind::OverflowMirror),
            "reset_log is only defined on overflow streams"
        );
        self.files.remove(&(fh, stream));
        self.overflow_cursor.remove(&(fh, stream));
    }

    /// Snapshot everything (persistence support).
    pub fn export(&self) -> StoreImage {
        StoreImage {
            files: self
                .files
                .iter()
                .map(|((fh, stream), f)| {
                    let extents: Vec<(u64, Payload)> =
                        f.extents().map(|(o, p)| (o, p.clone())).collect();
                    (*fh, *stream, extents, f.size())
                })
                .collect(),
            cursors: self
                .overflow_cursor
                .iter()
                .map(|((fh, stream), c)| (*fh, *stream, *c))
                .collect(),
        }
    }

    /// Rebuild a store from a snapshot.
    pub fn import(image: StoreImage) -> Self {
        let mut store = LocalStore::new();
        for (fh, stream, extents, size) in image.files {
            let mut f = SparseFile::from_extents(extents);
            f.set_size_at_least(size);
            store.files.insert((fh, stream), f);
        }
        for (fh, stream, cursor) in image.cursors {
            store.overflow_cursor.insert((fh, stream), cursor);
        }
        store
    }

    /// Drop everything (server wipe, used for rebuild testing).
    pub fn clear(&mut self) {
        self.files.clear();
        self.overflow_cursor.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_of_absent_stream_is_zeros() {
        let s = LocalStore::new();
        assert_eq!(s.read(1, StreamKind::Data, 0, 4), Payload::zeros(4));
        assert!(!s.range_exists(1, StreamKind::Data, 0, 4));
    }

    #[test]
    fn write_read_roundtrip_per_stream() {
        let mut s = LocalStore::new();
        s.write(7, StreamKind::Data, 0, Payload::from_vec(vec![1, 2]));
        s.write(7, StreamKind::Parity, 0, Payload::from_vec(vec![9]));
        assert_eq!(s.read(7, StreamKind::Data, 0, 2), Payload::from_vec(vec![1, 2]));
        assert_eq!(s.read(7, StreamKind::Parity, 0, 1), Payload::from_vec(vec![9]));
        // Streams are independent.
        assert_eq!(s.read(7, StreamKind::Mirror, 0, 1), Payload::zeros(1));
    }

    #[test]
    fn append_advances_cursor_independently_per_file() {
        let mut s = LocalStore::new();
        assert_eq!(s.append(1, StreamKind::Overflow, Payload::Phantom(10)), 0);
        assert_eq!(s.append(1, StreamKind::Overflow, Payload::Phantom(5)), 10);
        assert_eq!(s.append(2, StreamKind::Overflow, Payload::Phantom(3)), 0);
        assert_eq!(s.append(1, StreamKind::OverflowMirror, Payload::Phantom(4)), 0);
        assert_eq!(s.stream_size(1, StreamKind::Overflow), 15);
    }

    #[test]
    #[should_panic(expected = "overflow streams")]
    fn append_to_data_stream_panics() {
        let mut s = LocalStore::new();
        s.append(1, StreamKind::Data, Payload::Phantom(1));
    }

    #[test]
    fn usage_accounts_overflow_as_log_size() {
        let mut s = LocalStore::new();
        s.write(1, StreamKind::Data, 0, Payload::Phantom(100));
        let off = s.append(1, StreamKind::Overflow, Payload::Phantom(50));
        // Invalidate (punch) part of the overflow log; space is NOT reclaimed.
        s.file_mut(1, StreamKind::Overflow).punch(off, 25);
        let u = s.usage_for(1);
        assert_eq!(u.get(StreamKind::Data), 100);
        assert_eq!(u.get(StreamKind::Overflow), 50);
        assert_eq!(u.total(), 150);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut s = LocalStore::new();
        s.write(1, StreamKind::Data, 5, Payload::from_vec(vec![1, 2, 3]));
        s.write(2, StreamKind::Parity, 0, Payload::Phantom(64));
        s.append(1, StreamKind::Overflow, Payload::from_vec(vec![9; 8]));
        let restored = LocalStore::import(s.export());
        assert_eq!(restored.read(1, StreamKind::Data, 5, 3), Payload::from_vec(vec![1, 2, 3]));
        assert_eq!(restored.read(2, StreamKind::Parity, 0, 64), Payload::Phantom(64));
        assert_eq!(restored.usage_for(1), s.usage_for(1));
        // Append cursor survives: next append lands after the old data.
        let mut restored = restored;
        assert_eq!(restored.append(1, StreamKind::Overflow, Payload::from_vec(vec![7])), 8);
    }

    #[test]
    fn store_image_json_roundtrip() {
        let mut s = LocalStore::new();
        s.write(1, StreamKind::Data, 5, Payload::from_vec(vec![1, 2, 3]));
        s.write(2, StreamKind::Parity, 0, Payload::Phantom(64));
        s.append(1, StreamKind::Overflow, Payload::from_vec(vec![9; 8]));
        let image = s.export();
        let text = image.to_json().to_string();
        let back = StoreImage::from_json(&Json::parse(&text).unwrap()).unwrap();
        let restored = LocalStore::import(back);
        assert_eq!(restored.read(1, StreamKind::Data, 5, 3), Payload::from_vec(vec![1, 2, 3]));
        assert_eq!(restored.read(2, StreamKind::Parity, 0, 64), Payload::Phantom(64));
        assert_eq!(restored.usage_for(1), s.usage_for(1));
    }

    #[test]
    fn usage_total_sums_files() {
        let mut s = LocalStore::new();
        s.write(1, StreamKind::Data, 0, Payload::Phantom(10));
        s.write(2, StreamKind::Data, 0, Payload::Phantom(20));
        s.write(2, StreamKind::Mirror, 0, Payload::Phantom(30));
        let u = s.usage_total();
        assert_eq!(u.get(StreamKind::Data), 30);
        assert_eq!(u.get(StreamKind::Mirror), 30);
        assert_eq!(u.total(), 60);
    }
}
