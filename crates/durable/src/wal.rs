//! The append-only write-ahead log file: framing, appending, scanning.
//!
//! Layout: an 8-byte header magic (`"SRWAL01\n"`) followed by zero or more
//! frames, each `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
//! Appends go through [`WalWriter::append`] (buffered write + flush;
//! [`WalWriter::sync`] forces the bytes to stable storage when the caller's
//! durability contract demands it). A record whose payload exceeds the
//! frame limit is refused before any byte is written. The file is **never rewritten**: the
//! log is the system's provenance record, so compaction happens in the
//! checkpoint files ([`crate::checkpoint`]), not here.
//!
//! [`scan`] reads a log back tolerantly: it decodes frames until the first
//! invalid one — torn (truncated mid-frame, the classic crash artifact),
//! checksum-mismatched (bit rot or a torn payload), or undecodable — and
//! reports that frame's **absolute byte offset** in a typed
//! [`StratRecError::WalCorrupt`], together with the prefix of records that
//! *are* valid. Crash recovery applies the prefix and truncates the tail;
//! nothing panics on a corrupt log.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use stratrec_core::error::StratRecError;

use crate::crc::crc32;
use crate::record::WalRecord;
use crate::{DurableError, Result};

/// The WAL header magic: file format + version in 8 bytes.
pub const WAL_MAGIC: &[u8; 8] = b"SRWAL01\n";

/// Bytes of the fixed file header (the magic).
pub const WAL_HEADER_LEN: u64 = 8;

/// Bytes of a frame header (`payload_len` + `crc`).
const FRAME_HEADER_LEN: u64 = 8;

/// Frames whose declared payload exceeds this are rejected as corrupt even
/// if the file happens to be long enough — a bit-flipped length field must
/// not trigger a gigabyte allocation.
const MAX_PAYLOAD_LEN: u32 = 1 << 26; // 64 MiB

/// The file name of the log inside a durable-catalog directory.
pub const WAL_FILE_NAME: &str = "wal.log";

/// Appends framed records to a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    len: u64,
    /// Largest payload an append accepts: [`MAX_PAYLOAD_LEN`], the limit
    /// [`scan`] enforces. Tests lower it to reach the refusal cheaply.
    max_payload: u32,
}

impl WalWriter {
    /// Creates a fresh log at `path` (truncating any previous file) and
    /// writes the header.
    pub fn create(path: &Path) -> Result<Self> {
        let file = File::create(path)
            .map_err(|e| DurableError::io(format!("create {}", path.display()), e))?;
        let mut writer = Self {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            len: 0,
            max_payload: MAX_PAYLOAD_LEN,
        };
        writer.write_all(WAL_MAGIC)?;
        writer.flush()?;
        Ok(writer)
    }

    /// Re-opens an existing log for appending after crash recovery,
    /// truncating it to `valid_len` first — the corrupt tail (if any) is
    /// discarded so new appends extend the valid prefix.
    pub fn open_truncated(path: &Path, valid_len: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| DurableError::io(format!("open {}", path.display()), e))?;
        file.set_len(valid_len)
            .map_err(|e| DurableError::io(format!("truncate {}", path.display()), e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| DurableError::io(format!("seek {}", path.display()), e))?;
        Ok(Self {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            len: valid_len,
            max_payload: MAX_PAYLOAD_LEN,
        })
    }

    /// Appends one framed record and flushes it to the operating system,
    /// returning the byte offset the frame starts at. Call [`Self::sync`]
    /// afterwards to force it to stable storage.
    ///
    /// # Errors
    ///
    /// [`DurableError::RecordTooLarge`] when the encoded record exceeds the
    /// 64 MiB frame limit [`scan`] accepts; nothing is written, so the log
    /// stays valid. I/O failures otherwise.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        self.append_payload(&record.encode())
    }

    /// Frames and writes one encoded payload, refusing it before any byte
    /// is written when [`scan`] would reject its length: a frame written
    /// past the limit would read back as corrupt, and recovery would
    /// truncate it together with every committed record after it.
    fn append_payload(&mut self, payload: &[u8]) -> Result<u64> {
        let offset = self.len;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= self.max_payload)
            .ok_or(DurableError::RecordTooLarge {
                len: payload.len(),
                max: self.max_payload as usize,
            })?;
        self.write_all(&len.to_le_bytes())?;
        self.write_all(&crc32(payload).to_le_bytes())?;
        self.write_all(payload)?;
        self.flush()?;
        Ok(offset)
    }

    /// Lowers the payload limit to `max`, so a test can provoke
    /// [`DurableError::RecordTooLarge`] without a 64 MiB record.
    #[cfg(test)]
    pub(crate) fn set_max_payload(&mut self, max: u32) {
        assert!(max <= MAX_PAYLOAD_LEN, "the limit may only be lowered");
        self.max_payload = max;
    }

    /// Forces everything appended so far to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| DurableError::io(format!("sync {}", self.path.display()), e))
    }

    /// Bytes written so far (header + frames).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames yet (header only or empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .write_all(bytes)
            .map_err(|e| DurableError::io(format!("append to {}", self.path.display()), e))?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| DurableError::io(format!("flush {}", self.path.display()), e))
    }
}

/// The result of scanning a log: the valid record prefix, how far it
/// extends, and what (if anything) stopped the scan.
#[derive(Debug)]
pub struct WalScan {
    /// The decoded records of the valid prefix, each with the absolute byte
    /// offset its frame starts at.
    pub records: Vec<(u64, WalRecord)>,
    /// Length in bytes of the valid prefix (header included). Re-opening
    /// the log for appending truncates to this.
    pub valid_len: u64,
    /// The typed corruption that ended the scan, or `None` when the whole
    /// file is valid. The offset inside names the first bad byte frame.
    pub corruption: Option<StratRecError>,
}

/// Scans the log at `path`, decoding frames until the first invalid one.
/// I/O failures (the file cannot be read at all) are errors; *corruption*
/// is not — it is reported in [`WalScan::corruption`] with the valid prefix
/// intact.
pub fn scan(path: &Path) -> Result<WalScan> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut file| file.read_to_end(&mut bytes))
        .map_err(|e| DurableError::io(format!("read {}", path.display()), e))?;
    Ok(scan_bytes(&bytes))
}

/// [`scan`] over an in-memory image of the log (the fault-injection tests
/// cut prefixes of this).
#[must_use]
pub fn scan_bytes(bytes: &[u8]) -> WalScan {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        let kind = if bytes.len() < WAL_MAGIC.len() {
            "torn header"
        } else {
            "bad magic"
        };
        return WalScan {
            records: Vec::new(),
            valid_len: 0,
            corruption: Some(StratRecError::WalCorrupt {
                offset: 0,
                kind: kind.into(),
            }),
        };
    }
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let total = bytes.len() as u64;
    loop {
        if offset == total {
            return WalScan {
                records,
                valid_len: offset,
                corruption: None,
            };
        }
        let corrupt = |kind: &str| {
            Some(StratRecError::WalCorrupt {
                offset,
                kind: kind.into(),
            })
        };
        if total - offset < FRAME_HEADER_LEN {
            return WalScan {
                records,
                valid_len: offset,
                corruption: corrupt("torn record (frame header cut short)"),
            };
        }
        let at = offset as usize;
        let payload_len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let expected_crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if payload_len > MAX_PAYLOAD_LEN {
            return WalScan {
                records,
                valid_len: offset,
                corruption: corrupt("implausible payload length"),
            };
        }
        if total - offset - FRAME_HEADER_LEN < u64::from(payload_len) {
            return WalScan {
                records,
                valid_len: offset,
                corruption: corrupt("torn record (payload cut short)"),
            };
        }
        let payload = &bytes[at + 8..at + 8 + payload_len as usize];
        if crc32(payload) != expected_crc {
            return WalScan {
                records,
                valid_len: offset,
                corruption: corrupt("checksum mismatch"),
            };
        }
        match WalRecord::decode(payload) {
            Ok(record) => records.push((offset, record)),
            Err(_) => {
                return WalScan {
                    records,
                    valid_len: offset,
                    corruption: corrupt("undecodable payload"),
                };
            }
        }
        offset += FRAME_HEADER_LEN + u64::from(payload_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn retire(slot: usize, epoch_after: u64) -> WalRecord {
        WalRecord::Retire { slot, epoch_after }
    }

    fn write_log(path: &Path, records: &[WalRecord]) -> Vec<u64> {
        let mut writer = WalWriter::create(path).unwrap();
        records
            .iter()
            .map(|record| writer.append(record).unwrap())
            .collect()
    }

    #[test]
    fn appended_records_scan_back_in_order_with_offsets() {
        let dir = TempDir::new("wal-roundtrip");
        let path = dir.path().join(WAL_FILE_NAME);
        let records = vec![retire(0, 1), retire(1, 2), retire(2, 3)];
        let offsets = write_log(&path, &records);
        assert_eq!(offsets[0], WAL_HEADER_LEN);

        let scan = scan(&path).unwrap();
        assert!(scan.corruption.is_none());
        assert_eq!(
            scan.records,
            offsets.into_iter().zip(records).collect::<Vec<_>>()
        );
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn every_torn_prefix_keeps_the_valid_records_before_the_cut() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join(WAL_FILE_NAME);
        let records = vec![retire(0, 1), retire(1, 2)];
        let offsets = write_log(&path, &records);
        let bytes = std::fs::read(&path).unwrap();

        // Frame boundaries: header end plus the end of every frame. A cut
        // exactly on a boundary loses no partial frame, so it scans clean.
        let mut boundaries = vec![WAL_HEADER_LEN];
        boundaries.extend(offsets.iter().map(|&o| scan_frame_end(&bytes, o)));

        for cut in 0..=bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            let expected_full = offsets
                .iter()
                .filter(|&&o| scan_frame_end(&bytes, o) <= cut as u64)
                .count();
            assert_eq!(scan.records.len(), expected_full, "cut at {cut}");
            assert_eq!(
                scan.corruption.is_none(),
                boundaries.contains(&(cut as u64)),
                "cut at {cut}: only boundary cuts scan clean"
            );
            // The valid prefix never reaches past the cut.
            assert!(scan.valid_len <= cut as u64);
        }
    }

    fn scan_frame_end(bytes: &[u8], offset: u64) -> u64 {
        let at = offset as usize;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        offset + FRAME_HEADER_LEN + u64::from(len)
    }

    #[test]
    fn bit_flips_are_checksum_mismatches_at_the_right_offset() {
        let dir = TempDir::new("wal-bitflip");
        let path = dir.path().join(WAL_FILE_NAME);
        let offsets = write_log(&path, &[retire(0, 1), retire(1, 2)]);
        let bytes = std::fs::read(&path).unwrap();

        // Flip one payload byte of the second record.
        let mut flipped = bytes.clone();
        let target = (offsets[1] + FRAME_HEADER_LEN) as usize;
        flipped[target] ^= 0x10;
        let scan = scan_bytes(&flipped);
        assert_eq!(scan.records.len(), 1, "the first record survives");
        assert_eq!(scan.valid_len, offsets[1]);
        match scan.corruption {
            Some(StratRecError::WalCorrupt { offset, ref kind }) => {
                assert_eq!(offset, offsets[1]);
                assert_eq!(kind, "checksum mismatch");
            }
            ref other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_or_torn_headers_invalidate_the_whole_file() {
        let scan = scan_bytes(b"SRW");
        assert_eq!(scan.valid_len, 0);
        assert!(matches!(
            scan.corruption,
            Some(StratRecError::WalCorrupt { offset: 0, ref kind }) if kind == "torn header"
        ));
        let scan = scan_bytes(b"NOTALOG!rest");
        assert!(matches!(
            scan.corruption,
            Some(StratRecError::WalCorrupt { offset: 0, ref kind }) if kind == "bad magic"
        ));
    }

    #[test]
    fn implausible_lengths_do_not_allocate() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0_u32.to_le_bytes());
        let scan = scan_bytes(&bytes);
        assert!(matches!(
            scan.corruption,
            Some(StratRecError::WalCorrupt { offset: 8, ref kind }) if kind == "implausible payload length"
        ));
    }

    #[test]
    fn an_oversized_record_is_refused_before_any_byte_is_written() {
        let dir = TempDir::new("wal-oversized");
        let path = dir.path().join(WAL_FILE_NAME);
        let mut writer = WalWriter::create(&path).unwrap();
        writer.append(&retire(0, 1)).unwrap();
        let before = writer.len();

        // Zeroed pages are not touched until read, so this stays cheap.
        let oversized = vec![0_u8; MAX_PAYLOAD_LEN as usize + 1];
        match writer.append_payload(&oversized) {
            Err(DurableError::RecordTooLarge { len, max }) => {
                assert_eq!(len, MAX_PAYLOAD_LEN as usize + 1);
                assert_eq!(max, MAX_PAYLOAD_LEN as usize);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
        assert_eq!(writer.len(), before);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);

        // The log stays valid: a later append is recovered after the first.
        writer.append(&retire(1, 2)).unwrap();
        drop(writer);
        let scan = scan(&path).unwrap();
        assert!(scan.corruption.is_none());
        let records: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, vec![retire(0, 1), retire(1, 2)]);
    }

    #[test]
    fn open_truncated_discards_the_corrupt_tail_and_appends_cleanly() {
        let dir = TempDir::new("wal-reopen");
        let path = dir.path().join(WAL_FILE_NAME);
        write_log(&path, &[retire(0, 1), retire(1, 2)]);
        // Corrupt the tail by chopping mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let first = scan(&path).unwrap();
        assert_eq!(first.records.len(), 1);
        let mut writer = WalWriter::open_truncated(&path, first.valid_len).unwrap();
        writer.append(&retire(5, 2)).unwrap();
        drop(writer);

        let rescan = scan(&path).unwrap();
        assert!(rescan.corruption.is_none());
        assert_eq!(rescan.records.len(), 2);
        assert_eq!(rescan.records[1].1, retire(5, 2));
    }
}
