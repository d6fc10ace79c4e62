//! Checksummed on-disk framing for WAL records.
//!
//! Each [`Record`] is encoded as one frame:
//!
//! ```text
//! +-------+---------+------------+------------+----------------+
//! | magic | version | len u32 LE | crc u32 LE | payload (len)  |
//! +-------+---------+------------+------------+----------------+
//! ```
//!
//! The CRC covers the payload only, so the two damage classes a real disk
//! produces stay distinguishable at scan time:
//!
//! * **Torn tail** — the image ends before a frame completes (header or
//!   payload cut short). This is what a power cut does to the write that
//!   was in flight: the record was never acknowledged as durable, so
//!   truncating it is safe and normal.
//! * **Corruption** — a frame is complete but its magic, version, CRC, or
//!   payload decoding is wrong. A fully written record never shortens on
//!   its own, so damage inside a complete frame means the medium lied
//!   about something that *was* acknowledged — the caller must assume any
//!   suffix of the log is untrustworthy and quarantine the replica.
//!
//! The scan accepts the longest valid prefix and stops at the first bad
//! frame; bytes past the stop point are never decoded, which is what makes
//! the "no poisoned read" oracle invariant hold by construction.

use bytes::Bytes;

use crate::object::{ObjectId, Version};
use crate::wal::Record;

/// First byte of every frame.
pub const MAGIC: u8 = 0xA5;
/// Framing format version.
pub const FORMAT_VERSION: u8 = 1;
/// Bytes before the payload: magic, version, len, crc.
pub const HEADER_LEN: usize = 10;

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8: `CRC_TABLES[0]`
/// is the classic byte-at-a-time table, `CRC_TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The CRC-32 checksum of `bytes`, eight bytes a step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// Payload tags, one per record variant.
const TAG_CHECKPOINT: u8 = 0;
const TAG_BEGIN: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

fn encode_payload(buf: &mut Vec<u8>, r: &Record) {
    match r {
        Record::Checkpoint { state, next_tx } => {
            buf.push(TAG_CHECKPOINT);
            put_u64(buf, *next_tx);
            buf.extend_from_slice(&(state.len() as u32).to_le_bytes());
            for (object, version, value) in state {
                put_u64(buf, object.0);
                put_u64(buf, version.0);
                put_bytes(buf, value);
            }
        }
        Record::Begin { tx } => {
            buf.push(TAG_BEGIN);
            put_u64(buf, tx.0);
        }
        Record::Put {
            tx,
            object,
            version,
            value,
        } => {
            buf.push(TAG_PUT);
            put_u64(buf, tx.0);
            put_u64(buf, object.0);
            put_u64(buf, version.0);
            put_bytes(buf, value);
        }
        Record::Prepare { tx, note } => {
            buf.push(TAG_PREPARE);
            put_u64(buf, tx.0);
            put_u64(buf, *note);
        }
        Record::Commit { tx } => {
            buf.push(TAG_COMMIT);
            put_u64(buf, tx.0);
        }
        Record::Abort { tx } => {
            buf.push(TAG_ABORT);
            put_u64(buf, tx.0);
        }
    }
}

/// The length of `r`'s frame, header included — what [`encode_into`]
/// returns for it — without encoding it.
pub fn encoded_len(r: &Record) -> usize {
    let payload = match r {
        Record::Checkpoint { state, .. } => {
            let values: usize = state.iter().map(|(.., value)| 20 + value.len()).sum();
            1 + 8 + 4 + values
        }
        Record::Put { value, .. } => 1 + 24 + 4 + value.len(),
        Record::Prepare { .. } => 1 + 16,
        Record::Begin { .. } | Record::Commit { .. } | Record::Abort { .. } => 1 + 8,
    };
    HEADER_LEN + payload
}

/// Appends the frame for `r` to `buf` and returns the frame's length.
///
/// The payload is written once, straight into `buf` behind a placeholder
/// header; `len` and `crc` are back-filled from the bytes in place.
pub fn encode_into(buf: &mut Vec<u8>, r: &Record) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[MAGIC, FORMAT_VERSION, 0, 0, 0, 0, 0, 0, 0, 0]);
    let payload_start = start + HEADER_LEN;
    encode_payload(buf, r);
    let len = (buf.len() - payload_start) as u32;
    let crc = crc32(&buf[payload_start..]);
    buf[start + 2..start + 6].copy_from_slice(&len.to_le_bytes());
    buf[start + 6..payload_start].copy_from_slice(&crc.to_le_bytes());
    buf.len() - start
}

/// A byte reader over one payload; every accessor fails soft so a
/// truncated or garbage payload decodes to `None`, never panics.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let raw = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let raw = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Option<Bytes> {
        let len = self.u32()? as usize;
        let raw = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(Bytes::copy_from_slice(raw))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let record = match r.u8()? {
        TAG_CHECKPOINT => {
            let next_tx = r.u64()?;
            let count = r.u32()? as usize;
            let mut state = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let object = ObjectId(r.u64()?);
                let version = Version(r.u64()?);
                let value = r.bytes()?;
                state.push((object, version, value));
            }
            Record::Checkpoint { state, next_tx }
        }
        TAG_BEGIN => Record::Begin {
            tx: crate::container::TxId(r.u64()?),
        },
        TAG_PUT => Record::Put {
            tx: crate::container::TxId(r.u64()?),
            object: ObjectId(r.u64()?),
            version: Version(r.u64()?),
            value: r.bytes()?,
        },
        TAG_PREPARE => Record::Prepare {
            tx: crate::container::TxId(r.u64()?),
            note: r.u64()?,
        },
        TAG_COMMIT => Record::Commit {
            tx: crate::container::TxId(r.u64()?),
        },
        TAG_ABORT => Record::Abort {
            tx: crate::container::TxId(r.u64()?),
        },
        _ => return None,
    };
    // Trailing garbage inside a checksummed payload cannot happen unless
    // the encoder and decoder disagree; treat it as corruption.
    r.done().then_some(record)
}

/// Why a scan stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanEnd {
    /// The image ended exactly on a frame boundary.
    Clean,
    /// The final frame was incomplete — a torn write. Truncating it is
    /// safe: an unfinished frame was never acknowledged as durable.
    Torn,
    /// A complete frame failed its checksum (or decoded to garbage).
    /// Acknowledged bytes are damaged; nothing after the stop point can
    /// be trusted.
    Corrupt,
}

/// The result of scanning a byte image back into records.
#[derive(Clone, Debug)]
pub struct Scan {
    /// The records of the longest valid prefix, in order.
    pub records: Vec<Record>,
    /// Byte offset in the image where each accepted record's frame starts.
    pub offsets: Vec<usize>,
    /// Why the scan stopped.
    pub end: ScanEnd,
    /// Bytes covered by the accepted records.
    pub accepted_bytes: usize,
}

/// Scans `image`, accepting the longest prefix of valid frames.
pub fn scan(image: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    let end = loop {
        if pos == image.len() {
            break ScanEnd::Clean;
        }
        let remaining = &image[pos..];
        if remaining.len() < HEADER_LEN {
            break ScanEnd::Torn;
        }
        if remaining[0] != MAGIC || remaining[1] != FORMAT_VERSION {
            break ScanEnd::Corrupt;
        }
        let len = u32::from_le_bytes(remaining[2..6].try_into().unwrap()) as usize;
        let Some(frame) = remaining.get(..HEADER_LEN + len) else {
            break ScanEnd::Torn;
        };
        let crc = u32::from_le_bytes(frame[6..10].try_into().unwrap());
        let payload = &frame[HEADER_LEN..];
        if crc32(payload) != crc {
            break ScanEnd::Corrupt;
        }
        let Some(record) = decode_payload(payload) else {
            break ScanEnd::Corrupt;
        };
        records.push(record);
        offsets.push(pos);
        pos += HEADER_LEN + len;
    };
    Scan {
        records,
        offsets,
        end,
        accepted_bytes: pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::TxId;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Checkpoint {
                state: vec![
                    (ObjectId(1), Version(3), Bytes::from_static(b"alpha")),
                    (ObjectId(2), Version(0), Bytes::new()),
                ],
                next_tx: 7,
            },
            Record::Begin { tx: TxId(7) },
            Record::Put {
                tx: TxId(7),
                object: ObjectId(1),
                version: Version(4),
                value: Bytes::from_static(b"beta"),
            },
            Record::Prepare {
                tx: TxId(7),
                note: 42,
            },
            Record::Commit { tx: TxId(7) },
            Record::Abort { tx: TxId(8) },
            // Payloads longer than the records above: a 1 KiB `Put` and a
            // `Checkpoint` of several objects.
            Record::Put {
                tx: TxId(9),
                object: ObjectId(3),
                version: Version(5),
                value: kib_value(),
            },
            Record::Checkpoint {
                state: (0..4u64)
                    .map(|i| {
                        let value = Bytes::copy_from_slice(&kib_value()[..100 * i as usize]);
                        (ObjectId(i), Version(i + 1), value)
                    })
                    .collect(),
                next_tx: 10,
            },
        ]
    }

    fn encode_all(records: &[Record]) -> Vec<u8> {
        let mut image = Vec::new();
        for r in records {
            encode_into(&mut image, r);
        }
        image
    }

    /// The byte-at-a-time CRC-32 the slice-by-8 version replaced; kept as
    /// the oracle it must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// The benchmark's 1 KiB value, `(0..1024).map(|i| i as u8)`.
    fn kib_value() -> Bytes {
        (0..1024).map(|i| i as u8).collect::<Vec<u8>>().into()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A 1 KiB value and the payload of a `Put` carrying it, computed
        // independently with Python's `zlib.crc32`.
        assert_eq!(crc32(&kib_value()), 0xB70B_4C26);
        let mut frame = Vec::new();
        let put = Record::Put {
            tx: TxId(7),
            object: ObjectId(1),
            version: Version(9),
            value: kib_value(),
        };
        assert_eq!(encode_into(&mut frame, &put), HEADER_LEN + 1_053);
        assert_eq!(crc32(&frame[HEADER_LEN..]), 0x16C9_13BF);
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        // Every phase of the 8-byte loads against the buffer, every tail.
        for offset in 0..16 {
            for len in 0..=4096 {
                let slice = &data[offset..offset + len];
                let want = crc32_bytewise(slice);
                assert_eq!(crc32(slice), want, "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn frame_bytes_are_format_v1() {
        assert_eq!(HEADER_LEN, 10);
        let mut put = Vec::new();
        let n = encode_into(
            &mut put,
            &Record::Put {
                tx: TxId(7),
                object: ObjectId(1),
                version: Version(4),
                value: Bytes::from_static(b"beta"),
            },
        );
        #[rustfmt::skip]
        let golden_put: [u8; 43] = [
            0xA5, 0x01, 0x21, 0x00, 0x00, 0x00, 0xDB, 0xF5, 0x87, 0xD0,
            0x02,
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x04, 0x00, 0x00, 0x00, 0x62, 0x65, 0x74, 0x61,
        ];
        assert_eq!(n, golden_put.len());
        assert_eq!(put, golden_put);

        // Appending after existing bytes leaves them alone and back-fills
        // the right header.
        let mut image = vec![0xEE; 3];
        let n = encode_into(&mut image, &sample_records()[0]);
        #[rustfmt::skip]
        let golden_checkpoint: [u8; 68] = [
            0xA5, 0x01, 0x3A, 0x00, 0x00, 0x00, 0x40, 0xD3, 0xAE, 0x83,
            0x00,
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x02, 0x00, 0x00, 0x00,
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x05, 0x00, 0x00, 0x00, 0x61, 0x6C, 0x70, 0x68, 0x61,
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00,
        ];
        assert_eq!(n, golden_checkpoint.len());
        assert_eq!(image[..3], [0xEE; 3]);
        assert_eq!(image[3..], golden_checkpoint);
    }

    #[test]
    fn encoded_len_is_the_length_encode_into_returns() {
        for r in sample_records() {
            let mut buf = Vec::new();
            assert_eq!(encoded_len(&r), encode_into(&mut buf, &r), "{r:?}");
            assert_eq!(encoded_len(&r), buf.len());
        }
    }

    #[test]
    fn every_record_variant_round_trips() {
        let records = sample_records();
        let scan = scan(&encode_all(&records));
        assert_eq!(scan.end, ScanEnd::Clean);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn empty_image_scans_clean() {
        let s = scan(&[]);
        assert_eq!(s.end, ScanEnd::Clean);
        assert!(s.records.is_empty());
        assert_eq!(s.accepted_bytes, 0);
    }

    #[test]
    fn any_truncation_inside_the_last_frame_is_torn() {
        let records = sample_records();
        let image = encode_all(&records);
        let mut boundaries = vec![0usize];
        let mut probe = Vec::new();
        for r in &records {
            encode_into(&mut probe, r);
            boundaries.push(probe.len());
        }
        for cut in 1..image.len() {
            let s = scan(&image[..cut]);
            if boundaries.contains(&cut) {
                assert_eq!(s.end, ScanEnd::Clean, "cut at frame boundary {cut}");
            } else {
                assert_eq!(s.end, ScanEnd::Torn, "cut mid-frame at {cut}");
            }
            // Either way the accepted prefix is exactly the complete frames.
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(s.records.len(), complete);
        }
    }

    #[test]
    fn a_flipped_payload_bit_is_corrupt_and_stops_the_scan() {
        let records = sample_records();
        let image = encode_all(&records);
        let mut boundaries = vec![0usize];
        let mut probe = Vec::new();
        for r in &records {
            encode_into(&mut probe, r);
            boundaries.push(probe.len());
        }
        // Flip one bit in every crc/payload byte of every frame; the scan
        // must stop exactly at that frame, never accept past it.
        for frame_idx in 0..records.len() {
            let (start, end) = (boundaries[frame_idx], boundaries[frame_idx + 1]);
            for byte in start + 6..end {
                let mut damaged = image.clone();
                damaged[byte] ^= 0x10;
                let s = scan(&damaged);
                assert_eq!(s.end, ScanEnd::Corrupt, "flip at byte {byte}");
                assert_eq!(s.records.len(), frame_idx);
                assert!(s.accepted_bytes <= start);
            }
        }
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut image = encode_all(&sample_records());
        image[0] = 0x00;
        let s = scan(&image);
        assert_eq!(s.end, ScanEnd::Corrupt);
        assert!(s.records.is_empty());
    }

    #[test]
    fn unknown_format_version_is_corrupt() {
        let mut image = Vec::new();
        encode_into(&mut image, &Record::Commit { tx: TxId(1) });
        image[1] = FORMAT_VERSION + 1;
        assert_eq!(scan(&image).end, ScanEnd::Corrupt);
    }
}
