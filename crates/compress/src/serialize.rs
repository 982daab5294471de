//! Binary images of compressed layers: the accelerator's I/O-mode
//! payload.
//!
//! In I/O mode (§IV, "Central Control Unit") a DMA engine loads each PE's
//! weights, indices and pointers into its SRAMs. This module defines that
//! image: a deterministic little-endian layout with a magic/version
//! header, produced by [`EncodedLayer::to_bytes`] and consumed by
//! [`EncodedLayer::from_bytes`], which **validates every structural
//! invariant** before returning a layer (untrusted bytes never reach the
//! simulator unchecked).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "EIE1" | index_bits u8 | codebook_len u8 | pad u16
//! rows u32 | cols u32 | num_pes u32
//! codebook f32 × codebook_len
//! per PE: local_rows u32 | n_entries u32 | col_ptr u32 × (cols+1)
//!         | entries (code u8, zrun u8) × n_entries
//! ```

use std::error::Error;
use std::fmt;

use crate::cursor::{ByteCursor, Truncated};
use crate::encode::{SliceRules, ValidateLayerError};
use crate::plan::PlanBuilder;
use crate::{Codebook, EncodedLayer, Entry, ImagePlan, LayerPlan, PeSlice};

/// Magic bytes heading every layer image.
pub const MAGIC: [u8; 4] = *b"EIE1";

/// Failure to decode a layer image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeLayerError {
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The image ended before the declared payload.
    Truncated {
        /// Byte offset at which data ran out.
        offset: usize,
        /// Which section of the layout was being read (`"magic"`,
        /// `"header"`, `"codebook"`, `"pe header"`, `"col_ptr"`,
        /// `"entries"` for the CSC-nibble image; the Huffman and
        /// bit-plane codecs add `"code table"`, `"zrun table"`,
        /// `"code stream"`, `"zrun stream"`, `"code planes"` and
        /// `"zrun planes"`).
        section: &'static str,
    },
    /// A header field holds an impossible value.
    BadHeader {
        /// Which field was invalid.
        field: &'static str,
    },
    /// A compressed bitstream section is present but undecodable (an
    /// impossible prefix, an over-long code, or nonzero padding bits).
    BadStream {
        /// Which stream section was malformed.
        section: &'static str,
    },
    /// The payload decoded but violates an encoding invariant.
    Invalid(ValidateLayerError),
}

impl fmt::Display for DecodeLayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeLayerError::BadMagic => write!(f, "not an EIE layer image (bad magic)"),
            DecodeLayerError::Truncated { offset, section } => {
                write!(
                    f,
                    "layer image truncated at byte {offset} while reading {section}"
                )
            }
            DecodeLayerError::BadHeader { field } => {
                write!(f, "invalid header field: {field}")
            }
            DecodeLayerError::BadStream { section } => {
                write!(f, "malformed {section} bitstream")
            }
            DecodeLayerError::Invalid(e) => write!(f, "invalid layer contents: {e}"),
        }
    }
}

impl Error for DecodeLayerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DecodeLayerError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateLayerError> for DecodeLayerError {
    fn from(e: ValidateLayerError) -> Self {
        DecodeLayerError::Invalid(e)
    }
}

impl From<Truncated> for DecodeLayerError {
    fn from(Truncated { offset, section }: Truncated) -> Self {
        DecodeLayerError::Truncated { offset, section }
    }
}

/// The header fields every codec image shares: shape, index width and
/// the embedded codebook. Written by [`write_layer_header`] and read
/// back — validated — by [`read_layer_header`].
pub(crate) struct LayerHeader {
    pub(crate) index_bits: u32,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) num_pes: usize,
    pub(crate) codebook: Codebook,
}

impl LayerHeader {
    /// The rules every slice of this layer is checked against.
    pub(crate) fn rules(&self) -> SliceRules {
        SliceRules::new(
            self.rows,
            self.cols,
            self.num_pes,
            self.index_bits,
            &self.codebook,
        )
    }

    /// The layer's plan, with the header fields a container checks.
    pub(crate) fn with_plan(self, plan: LayerPlan) -> ImagePlan {
        ImagePlan {
            plan,
            index_bits: self.index_bits,
            codebook: self.codebook,
        }
    }
}

/// Byte length of the shared header: magic (4) + index_bits /
/// codebook_len / pad (4) + dims (12) + codebook f32s.
pub(crate) fn layer_header_bytes(layer: &EncodedLayer) -> usize {
    20 + 4 * layer.codebook().len()
}

/// Serializes the shared codec header (under the given magic).
pub(crate) fn write_layer_header(layer: &EncodedLayer, magic: &[u8; 4], out: &mut Vec<u8>) {
    out.extend_from_slice(magic);
    out.push(layer.index_bits() as u8);
    out.push(layer.codebook().len() as u8);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(layer.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(layer.cols() as u32).to_le_bytes());
    out.extend_from_slice(&(layer.num_pes() as u32).to_le_bytes());
    for &v in layer.codebook().values() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads and validates the shared codec header, rejecting a wrong magic
/// and every impossible field value.
pub(crate) fn read_layer_header(
    r: &mut ByteCursor<'_>,
    magic: &[u8; 4],
) -> Result<LayerHeader, DecodeLayerError> {
    r.enter("magic");
    if r.take(4)? != magic {
        return Err(DecodeLayerError::BadMagic);
    }
    r.enter("header");
    let index_bits = r.u8()? as u32;
    if !(1..=8).contains(&index_bits) {
        return Err(DecodeLayerError::BadHeader {
            field: "index_bits",
        });
    }
    let codebook_len = r.u8()? as usize;
    if !(2..=crate::CODEBOOK_SIZE).contains(&codebook_len) {
        return Err(DecodeLayerError::BadHeader {
            field: "codebook_len",
        });
    }
    let _pad = r.u16()?;
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let num_pes = r.u32()? as usize;
    if rows == 0 || cols == 0 {
        return Err(DecodeLayerError::BadHeader { field: "dims" });
    }
    if num_pes == 0 || num_pes > 1 << 20 {
        return Err(DecodeLayerError::BadHeader { field: "num_pes" });
    }

    r.enter("codebook");
    let mut values = Vec::with_capacity(codebook_len);
    for _ in 0..codebook_len {
        values.push(r.f32()?);
    }
    if values[0] != 0.0 || values[1..].iter().any(|v| !v.is_finite() || *v == 0.0) {
        return Err(DecodeLayerError::BadHeader { field: "codebook" });
    }
    Ok(LayerHeader {
        index_bits,
        rows,
        cols,
        num_pes,
        codebook: Codebook::from_centroids(&values[1..]),
    })
}

impl EncodedLayer {
    /// Exact byte length of [`EncodedLayer::to_bytes`]' image, computed
    /// from the layout arithmetic without serializing — the unit a
    /// serving registry charges against its residency budget.
    pub fn image_bytes(&self) -> usize {
        // magic (4) + index_bits/codebook_len/pad (4) + dims (12).
        let header = 20;
        let codebook = 4 * self.codebook().len();
        let slices: usize = self
            .slices()
            .iter()
            .map(|s| 8 + 4 * (self.cols() + 1) + 2 * s.num_entries())
            .sum();
        header + codebook + slices
    }

    /// Serializes the layer into its I/O-mode binary image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.total_entries() * 2);
        write_layer_header(self, &MAGIC, &mut out);
        for slice in self.slices() {
            out.extend_from_slice(&(slice.local_rows() as u32).to_le_bytes());
            out.extend_from_slice(&(slice.num_entries() as u32).to_le_bytes());
            for &p in slice.col_ptr() {
                out.extend_from_slice(&p.to_le_bytes());
            }
            for e in slice.entries() {
                out.push(e.code);
                out.push(e.zrun);
            }
        }
        out
    }

    /// Deserializes and **validates** a layer image.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeLayerError`] on malformed bytes or any encoding
    /// invariant violation.
    pub fn from_bytes(bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
        let mut r = ByteCursor::new(bytes, "magic");
        let h = read_layer_header(&mut r, &MAGIC)?;
        let slices = read_slices(&mut r, &h)?
            .into_iter()
            .map(|s| {
                let entries = s.entries.iter().map(|&[code, zrun]| Entry { code, zrun });
                let col_ptr = s.col_ptr.iter().map(|&p| u32::from_le_bytes(p));
                PeSlice::from_raw_parts(entries.collect(), col_ptr.collect(), s.local_rows)
            })
            .collect();
        let layer = EncodedLayer::from_raw_parts(h.rows, h.cols, h.index_bits, h.codebook, slices);
        layer.validate()?;
        Ok(layer)
    }
}

/// One PE slice of an `EIE1` image, borrowed in place.
struct RawSlice<'a> {
    local_rows: usize,
    col_ptr: &'a [[u8; 4]],
    entries: &'a [[u8; 2]],
}

/// Walks the per-PE sections of an `EIE1` image, borrowing each slice's
/// pointers and entries in place: every count is checked against the
/// bytes present before anything is reserved, and the local row counts
/// must cover the layer.
fn read_slices<'a>(
    r: &mut ByteCursor<'a>,
    h: &LayerHeader,
) -> Result<Vec<RawSlice<'a>>, DecodeLayerError> {
    // Every PE costs at least its 8-byte header, which bounds the
    // reservation by the input length whatever `num_pes` claims.
    let mut slices = Vec::with_capacity(h.num_pes.min(r.remaining() / 8 + 1));
    let mut total_local = 0usize;
    for _ in 0..h.num_pes {
        r.enter("pe header");
        let local_rows = r.u32()? as usize;
        total_local += local_rows;
        let n_entries = r.u32()? as usize;
        r.enter("col_ptr");
        let col_ptr = r.records(h.cols + 1)?;
        r.enter("entries");
        let entries = r.records(n_entries)?;
        slices.push(RawSlice {
            local_rows,
            col_ptr,
            entries,
        });
    }
    if total_local != h.rows {
        return Err(DecodeLayerError::BadHeader {
            field: "local_rows",
        });
    }
    Ok(slices)
}

/// Decodes an `EIE1` image straight into its plan: the slices' entry
/// bytes are checked and scattered where they lie, and no
/// [`EncodedLayer`] is built. Accepts exactly the images
/// [`EncodedLayer::from_bytes`] accepts, with the same first error.
pub(crate) fn plan_from_bytes(
    bytes: &[u8],
    min_blocks: usize,
) -> Result<ImagePlan, DecodeLayerError> {
    let mut r = ByteCursor::new(bytes, "magic");
    let h = read_layer_header(&mut r, &MAGIC)?;
    let slices = read_slices(&mut r, &h)?;
    let heads = slices
        .iter()
        .map(|s| (s.local_rows, s.col_ptr, s.entries.len()));
    let mut builder = PlanBuilder::new(h.rules(), &h.codebook, min_blocks, heads);
    for (pe, s) in slices.iter().enumerate() {
        builder.push(pe, s.local_rows, s.col_ptr, s.entries)?;
    }
    Ok(h.with_plan(builder.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CompressConfig};
    use eie_nn::zoo::random_sparse;

    fn sample() -> EncodedLayer {
        let m = random_sparse(48, 32, 0.2, 5);
        compress(&m, CompressConfig::with_pes(4))
    }

    #[test]
    fn roundtrip_is_identity() {
        let layer = sample();
        let bytes = layer.to_bytes();
        let back = EncodedLayer::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, layer);
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let layer = sample();
        let back = EncodedLayer::from_bytes(&layer.to_bytes()).unwrap();
        let acts: Vec<f32> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        assert_eq!(layer.spmv_f32(&acts), back.spmv_f32(&acts));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            EncodedLayer::from_bytes(&bytes),
            Err(DecodeLayerError::BadMagic)
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample().to_bytes();
        // Every strict prefix must fail cleanly (never panic).
        for cut in [4usize, 8, 16, 40, bytes.len() / 2, bytes.len() - 1] {
            let r = EncodedLayer::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn truncation_names_the_section_at_every_boundary() {
        let layer = sample();
        let bytes = layer.to_bytes();
        // Walk the layout, computing each section's byte range, and
        // require that a cut inside each section is attributed to it.
        // magic 0..4 | header 4..20 | codebook .. | per PE:
        // pe header (8) | col_ptr (4·(cols+1)) | entries (2·n).
        let cb_end = 20 + 4 * layer.codebook().len();
        let mut expectations = vec![
            (2usize, "magic"),
            (4, "header"),
            (19, "header"),
            (cb_end - 1, "codebook"),
        ];
        let mut pos = cb_end;
        for slice in layer.slices() {
            expectations.push((pos + 7, "pe header"));
            pos += 8;
            expectations.push((pos + 3, "col_ptr"));
            pos += 4 * (layer.cols() + 1);
            if slice.num_entries() > 0 {
                expectations.push((pos + 1, "entries"));
            }
            pos += 2 * slice.num_entries();
        }
        assert_eq!(pos, bytes.len(), "layout walk disagrees with image size");
        for (cut, want) in expectations {
            match EncodedLayer::from_bytes(&bytes[..cut]) {
                Err(DecodeLayerError::Truncated { offset, section }) => {
                    assert_eq!(section, want, "cut at byte {cut}");
                    assert!(offset <= cut, "offset {offset} past the cut {cut}");
                }
                other => panic!("cut at {cut}: expected truncation in {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_corrupted_entry_fields() {
        let layer = sample();
        let bytes = layer.to_bytes();
        // Corrupt the very last entry's zrun (layout puts entries last).
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 1] = 0xFF;
        let err = EncodedLayer::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, DecodeLayerError::Invalid(_)),
            "expected invalid-content error, got {err:?}"
        );
    }

    #[test]
    fn rejects_zero_codebook_entry_zero_violation() {
        let layer = sample();
        let mut bytes = layer.to_bytes();
        // Codebook starts at offset 20; entry 0 must be exactly 0.0.
        bytes[20..24].copy_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            EncodedLayer::from_bytes(&bytes),
            Err(DecodeLayerError::BadHeader { field: "codebook" })
        );
    }

    #[test]
    fn error_display_and_source() {
        let e = DecodeLayerError::Invalid(ValidateLayerError::CodeOutOfRange { pe: 1, entry: 2 });
        assert!(e.to_string().contains("invalid layer contents"));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }

    #[test]
    fn image_bytes_matches_serialized_length() {
        for (rows, cols, density, pes) in [(48, 32, 0.2, 4), (7, 5, 0.6, 2), (64, 48, 0.05, 8)] {
            let m = random_sparse(rows, cols, density, rows as u64);
            let layer = compress(&m, CompressConfig::with_pes(pes));
            assert_eq!(
                layer.image_bytes(),
                layer.to_bytes().len(),
                "{rows}×{cols} @ {pes} PEs"
            );
        }
    }

    #[test]
    fn image_size_is_compact() {
        let layer = sample();
        let bytes = layer.to_bytes();
        // Must stay within ~3x of the ideal entry payload (pointers and
        // header dominate at this small size).
        let ideal = layer.total_entries() * 2;
        assert!(bytes.len() < ideal * 3 + 4 * 4 * (32 + 1) + 128);
    }
}
