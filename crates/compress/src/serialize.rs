//! What every layer image shares, whichever codec wrote it: the header
//! (magic, index width, codebook, dims) and the one decode error.
//!
//! Header layout (all integers little-endian), the start of every image:
//!
//! ```text
//! magic u8 × 4 | index_bits u8 | codebook_len u8 | pad u16
//! rows u32 | cols u32 | num_pes u32
//! codebook f32 × codebook_len
//! ```
//!
//! The per-codec layouts follow it ([`crate::codec`]); the one reader
//! of all of them **validates every structural invariant** before
//! returning a layer (untrusted bytes never reach the simulator
//! unchecked).

use std::error::Error;
use std::fmt;

use crate::cursor::{ByteCursor, Truncated};
use crate::encode::{SliceRules, ValidateLayerError};
use crate::{Codebook, EncodedLayer, ImagePlan, LayerPlan};

/// Failure to decode a layer image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeLayerError {
    /// The image does not start with its codec's magic.
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

// The header checks and the errors, through the `EIE1` image
// (`CscNibble`), whose layout is nothing but the header and the per-PE
// heads and entries.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CompressConfig, CscNibble, WeightCodec};
    use eie_nn::zoo::random_sparse;

    fn sample() -> EncodedLayer {
        let m = random_sparse(48, 32, 0.2, 5);
        compress(&m, CompressConfig::with_pes(4))
    }

    #[test]
    fn roundtrip_is_identity() {
        let layer = sample();
        let bytes = CscNibble.encode(&layer);
        let back = CscNibble.decode(&bytes).expect("roundtrip");
        assert_eq!(back, layer);
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let layer = sample();
        let back = CscNibble.decode(&CscNibble.encode(&layer)).unwrap();
        let acts: Vec<f32> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        assert_eq!(layer.spmv_f32(&acts), back.spmv_f32(&acts));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = CscNibble.encode(&sample());
        bytes[0] = b'X';
        assert_eq!(CscNibble.decode(&bytes), Err(DecodeLayerError::BadMagic));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = CscNibble.encode(&sample());
        // Every strict prefix must fail cleanly (never panic).
        for cut in [4usize, 8, 16, 40, bytes.len() / 2, bytes.len() - 1] {
            let r = CscNibble.decode(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn truncation_names_the_section_at_every_boundary() {
        let layer = sample();
        let bytes = CscNibble.encode(&layer);
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
            match CscNibble.decode(&bytes[..cut]) {
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
        let bytes = CscNibble.encode(&layer);
        // Corrupt the very last entry's zrun (layout puts entries last).
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 1] = 0xFF;
        let err = CscNibble.decode(&corrupt).unwrap_err();
        assert!(
            matches!(err, DecodeLayerError::Invalid(_)),
            "expected invalid-content error, got {err:?}"
        );
    }

    #[test]
    fn rejects_zero_codebook_entry_zero_violation() {
        let layer = sample();
        let mut bytes = CscNibble.encode(&layer);
        // Codebook starts at offset 20; entry 0 must be exactly 0.0.
        bytes[20..24].copy_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            CscNibble.decode(&bytes),
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
                CscNibble.encoded_bytes(&layer),
                CscNibble.encode(&layer).len(),
                "{rows}×{cols} @ {pes} PEs"
            );
        }
    }

    #[test]
    fn image_size_is_compact() {
        let layer = sample();
        let bytes = CscNibble.encode(&layer);
        // Must stay within ~3x of the ideal entry payload (pointers and
        // header dominate at this small size).
        let ideal = layer.total_entries() * 2;
        assert!(bytes.len() < ideal * 3 + 4 * 4 * (32 + 1) + 128);
    }
}
