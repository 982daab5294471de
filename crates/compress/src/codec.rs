//! Pluggable weight codecs: alternate byte streams for the same layer.
//!
//! EIE executes the *compressed* model directly, so the wire format the
//! accelerator loads is a design axis of its own: Deep Compression's
//! third stage Huffman-codes the quantized weights and relative indices
//! for storage (paper §VIII), and EBPC shows bit-plane coding wins on
//! sparse low-entropy streams. This module makes the layer image
//! pluggable behind the [`WeightCodec`] trait. Every codec decodes back
//! to the same [`EncodedLayer`] — the form [`LayerPlan::build`] consumes
//! — so plan caching, all executors and the bit-exactness machinery are
//! untouched; codecs only trade stored bytes against decode cost.
//!
//! Three codecs are provided:
//!
//! | id | name             | stream layout                                |
//! |----|------------------|----------------------------------------------|
//! | 0  | `csc-nibble`     | the original `EIE1` image (raw entry bytes)  |
//! | 1  | `huffman-packed` | `EIEH`: canonical-Huffman code/zrun streams  |
//! | 2  | `bit-plane`      | `EIEB`: bit-plane-packed code/zrun streams   |
//!
//! All three share the `EIE1` header (magic, index width, codebook,
//! dims) and the raw per-PE shape block (`local_rows`, `n_entries`,
//! `col_ptr`); they differ only in how the entry payload is stored. The
//! compressed formats pool the per-PE entry streams in PE order and
//! split the `code` and `zrun` bytes into two independently coded
//! streams (entries are *not* nibble-packed first, so `index_bits > 4`
//! layers encode without loss).
//!
//! [`LayerPlan::build`]: crate::LayerPlan::build

use std::fmt;

use crate::huffman::{BitVec, HuffmanCode};
use crate::serialize::{
    layer_header_bytes, read_layer_header, write_layer_header, DecodeLayerError, LayerHeader,
    Reader, MAGIC,
};
use crate::{EncodedLayer, Entry, PeSlice};

/// Magic bytes heading a Huffman-packed layer image.
pub const HUFFMAN_MAGIC: [u8; 4] = *b"EIEH";

/// Magic bytes heading a bit-plane layer image.
pub const BITPLANE_MAGIC: [u8; 4] = *b"EIEB";

/// A reversible serialization of an [`EncodedLayer`].
///
/// Contract: `decode(&encode(layer))` is the identity for every valid
/// layer, and `decode` of arbitrary bytes never panics — it returns a
/// typed [`DecodeLayerError`] (or a fully validated layer). Because all
/// codecs lower to the same `EncodedLayer`, downstream plan building and
/// execution are byte-for-byte identical regardless of codec.
pub trait WeightCodec {
    /// Which codec this is.
    fn kind(&self) -> WeightCodecKind;

    /// Serializes a layer into this codec's byte stream.
    fn encode(&self, layer: &EncodedLayer) -> Vec<u8>;

    /// Deserializes and **validates** a layer from this codec's stream.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeLayerError`] on malformed bytes or any encoding
    /// invariant violation.
    fn decode(&self, bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError>;

    /// Exact length of [`WeightCodec::encode`]'s stream in bytes.
    fn encoded_bytes(&self, layer: &EncodedLayer) -> usize {
        self.encode(layer).len()
    }

    /// Dense-f32 storage divided by this codec's stream size (matches
    /// [`EncodingStats::compression_ratio`]'s dense baseline).
    ///
    /// [`EncodingStats::compression_ratio`]: crate::EncodingStats::compression_ratio
    fn compression_ratio(&self, layer: &EncodedLayer) -> f64 {
        let dense = layer.rows() * layer.cols() * 4;
        dense as f64 / self.encoded_bytes(layer) as f64
    }
}

/// The codec registry: one variant per wire format, with the stable id
/// stored in version-2 model containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightCodecKind {
    /// The original `EIE1` raw-entry image (id 0, the version-1 default).
    #[default]
    CscNibble,
    /// Canonical-Huffman coded entry streams (id 1).
    HuffmanPacked,
    /// Bit-plane packed entry streams (id 2).
    BitPlane,
}

impl WeightCodecKind {
    /// Every codec, in id order.
    pub const ALL: [WeightCodecKind; 3] = [
        WeightCodecKind::CscNibble,
        WeightCodecKind::HuffmanPacked,
        WeightCodecKind::BitPlane,
    ];

    /// The stable wire id stored in the container's per-layer header.
    pub fn id(self) -> u8 {
        match self {
            WeightCodecKind::CscNibble => 0,
            WeightCodecKind::HuffmanPacked => 1,
            WeightCodecKind::BitPlane => 2,
        }
    }

    /// Looks a codec up by wire id.
    pub fn from_id(id: u8) -> Option<WeightCodecKind> {
        match id {
            0 => Some(WeightCodecKind::CscNibble),
            1 => Some(WeightCodecKind::HuffmanPacked),
            2 => Some(WeightCodecKind::BitPlane),
            _ => None,
        }
    }

    /// The canonical CLI name (`csc-nibble`, `huffman-packed`,
    /// `bit-plane`).
    pub fn name(self) -> &'static str {
        match self {
            WeightCodecKind::CscNibble => "csc-nibble",
            WeightCodecKind::HuffmanPacked => "huffman-packed",
            WeightCodecKind::BitPlane => "bit-plane",
        }
    }

    /// Parses a CLI name (canonical names plus the short aliases `csc`,
    /// `huffman` and `bitplane`).
    pub fn from_name(name: &str) -> Option<WeightCodecKind> {
        match name {
            "csc-nibble" | "csc" => Some(WeightCodecKind::CscNibble),
            "huffman-packed" | "huffman" => Some(WeightCodecKind::HuffmanPacked),
            "bit-plane" | "bitplane" => Some(WeightCodecKind::BitPlane),
            _ => None,
        }
    }

    /// The codec implementation behind this kind.
    pub fn codec(self) -> &'static dyn WeightCodec {
        match self {
            WeightCodecKind::CscNibble => &CscNibble,
            WeightCodecKind::HuffmanPacked => &HuffmanPacked,
            WeightCodecKind::BitPlane => &BitPlane,
        }
    }
}

impl fmt::Display for WeightCodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The original raw-entry image, unchanged: [`WeightCodec::encode`] is
/// exactly [`EncodedLayer::to_bytes`], so version-1 artifacts are
/// byte-identical to what this codec writes today.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CscNibble;

impl WeightCodec for CscNibble {
    fn kind(&self) -> WeightCodecKind {
        WeightCodecKind::CscNibble
    }

    fn encode(&self, layer: &EncodedLayer) -> Vec<u8> {
        layer.to_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
        EncodedLayer::from_bytes(bytes)
    }

    fn encoded_bytes(&self, layer: &EncodedLayer) -> usize {
        layer.image_bytes()
    }
}

/// Deep Compression's storage stage made real: the pooled `code` and
/// `zrun` byte streams are canonical-Huffman coded, with compact
/// `(symbol, length)` tables in the header.
///
/// Layout after the shared header and per-PE shape block:
///
/// ```text
/// code table: n_syms u16 | (sym u8, len u8) × n_syms
/// zrun table: n_syms u16 | (sym u8, len u8) × n_syms
/// code stream: bit_len u32 | packed bytes × ceil(bit_len/8)
/// zrun stream: bit_len u32 | packed bytes × ceil(bit_len/8)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HuffmanPacked;

impl WeightCodec for HuffmanPacked {
    fn kind(&self) -> WeightCodecKind {
        WeightCodecKind::HuffmanPacked
    }

    fn encode(&self, layer: &EncodedLayer) -> Vec<u8> {
        let mut out = Vec::with_capacity(layer_header_bytes(layer) + layer.total_entries());
        write_layer_header(layer, &HUFFMAN_MAGIC, &mut out);
        write_pe_shapes(layer, &mut out);
        let (codes, zruns) = pooled_streams(layer);
        let code_table = fit_nonempty(&codes);
        let zrun_table = fit_nonempty(&zruns);
        write_code_table(code_table.as_ref(), &mut out);
        write_code_table(zrun_table.as_ref(), &mut out);
        write_stream(code_table.as_ref(), &codes, &mut out);
        write_stream(zrun_table.as_ref(), &zruns, &mut out);
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
        let mut r = Reader::new(bytes, "magic");
        let h = read_layer_header(&mut r, &HUFFMAN_MAGIC)?;
        let shapes = read_pe_shapes(&mut r, &h)?;
        let total: usize = shapes.iter().map(|s| s.n_entries).sum();
        let code_table = read_code_table(&mut r, "code table")?;
        let zrun_table = read_code_table(&mut r, "zrun table")?;
        let codes = read_stream(&mut r, "code stream", code_table.as_ref(), total)?;
        let zruns = read_stream(&mut r, "zrun stream", zrun_table.as_ref(), total)?;
        assemble(h, shapes, &codes, &zruns)
    }
}

/// EBPC-style bit-plane packing: each of the 8 bit planes of the pooled
/// `code` and `zrun` streams is either all-zero (absent, one mask bit)
/// or stored packed. With 4-bit codes and short zero runs, the high
/// planes vanish and each entry costs roughly `popcount(mask)` bits.
///
/// Layout after the shared header and per-PE shape block, once per
/// stream (`code` then `zrun`):
///
/// ```text
/// plane_mask u8 | present planes (low to high) × ceil(total/8) bytes
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitPlane;

impl WeightCodec for BitPlane {
    fn kind(&self) -> WeightCodecKind {
        WeightCodecKind::BitPlane
    }

    fn encode(&self, layer: &EncodedLayer) -> Vec<u8> {
        let mut out = Vec::with_capacity(layer_header_bytes(layer) + layer.total_entries());
        write_layer_header(layer, &BITPLANE_MAGIC, &mut out);
        write_pe_shapes(layer, &mut out);
        let (codes, zruns) = pooled_streams(layer);
        write_planes(&codes, &mut out);
        write_planes(&zruns, &mut out);
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
        let mut r = Reader::new(bytes, "magic");
        let h = read_layer_header(&mut r, &BITPLANE_MAGIC)?;
        let shapes = read_pe_shapes(&mut r, &h)?;
        let total: usize = shapes.iter().map(|s| s.n_entries).sum();
        let codes = read_planes(&mut r, "code planes", total)?;
        let zruns = read_planes(&mut r, "zrun planes", total)?;
        assemble(h, shapes, &codes, &zruns)
    }
}

/// Decodes a layer image of any codec, dispatching on the magic bytes.
///
/// # Errors
///
/// Returns [`DecodeLayerError::BadMagic`] when no codec claims the
/// image, or that codec's decode error otherwise.
pub fn decode_any(bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
    match bytes.get(..4) {
        Some(m) if m == MAGIC => CscNibble.decode(bytes),
        Some(m) if m == HUFFMAN_MAGIC => HuffmanPacked.decode(bytes),
        Some(m) if m == BITPLANE_MAGIC => BitPlane.decode(bytes),
        _ => Err(DecodeLayerError::BadMagic),
    }
}

/// The per-PE structural fields the compressed codecs store raw.
struct PeShape {
    local_rows: usize,
    n_entries: usize,
    col_ptr: Vec<u32>,
}

/// Concatenates every PE's entry stream (in PE order) into separate
/// `code` and `zrun` byte streams.
fn pooled_streams(layer: &EncodedLayer) -> (Vec<u8>, Vec<u8>) {
    let total = layer.total_entries();
    let mut codes = Vec::with_capacity(total);
    let mut zruns = Vec::with_capacity(total);
    for slice in layer.slices() {
        for e in slice.entries() {
            codes.push(e.code);
            zruns.push(e.zrun);
        }
    }
    (codes, zruns)
}

fn write_pe_shapes(layer: &EncodedLayer, out: &mut Vec<u8>) {
    for slice in layer.slices() {
        out.extend_from_slice(&(slice.local_rows() as u32).to_le_bytes());
        out.extend_from_slice(&(slice.num_entries() as u32).to_le_bytes());
        for &p in slice.col_ptr() {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }
}

/// Reads the per-PE shape block and cross-checks it against the header
/// (row partition must cover the layer; the entry total cannot exceed
/// the matrix), so corrupt counts fail here instead of driving huge
/// allocations downstream.
fn read_pe_shapes(r: &mut Reader<'_>, h: &LayerHeader) -> Result<Vec<PeShape>, DecodeLayerError> {
    let mut shapes = Vec::with_capacity(h.num_pes.min(r.remaining() / 8 + 1));
    let mut total_local = 0usize;
    let mut total_entries = 0u64;
    for _ in 0..h.num_pes {
        r.enter("pe header");
        let local_rows = r.u32()? as usize;
        total_local += local_rows;
        let n_entries = r.u32()? as usize;
        total_entries += n_entries as u64;
        r.enter("col_ptr");
        let mut col_ptr = Vec::with_capacity((h.cols + 1).min(r.remaining() / 4 + 1));
        for _ in 0..=h.cols {
            col_ptr.push(r.u32()?);
        }
        shapes.push(PeShape {
            local_rows,
            n_entries,
            col_ptr,
        });
    }
    if total_local != h.rows {
        return Err(DecodeLayerError::BadHeader {
            field: "local_rows",
        });
    }
    if total_entries > h.rows as u64 * h.cols as u64 {
        return Err(DecodeLayerError::BadHeader { field: "n_entries" });
    }
    Ok(shapes)
}

/// Splits the decoded pooled streams back into per-PE slices and builds
/// the validated layer.
fn assemble(
    h: LayerHeader,
    shapes: Vec<PeShape>,
    codes: &[u8],
    zruns: &[u8],
) -> Result<EncodedLayer, DecodeLayerError> {
    let mut slices = Vec::with_capacity(shapes.len());
    let mut off = 0usize;
    for shape in shapes {
        let entries: Vec<Entry> = codes[off..off + shape.n_entries]
            .iter()
            .zip(&zruns[off..off + shape.n_entries])
            .map(|(&code, &zrun)| Entry { code, zrun })
            .collect();
        off += shape.n_entries;
        slices.push(PeSlice::from_raw_parts(
            entries,
            shape.col_ptr,
            shape.local_rows,
        ));
    }
    let layer = EncodedLayer::from_raw_parts(h.rows, h.cols, h.index_bits, h.codebook, slices);
    layer.validate()?;
    Ok(layer)
}

/// Fits a Huffman code unless the stream is empty (the empty stream is
/// stored as an absent table and a zero-bit payload).
fn fit_nonempty(data: &[u8]) -> Option<HuffmanCode> {
    if data.is_empty() {
        None
    } else {
        Some(HuffmanCode::fit(data))
    }
}

fn write_code_table(code: Option<&HuffmanCode>, out: &mut Vec<u8>) {
    let Some(code) = code else {
        out.extend_from_slice(&0u16.to_le_bytes());
        return;
    };
    let present: Vec<(u8, u8)> = (0u16..256)
        .filter_map(|s| {
            let len = code.lengths()[s as usize];
            (len > 0).then_some((s as u8, len))
        })
        .collect();
    out.extend_from_slice(&(present.len() as u16).to_le_bytes());
    for (sym, len) in present {
        out.push(sym);
        out.push(len);
    }
}

/// Reads a `(symbol, length)` table back into a canonical code. Lengths
/// are capped at 31 bits and symbols must be unique, so a corrupt table
/// is a [`DecodeLayerError::BadStream`], never a shift overflow.
fn read_code_table(
    r: &mut Reader<'_>,
    section: &'static str,
) -> Result<Option<HuffmanCode>, DecodeLayerError> {
    r.enter(section);
    let n_syms = r.u16()? as usize;
    if n_syms == 0 {
        return Ok(None);
    }
    if n_syms > 256 {
        return Err(DecodeLayerError::BadStream { section });
    }
    let mut lengths = [0u8; 256];
    for _ in 0..n_syms {
        let sym = r.u8()? as usize;
        let len = r.u8()?;
        if len == 0 || len > 31 || lengths[sym] != 0 {
            return Err(DecodeLayerError::BadStream { section });
        }
        lengths[sym] = len;
    }
    Ok(Some(HuffmanCode::from_lengths(lengths)))
}

fn write_stream(code: Option<&HuffmanCode>, data: &[u8], out: &mut Vec<u8>) {
    let Some(code) = code else {
        out.extend_from_slice(&0u32.to_le_bytes());
        return;
    };
    let bits = code.encode(data);
    out.extend_from_slice(&(bits.len() as u32).to_le_bytes());
    out.extend_from_slice(bits.as_bytes());
}

/// Reads and decodes one Huffman-coded stream of exactly `count`
/// symbols. The stream must be tight: no symbol may be shorter than one
/// bit (so `count <= bit_len`), padding bits must be zero, and the
/// decoded symbols must re-encode to exactly `bit_len` bits.
fn read_stream(
    r: &mut Reader<'_>,
    section: &'static str,
    code: Option<&HuffmanCode>,
    count: usize,
) -> Result<Vec<u8>, DecodeLayerError> {
    r.enter(section);
    let bit_len = r.u32()? as usize;
    let bytes = r.take(bit_len.div_ceil(8))?;
    if count == 0 {
        if bit_len != 0 {
            return Err(DecodeLayerError::BadStream { section });
        }
        return Ok(Vec::new());
    }
    if count > bit_len {
        return Err(DecodeLayerError::BadStream { section });
    }
    let Some(code) = code else {
        return Err(DecodeLayerError::BadStream { section });
    };
    let bits = BitVec::from_bytes(bytes, bit_len).ok_or(DecodeLayerError::BadStream { section })?;
    let data = code
        .decode(&bits, count)
        .ok_or(DecodeLayerError::BadStream { section })?;
    if code.encoded_bits(&data) != bit_len {
        return Err(DecodeLayerError::BadStream { section });
    }
    Ok(data)
}

/// Writes a byte stream as bit planes: a presence mask, then each
/// non-zero plane packed MSB-first (absent planes are implicitly zero).
fn write_planes(data: &[u8], out: &mut Vec<u8>) {
    let plane_bytes = data.len().div_ceil(8);
    let mut mask = 0u8;
    let mut planes = Vec::new();
    for plane in 0..8u8 {
        if !data.iter().any(|&v| (v >> plane) & 1 == 1) {
            continue;
        }
        mask |= 1 << plane;
        let mut bytes = vec![0u8; plane_bytes];
        for (j, &v) in data.iter().enumerate() {
            if (v >> plane) & 1 == 1 {
                bytes[j / 8] |= 0x80 >> (j % 8);
            }
        }
        planes.push(bytes);
    }
    out.push(mask);
    for p in planes {
        out.extend_from_slice(&p);
    }
}

/// Reads bit planes back into a byte stream of `count` symbols. Present
/// planes must carry at least one set bit and zero padding bits, so the
/// encoding stays canonical (encode ∘ decode is the identity on bytes).
fn read_planes(
    r: &mut Reader<'_>,
    section: &'static str,
    count: usize,
) -> Result<Vec<u8>, DecodeLayerError> {
    r.enter(section);
    let mask = r.u8()?;
    let plane_bytes = count.div_ceil(8);
    let mut data = vec![0u8; count];
    for plane in 0..8u8 {
        if mask & (1 << plane) == 0 {
            continue;
        }
        let bytes = r.take(plane_bytes)?;
        let mut any = false;
        for (j, v) in data.iter_mut().enumerate() {
            if bytes[j / 8] & (0x80 >> (j % 8)) != 0 {
                *v |= 1 << plane;
                any = true;
            }
        }
        if !any {
            return Err(DecodeLayerError::BadStream { section });
        }
        if !count.is_multiple_of(8) && bytes[plane_bytes - 1] & ((1u8 << (8 - count % 8)) - 1) != 0
        {
            return Err(DecodeLayerError::BadStream { section });
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CompressConfig, LayerPlan};
    use eie_nn::zoo::random_sparse;

    fn sample(pes: usize, seed: u64) -> EncodedLayer {
        let m = random_sparse(48, 32, 0.2, seed);
        compress(&m, CompressConfig::with_pes(pes))
    }

    fn wide_index_sample() -> EncodedLayer {
        // index_bits = 8 produces zrun values past a nibble, which the
        // packed-byte path cannot represent — codecs must still be exact.
        let m = random_sparse(64, 40, 0.03, 11);
        let config = CompressConfig {
            num_pes: 2,
            index_bits: 8,
            ..CompressConfig::default()
        };
        compress(&m, config)
    }

    #[test]
    fn kind_ids_names_and_lookup_are_consistent() {
        for kind in WeightCodecKind::ALL {
            assert_eq!(WeightCodecKind::from_id(kind.id()), Some(kind));
            assert_eq!(WeightCodecKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.codec().kind(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(WeightCodecKind::from_id(3), None);
        assert_eq!(WeightCodecKind::from_name("gzip"), None);
        assert_eq!(
            WeightCodecKind::from_name("huffman"),
            Some(WeightCodecKind::HuffmanPacked)
        );
        assert_eq!(
            WeightCodecKind::from_name("bitplane"),
            Some(WeightCodecKind::BitPlane)
        );
        assert_eq!(WeightCodecKind::default(), WeightCodecKind::CscNibble);
    }

    #[test]
    fn csc_nibble_matches_legacy_image_exactly() {
        let layer = sample(4, 5);
        assert_eq!(CscNibble.encode(&layer), layer.to_bytes());
        assert_eq!(CscNibble.encoded_bytes(&layer), layer.image_bytes());
    }

    #[test]
    fn every_codec_roundtrips_and_plans_identically() {
        for layer in [
            sample(4, 5),
            sample(1, 7),
            sample(8, 9),
            wide_index_sample(),
        ] {
            let golden = LayerPlan::build(&layer);
            for kind in WeightCodecKind::ALL {
                let codec = kind.codec();
                let bytes = codec.encode(&layer);
                assert_eq!(bytes.len(), codec.encoded_bytes(&layer), "{kind}");
                let back = codec
                    .decode(&bytes)
                    .unwrap_or_else(|e| panic!("{kind} failed to decode its own stream: {e}"));
                assert_eq!(back, layer, "{kind}");
                assert_eq!(LayerPlan::build(&back), golden, "{kind}");
            }
        }
    }

    #[test]
    fn decode_any_dispatches_on_magic() {
        let layer = sample(2, 3);
        for kind in WeightCodecKind::ALL {
            let bytes = kind.codec().encode(&layer);
            assert_eq!(decode_any(&bytes).unwrap(), layer, "{kind}");
        }
        assert_eq!(decode_any(b"EIEX....."), Err(DecodeLayerError::BadMagic));
        assert_eq!(decode_any(b"EI"), Err(DecodeLayerError::BadMagic));
    }

    #[test]
    fn compressed_codecs_beat_the_raw_image_on_a_sparse_layer() {
        let m = random_sparse(128, 96, 0.09, 13);
        let layer = compress(&m, CompressConfig::with_pes(4));
        let raw = CscNibble.encoded_bytes(&layer);
        let huff = HuffmanPacked.encoded_bytes(&layer);
        let planes = BitPlane.encoded_bytes(&layer);
        assert!(huff < raw, "huffman {huff} >= raw {raw}");
        assert!(planes < raw, "bit-plane {planes} >= raw {raw}");
        assert!(HuffmanPacked.compression_ratio(&layer) > CscNibble.compression_ratio(&layer));
    }

    #[test]
    fn every_truncation_fails_cleanly_for_every_codec() {
        let layer = sample(4, 5);
        for kind in WeightCodecKind::ALL {
            let codec = kind.codec();
            let bytes = codec.encode(&layer);
            for cut in 0..bytes.len() {
                match codec.decode(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(_) => panic!("{kind}: prefix of {cut} bytes decoded"),
                }
            }
        }
    }

    #[test]
    fn truncation_names_the_new_stream_sections() {
        let layer = sample(2, 3);
        let known = [
            "magic",
            "header",
            "codebook",
            "pe header",
            "col_ptr",
            "code table",
            "zrun table",
            "code stream",
            "zrun stream",
            "code planes",
            "zrun planes",
        ];
        for kind in [WeightCodecKind::HuffmanPacked, WeightCodecKind::BitPlane] {
            let codec = kind.codec();
            let bytes = codec.encode(&layer);
            let mut seen = std::collections::BTreeSet::new();
            for cut in 0..bytes.len() {
                if let Err(DecodeLayerError::Truncated { offset, section }) =
                    codec.decode(&bytes[..cut])
                {
                    assert!(offset <= cut, "{kind}: offset {offset} past cut {cut}");
                    assert!(
                        known.contains(&section),
                        "{kind}: unknown section {section}"
                    );
                    seen.insert(section);
                }
            }
            // The payload sections specific to this codec must all be
            // reachable by truncation.
            let want: &[&str] = match kind {
                WeightCodecKind::HuffmanPacked => {
                    &["code table", "zrun table", "code stream", "zrun stream"]
                }
                _ => &["code planes", "zrun planes"],
            };
            for section in want {
                assert!(
                    seen.contains(section),
                    "{kind}: never truncated in {section}"
                );
            }
        }
    }

    #[test]
    fn every_byte_bitflip_errors_or_decodes_valid() {
        for kind in WeightCodecKind::ALL {
            let layer = sample(2, 3);
            let codec = kind.codec();
            let bytes = codec.encode(&layer);
            for pos in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= flip;
                    // The property is no-panic: either a typed error or
                    // an alternative-but-valid layer.
                    if let Ok(decoded) = codec.decode(&corrupt) {
                        decoded.validate().expect("decode returned invalid layer");
                    }
                }
            }
        }
    }

    #[test]
    fn huffman_stream_must_be_tight() {
        let layer = sample(2, 3);
        let bytes = HuffmanPacked.encode(&layer);
        // Append a spare byte to the image: the trailing-slack check in
        // the container normally rejects this, but the codec itself must
        // also notice a padded stream when bit_len is inflated.
        let mut loose = bytes.clone();
        let n = loose.len();
        // Inflate the zrun stream's declared bit length (last stream in
        // the image) without providing the bytes → truncation.
        let zrun_bits_at = {
            // Find it by re-encoding: the last 4 + ceil(bits/8) bytes are
            // the zrun stream; its bit_len field sits right before.
            let (_, zruns) = pooled_streams(&layer);
            let code = HuffmanCode::fit(&zruns);
            let payload = code.encoded_bits(&zruns).div_ceil(8);
            n - payload - 4
        };
        let old = u32::from_le_bytes(loose[zrun_bits_at..zrun_bits_at + 4].try_into().unwrap());
        loose[zrun_bits_at..zrun_bits_at + 4].copy_from_slice(&(old + 8).to_le_bytes());
        assert!(HuffmanPacked.decode(&loose).is_err());
    }

    #[test]
    fn bit_plane_rejects_nonzero_padding_bits() {
        let layer = (21..40)
            .map(|seed| {
                let m = random_sparse(12, 9, 0.4, seed);
                compress(&m, CompressConfig::with_pes(1))
            })
            .find(|l| !l.total_entries().is_multiple_of(8))
            .expect("some seed yields padding bits");
        let bytes = BitPlane.encode(&layer);
        // The last plane byte of the zrun planes is the final byte of the
        // image; set one of its padding bits.
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 1] |= 1;
        assert_eq!(
            BitPlane.decode(&corrupt),
            Err(DecodeLayerError::BadStream {
                section: "zrun planes"
            })
        );
    }

    #[test]
    fn estimator_agrees_with_real_huffman_stream() {
        // Satellite: `stats::huffman_bits` (per-slice, joint 16-bit
        // symbols) must bound the real pooled separate-stream payload
        // from below, and the real payload must stay within the
        // separate-coding slack (≤ 2 extra bits per entry).
        for (rows, cols, density, pes, seed) in [
            (96usize, 64usize, 0.12, 4usize, 9u64),
            (128, 96, 0.09, 8, 13),
            (48, 32, 0.25, 2, 5),
        ] {
            let m = random_sparse(rows, cols, density, seed);
            let layer = compress(&m, CompressConfig::with_pes(pes));
            let estimate: usize = layer
                .slices()
                .iter()
                .map(|s| crate::stats::huffman_bits(cols, s))
                .sum();

            // Parse the stream bit lengths out of the real image.
            let bytes = HuffmanPacked.encode(&layer);
            let mut pos = layer_header_bytes(&layer);
            for s in layer.slices() {
                pos += 8 + 4 * s.col_ptr().len();
            }
            for _ in 0..2 {
                let n = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
                pos += 2 + 2 * n;
            }
            let mut actual_bits = 0usize;
            for _ in 0..2 {
                let bits = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                actual_bits += bits;
                pos += 4 + bits.div_ceil(8);
            }
            assert_eq!(pos, bytes.len(), "stream walk disagrees with image");

            let total = layer.total_entries();
            assert!(
                estimate <= actual_bits,
                "estimate {estimate} bits exceeds actual {actual_bits}"
            );
            assert!(
                actual_bits <= estimate + 2 * total + 64,
                "actual {actual_bits} bits far above estimate {estimate} (total {total})"
            );
        }
    }

    #[test]
    fn empty_pe_slices_roundtrip() {
        // More PEs than rows leaves trailing PEs with zero entries.
        let m = random_sparse(3, 16, 0.5, 2);
        let layer = compress(&m, CompressConfig::with_pes(8));
        for kind in WeightCodecKind::ALL {
            let codec = kind.codec();
            let back = codec.decode(&codec.encode(&layer)).expect("roundtrip");
            assert_eq!(back, layer, "{kind}");
        }
    }
}
