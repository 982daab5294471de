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
//! dims) and the raw per-PE heads (`local_rows`, `n_entries`,
//! `col_ptr`); they differ only in where the entries are stored. The
//! `EIE1` image keeps each PE's `(code, zrun)` bytes right after its
//! head; the compressed formats pool the per-PE entry streams in PE
//! order and split the `code` and `zrun` bytes into two independently
//! coded streams (entries are *not* nibble-packed first, so `index_bits
//! > 4` layers encode without loss).
//!
//! One reader serves every codec and both decodes: it opens the image
//! (header, every PE's head, the entries in place or the opened
//! streams), then walks the slices in PE order, handing each slice's
//! pairs to a sink — one that collects an [`EncodedLayer`]
//! ([`WeightCodec::decode`]) or the plan builder
//! ([`WeightCodec::decode_plan`]). The codecs themselves only write.
//!
//! [`LayerPlan::build`]: crate::LayerPlan::build

use std::fmt;

use crate::cursor::ByteCursor;
use crate::encode::ValidateLayerError;
use crate::huffman::{Histogram, HuffmanCode, StreamDecoder};
use crate::plan::PlanBuilder;
use crate::serialize::{
    layer_header_bytes, read_layer_header, write_layer_header, DecodeLayerError, LayerHeader,
};
use crate::{Codebook, EncodedLayer, Entry, LayerPlan, PeSlice};

/// A layer image decoded straight into its plan
/// ([`WeightCodec::decode_plan`]), with the header fields a model
/// container checks the layer against.
#[derive(Debug, Clone, PartialEq)]
pub struct ImagePlan {
    /// The layer's execution plan.
    pub plan: LayerPlan,
    /// The encoding's relative-index width.
    pub index_bits: u32,
    /// The layer's codebook.
    pub codebook: Codebook,
}

/// Magic bytes heading a csc-nibble (`EIE1`) layer image.
pub const MAGIC: [u8; 4] = *b"EIE1";

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
/// execution are byte-for-byte identical regardless of codec. A codec
/// writes its layout; both decodes are the one reader of every layout.
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
    fn decode(&self, bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
        open(bytes, self.kind())?.decode()
    }

    /// Decodes and validates a layer from this codec's stream straight
    /// into its execution plan, cut into at least `min_blocks` blocks —
    /// what a plan-walking server keeps — building no [`EncodedLayer`].
    /// Accepts exactly the streams [`WeightCodec::decode`] accepts, with
    /// the same first error, and the plan is the one
    /// [`LayerPlan::build_with_blocks`] builds from the decoded layer.
    ///
    /// # Errors
    ///
    /// [`WeightCodec::decode`]'s.
    fn decode_plan(&self, bytes: &[u8], min_blocks: usize) -> Result<ImagePlan, DecodeLayerError> {
        open(bytes, self.kind())?.plan(min_blocks)
    }

    /// Exact length of [`WeightCodec::encode`]'s stream in bytes,
    /// computed from the layout arithmetic without serializing — a
    /// registry sizing its budget or a report printing a ratio never
    /// pays for an encode.
    fn encoded_bytes(&self, layer: &EncodedLayer) -> usize;

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

    /// The magic bytes heading this codec's images.
    fn magic(self) -> &'static [u8; 4] {
        match self {
            WeightCodecKind::CscNibble => &MAGIC,
            WeightCodecKind::HuffmanPacked => &HUFFMAN_MAGIC,
            WeightCodecKind::BitPlane => &BITPLANE_MAGIC,
        }
    }
}

impl fmt::Display for WeightCodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The original raw-entry image, the accelerator's I/O-mode payload: in
/// I/O mode (§IV, "Central Control Unit") a DMA engine loads each PE's
/// weights, indices and pointers into its SRAMs, and this is that image.
/// Version-1 artifacts hold it, byte for byte.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic "EIE1" | index_bits u8 | codebook_len u8 | pad u16
/// rows u32 | cols u32 | num_pes u32
/// codebook f32 × codebook_len
/// per PE: local_rows u32 | n_entries u32 | col_ptr u32 × (cols+1)
///         | entries (code u8, zrun u8) × n_entries
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CscNibble;

impl WeightCodec for CscNibble {
    fn kind(&self) -> WeightCodecKind {
        WeightCodecKind::CscNibble
    }

    fn encode(&self, layer: &EncodedLayer) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + layer.total_entries() * 2);
        write_heads(layer, self.kind(), &mut out);
        out
    }

    fn encoded_bytes(&self, layer: &EncodedLayer) -> usize {
        shaped_header_bytes(layer) + 2 * layer.total_entries()
    }
}

/// Deep Compression's storage stage made real: the pooled `code` and
/// `zrun` byte streams are canonical-Huffman coded, with compact
/// `(symbol, length)` tables in the header.
///
/// Layout after the shared header and per-PE heads:
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
        write_heads(layer, self.kind(), &mut out);
        let (codes, zruns) = pooled_streams(layer);
        let code_table = fit_nonempty(&codes);
        let zrun_table = fit_nonempty(&zruns);
        write_code_table(code_table.as_ref(), &mut out);
        write_code_table(zrun_table.as_ref(), &mut out);
        write_stream(code_table.as_ref(), &codes, &mut out);
        write_stream(zrun_table.as_ref(), &zruns, &mut out);
        out
    }

    fn encoded_bytes(&self, layer: &EncodedLayer) -> usize {
        let profile = StreamProfile::of(layer);
        // Per stream: the table (n_syms u16 + 2 bytes per symbol) and
        // the payload (bit_len u32 + the fitted code's bits).
        let stream = |freq: &Histogram| {
            let symbols = freq.iter().filter(|&&c| c > 0).count();
            if symbols == 0 {
                // The empty stream: an absent table, a zero-bit payload.
                return 2 + 4;
            }
            let code = HuffmanCode::fit_histogram(freq);
            2 + 2 * symbols + 4 + code.histogram_bits(freq).div_ceil(8)
        };
        shaped_header_bytes(layer) + stream(&profile.codes) + stream(&profile.zruns)
    }
}

/// EBPC-style bit-plane packing: each of the 8 bit planes of the pooled
/// `code` and `zrun` streams is either all-zero (absent, one mask bit)
/// or stored packed. With 4-bit codes and short zero runs, the high
/// planes vanish and each entry costs roughly `popcount(mask)` bits.
///
/// Layout after the shared header and per-PE heads, once per stream
/// (`code` then `zrun`):
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
        write_heads(layer, self.kind(), &mut out);
        let (codes, zruns) = pooled_streams(layer);
        write_planes(&codes, &mut out);
        write_planes(&zruns, &mut out);
        out
    }

    fn encoded_bytes(&self, layer: &EncodedLayer) -> usize {
        let profile = StreamProfile::of(layer);
        // Per stream: the mask byte and one packed plane per bit that is
        // set anywhere in the stream.
        let plane_bytes = layer.total_entries().div_ceil(8);
        let stream = |freq: &Histogram| 1 + plane_mask(freq).count_ones() as usize * plane_bytes;
        shaped_header_bytes(layer) + stream(&profile.codes) + stream(&profile.zruns)
    }
}

/// Decodes a layer image of any codec, dispatching on the magic bytes.
///
/// # Errors
///
/// Returns [`DecodeLayerError::BadMagic`] when no codec claims the
/// image, or that codec's decode error otherwise.
pub fn decode_any(bytes: &[u8]) -> Result<EncodedLayer, DecodeLayerError> {
    let kind = WeightCodecKind::ALL
        .into_iter()
        .find(|kind| bytes.starts_with(kind.magic()));
    open(bytes, kind.ok_or(DecodeLayerError::BadMagic)?)?.decode()
}

/// Symbol counts of the pooled `code` and `zrun` streams: everything
/// the size arithmetic of [`WeightCodec::encoded_bytes`] needs to know
/// about the entries.
struct StreamProfile {
    codes: Histogram,
    zruns: Histogram,
}

impl StreamProfile {
    fn of(layer: &EncodedLayer) -> Self {
        let mut profile = Self {
            codes: [0; 256],
            zruns: [0; 256],
        };
        for e in layer.slices().iter().flat_map(|s| s.entries()) {
            profile.codes[e.code as usize] += 1;
            profile.zruns[e.zrun as usize] += 1;
        }
        profile
    }
}

/// The bit planes a stream with these symbol counts occupies: the OR of
/// every symbol present.
fn plane_mask(freq: &Histogram) -> u8 {
    (0..=255u8)
        .filter(|&s| freq[s as usize] > 0)
        .fold(0, |mask, s| mask | s)
}

/// Bytes of the shared header plus the raw per-PE heads that
/// [`write_heads`] emits.
fn shaped_header_bytes(layer: &EncodedLayer) -> usize {
    let heads: usize = layer
        .slices()
        .iter()
        .map(|s| 8 + 4 * s.col_ptr().len())
        .sum();
    layer_header_bytes(layer) + heads
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

/// Writes the shared header under `kind`'s magic and every PE's head —
/// in the `EIE1` layout each followed by its entries, what [`open`]
/// reads back.
fn write_heads(layer: &EncodedLayer, kind: WeightCodecKind, out: &mut Vec<u8>) {
    write_layer_header(layer, kind.magic(), out);
    for slice in layer.slices() {
        out.extend_from_slice(&(slice.local_rows() as u32).to_le_bytes());
        out.extend_from_slice(&(slice.num_entries() as u32).to_le_bytes());
        for &p in slice.col_ptr() {
            out.extend_from_slice(&p.to_le_bytes());
        }
        if kind == WeightCodecKind::CscNibble {
            for e in slice.entries() {
                out.extend_from_slice(&[e.code, e.zrun]);
            }
        }
    }
}

/// One PE's head, its pointers — and, in the `EIE1` layout, its
/// entries — borrowed in place.
struct Head<'a> {
    local_rows: usize,
    col_ptr: &'a [[u8; 4]],
    n_entries: usize,
    /// The entries when they follow the head; empty otherwise.
    entries: &'a [[u8; 2]],
}

/// A layer image opened by [`open`] for its one walk.
struct Image<'a> {
    header: LayerHeader,
    heads: Vec<Head<'a>>,
    /// The pooled streams of a compressed image; `None` when the
    /// entries are in place.
    streams: Option<Streams<'a>>,
}

/// The one reader of every codec's layer image: reads and validates the
/// shared header, every PE's head — the local row counts must cover the
/// layer — and takes the entries, in place (`EIE1`, right after each
/// head) or as the opened streams. Every count is checked against the
/// bytes present before anything is reserved for it: a coded image's
/// entry total, not yet backed by bytes, must also fit the matrix.
fn open(bytes: &[u8], kind: WeightCodecKind) -> Result<Image<'_>, DecodeLayerError> {
    let mut r = ByteCursor::new(bytes, "magic");
    let header = read_layer_header(&mut r, kind.magic())?;
    let in_place = kind == WeightCodecKind::CscNibble;
    // Every PE costs at least its 8-byte head, which bounds the
    // reservation by the input length whatever `num_pes` claims.
    let mut heads = Vec::with_capacity(header.num_pes.min(r.remaining() / 8 + 1));
    let (mut total_local, mut total) = (0usize, 0usize);
    for _ in 0..header.num_pes {
        r.enter("pe header");
        let local_rows = r.u32()? as usize;
        let n_entries = r.u32()? as usize;
        r.enter("col_ptr");
        let col_ptr = r.records(header.cols + 1)?;
        let entries = if in_place {
            r.enter("entries");
            r.records(n_entries)?
        } else {
            &[]
        };
        (total_local, total) = (total_local + local_rows, total + n_entries);
        heads.push(Head {
            local_rows,
            col_ptr,
            n_entries,
            entries,
        });
    }
    if total_local != header.rows {
        return Err(DecodeLayerError::BadHeader {
            field: "local_rows",
        });
    }
    let streams = match kind {
        WeightCodecKind::CscNibble => None,
        _ if total as u64 > header.rows as u64 * header.cols as u64 => {
            return Err(DecodeLayerError::BadHeader { field: "n_entries" });
        }
        WeightCodecKind::HuffmanPacked => Some(Streams::huffman(&mut r, total)?),
        WeightCodecKind::BitPlane => Some(Streams::planes(&mut r, total)?),
    };
    Ok(Image {
        header,
        heads,
        streams,
    })
}

impl<'a> Image<'a> {
    /// Hands every slice's head and `(code, zrun)` pairs to `sink`, in PE
    /// order: in place, or decoded into one reused buffer. Once the sink
    /// refuses a slice it is called no more, but the streams are still
    /// decoded to their end, so a stream error anywhere is reported
    /// before the sink's.
    fn walk(
        &mut self,
        mut sink: impl FnMut(usize, &Head<'a>, &[[u8; 2]]) -> Result<(), ValidateLayerError>,
    ) -> Result<(), DecodeLayerError> {
        let (mut pairs, mut refused) = (Vec::new(), None);
        for (pe, head) in self.heads.iter().enumerate() {
            let slice = match &mut self.streams {
                None => head.entries,
                Some(streams) => {
                    pairs.clear();
                    pairs.resize(head.n_entries, [0u8; 2]);
                    streams.slice(&mut pairs)?;
                    &pairs[..]
                }
            };
            if refused.is_none() {
                refused = sink(pe, head, slice).err();
            }
        }
        if let Some(streams) = &mut self.streams {
            streams.finish()?;
        }
        refused.map_or(Ok(()), |e| Err(e.into()))
    }

    /// The walk's slices collected into an [`EncodedLayer`], then
    /// validated.
    fn decode(mut self) -> Result<EncodedLayer, DecodeLayerError> {
        let mut slices = Vec::with_capacity(self.heads.len());
        self.walk(|_, head, pairs| {
            let entries = pairs.iter().map(|&[code, zrun]| Entry { code, zrun });
            let col_ptr = head.col_ptr.iter().map(|&p| u32::from_le_bytes(p));
            let (entries, col_ptr) = (entries.collect(), col_ptr.collect());
            slices.push(PeSlice::from_raw_parts(entries, col_ptr, head.local_rows));
            Ok(())
        })?;
        let h = self.header;
        let layer = EncodedLayer::from_raw_parts(h.rows, h.cols, h.index_bits, h.codebook, slices);
        layer.validate()?;
        Ok(layer)
    }

    /// The walk's slices fed to the plan builder, which checks each as
    /// [`EncodedLayer::validate`] would before scattering it.
    fn plan(mut self, min_blocks: usize) -> Result<ImagePlan, DecodeLayerError> {
        let h = &self.header;
        let heads = self
            .heads
            .iter()
            .map(|s| (s.local_rows, s.col_ptr, s.n_entries));
        let mut builder = PlanBuilder::new(h.rules(), &h.codebook, min_blocks, heads);
        self.walk(|pe, head, pairs| builder.push(pe, head.local_rows, head.col_ptr, pairs))?;
        Ok(self.header.with_plan(builder.finish()))
    }
}

/// The pooled `code` and `zrun` streams of a compressed image, opened
/// and bounds-checked — every count they will decode is then backed by
/// bytes present — and decoded one PE slice at a time into the pairs of
/// one reused buffer. One lives on the stack per layer decode, so the
/// variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Streams<'a> {
    /// `None` for an empty stream.
    Huffman {
        codes: Option<StreamDecoder<'a>>,
        zruns: Option<StreamDecoder<'a>>,
    },
    Planes {
        codes: Planes<'a>,
        zruns: Planes<'a>,
        /// First symbol of the next slice.
        at: usize,
    },
}

impl Streams<'_> {
    /// Takes both Huffman tables and both streams' headers and bytes.
    /// The stream checks run in the order a whole-stream decode meets
    /// them, so the first error is the same: the code stream is decoded
    /// to its end before a zrun-stream error is reported.
    fn huffman<'a>(r: &mut ByteCursor<'a>, total: usize) -> Result<Streams<'a>, DecodeLayerError> {
        let code_table = read_code_table(r, "code table")?;
        let zrun_table = read_code_table(r, "zrun table")?;
        let mut codes = open_stream(r, "code stream", code_table.as_ref(), total)?;
        match open_stream(r, "zrun stream", zrun_table.as_ref(), total) {
            Ok(zruns) => Ok(Streams::Huffman { codes, zruns }),
            Err(e) => {
                finish_stream(&mut codes, "code stream")?;
                Err(e)
            }
        }
    }

    /// Takes both streams' planes before either is spread: `total`
    /// comes from the image, and a plane-less stream has no byte backing
    /// it. Padding entries carry the maximal zrun, so no canonical image
    /// with entries has both streams plane-less; with that refused, a
    /// present plane's `ceil(total / 8)` bytes were read and bound every
    /// buffer the slices are decoded into.
    fn planes<'a>(r: &mut ByteCursor<'a>, total: usize) -> Result<Streams<'a>, DecodeLayerError> {
        let codes = take_planes(r, "code planes", total)?;
        let zruns = take_planes(r, "zrun planes", total)?;
        if total > 0 && codes.is_empty() && zruns.is_empty() {
            return Err(DecodeLayerError::BadStream {
                section: "zrun planes",
            });
        }
        Ok(Streams::Planes {
            codes,
            zruns,
            at: 0,
        })
    }

    /// Decodes the next slice's `(code, zrun)` pairs into `out`.
    fn slice(&mut self, out: &mut [[u8; 2]]) -> Result<(), DecodeLayerError> {
        match self {
            Streams::Huffman { codes, zruns } => {
                fill_stream(codes, out.iter_mut().map(|p| &mut p[0]), "code stream")?;
                let zrun_run = out.iter_mut().map(|p| &mut p[1]);
                if let Err(e) = fill_stream(zruns, zrun_run, "zrun stream") {
                    finish_stream(codes, "code stream")?;
                    return Err(e);
                }
            }
            Streams::Planes { codes, zruns, at } => {
                spread_into(codes, *at, out, 0);
                spread_into(zruns, *at, out, 1);
                *at += out.len();
            }
        }
        Ok(())
    }

    /// Checks what the slices left unread: each Huffman stream's symbols
    /// fill exactly its declared bits.
    fn finish(&mut self) -> Result<(), DecodeLayerError> {
        if let Streams::Huffman { codes, zruns } = self {
            finish_stream(codes, "code stream")?;
            finish_stream(zruns, "zrun stream")?;
        }
        Ok(())
    }
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

/// Reads a `(symbol, length)` table back into a canonical code. Symbols
/// must be unique, lengths at most 31 bits and the table a prefix code
/// (not over-subscribed), so a corrupt table is a
/// [`DecodeLayerError::BadStream`] before any decoder table is indexed,
/// never a shift overflow.
fn read_code_table(
    r: &mut ByteCursor<'_>,
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
        if len == 0 || lengths[sym] != 0 {
            return Err(DecodeLayerError::BadStream { section });
        }
        lengths[sym] = len;
    }
    HuffmanCode::from_lengths(lengths)
        .map(Some)
        .ok_or(DecodeLayerError::BadStream { section })
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

/// Reads one Huffman-coded stream's header and bytes for decoding
/// exactly `count` symbols (`None` when `count` is zero). The stream
/// must be tight: no symbol may be shorter than one bit (`count <=
/// bit_len`, checked here, before anything is sized by `count`) and
/// padding bits must be zero; [`finish_stream`] checks the decoded
/// symbols fill exactly `bit_len` bits.
fn open_stream<'a>(
    r: &mut ByteCursor<'a>,
    section: &'static str,
    code: Option<&HuffmanCode>,
    count: usize,
) -> Result<Option<StreamDecoder<'a>>, DecodeLayerError> {
    r.enter(section);
    let bit_len = r.u32()? as usize;
    let bytes = r.take(bit_len.div_ceil(8))?;
    if count == 0 {
        if bit_len != 0 {
            return Err(DecodeLayerError::BadStream { section });
        }
        return Ok(None);
    }
    code.and_then(|code| code.stream(bytes, bit_len, count))
        .map(Some)
        .ok_or(DecodeLayerError::BadStream { section })
}

/// Decodes the next symbols of an open stream into `out`.
fn fill_stream<'o>(
    stream: &mut Option<StreamDecoder<'_>>,
    out: impl ExactSizeIterator<Item = &'o mut u8>,
    section: &'static str,
) -> Result<(), DecodeLayerError> {
    match stream {
        Some(stream) => stream.fill(out),
        None => (out.len() == 0).then_some(()),
    }
    .ok_or(DecodeLayerError::BadStream { section })
}

/// Decodes what is left of an open stream and checks it is tight.
fn finish_stream(
    stream: &mut Option<StreamDecoder<'_>>,
    section: &'static str,
) -> Result<(), DecodeLayerError> {
    stream
        .as_mut()
        .map_or(Some(()), StreamDecoder::finish)
        .ok_or(DecodeLayerError::BadStream { section })
}

/// The low bit of each byte of a `u64`.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Multiplying a word of 0/1 bytes by this gathers them into the top
/// byte, first byte in the most significant bit: byte `j` (bit `8j`)
/// meets the multiplier's bit `63 - 9j` at bit `63 - j`, and no two
/// partial products share a bit, so nothing carries.
const GATHER: u64 = 0x8040_2010_0804_0201;

/// `SPREAD[b]` is the inverse of the gather: eight 0/1 bytes, byte `j`
/// holding bit `7 - j` of `b` — one packed plane byte turned into its
/// contribution to eight consecutive symbols.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            table[b] |= ((b as u64 >> (7 - j)) & 1) << (8 * j);
            j += 1;
        }
        b += 1;
    }
    table
};

/// Writes a byte stream as bit planes: a presence mask, then each
/// non-zero plane packed MSB-first (absent planes are implicitly zero).
/// One pass over the stream: each 8-symbol word is gathered into one
/// byte of every present plane.
fn write_planes(data: &[u8], out: &mut Vec<u8>) {
    let mask = data.iter().fold(0u8, |mask, &v| mask | v);
    out.push(mask);
    let present: Vec<u32> = (0..8).filter(|&plane| mask >> plane & 1 == 1).collect();
    let plane_bytes = data.len().div_ceil(8);
    let base = out.len();
    out.resize(base + present.len() * plane_bytes, 0);
    for (k, chunk) in data.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        for (slot, &plane) in present.iter().enumerate() {
            let gathered = ((word >> plane) & LOW_BITS).wrapping_mul(GATHER) >> 56;
            out[base + slot * plane_bytes + k] = gathered as u8;
        }
    }
}

/// The present bit planes of one stream, low to high: `(plane, bytes)`.
type Planes<'a> = Vec<(u32, &'a [u8])>;

/// Takes the mask and the present planes of a `count`-symbol stream
/// from the image, allocating nothing for the symbols. Present planes
/// must carry at least one set bit and zero padding bits, so the
/// encoding stays canonical (encode ∘ decode is the identity on bytes).
fn take_planes<'a>(
    r: &mut ByteCursor<'a>,
    section: &'static str,
    count: usize,
) -> Result<Planes<'a>, DecodeLayerError> {
    r.enter(section);
    let mask = r.u8()?;
    let plane_bytes = count.div_ceil(8);
    let pad_mask = if count.is_multiple_of(8) {
        0
    } else {
        0xFFu8 >> (count % 8)
    };
    let mut planes: Planes<'a> = Vec::with_capacity(8);
    for plane in (0..8).filter(|&plane| mask >> plane & 1 == 1) {
        let bytes = r.take(plane_bytes)?;
        let empty = bytes.iter().all(|&b| b == 0);
        if empty || bytes[plane_bytes - 1] & pad_mask != 0 {
            return Err(DecodeLayerError::BadStream { section });
        }
        planes.push((plane, bytes));
    }
    Ok(planes)
}

/// Rebuilds symbols `first..first + out.len()` of a stream from its
/// planes into byte `slot` of each pair, eight per step from one byte of
/// each present plane through [`SPREAD`]. The caller bounds the symbols
/// (see [`Streams::planes`]).
fn spread_into(planes: &Planes<'_>, first: usize, out: &mut [[u8; 2]], slot: usize) {
    let end = first + out.len();
    let mut pos = first;
    while pos < end {
        let k = pos / 8;
        let word = planes.iter().fold(0u64, |word, &(plane, bytes)| {
            word | SPREAD[bytes[k] as usize] << plane
        });
        let stop = end.min(8 * k + 8);
        let symbols = &word.to_le_bytes()[pos - 8 * k..];
        for (pair, &sym) in out[pos - first..stop - first].iter_mut().zip(symbols) {
            pair[slot] = sym;
        }
        pos = stop;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, encode_with_codebook, Codebook, CompressConfig, LayerPlan};
    use eie_nn::zoo::random_sparse;
    use eie_nn::CsrMatrix;

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

    /// A dense all-ones matrix under a one-centroid codebook: every
    /// entry is `(code 1, zrun 0)`, so both pooled streams hold a single
    /// symbol (the 1-bit Huffman code; one bit plane, or none).
    fn single_symbol_sample() -> EncodedLayer {
        let cells: Vec<(usize, usize, f32)> = (0..6 * 5).map(|i| (i / 5, i % 5, 1.0)).collect();
        encode_with_codebook(
            &CsrMatrix::from_triplets(6, 5, &cells),
            Codebook::from_centroids(&[1.0]),
            CompressConfig::with_pes(2),
        )
    }

    /// A layer with no entries at all (both pooled streams empty).
    fn empty_sample() -> EncodedLayer {
        encode_with_codebook(
            &CsrMatrix::from_triplets(4, 3, &[]),
            Codebook::from_centroids(&[1.0]),
            CompressConfig::with_pes(2),
        )
    }

    /// More PEs than rows: the trailing PE slices hold zero entries.
    fn empty_slices_sample() -> EncodedLayer {
        compress(&random_sparse(3, 16, 0.5, 2), CompressConfig::with_pes(8))
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn images_are_byte_identical_to_the_bit_at_a_time_encoder() {
        // Length and FNV-1a of every codec's image of three seeded
        // layers, recorded from the encoder as it stood before the
        // word-at-a-time rewrite (`push_bit` per bit, `HashMap`
        // frequency count, one pass per plane). Stored artifacts must
        // not change by a byte.
        let layers = [
            sample(4, 5),
            wide_index_sample(),
            compress(
                &random_sparse(300, 200, 0.08, 21),
                CompressConfig::with_pes(8),
            ),
        ];
        let golden: [[(usize, u64); 3]; 3] = [
            [
                (1268, 0xad0e_1fea_0775_8fdf),
                (963, 0xc2ed_0272_e4b4_29be),
                (958, 0xcb0c_860e_a6bd_9d57),
            ],
            [
                (542, 0x5358_d04f_f38d_f23f),
                (574, 0xc095_34a7_6222_8844),
                (502, 0x9a44_3356_ccd6_2869),
            ],
            [
                (17638, 0x51c6_8037_6dad_71f8),
                (11810, 0x218d_5416_1b2d_2c9b),
                (12118, 0x622f_4297_158c_035a),
            ],
        ];
        for (layer, golden) in layers.iter().zip(golden) {
            for (kind, want) in WeightCodecKind::ALL.into_iter().zip(golden) {
                let bytes = kind.codec().encode(layer);
                assert_eq!((bytes.len(), fnv1a(&bytes)), want, "{kind}");
            }
        }
    }

    #[test]
    fn encoded_bytes_is_the_encoded_length_for_every_codec_and_shape() {
        let layers = [
            ("4 PEs", sample(4, 5)),
            ("1 PE", sample(1, 7)),
            ("index_bits 8", wide_index_sample()),
            ("single symbol", single_symbol_sample()),
            ("no entries", empty_sample()),
            ("empty PE slices", empty_slices_sample()),
        ];
        for (name, layer) in &layers {
            for kind in WeightCodecKind::ALL {
                let codec = kind.codec();
                let bytes = codec.encode(layer);
                assert_eq!(codec.encoded_bytes(layer), bytes.len(), "{kind}: {name}");
                assert_eq!(
                    &codec.decode(&bytes).expect("roundtrip"),
                    layer,
                    "{kind}: {name}"
                );
            }
        }
        // The degenerate shapes are what they claim to be.
        let single = HuffmanPacked.encode(&single_symbol_sample());
        let tables = shaped_header_bytes(&single_symbol_sample());
        assert_eq!(
            single[tables..tables + 4],
            [1, 0, 1, 1],
            "one symbol, 1 bit"
        );
        assert_eq!(empty_sample().total_entries(), 0);
        assert!(empty_slices_sample()
            .slices()
            .iter()
            .any(|s| s.num_entries() == 0));
    }

    /// One stream, taken and spread (the decoder takes both streams
    /// before spreading either).
    fn read_planes(
        r: &mut ByteCursor<'_>,
        section: &'static str,
        count: usize,
    ) -> Result<Vec<u8>, DecodeLayerError> {
        // Spread in two uneven runs, as slices land: the second starts
        // mid-byte.
        let planes = take_planes(r, section, count)?;
        let mut pairs = vec![[0u8; 2]; count];
        let (head, tail) = pairs.split_at_mut(count / 3);
        spread_into(&planes, 0, head, 0);
        spread_into(&planes, count / 3, tail, 0);
        Ok(pairs.iter().map(|p| p[0]).collect())
    }

    /// `read_planes` as it stood before the byte-spread rewrite: one bit
    /// test per symbol per plane.
    fn read_planes_bitwise(bytes: &[u8], count: usize) -> Option<Vec<u8>> {
        let (&mask, mut rest) = bytes.split_first()?;
        let plane_bytes = count.div_ceil(8);
        let mut data = vec![0u8; count];
        for plane in 0..8u8 {
            if mask & (1 << plane) == 0 {
                continue;
            }
            let bytes = rest.get(..plane_bytes)?;
            rest = &rest[plane_bytes..];
            let mut any = false;
            for (j, v) in data.iter_mut().enumerate() {
                if bytes[j / 8] & (0x80 >> (j % 8)) != 0 {
                    *v |= 1 << plane;
                    any = true;
                }
            }
            if !any {
                return None;
            }
            if !count.is_multiple_of(8)
                && bytes[plane_bytes - 1] & ((1u8 << (8 - count % 8)) - 1) != 0
            {
                return None;
            }
        }
        Some(data)
    }

    #[test]
    fn byte_spread_planes_match_the_bitwise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for count in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200, 1001] {
            // Streams confined to a few planes (absent planes between
            // present ones), the all-zero stream and the full byte range.
            for keep in [0x00u8, 0x01, 0x0F, 0x5A, 0x80, 0xFF] {
                let data: Vec<u8> = (0..count).map(|_| next() as u8 & keep).collect();
                let mut image = Vec::new();
                write_planes(&data, &mut image);
                let mask = data.iter().fold(0u8, |m, &v| m | v);
                assert_eq!(image[0], mask);
                assert_eq!(
                    image.len(),
                    1 + mask.count_ones() as usize * count.div_ceil(8)
                );
                let mut r = ByteCursor::new(&image, "planes");
                assert_eq!(read_planes(&mut r, "planes", count).as_ref(), Ok(&data));
                assert_eq!(r.remaining(), 0);
                assert_eq!(read_planes_bitwise(&image, count).as_ref(), Some(&data));

                // Corruptions: every single-bit flip of a short image, a
                // sample of a long one; a wrong count; a cut image.
                let step = (image.len() * 8 / 400).max(1);
                for bit in (0..image.len() * 8).step_by(step) {
                    let mut corrupt = image.clone();
                    corrupt[bit / 8] ^= 0x80 >> (bit % 8);
                    let got =
                        read_planes(&mut ByteCursor::new(&corrupt, "planes"), "planes", count);
                    assert_eq!(got.ok(), read_planes_bitwise(&corrupt, count), "flip {bit}");
                }
                for other in [count + 1, count + 8, count.saturating_sub(1)] {
                    let got = read_planes(&mut ByteCursor::new(&image, "planes"), "planes", other);
                    assert_eq!(got.ok(), read_planes_bitwise(&image, other));
                }
                let cut = &image[..image.len() / 2];
                let got = read_planes(&mut ByteCursor::new(cut, "planes"), "planes", count);
                assert_eq!(got.ok(), read_planes_bitwise(cut, count));
            }
        }
    }

    #[test]
    fn hostile_code_tables_are_bad_streams() {
        let layer = sample(2, 3);
        let bytes = HuffmanPacked.encode(&layer);
        let table_at = shaped_header_bytes(&layer);
        let n_syms = u16::from_le_bytes([bytes[table_at], bytes[table_at + 1]]) as usize;
        assert!(n_syms >= 2, "the sample has a real code table");
        let bad = Err(DecodeLayerError::BadStream {
            section: "code table",
        });
        // Duplicate symbol: the second pair repeats the first's symbol.
        let mut duplicate = bytes.clone();
        duplicate[table_at + 4] = duplicate[table_at + 2];
        assert_eq!(HuffmanPacked.decode(&duplicate), bad);
        // Over-subscribed: every length forced to 1 bit.
        let mut oversubscribed = bytes.clone();
        for i in 0..n_syms {
            oversubscribed[table_at + 3 + 2 * i] = 1;
        }
        assert_eq!(HuffmanPacked.decode(&oversubscribed), bad);
        // Over-long and zero lengths.
        for len in [0u8, 32, 255] {
            let mut corrupt = bytes.clone();
            corrupt[table_at + 3] = len;
            assert_eq!(HuffmanPacked.decode(&corrupt), bad, "length {len}");
        }
    }

    #[test]
    fn hostile_counts_are_truncation_not_allocation() {
        // n_entries and cols far beyond what the image holds must fail
        // as truncation before anything is reserved for them (these
        // aborted the process with a 17 GB reservation once).
        let layer = sample(2, 3);
        for kind in WeightCodecKind::ALL {
            let codec = kind.codec();
            let bytes = codec.encode(&layer);
            let pe_header = layer_header_bytes(&layer);
            for (what, at) in [("cols", 12), ("n_entries", pe_header + 4)] {
                let mut corrupt = bytes.clone();
                corrupt[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
                assert!(
                    matches!(
                        codec.decode(&corrupt),
                        Err(DecodeLayerError::Truncated { .. } | DecodeLayerError::BadHeader { .. })
                    ),
                    "{kind}: hostile {what}"
                );
            }
        }
    }

    #[test]
    fn plane_less_streams_cannot_declare_entries() {
        // 46 bytes declaring 2^31 entries: one PE, one column, both
        // streams plane-less, so not one byte backs the two 2 GiB
        // streams the header asks for. Refused before either exists.
        let huge = 1u32 << 31;
        let mut image = Vec::new();
        image.extend_from_slice(&BITPLANE_MAGIC);
        image.extend_from_slice(&[4, 2, 0, 0]); // index_bits, codebook_len, pad
        for word in [huge, 1, 1] {
            image.extend_from_slice(&word.to_le_bytes()); // rows, cols, num_pes
        }
        for centroid in [0.0f32, 1.0] {
            image.extend_from_slice(&centroid.to_le_bytes());
        }
        for word in [huge, huge, 0, huge] {
            image.extend_from_slice(&word.to_le_bytes()); // local_rows, n_entries, col_ptr
        }
        image.extend_from_slice(&[0, 0]); // both plane masks: no planes
        assert_eq!(
            BitPlane.decode(&image),
            Err(DecodeLayerError::BadStream {
                section: "zrun planes"
            })
        );
        // Claiming a plane instead makes it a truncation: the plane's
        // 2^28 bytes are not there.
        for mask_at in [image.len() - 2, image.len() - 1] {
            let mut claimed = image.clone();
            claimed[mask_at] = 1;
            assert!(matches!(
                BitPlane.decode(&claimed),
                Err(DecodeLayerError::Truncated { .. })
            ));
        }
        // One plane-less stream is canonical when the other has planes
        // (every zrun 0), and so is the entry-less layer.
        for layer in [single_symbol_sample(), empty_sample()] {
            assert_eq!(
                BitPlane.decode(&BitPlane.encode(&layer)).as_ref(),
                Ok(&layer)
            );
        }
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
    fn empty_pe_slices_roundtrip() {
        let layer = empty_slices_sample();
        for kind in WeightCodecKind::ALL {
            let codec = kind.codec();
            let back = codec.decode(&codec.encode(&layer)).expect("roundtrip");
            assert_eq!(back, layer, "{kind}");
        }
    }

    /// `decode_plan` of `image` at cuts 1–3 is `decode`'s layer planned
    /// by `build_with_blocks`, or `decode`'s very error; and `decode_any`
    /// of an image under the codec's own magic is `decode`'s result.
    fn assert_plan_matches_decode(kind: WeightCodecKind, image: &[u8], what: &str) {
        let want = kind.codec().decode(image);
        if image.starts_with(kind.magic()) {
            assert_eq!(decode_any(image), want, "{what}: decode_any");
        }
        for cut in 1..=3 {
            match (&want, kind.codec().decode_plan(image, cut)) {
                (Ok(layer), Ok(got)) => {
                    assert_eq!(got.plan, LayerPlan::build_with_blocks(layer, cut), "{what}");
                    assert_eq!(got.index_bits, layer.index_bits(), "{what}");
                    assert_eq!(&got.codebook, layer.codebook(), "{what}");
                }
                (Err(want), Err(got)) => assert_eq!(want, &got, "{what}"),
                (want, got) => panic!("{what}: decode gave {want:?}, decode_plan {got:?}"),
            }
        }
    }

    /// `layer` with its slices' stored fields rewritten.
    fn tampered(
        layer: &EncodedLayer,
        edit: impl Fn(usize, &mut Vec<Entry>, &mut Vec<u32>, &mut usize),
    ) -> EncodedLayer {
        let slices = layer
            .slices()
            .iter()
            .enumerate()
            .map(|(pe, s)| {
                let (mut entries, mut col_ptr, mut rows) =
                    (s.entries().to_vec(), s.col_ptr().to_vec(), s.local_rows());
                edit(pe, &mut entries, &mut col_ptr, &mut rows);
                PeSlice::from_raw_parts(entries, col_ptr, rows)
            })
            .collect();
        let (rows, cols, bits) = (layer.rows(), layer.cols(), layer.index_bits());
        EncodedLayer::from_raw_parts(rows, cols, bits, layer.codebook().clone(), slices)
    }

    #[test]
    fn decode_plan_accepts_and_refuses_exactly_what_decode_does() {
        let base = sample(4, 5);
        let populated = base.codebook().len() as u8;
        let layers = [
            ("4 PEs", base.clone()),
            ("index_bits 8", wide_index_sample()),
            ("one symbol", single_symbol_sample()),
            ("no entries", empty_sample()),
            ("empty slices", empty_slices_sample()),
            (
                "code past the codebook in PE 1",
                tampered(&base, |pe, e, _, _| {
                    if pe == 1 {
                        e[3].code = populated;
                    }
                }),
            ),
            (
                "zero run past the width in PE 2",
                tampered(&base, |pe, e, _, _| {
                    if pe == 2 {
                        e[0].zrun = 16;
                    }
                }),
            ),
            (
                "row overflow in PE 0",
                tampered(&base, |pe, e, _, _| {
                    if pe == 0 {
                        e.iter_mut().for_each(|e| e.zrun = 15);
                    }
                }),
            ),
            (
                "pointers decreasing in PE 3",
                tampered(&base, |pe, _, p, _| {
                    if pe == 3 {
                        p[5] = u32::MAX;
                    }
                }),
            ),
            (
                "uneven shares",
                tampered(&base, |pe, _, _, rows| {
                    *rows = if pe == 0 {
                        *rows + 1
                    } else if pe == 1 {
                        *rows - 1
                    } else {
                        *rows
                    }
                }),
            ),
            (
                "a bad code in PE 0, bad pointers in PE 1",
                tampered(&base, |pe, e, p, _| match pe {
                    0 => e[0].code = populated,
                    1 => p[2] = u32::MAX,
                    _ => {}
                }),
            ),
        ];
        for (what, layer) in &layers {
            for kind in WeightCodecKind::ALL {
                let image = kind.codec().encode(layer);
                assert_plan_matches_decode(kind, &image, &format!("{kind} {what}"));
                // Every prefix, and single-bit flips spread over the
                // whole image: stream errors, truncations and layer
                // errors must come out in the same order.
                for cut in 0..image.len() {
                    let what = format!("{kind} {what}, prefix {cut}");
                    assert_plan_matches_decode(kind, &image[..cut], &what);
                }
                let step = (image.len() * 8 / 300).max(1);
                for bit in (0..image.len() * 8).step_by(step) {
                    let mut flipped = image.clone();
                    flipped[bit / 8] ^= 0x80 >> (bit % 8);
                    let what = format!("{kind} {what}, bit {bit}");
                    assert_plan_matches_decode(kind, &flipped, &what);
                }
            }
        }
    }
}
