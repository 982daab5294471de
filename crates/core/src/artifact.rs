//! The versioned `.eie` whole-model container: the deployment unit.
//!
//! EIE's lasting contribution (per the paper's retrospective) is the
//! *compressed model as the artifact*: prune + quantize + CSC-encode
//! once, then deploy the compact result everywhere it fits in SRAM. This
//! module gives [`CompiledModel`] that container: a deterministic,
//! checksummed, little-endian file format holding the accelerator
//! configuration, network topology metadata and every layer's SRAM
//! image, written by [`CompiledModel::save`] and read back — **fully
//! validated** — by [`CompiledModel::load`].
//!
//! # Wire format (all integers little-endian)
//!
//! ```text
//! preamble (16 bytes, not checksummed):
//!   magic "EIEM" | version u16 | flags u16 (bit 0: shared codebook)
//!   payload_len u32 | payload_crc32 u32 (CRC-32/IEEE over the payload)
//! payload (payload_len bytes, checksummed):
//!   config: num_pes u32 | fifo_depth u32 | spmat_width_bits u32
//!           | index_bits u32 | clock_hz f64
//!           | hw_flags u8 (bit0 lnzd, bit1 ptr_banked, bit2 accum_bypass)
//!           | pad u8 × 3
//!   topology: name_len u16 | name (UTF-8) | num_layers u32
//!   per layer (version 1): image_len u32 | layer image (the "EIE1"
//!              format of `CscNibble::encode`, embedding its
//!              codebook — the `csc-nibble` codec)
//!   per layer (version 2): codec_id u8 | image_len u32 | layer image
//!              (that codec's stream — see `eie_compress::codec`)
//! ```
//!
//! # Version & compatibility policy
//!
//! * The version is bumped for any layout change; readers reject
//!   versions they do not support ([`ModelArtifactError::UnsupportedVersion`])
//!   rather than guessing.
//! * Version-1 layers imply the [`WeightCodecKind::CscNibble`] codec.
//!   A writer emits version 1 whenever the model uses that codec — so
//!   default-codec artifacts stay byte-identical to what version-1
//!   builds wrote — and version 2 only when a non-default codec is
//!   selected. Readers accept both; an unknown codec id in a version-2
//!   layer is the typed [`ModelArtifactError::UnknownCodec`], never a
//!   guess or a panic.
//! * `flags` bits other than bit 0 are reserved **and must be zero**; a
//!   reader rejects unknown bits, so future writers can only use them
//!   with a version bump or for features old readers may safely ignore
//!   being absent from.
//! * The CRC covers the whole payload, so a bit flip anywhere in config,
//!   topology or layer images is caught before layer validation runs.
//! * Trailing bytes after the declared payload are an error (a truncated
//!   *next* file concatenated onto this one should never pass).

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use std::sync::Arc;

use eie_compress::{
    ByteCursor, Codebook, DecodeLayerError, EncodedLayer, ImagePlan, Truncated, WeightCodec,
    WeightCodecKind,
};

use crate::{BackendKind, CompiledModel, EieConfig, ServedModel};

/// Magic bytes heading every `.eie` model container.
pub const MODEL_MAGIC: [u8; 4] = *b"EIEM";

/// The newest container format version this build writes and reads
/// (older versions back to 1 are still read; see the module docs for
/// the per-version layer layout).
pub const MODEL_VERSION: u16 = 2;

/// Recommended file extension for model containers.
pub const MODEL_EXTENSION: &str = "eie";

/// Flag bit 0: every layer shares one codebook.
const FLAG_SHARED_CODEBOOK: u16 = 1 << 0;
/// All bits a version-1 reader understands.
const KNOWN_FLAGS: u16 = FLAG_SHARED_CODEBOOK;

/// Preamble length: magic (4) + version (2) + flags (2) + payload_len
/// (4) + crc32 (4).
const PREAMBLE_LEN: usize = 16;

/// Failure to decode (or read) a `.eie` model container.
///
/// Every rejection is typed: corrupt bytes surface as
/// [`ChecksumMismatch`](Self::ChecksumMismatch) or a specific structural
/// error, never as a panic or a silently-wrong model.
#[derive(Debug)]
pub enum ModelArtifactError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes do not start with [`MODEL_MAGIC`].
    BadMagic,
    /// The container was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the preamble.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The container ended before the declared payload.
    Truncated {
        /// Byte offset at which data ran out.
        offset: usize,
        /// Which section was being read.
        section: &'static str,
    },
    /// The payload's CRC-32 does not match the preamble's.
    ChecksumMismatch {
        /// Checksum stored in the preamble.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A header or topology field holds an impossible value.
    BadHeader {
        /// Which field was invalid.
        field: &'static str,
    },
    /// A layer image failed to decode or validate.
    Layer {
        /// Index of the offending layer (input to output).
        index: usize,
        /// The layer-level error.
        source: DecodeLayerError,
    },
    /// A version-2 layer record names a codec id this build does not
    /// implement.
    UnknownCodec {
        /// Index of the offending layer (input to output).
        index: usize,
        /// The codec id found in the layer record.
        id: u8,
    },
    /// Consecutive layer dimensions do not chain into a network.
    TopologyMismatch {
        /// Index of the layer whose input dimension is wrong.
        index: usize,
        /// Output count of the previous layer.
        expected: usize,
        /// Input count the layer actually declares.
        found: usize,
    },
}

impl fmt::Display for ModelArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelArtifactError::Io(e) => write!(f, "model file I/O failed: {e}"),
            ModelArtifactError::BadMagic => write!(f, "not an EIE model container (bad magic)"),
            ModelArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported model container version {found} (this build reads {supported})"
            ),
            ModelArtifactError::Truncated { offset, section } => write!(
                f,
                "model container truncated at byte {offset} while reading {section}"
            ),
            ModelArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "model payload corrupt: stored CRC {stored:#010x}, computed {computed:#010x}"
            ),
            ModelArtifactError::BadHeader { field } => {
                write!(f, "invalid model header field: {field}")
            }
            ModelArtifactError::Layer { index, source } => {
                write!(f, "layer {index} invalid: {source}")
            }
            ModelArtifactError::UnknownCodec { index, id } => {
                write!(f, "layer {index} uses unknown weight codec id {id}")
            }
            ModelArtifactError::TopologyMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "topology broken at layer {index}: previous layer outputs {expected} \
                 values but this layer consumes {found}"
            ),
        }
    }
}

impl Error for ModelArtifactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelArtifactError::Io(e) => Some(e),
            ModelArtifactError::Layer { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelArtifactError {
    fn from(e: std::io::Error) -> Self {
        ModelArtifactError::Io(e)
    }
}

impl From<Truncated> for ModelArtifactError {
    fn from(Truncated { offset, section }: Truncated) -> Self {
        ModelArtifactError::Truncated { offset, section }
    }
}

/// The reflected CRC-32/IEEE polynomial (zlib's).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables, built at compile time: `CRC_TABLES[0]` is the
/// classic byte table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold into the state
/// with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib polynomial), slice-by-8: every cold
/// load checksums the whole payload before any layer is decoded, so the
/// check runs eight bytes per step instead of one bit.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// What the container checks of a layer record once it is decoded,
/// whichever form it was decoded into.
trait LayerRecord {
    /// `(rows, cols, num_pes, index_bits)`.
    fn shape(&self) -> (usize, usize, usize, u32);
    fn codebook(&self) -> &Codebook;
}

impl LayerRecord for EncodedLayer {
    fn shape(&self) -> (usize, usize, usize, u32) {
        (self.rows(), self.cols(), self.num_pes(), self.index_bits())
    }
    fn codebook(&self) -> &Codebook {
        self.codebook()
    }
}

impl LayerRecord for ImagePlan {
    fn shape(&self) -> (usize, usize, usize, u32) {
        let p = &self.plan;
        (p.rows(), p.cols(), p.num_pes(), self.index_bits)
    }
    fn codebook(&self) -> &Codebook {
        &self.codebook
    }
}

/// Reads and checks a container — preamble, checksum, config, topology —
/// and hands each layer image to `decode` with its codec, checking the
/// decoded layers chain. Both loads go through it, so they accept the
/// same bytes and report the same first error.
fn read_container<L: LayerRecord>(
    bytes: &[u8],
    mut decode: impl FnMut(&dyn WeightCodec, &[u8]) -> Result<L, DecodeLayerError>,
) -> Result<(EieConfig, String, Vec<L>), ModelArtifactError> {
    let mut r = ByteCursor::new(bytes, "magic");
    if r.take(4)? != MODEL_MAGIC {
        return Err(ModelArtifactError::BadMagic);
    }
    r.enter("preamble");
    let version = r.u16()?;
    if !(1..=MODEL_VERSION).contains(&version) {
        return Err(ModelArtifactError::UnsupportedVersion {
            found: version,
            supported: MODEL_VERSION,
        });
    }
    let flags = r.u16()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(ModelArtifactError::BadHeader { field: "flags" });
    }
    let payload_len = r.u32()? as usize;
    let stored_crc = r.u32()?;
    r.enter("payload");
    let payload = r.take(payload_len)?;
    if r.remaining() != 0 {
        return Err(ModelArtifactError::BadHeader {
            field: "trailing bytes",
        });
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(ModelArtifactError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }

    let mut r = ByteCursor::new(payload, "config");
    let num_pes = r.u32()? as usize;
    let fifo_depth = r.u32()? as usize;
    let spmat_width_bits = r.u32()?;
    let index_bits = r.u32()?;
    let clock_hz = r.f64()?;
    let hw_flags = r.u8()?;
    let _pad = r.take(3)?;
    if num_pes == 0 || num_pes > 1 << 20 {
        return Err(ModelArtifactError::BadHeader { field: "num_pes" });
    }
    if fifo_depth == 0 {
        return Err(ModelArtifactError::BadHeader {
            field: "fifo_depth",
        });
    }
    if spmat_width_bits < 8 || spmat_width_bits % 8 != 0 {
        return Err(ModelArtifactError::BadHeader {
            field: "spmat_width_bits",
        });
    }
    if !(1..=8).contains(&index_bits) {
        return Err(ModelArtifactError::BadHeader {
            field: "index_bits",
        });
    }
    if !clock_hz.is_finite() || clock_hz <= 0.0 {
        return Err(ModelArtifactError::BadHeader { field: "clock_hz" });
    }
    if hw_flags & !0b111 != 0 {
        return Err(ModelArtifactError::BadHeader { field: "hw_flags" });
    }
    let mut config = EieConfig {
        num_pes,
        fifo_depth,
        spmat_width_bits,
        clock_hz,
        index_bits,
        lnzd_tree: hw_flags & 1 != 0,
        ptr_banked: hw_flags & 2 != 0,
        accumulator_bypass: hw_flags & 4 != 0,
        // Provisional: the layer records carry the actual codec.
        codec: WeightCodecKind::CscNibble,
    };

    r.enter("topology");
    let name_len = r.u16()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| ModelArtifactError::BadHeader { field: "name" })?
        .to_owned();
    let num_layers = r.u32()? as usize;
    if num_layers == 0 {
        return Err(ModelArtifactError::BadHeader {
            field: "num_layers",
        });
    }

    let mut layers: Vec<L> = Vec::with_capacity(num_layers.min(1 << 16));
    let mut model_codec = WeightCodecKind::CscNibble;
    for index in 0..num_layers {
        r.enter("layer image");
        // Version 1 has no codec id: every layer is csc-nibble.
        let codec = if version >= 2 {
            let id = r.u8()?;
            WeightCodecKind::from_id(id).ok_or(ModelArtifactError::UnknownCodec { index, id })?
        } else {
            WeightCodecKind::CscNibble
        };
        if index == 0 {
            model_codec = codec;
        } else if codec != model_codec {
            // The writer packs a whole model with one codec; a mixed
            // container did not come from this implementation.
            return Err(ModelArtifactError::BadHeader {
                field: "layer codec",
            });
        }
        let image_len = r.u32()? as usize;
        let image = r.take(image_len)?;
        let layer = decode(codec.codec(), image)
            .map_err(|source| ModelArtifactError::Layer { index, source })?;
        let (_, cols, num_pes, index_bits) = layer.shape();
        if num_pes != config.num_pes {
            return Err(ModelArtifactError::BadHeader {
                field: "layer num_pes",
            });
        }
        if index_bits != config.index_bits {
            return Err(ModelArtifactError::BadHeader {
                field: "layer index_bits",
            });
        }
        if let Some((rows, ..)) = layers.last().map(L::shape) {
            if cols != rows {
                return Err(ModelArtifactError::TopologyMismatch {
                    index,
                    expected: rows,
                    found: cols,
                });
            }
        }
        layers.push(layer);
    }
    if r.remaining() != 0 {
        return Err(ModelArtifactError::BadHeader {
            field: "payload length",
        });
    }
    config.codec = model_codec;

    // `CompiledModel::has_shared_codebook`, over the decoded records.
    let shared = layers
        .windows(2)
        .all(|p| p[0].codebook() == p[1].codebook());
    if (flags & FLAG_SHARED_CODEBOOK != 0) != shared {
        return Err(ModelArtifactError::BadHeader {
            field: "shared-codebook flag",
        });
    }
    Ok((config, name, layers))
}

impl CompiledModel {
    /// Exact byte length of [`CompiledModel::to_bytes`]' container,
    /// computed from the layout arithmetic without serializing.
    ///
    /// This is the model's footprint as a deployment artifact — the
    /// number a multi-model serving registry charges against its
    /// residency budget when deciding which cold model to evict.
    pub fn artifact_bytes(&self) -> usize {
        // Config block: num_pes/fifo_depth/spmat_width/index_bits (16) +
        // clock_hz (8) + hw_flags (1) + pad (3).
        let config = 28;
        let topology = 2 + self.name().len() + 4;
        // Version-2 layer records carry a codec id byte ahead of the
        // length; version 1 (the csc-nibble codec) does not.
        let record = if self.container_version() == 1 { 4 } else { 5 };
        let codec = self.config().codec.codec();
        let layers: usize = self
            .layers()
            .iter()
            .map(|l| record + codec.encoded_bytes(l))
            .sum::<usize>();
        PREAMBLE_LEN + config + topology + layers
    }

    /// The container version [`CompiledModel::to_bytes`] will write: 1
    /// for the default `csc-nibble` codec (byte-identical to what
    /// version-1 builds wrote), 2 for any other codec.
    pub fn container_version(&self) -> u16 {
        if self.config().codec == WeightCodecKind::CscNibble {
            1
        } else {
            2
        }
    }

    /// Serializes the model into the versioned `.eie` container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();

        // Config block.
        let cfg = self.config();
        payload.extend_from_slice(&(cfg.num_pes as u32).to_le_bytes());
        payload.extend_from_slice(&(cfg.fifo_depth as u32).to_le_bytes());
        payload.extend_from_slice(&cfg.spmat_width_bits.to_le_bytes());
        payload.extend_from_slice(&cfg.index_bits.to_le_bytes());
        payload.extend_from_slice(&cfg.clock_hz.to_le_bytes());
        let hw_flags = u8::from(cfg.lnzd_tree)
            | u8::from(cfg.ptr_banked) << 1
            | u8::from(cfg.accumulator_bypass) << 2;
        payload.push(hw_flags);
        payload.extend_from_slice(&[0u8; 3]);

        // Topology metadata.
        let name = self.name().as_bytes();
        assert!(name.len() <= u16::MAX as usize, "model name too long");
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(&(self.num_layers() as u32).to_le_bytes());

        // Layer images (each embeds its codebook; sharing is recorded in
        // the preamble flags and costs only the duplicated table bytes).
        let version = self.container_version();
        let codec = self.config().codec;
        for layer in self.layers() {
            if version >= 2 {
                payload.push(codec.id());
            }
            let image = codec.codec().encode(layer);
            assert!(
                image.len() <= u32::MAX as usize,
                "layer image exceeds the container's u32 length field"
            );
            payload.extend_from_slice(&(image.len() as u32).to_le_bytes());
            payload.extend_from_slice(&image);
        }

        let mut out = Vec::with_capacity(PREAMBLE_LEN + payload.len());
        out.extend_from_slice(&MODEL_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        let flags = if self.has_shared_codebook() {
            FLAG_SHARED_CODEBOOK
        } else {
            0
        };
        out.extend_from_slice(&flags.to_le_bytes());
        assert!(
            payload.len() <= u32::MAX as usize,
            "model payload exceeds the container's u32 length field"
        );
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes and **validates** a `.eie` container: magic,
    /// version, flags, checksum, config ranges, topology chaining and
    /// every layer image's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelArtifactError`] naming the first problem found;
    /// corrupt bytes never reach a backend.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompiledModel, ModelArtifactError> {
        let (config, name, layers) = read_container(bytes, |codec, image| codec.decode(image))?;
        Ok(CompiledModel::from_parts(config, layers, name))
    }

    /// The served load: a `.eie` container read straight into the form
    /// `backend` walks ([`BackendKind::plan_cut`]). A backend that walks
    /// plans gets every layer's plan, cut into at least `t` blocks,
    /// decoded from the layer images directly
    /// ([`WeightCodec::decode_plan`]) — no [`EncodedLayer`] is built and
    /// no layer is decoded twice. Any other backend gets the encoded
    /// layers of [`CompiledModel::from_bytes`]. Either way the result is
    /// [`CompiledModel::into_served`] of the decoded model.
    ///
    /// # Errors
    ///
    /// Exactly [`CompiledModel::from_bytes`]' errors, the first one
    /// first.
    ///
    /// [`WeightCodec::decode_plan`]: eie_compress::WeightCodec::decode_plan
    pub fn load_served(
        bytes: &[u8],
        backend: BackendKind,
    ) -> Result<ServedModel, ModelArtifactError> {
        let Some(cut) = backend.plan_cut() else {
            return Ok(Self::from_bytes(bytes)?.into_served(backend));
        };
        let (config, name, layers) =
            read_container(bytes, |codec, image| codec.decode_plan(image, cut))?;
        Ok(ServedModel {
            name,
            config,
            input_dim: layers[0].plan.cols(),
            plans: layers.into_iter().map(|l| Arc::new(l.plan)).collect(),
            layers: Vec::new(),
        })
    }

    /// Writes the model to a `.eie` file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelArtifactError::Io`] when the file cannot be
    /// written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelArtifactError> {
        fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a `.eie` file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelArtifactError::Io`] when the file cannot be read,
    /// or any decode error from [`CompiledModel::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<CompiledModel, ModelArtifactError> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendKind;
    use eie_compress::ValidateLayerError;
    use eie_nn::zoo::random_sparse;

    fn codec_model(codec: WeightCodecKind) -> CompiledModel {
        let w1 = random_sparse(32, 24, 0.25, 1);
        let w2 = random_sparse(16, 32, 0.25, 2);
        CompiledModel::compile(
            EieConfig::default().with_num_pes(4).with_codec(codec),
            &[&w1, &w2],
        )
        .with_name("unit-test model")
    }

    fn sample_model() -> CompiledModel {
        codec_model(WeightCodecKind::CscNibble)
    }

    /// Recomputes the payload CRC after a test patches payload bytes, so
    /// the corruption under test is reached instead of the checksum.
    fn reseal(bytes: &mut [u8]) {
        let crc = crc32(&bytes[PREAMBLE_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    }

    /// Byte offset of the first layer record inside a serialized model.
    fn first_layer_record(model: &CompiledModel) -> usize {
        PREAMBLE_LEN + 28 + 2 + model.name().len() + 4
    }

    /// The error both loads give `bytes`: the decoded load's, which the
    /// served load must repeat — same variant, same fields — under every
    /// cut, without panicking.
    fn load_error(bytes: &[u8]) -> ModelArtifactError {
        let decoded = CompiledModel::from_bytes(bytes).unwrap_err();
        for backend in [BackendKind::NativeCpu(1), BackendKind::NativeCpu(3)] {
            let served = CompiledModel::load_served(bytes, backend).unwrap_err();
            assert_eq!(format!("{served:?}"), format!("{decoded:?}"), "{backend}");
        }
        decoded
    }

    /// The bit-at-a-time CRC-32 this module used to ship: the oracle
    /// for the slice-by-8 tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_alignment() {
        // Lengths 0..=64 cover every mix of 8-byte steps and tail bytes;
        // the start offset moves the data against the allocator's
        // alignment (the word loop must not care).
        let pool: Vec<u8> = (0..64 + 8u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        for align in 0..8 {
            for len in 0..=64 {
                let bytes = &pool[align..align + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "length {len} at offset {align}"
                );
            }
        }
        let long: Vec<u8> = (0..100_003u32).map(|i| (i * 31 + (i >> 7)) as u8).collect();
        assert_eq!(crc32(&long), crc32_bitwise(&long));
    }

    #[test]
    fn artifact_bytes_matches_serialized_length() {
        let model = sample_model();
        assert_eq!(model.artifact_bytes(), model.to_bytes().len());
        // Unnamed and single-layer shapes hit the other layout branches.
        let single = CompiledModel::compile_layer(
            EieConfig::default().with_num_pes(2),
            &random_sparse(16, 12, 0.4, 9),
        );
        assert_eq!(single.artifact_bytes(), single.to_bytes().len());
    }

    #[test]
    fn roundtrip_is_identity() {
        let model = sample_model();
        let restored = CompiledModel::from_bytes(&model.to_bytes()).expect("roundtrip");
        assert_eq!(restored, model);
        assert_eq!(restored.name(), "unit-test model");
    }

    #[test]
    fn roundtrip_preserves_outputs_bit_exactly() {
        let model = sample_model();
        let restored = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
        let batch = vec![vec![0.5f32; 24]; 2];
        let a = model.infer(BackendKind::Functional).submit(&batch);
        let b = restored.infer(BackendKind::Functional).submit(&batch);
        for i in 0..batch.len() {
            assert_eq!(a.outputs(i), b.outputs(i));
        }
    }

    #[test]
    fn shared_codebook_flag_roundtrips() {
        let w1 = random_sparse(24, 16, 0.3, 5);
        let w2 = random_sparse(8, 24, 0.3, 6);
        let shared = CompiledModel::compile_shared_codebook(
            EieConfig::default().with_num_pes(2),
            &[&w1, &w2],
        );
        assert!(shared.has_shared_codebook());
        let bytes = shared.to_bytes();
        assert_eq!(
            u16::from_le_bytes([bytes[6], bytes[7]]) & FLAG_SHARED_CODEBOOK,
            FLAG_SHARED_CODEBOOK
        );
        let restored = CompiledModel::from_bytes(&bytes).unwrap();
        assert!(restored.has_shared_codebook());

        let per_layer = CompiledModel::compile(EieConfig::default().with_num_pes(2), &[&w1, &w2]);
        assert!(!per_layer.has_shared_codebook());
        let restored = CompiledModel::from_bytes(&per_layer.to_bytes()).unwrap();
        assert!(!restored.has_shared_codebook());
    }

    #[test]
    fn default_codec_still_writes_version_1_containers() {
        let model = sample_model();
        assert_eq!(model.container_version(), 1);
        let bytes = model.to_bytes();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 1);
        let restored = CompiledModel::from_bytes(&bytes).expect("v1 loads");
        assert_eq!(restored.config().codec, WeightCodecKind::CscNibble);
    }

    #[test]
    fn non_default_codecs_write_version_2_and_roundtrip() {
        for codec in [WeightCodecKind::HuffmanPacked, WeightCodecKind::BitPlane] {
            let model = codec_model(codec);
            assert_eq!(model.container_version(), 2);
            let bytes = model.to_bytes();
            assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2, "{codec}");
            assert_eq!(model.artifact_bytes(), bytes.len(), "{codec}");
            let restored = CompiledModel::from_bytes(&bytes).expect("v2 loads");
            assert_eq!(restored, model, "{codec}");
            assert_eq!(restored.config().codec, codec, "{codec}");
        }
    }

    #[test]
    fn codec_only_changes_storage_not_outputs() {
        let batch = vec![vec![0.5f32; 24]; 2];
        let golden = sample_model().infer(BackendKind::Functional).submit(&batch);
        for codec in [WeightCodecKind::HuffmanPacked, WeightCodecKind::BitPlane] {
            let restored = CompiledModel::from_bytes(&codec_model(codec).to_bytes()).unwrap();
            let out = restored.infer(BackendKind::Functional).submit(&batch);
            for i in 0..batch.len() {
                assert_eq!(out.outputs(i), golden.outputs(i), "{codec}");
            }
        }
    }

    #[test]
    fn huffman_codec_shrinks_the_artifact() {
        assert!(
            codec_model(WeightCodecKind::HuffmanPacked).artifact_bytes()
                < sample_model().artifact_bytes()
        );
    }

    #[test]
    fn unknown_codec_id_is_a_typed_error() {
        let model = codec_model(WeightCodecKind::HuffmanPacked);
        let mut bytes = model.to_bytes();
        let pos = first_layer_record(&model);
        assert_eq!(bytes[pos], WeightCodecKind::HuffmanPacked.id());
        bytes[pos] = 9;
        reseal(&mut bytes);
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::UnknownCodec { index: 0, id: 9 })
        ));
        let err = ModelArtifactError::UnknownCodec { index: 0, id: 9 };
        assert!(err.to_string().contains("unknown weight codec id 9"));
    }

    #[test]
    fn mixed_layer_codecs_are_rejected() {
        let model = codec_model(WeightCodecKind::HuffmanPacked);
        let mut bytes = model.to_bytes();
        // Walk to the second layer record and relabel it csc-nibble.
        let first = first_layer_record(&model);
        let image_len =
            u32::from_le_bytes(bytes[first + 1..first + 5].try_into().unwrap()) as usize;
        let second = first + 5 + image_len;
        assert_eq!(bytes[second], WeightCodecKind::HuffmanPacked.id());
        bytes[second] = WeightCodecKind::CscNibble.id();
        reseal(&mut bytes);
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::BadHeader {
                field: "layer codec"
            })
        ));
    }

    #[test]
    fn rejects_version_zero() {
        let mut bytes = sample_model().to_bytes();
        bytes[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::UnsupportedVersion {
                found: 0,
                supported: MODEL_VERSION
            })
        ));
    }

    #[test]
    fn v2_bitflips_and_truncations_are_rejected() {
        let bytes = codec_model(WeightCodecKind::BitPlane).to_bytes();
        let stride = ((bytes.len() - PREAMBLE_LEN) / 61).max(1);
        for pos in (PREAMBLE_LEN..bytes.len()).step_by(stride) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                matches!(
                    load_error(&corrupt),
                    ModelArtifactError::ChecksumMismatch { .. }
                ),
                "flip at byte {pos} escaped the checksum"
            );
        }
        for cut in [PREAMBLE_LEN + 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    load_error(&bytes[..cut]),
                    ModelArtifactError::Truncated { .. }
                ),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_model().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::BadMagic)
        ));
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = sample_model().to_bytes();
        bytes[4..6].copy_from_slice(&(MODEL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::UnsupportedVersion { found, supported })
                if found == MODEL_VERSION + 1 && supported == MODEL_VERSION
        ));
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut bytes = sample_model().to_bytes();
        bytes[6] |= 0x80;
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::BadHeader { field: "flags" })
        ));
    }

    #[test]
    fn any_payload_bitflip_is_caught_by_the_checksum() {
        let bytes = sample_model().to_bytes();
        let stride = ((bytes.len() - PREAMBLE_LEN) / 61).max(1);
        for pos in (PREAMBLE_LEN..bytes.len()).step_by(stride) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                matches!(
                    load_error(&corrupt),
                    ModelArtifactError::ChecksumMismatch { .. }
                ),
                "flip at byte {pos} escaped the checksum"
            );
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        for codec in WeightCodecKind::ALL {
            let bytes = codec_model(codec).to_bytes();
            for cut in 0..bytes.len() {
                let err = load_error(&bytes[..cut]);
                assert!(
                    matches!(err, ModelArtifactError::Truncated { .. }),
                    "{codec}: prefix of {cut} bytes: {err:?}"
                );
            }
        }
    }

    /// Resealed structural corruptions of a version-1 layer image reach
    /// the layer checks, and both loads name the same first problem —
    /// also when two slices are broken and the first broken slice is not
    /// the first to be found broken by a head-first check.
    #[test]
    fn resealed_structural_corruptions_fail_alike_on_both_loads() {
        let model = sample_model();
        let layer = model.layer(0);
        let (cols, codebook) = (layer.cols(), layer.codebook().len());
        // Each PE's section: local_rows | n_entries | col_ptr | entries.
        let mut pe_at = vec![first_layer_record(&model) + 4 + 20 + 4 * codebook];
        for slice in layer.slices() {
            let next = pe_at.last().unwrap() + 8 + 4 * (cols + 1) + 2 * slice.num_entries();
            pe_at.push(next);
        }
        let ptr = |pe: usize, j: usize| pe_at[pe] + 8 + 4 * j;
        let entry = |pe: usize, k: usize| pe_at[pe] + 8 + 4 * (cols + 1) + 2 * k;
        let put = |bytes: &mut Vec<u8>, at: usize, v: u32| {
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        };
        let get =
            |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let bad_code = |b: &mut Vec<u8>| b[entry(0, 0)] = codebook as u8;
        let decreasing = |b: &mut Vec<u8>| put(b, ptr(2, cols / 2), u32::MAX);
        type Corrupt<'a> = (&'a str, Box<dyn Fn(&mut Vec<u8>) + 'a>, ValidateLayerError);
        let cases: Vec<Corrupt> = vec![
            (
                "col_ptr decreasing",
                Box::new(decreasing),
                ValidateLayerError::ColPtrInconsistent {
                    pe: 2,
                    col: cols / 2,
                },
            ),
            (
                "col_ptr dangling",
                Box::new(|b: &mut Vec<u8>| {
                    let end = get(b, ptr(1, cols));
                    put(b, ptr(1, cols), end + 5);
                }),
                ValidateLayerError::ColPtrInconsistent { pe: 1, col: 0 },
            ),
            (
                "zero run past the index width",
                Box::new(|b: &mut Vec<u8>| b[entry(2, 0) + 1] = 200),
                ValidateLayerError::ZeroRunTooLong { pe: 2, entry: 0 },
            ),
            (
                "code past the codebook",
                Box::new(bad_code),
                ValidateLayerError::CodeOutOfRange { pe: 0, entry: 0 },
            ),
            (
                "row overflow",
                Box::new(|b: &mut Vec<u8>| {
                    for k in 0..layer.slice(3).num_entries() {
                        b[entry(3, k) + 1] = 15;
                    }
                }),
                ValidateLayerError::RowOverflow { pe: 3, col: 0 },
            ),
            (
                "uneven PE share",
                Box::new(|b: &mut Vec<u8>| {
                    let (first, second) = (get(b, pe_at[0]), get(b, pe_at[1]));
                    put(b, pe_at[0], first + 1);
                    put(b, pe_at[1], second - 1);
                }),
                ValidateLayerError::RowShare {
                    pe: 0,
                    expected: 8,
                    actual: 9,
                },
            ),
            (
                "an entry error before a pointer error",
                Box::new(move |b: &mut Vec<u8>| {
                    bad_code(b);
                    decreasing(b);
                }),
                ValidateLayerError::CodeOutOfRange { pe: 0, entry: 0 },
            ),
        ];
        for (what, corrupt, want) in cases {
            let mut bytes = model.to_bytes();
            corrupt(&mut bytes);
            reseal(&mut bytes);
            match load_error(&bytes) {
                ModelArtifactError::Layer {
                    index: 0,
                    source: DecodeLayerError::Invalid(got),
                } if got == want => {}
                other => panic!("{what}: expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = sample_model().to_bytes();
        bytes.push(0);
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ModelArtifactError::BadHeader {
                field: "trailing bytes"
            })
        ));
    }

    #[test]
    fn save_and_load_through_a_file() {
        let model = sample_model();
        let path = std::env::temp_dir().join("eie_core_artifact_unit_test.eie");
        model.save(&path).expect("save");
        let restored = CompiledModel::load(&path).expect("load");
        assert_eq!(restored, model);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_of_missing_file_is_io_error() {
        let err = CompiledModel::load("/nonexistent/definitely/missing.eie").unwrap_err();
        assert!(matches!(err, ModelArtifactError::Io(_)));
        assert!(err.to_string().contains("I/O"));
        use std::error::Error as _;
        assert!(err.source().is_some());
    }

    #[test]
    fn error_display_names_the_problem() {
        let e = ModelArtifactError::TopologyMismatch {
            index: 1,
            expected: 32,
            found: 24,
        };
        let s = e.to_string();
        assert!(
            s.contains("layer 1") && s.contains("32") && s.contains("24"),
            "{s}"
        );
        let e = ModelArtifactError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("corrupt"));
    }
}
