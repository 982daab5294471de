//! The relative-indexed, interleaved CSC encoding (paper §III-B/C, Fig. 3).

use std::error::Error;
use std::fmt;

use eie_nn::CsrMatrix;

use crate::{Codebook, EncodingStats};

/// An invariant violation found by [`EncodedLayer::validate`].
///
/// The encoder never produces invalid layers; validation exists for
/// encoded data arriving from outside (deserialized images, DMA loads in
/// the accelerator's I/O mode — §IV "Central Control Unit") and for
/// failure-injection testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateLayerError {
    /// A slice's column-pointer array has the wrong length.
    ColPtrLength {
        /// PE whose slice is invalid.
        pe: usize,
        /// Expected `cols + 1`.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// Column pointers decrease, or do not span the entry array.
    ColPtrInconsistent {
        /// PE whose slice is invalid.
        pe: usize,
        /// First offending column.
        col: usize,
    },
    /// An entry's zero-run exceeds the encoding's index width.
    ZeroRunTooLong {
        /// PE whose slice is invalid.
        pe: usize,
        /// Absolute entry index.
        entry: usize,
    },
    /// An entry's code addresses past the populated codebook.
    CodeOutOfRange {
        /// PE whose slice is invalid.
        pe: usize,
        /// Absolute entry index.
        entry: usize,
    },
    /// A column's decoded rows run past the PE's local row count
    /// (overflowing accumulator addresses in hardware).
    RowOverflow {
        /// PE whose slice is invalid.
        pe: usize,
        /// Offending column.
        col: usize,
    },
    /// A PE does not hold its interleaved share of the rows (`rows / n`,
    /// plus one for the first `rows % n` PEs): every accumulator → row
    /// map is computed from that rule, not stored.
    RowShare {
        /// PE whose slice is invalid.
        pe: usize,
        /// The interleave's local row count for this PE.
        expected: usize,
        /// The slice's local row count.
        actual: usize,
    },
}

impl fmt::Display for ValidateLayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateLayerError::ColPtrLength {
                pe,
                expected,
                actual,
            } => write!(
                f,
                "PE {pe}: column pointer array has length {actual}, expected {expected}"
            ),
            ValidateLayerError::ColPtrInconsistent { pe, col } => {
                write!(f, "PE {pe}: column pointers inconsistent at column {col}")
            }
            ValidateLayerError::ZeroRunTooLong { pe, entry } => {
                write!(f, "PE {pe}: zero run exceeds index width at entry {entry}")
            }
            ValidateLayerError::CodeOutOfRange { pe, entry } => {
                write!(f, "PE {pe}: codebook index out of range at entry {entry}")
            }
            ValidateLayerError::RowOverflow { pe, col } => {
                write!(
                    f,
                    "PE {pe}: decoded row overflows local rows in column {col}"
                )
            }
            ValidateLayerError::RowShare {
                pe,
                expected,
                actual,
            } => write!(
                f,
                "PE {pe}: holds {actual} local rows, not its interleaved share of {expected}"
            ),
        }
    }
}

impl Error for ValidateLayerError {}

/// Configuration of the compression pipeline.
///
/// Defaults match the paper: 64 PEs, 4-bit relative indices (max zero run
/// of 15 before a padding zero is inserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressConfig {
    /// Number of processing elements the rows are interleaved over.
    pub num_pes: usize,
    /// Bits per relative row index; the maximum encodable zero run is
    /// `2^index_bits - 1`. The paper uses 4; other values drive the
    /// index-width ablation.
    pub index_bits: u32,
    /// Lloyd iterations for the codebook fit.
    pub kmeans_iters: usize,
    /// At most this many weights are sampled for the codebook fit.
    pub kmeans_sample_limit: usize,
}

impl Default for CompressConfig {
    fn default() -> Self {
        Self {
            num_pes: 64,
            index_bits: 4,
            kmeans_iters: 30,
            kmeans_sample_limit: 65_536,
        }
    }
}

impl CompressConfig {
    /// The default configuration with a different PE count.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes == 0`.
    pub fn with_pes(num_pes: usize) -> Self {
        assert!(num_pes > 0, "num_pes must be non-zero");
        Self {
            num_pes,
            ..Self::default()
        }
    }

    /// Largest zero run encodable without padding: `2^index_bits - 1`.
    pub fn max_zero_run(self) -> usize {
        (1usize << self.index_bits) - 1
    }
}

/// One encoded `(v, z)` entry: a 4-bit codebook index and a 4-bit count of
/// preceding zeros (paper Fig. 3). `code == 0` is a padding zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Entry {
    /// Codebook index (`v`); 0 for padding zeros.
    pub code: u8,
    /// Number of zeros before this entry (`z`, the relative row index).
    pub zrun: u8,
}

impl Entry {
    /// The byte the hardware stores: low nibble `v`, high nibble `z`
    /// ("Each entry in the SRAM is 8-bits in length and contains one 4-bit
    /// element of v and one 4-bit element of x", §IV).
    ///
    /// # Panics
    ///
    /// Panics if either field exceeds a nibble (only possible when
    /// `index_bits > 4` was configured).
    pub fn packed(self) -> u8 {
        assert!(
            self.code < 16 && self.zrun < 16,
            "entry exceeds 4-bit fields"
        );
        (self.zrun << 4) | self.code
    }

    /// True if this entry is an inserted padding zero.
    pub fn is_padding(self) -> bool {
        self.code == 0
    }
}

/// The slice of the encoded matrix owned by one PE.
///
/// PE `k` of `N` stores all rows `i` with `i mod N == k` (paper §III-C);
/// within the slice, rows are identified by their *local* index `i div N`.
/// Entries of each column are stored contiguously; `col_ptr[j]..col_ptr[j+1]`
/// spans column `j` (the `p` vector of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct PeSlice {
    entries: Vec<Entry>,
    col_ptr: Vec<u32>,
    local_rows: usize,
}

impl PeSlice {
    /// Crate-internal constructor for the layer-image reader (`codec.rs`).
    pub(crate) fn from_raw_parts(
        entries: Vec<Entry>,
        col_ptr: Vec<u32>,
        local_rows: usize,
    ) -> Self {
        Self {
            entries,
            col_ptr,
            local_rows,
        }
    }

    /// Number of local rows (accumulators) this PE owns.
    pub fn local_rows(&self) -> usize {
        self.local_rows
    }

    /// Total stored entries, padding included.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// The column pointer array (`cols + 1` long).
    pub fn col_ptr(&self) -> &[u32] {
        &self.col_ptr
    }

    /// The flat entry array (all columns concatenated) — the contents of
    /// the sparse-matrix SRAM. The cycle simulator indexes this directly
    /// with absolute entry addresses from [`col_span`](PeSlice::col_span).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The entries of column `j`, in local-row order.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col_entries(&self, j: usize) -> &[Entry] {
        let (s, e) = self.col_span(j);
        &self.entries[s..e]
    }

    /// `(start, end)` entry indices of column `j` — what the pointer-read
    /// unit fetches from the two pointer SRAM banks.
    ///
    /// # Panics
    ///
    /// Panics if `j + 1 >= col_ptr.len()`.
    pub fn col_span(&self, j: usize) -> (usize, usize) {
        (self.col_ptr[j] as usize, self.col_ptr[j + 1] as usize)
    }

    /// Visits `(local_row, code)` for every entry of column `j`, padding
    /// included (padding entries have `code == 0`).
    pub fn walk_column(&self, j: usize, mut visit: impl FnMut(usize, u8)) {
        let mut cursor = 0usize;
        for e in self.col_entries(j) {
            let row = cursor + e.zrun as usize;
            visit(row, e.code);
            cursor = row + 1;
        }
    }

    /// Number of padding entries in the whole slice.
    pub fn padding_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_padding()).count()
    }
}

/// A compressed layer: codebook plus one [`PeSlice`] per processing element.
///
/// This is the artefact EIE loads into its SRAMs in I/O mode, and the input
/// to both the cycle-accurate simulator and the functional reference.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedLayer {
    rows: usize,
    cols: usize,
    index_bits: u32,
    codebook: Codebook,
    slices: Vec<PeSlice>,
}

impl EncodedLayer {
    /// Crate-internal constructor for the layer-image reader (`codec.rs`).
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        index_bits: u32,
        codebook: Codebook,
        slices: Vec<PeSlice>,
    ) -> Self {
        Self {
            rows,
            cols,
            index_bits,
            codebook,
            slices,
        }
    }

    /// Output dimension (matrix rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension (matrix columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of PEs the layer is partitioned over.
    pub fn num_pes(&self) -> usize {
        self.slices.len()
    }

    /// Bits per relative index used by the encoding.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// The shared-weight codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// The slice owned by PE `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_pes()`.
    pub fn slice(&self, k: usize) -> &PeSlice {
        &self.slices[k]
    }

    /// All PE slices in PE order.
    pub fn slices(&self) -> &[PeSlice] {
        &self.slices
    }

    /// Total stored entries across PEs, padding included.
    pub fn total_entries(&self) -> usize {
        self.slices.iter().map(PeSlice::num_entries).sum()
    }

    /// Maps a `(pe, local_row)` pair back to the global row index.
    pub fn global_row(&self, pe: usize, local_row: usize) -> usize {
        local_row * self.num_pes() + pe
    }

    /// Decodes back to CSR with codebook-quantized values (padding zeros
    /// dropped) — the golden-model check of the encoding.
    pub fn decode(&self) -> CsrMatrix {
        let mut triplets = Vec::new();
        for (pe, slice) in self.slices.iter().enumerate() {
            for j in 0..self.cols {
                slice.walk_column(j, |local, code| {
                    if code != 0 {
                        triplets.push((self.global_row(pe, local), j, self.codebook.lookup(code)));
                    }
                });
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Reference sparse M×V on the encoded form (`f32` arithmetic):
    /// skips zero activations exactly as the hardware does.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != cols`.
    pub fn spmv_f32(&self, a: &[f32]) -> Vec<f32> {
        assert_eq!(a.len(), self.cols, "activation length mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (j, &aj) in a.iter().enumerate() {
            if aj == 0.0 {
                continue;
            }
            for (pe, slice) in self.slices.iter().enumerate() {
                slice.walk_column(j, |local, code| {
                    if code != 0 {
                        y[self.global_row(pe, local)] += self.codebook.lookup(code) * aj;
                    }
                });
            }
        }
        y
    }

    /// Encoding statistics (padding overhead, storage footprint).
    pub fn stats(&self) -> EncodingStats {
        EncodingStats::from_layer(self)
    }

    /// Checks every structural invariant of the encoding: each PE's
    /// interleaved row share, pointer-array shape and monotonicity,
    /// zero-run bounds, codebook index range, and accumulator-address
    /// bounds.
    ///
    /// The encoder upholds these by construction; validate data that
    /// arrived from outside (e.g. a deserialized layer image) before
    /// simulating it.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateLayerError`] found.
    pub fn validate(&self) -> Result<(), ValidateLayerError> {
        let rules = SliceRules::of(self);
        for (pe, slice) in self.slices.iter().enumerate() {
            let ptr = &slice.col_ptr[..];
            rules.check_head(pe, slice.local_rows, ptr, slice.entries.len())?;
            rules.check_entries(pe, slice.local_rows, ptr, &slice.entries)?;
        }
        Ok(())
    }
}

/// A stored entry as the checks and the plan builder read it — an
/// in-memory [`Entry`], or a layer image's byte pair in place — as
/// `(code, zrun)`.
pub(crate) trait StoredEntry: Copy {
    fn fields(self) -> (u8, u8);
}

impl StoredEntry for Entry {
    fn fields(self) -> (u8, u8) {
        (self.code, self.zrun)
    }
}

impl StoredEntry for [u8; 2] {
    fn fields(self) -> (u8, u8) {
        (self[0], self[1])
    }
}

/// A slice's column-pointer array as stored — in memory, or a layer
/// image's little-endian words in place: its words, and every column's
/// `(start, end)` entry span in column order.
pub(crate) trait ColPtr {
    fn words(&self) -> impl DoubleEndedIterator<Item = u32> + ExactSizeIterator + '_;
    fn spans(&self) -> impl Iterator<Item = (usize, usize)> + '_;
}

impl ColPtr for [u32] {
    fn words(&self) -> impl DoubleEndedIterator<Item = u32> + ExactSizeIterator + '_ {
        self.iter().copied()
    }
    fn spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.windows(2).map(|w| (w[0] as usize, w[1] as usize))
    }
}

impl ColPtr for [[u8; 4]] {
    fn words(&self) -> impl DoubleEndedIterator<Item = u32> + ExactSizeIterator + '_ {
        self.iter().map(|&w| u32::from_le_bytes(w))
    }
    fn spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let word = |w: [u8; 4]| u32::from_le_bytes(w) as usize;
        self.windows(2).map(move |w| (word(w[0]), word(w[1])))
    }
}

/// What every PE slice of one layer is checked against: the layer's
/// shape, index width and populated codebook. [`EncodedLayer::validate`]
/// and the plan builder both check slices through it, in the same order
/// and with the same errors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SliceRules {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) num_pes: usize,
    max_run: u8,
    populated: u8,
}

impl SliceRules {
    pub(crate) fn new(
        rows: usize,
        cols: usize,
        num_pes: usize,
        index_bits: u32,
        codebook: &Codebook,
    ) -> Self {
        Self {
            rows,
            cols,
            num_pes,
            max_run: ((1usize << index_bits) - 1) as u8,
            populated: codebook.len() as u8,
        }
    }

    pub(crate) fn of(layer: &EncodedLayer) -> Self {
        let n = layer.num_pes();
        Self::new(layer.rows, layer.cols, n, layer.index_bits, &layer.codebook)
    }

    /// A slice's place in the layer: its interleaved row share, then its
    /// pointer array's length, ends and monotonicity.
    pub(crate) fn check_head<P: ColPtr + ?Sized>(
        &self,
        pe: usize,
        local_rows: usize,
        col_ptr: &P,
        entries: usize,
    ) -> Result<(), ValidateLayerError> {
        let expected = local_row_count(self.rows, self.num_pes, pe);
        if local_rows != expected {
            return Err(ValidateLayerError::RowShare {
                pe,
                expected,
                actual: local_rows,
            });
        }
        let mut words = col_ptr.words();
        if words.len() != self.cols + 1 {
            return Err(ValidateLayerError::ColPtrLength {
                pe,
                expected: self.cols + 1,
                actual: words.len(),
            });
        }
        if words.next() != Some(0) || words.next_back().map(|w| w as usize) != Some(entries) {
            return Err(ValidateLayerError::ColPtrInconsistent { pe, col: 0 });
        }
        match col_ptr.spans().position(|(start, end)| start > end) {
            Some(col) => Err(ValidateLayerError::ColPtrInconsistent { pe, col }),
            None => Ok(()),
        }
    }

    /// Whether zero runs whose OR is `zruns` and codes up to `max_code`
    /// are all in range — [`SliceRules::check_entries`]' first check,
    /// from what a scatter folded up.
    pub(crate) fn admits(&self, zruns: u8, max_code: u8) -> bool {
        zruns & !self.max_run == 0 && max_code < self.populated
    }

    /// A slice's entries, once its head passed: every zero run and code
    /// in range, then every column's rows inside the slice.
    pub(crate) fn check_entries<P: ColPtr + ?Sized, E: StoredEntry>(
        &self,
        pe: usize,
        local_rows: usize,
        col_ptr: &P,
        entries: &[E],
    ) -> Result<(), ValidateLayerError> {
        let zrun = |e: E| e.fields().1;
        let out_of_range = |e: E| zrun(e) > self.max_run || e.fields().0 >= self.populated;
        // One branch-free sweep; the first offender is looked up only
        // when there is one.
        if entries.iter().fold(false, |bad, &e| bad | out_of_range(e)) {
            let entry = entries
                .iter()
                .position(|&e| out_of_range(e))
                .expect("swept");
            return Err(if zrun(entries[entry]) > self.max_run {
                ValidateLayerError::ZeroRunTooLong { pe, entry }
            } else {
                ValidateLayerError::CodeOutOfRange { pe, entry }
            });
        }
        let rows = |(start, end)| {
            entries[start..end]
                .iter()
                .map(|&e| zrun(e) as usize + 1)
                .sum()
        };
        match col_ptr
            .spans()
            .map(rows)
            .position(|rows: usize| rows > local_rows)
        {
            Some(col) => Err(ValidateLayerError::RowOverflow { pe, col }),
            None => Ok(()),
        }
    }
}

impl fmt::Display for EncodedLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EncodedLayer({}x{}, {} PEs, {} entries)",
            self.rows,
            self.cols,
            self.num_pes(),
            self.total_entries()
        )
    }
}

/// Runs the full Deep Compression pipeline on an already-pruned matrix:
/// fits a codebook by k-means, then encodes into interleaved CSC.
///
/// This is a thin convenience shim over the unified
/// [`CompilePipeline`](crate::CompilePipeline) (quantize → encode →
/// validate with per-layer codebook strategy); prefer the pipeline
/// directly when compiling whole models or configuring the stages.
///
/// # Panics
///
/// Panics if the matrix has no non-zeros or `config.num_pes == 0`.
///
/// # Example
///
/// ```
/// use eie_compress::{compress, CompressConfig};
/// use eie_nn::zoo::random_sparse;
///
/// let w = random_sparse(64, 64, 0.1, 7);
/// let enc = compress(&w, CompressConfig::with_pes(8));
/// let back = enc.decode();
/// assert_eq!(back.nnz(), w.nnz());
/// ```
pub fn compress(matrix: &CsrMatrix, config: CompressConfig) -> EncodedLayer {
    crate::CompilePipeline::new(config).compile_matrix(matrix)
}

/// Encodes a pruned matrix with a caller-provided codebook.
///
/// # Panics
///
/// Panics if `config.num_pes == 0` or `config.index_bits` is 0 or > 8.
pub fn encode_with_codebook(
    matrix: &CsrMatrix,
    codebook: Codebook,
    config: CompressConfig,
) -> EncodedLayer {
    assert!(config.num_pes > 0, "num_pes must be non-zero");
    assert!(
        (1..=8).contains(&config.index_bits),
        "index_bits must be in 1..=8"
    );
    let n = config.num_pes;
    let max_run = config.max_zero_run();
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let csc = matrix.to_csc();

    let mut entries: Vec<Vec<Entry>> = vec![Vec::new(); n];
    let mut col_ptrs: Vec<Vec<u32>> = vec![vec![0u32]; n];
    // Per-PE cursor: next unencoded local row position in the current column.
    let mut cursors = vec![0usize; n];

    for j in 0..cols {
        cursors.iter_mut().for_each(|c| *c = 0);
        for (r, v) in csc.col(j) {
            let pe = r % n;
            let local = r / n;
            let code = codebook.quantize(v);
            let mut gap = local - cursors[pe];
            while gap > max_run {
                entries[pe].push(Entry {
                    code: 0,
                    zrun: max_run as u8,
                });
                gap -= max_run + 1;
            }
            entries[pe].push(Entry {
                code,
                zrun: gap as u8,
            });
            cursors[pe] = local + 1;
        }
        for (pe, ptrs) in col_ptrs.iter_mut().enumerate() {
            ptrs.push(entries[pe].len() as u32);
        }
    }

    let slices = entries
        .into_iter()
        .zip(col_ptrs)
        .enumerate()
        .map(|(pe, (entries, col_ptr))| PeSlice {
            entries,
            col_ptr,
            local_rows: local_row_count(rows, n, pe),
        })
        .collect();

    EncodedLayer {
        rows,
        cols,
        index_bits: config.index_bits,
        codebook,
        slices,
    }
}

/// Number of global rows assigned to PE `pe` when `rows` are interleaved
/// over `n` PEs.
pub(crate) fn local_row_count(rows: usize, n: usize, pe: usize) -> usize {
    rows / n + usize::from(pe < rows % n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eie_nn::zoo::random_sparse;
    use eie_nn::Matrix;

    fn quantized_reference(m: &CsrMatrix, cb: &Codebook) -> Matrix {
        let mut d = m.to_dense();
        for v in d.as_mut_slice() {
            if *v != 0.0 {
                *v = cb.dequantize(*v);
            }
        }
        d
    }

    #[test]
    fn paper_example_column_encoding() {
        // §III-B: column [0,0,1,2,0,…(18 zeros)…,3] encodes as
        // v=[1,2,0,3], z=[2,0,15,2].
        let mut triplets = vec![(2usize, 0usize, 1.0f32), (3, 0, 2.0)];
        triplets.push((22, 0, 3.0));
        let m = CsrMatrix::from_triplets(23, 1, &triplets);
        let cb = Codebook::from_centroids(&[1.0, 2.0, 3.0]);
        let enc = encode_with_codebook(&m, cb, CompressConfig::with_pes(1));
        let slice = enc.slice(0);
        let es = slice.col_entries(0);
        assert_eq!(es.len(), 4);
        assert_eq!(
            es.iter().map(|e| e.zrun).collect::<Vec<_>>(),
            vec![2, 0, 15, 2]
        );
        assert!(es[2].is_padding());
        let decoded_codes: Vec<u8> = es.iter().map(|e| e.code).collect();
        assert_eq!(decoded_codes[0], 1); // value 1.0 → centroid idx 1
        assert_eq!(decoded_codes[2], 0); // padding
    }

    #[test]
    fn figure2_interleaving_assigns_rows_mod_n() {
        // 16×8 matrix over 4 PEs: PE0 owns rows {0,4,8,12} (Fig. 2).
        let m = random_sparse(16, 8, 0.5, 3);
        let enc = compress(&m, CompressConfig::with_pes(4));
        assert_eq!(enc.slice(0).local_rows(), 4);
        assert_eq!(enc.global_row(0, 2), 8);
        assert_eq!(enc.global_row(2, 3), 14);
    }

    #[test]
    fn decode_preserves_pattern_and_quantized_values() {
        let m = random_sparse(60, 40, 0.15, 11);
        let enc = compress(&m, CompressConfig::with_pes(4));
        let decoded = enc.decode();
        assert_eq!(decoded.nnz(), m.nnz());
        let expected = quantized_reference(&m, enc.codebook());
        assert_eq!(decoded.to_dense(), expected);
    }

    #[test]
    fn decode_roundtrip_all_pe_counts() {
        let m = random_sparse(33, 17, 0.3, 5); // odd dims stress local rows
        for pes in [1, 2, 3, 4, 7, 16, 33, 64] {
            let enc = compress(&m, CompressConfig::with_pes(pes));
            let decoded = enc.decode();
            assert_eq!(
                decoded.to_dense(),
                quantized_reference(&m, enc.codebook()),
                "mismatch at {pes} PEs"
            );
        }
    }

    #[test]
    fn spmv_f32_matches_decoded_dense_gemv() {
        let m = random_sparse(40, 30, 0.2, 9);
        let enc = compress(&m, CompressConfig::with_pes(8));
        let a: Vec<f32> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.1).sin()
                }
            })
            .collect();
        let y = enc.spmv_f32(&a);
        let y_ref = quantized_reference(&m, enc.codebook()).gemv(&a);
        for (got, want) in y.iter().zip(&y_ref) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    #[test]
    fn long_gaps_insert_padding() {
        // One weight at the bottom of a tall column: local row 200 → 12
        // padding entries of run 15 plus the real entry (200 = 13*15 + 5
        // → 12 paddings consume 16 cells each… verify via decode).
        let m = CsrMatrix::from_triplets(201, 1, &[(200, 0, 1.5)]);
        let enc = compress(&m, CompressConfig::with_pes(1));
        let slice = enc.slice(0);
        assert!(slice.padding_entries() > 0);
        // Every padding run is maximal (15) except possibly none.
        for e in slice.col_entries(0) {
            if e.is_padding() {
                assert_eq!(e.zrun, 15);
            }
        }
        let decoded = enc.decode();
        assert_eq!(decoded.nnz(), 1);
        let items: Vec<(usize, usize, f32)> = decoded.iter().collect();
        assert_eq!(items[0].0, 200);
    }

    #[test]
    fn more_pes_reduce_padding() {
        // Fig. 12: padding decreases with PE count because local gaps shrink.
        let m = random_sparse(4096, 64, 0.05, 17);
        let pad = |pes: usize| {
            let enc = compress(&m, CompressConfig::with_pes(pes));
            enc.slices()
                .iter()
                .map(PeSlice::padding_entries)
                .sum::<usize>()
        };
        let (p1, p16, p64) = (pad(1), pad(16), pad(64));
        assert!(p1 > p16, "padding must shrink: 1PE={p1} 16PE={p16}");
        assert!(p16 >= p64, "padding must shrink: 16PE={p16} 64PE={p64}");
    }

    #[test]
    fn wider_index_bits_reduce_padding() {
        let m = CsrMatrix::from_triplets(1000, 1, &[(999, 0, 1.0)]);
        let narrow = encode_with_codebook(
            &m,
            Codebook::from_centroids(&[1.0]),
            CompressConfig {
                index_bits: 4,
                num_pes: 1,
                ..CompressConfig::default()
            },
        );
        let wide = encode_with_codebook(
            &m,
            Codebook::from_centroids(&[1.0]),
            CompressConfig {
                index_bits: 8,
                num_pes: 1,
                ..CompressConfig::default()
            },
        );
        assert!(wide.total_entries() < narrow.total_entries());
        assert_eq!(wide.decode().to_dense(), narrow.decode().to_dense());
    }

    #[test]
    fn empty_columns_have_empty_spans() {
        let m = CsrMatrix::from_triplets(8, 4, &[(0, 1, 1.0)]);
        let enc = compress(&m, CompressConfig::with_pes(2));
        let s = enc.slice(0);
        assert_eq!(s.col_span(0), (0, 0));
        let (b, e) = s.col_span(1);
        assert_eq!(e - b, 1);
        assert_eq!(s.col_span(2), s.col_span(3));
    }

    #[test]
    fn packed_byte_layout() {
        let e = Entry {
            code: 0x3,
            zrun: 0xA,
        };
        assert_eq!(e.packed(), 0xA3);
    }

    #[test]
    fn local_row_counts_cover_all_rows() {
        for rows in [1usize, 5, 64, 100, 8791] {
            for n in [1usize, 2, 3, 64, 256] {
                let total: usize = (0..n).map(|pe| local_row_count(rows, n, pe)).sum();
                assert_eq!(total, rows, "rows={rows} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "all-zero matrix")]
    fn compress_rejects_empty_matrix() {
        let m = CsrMatrix::from_triplets(4, 4, &[]);
        let _ = compress(&m, CompressConfig::default());
    }

    // ---- failure injection: validate() must catch every corruption ----

    fn valid_layer() -> EncodedLayer {
        let m = random_sparse(40, 20, 0.25, 3);
        compress(&m, CompressConfig::with_pes(4))
    }

    #[test]
    fn validate_accepts_encoder_output() {
        assert_eq!(valid_layer().validate(), Ok(()));
    }

    #[test]
    fn validate_catches_truncated_col_ptr() {
        let mut layer = valid_layer();
        layer.slices[1].col_ptr.pop();
        assert!(matches!(
            layer.validate(),
            Err(ValidateLayerError::ColPtrLength { pe: 1, .. })
        ));
    }

    #[test]
    fn validate_catches_decreasing_col_ptr() {
        let mut layer = valid_layer();
        let n = layer.slices[2].col_ptr.len();
        layer.slices[2].col_ptr[n / 2] = u32::MAX;
        assert!(matches!(
            layer.validate(),
            Err(ValidateLayerError::ColPtrInconsistent { pe: 2, .. })
        ));
    }

    #[test]
    fn validate_catches_dangling_final_pointer() {
        let mut layer = valid_layer();
        let n = layer.slices[0].col_ptr.len();
        layer.slices[0].col_ptr[n - 1] += 5;
        assert!(matches!(
            layer.validate(),
            Err(ValidateLayerError::ColPtrInconsistent { pe: 0, col: 0 })
        ));
    }

    #[test]
    fn validate_catches_oversized_zero_run() {
        let mut layer = valid_layer();
        if let Some(e) = layer.slices[0].entries.first_mut() {
            e.zrun = 200; // > 15 for index_bits = 4
        }
        assert!(matches!(
            layer.validate(),
            Err(ValidateLayerError::ZeroRunTooLong { pe: 0, entry: 0 })
        ));
    }

    #[test]
    fn validate_catches_code_out_of_codebook() {
        let mut layer = valid_layer();
        let populated = layer.codebook.len() as u8;
        if let Some(e) = layer.slices[3].entries.first_mut() {
            e.code = populated; // one past the populated entries
        }
        assert!(matches!(
            layer.validate(),
            Err(ValidateLayerError::CodeOutOfRange { pe: 3, entry: 0 })
        ));
    }

    #[test]
    fn validate_catches_row_overflow() {
        let mut layer = valid_layer();
        // Blow the cursor past local_rows with a large (but in-range)
        // run on every entry of the busiest column.
        let slice = &mut layer.slices[0];
        for e in slice.entries.iter_mut() {
            e.zrun = 15;
        }
        assert!(matches!(
            layer.validate(),
            Err(ValidateLayerError::RowOverflow { pe: 0, .. })
        ));
    }

    #[test]
    fn validate_error_messages_are_informative() {
        let e = ValidateLayerError::ZeroRunTooLong { pe: 7, entry: 42 };
        let msg = e.to_string();
        assert!(msg.contains("PE 7") && msg.contains("42"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(!boxed.to_string().is_empty());
    }
}
