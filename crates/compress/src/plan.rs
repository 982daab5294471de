//! Pre-decoded execution plans: the compressed format, lowered once for
//! repeated host execution — and kept compressed while it runs.
//!
//! The hardware streams the artifact's `(v, z)` entries at zero decode
//! cost; a host CPU re-expands zero runs and branches around padding,
//! per column, per call, once per PE slice. A [`LayerPlan`] pays that
//! layout cost **once** and keeps what EIE's premise depends on — the
//! weights stay small, and a batch-1 request touches only the columns
//! its non-zero activations select (bytes moved is the price: Gleinig
//! et al.; keep the shared-weight index packed through the inner loop:
//! Vooturi et al., PAPERS.md). Layout and bit-exactness: [`LayerPlan`].
//!
//! # Example
//!
//! ```
//! use eie_compress::{compress, CompressConfig, LayerPlan};
//! use eie_nn::zoo::random_sparse;
//!
//! let enc = compress(&random_sparse(64, 48, 0.2, 7), CompressConfig::with_pes(4));
//! let plan = LayerPlan::build(&enc);
//! assert_eq!((plan.num_pes(), plan.blocks().len()), (4, 1));
//! // Padding is dropped at plan-build time; real entries survive 1:1.
//! let padding: usize = enc.slices().iter().map(|s| s.padding_entries()).sum();
//! assert_eq!(plan.total_entries() + padding, enc.total_entries());
//! ```

use std::fmt;

use crate::encode::{local_row_count, ColPtr, SliceRules, StoredEntry};
use crate::{Codebook, EncodedLayer, ValidateLayerError, CODEBOOK_SIZE};

/// Fixed width of one batch lane block: the fused batch kernel processes
/// one plan entry against this many items' activations at a time, as one
/// `[i32; LANE_WIDTH]` chunk (256 bits of `i32` lanes — one AVX2 vector,
/// two SSE2 vectors, two NEON vectors).
///
/// The width is part of the *plan contract*, not a tuning knob: the
/// native kernel's scratch stripes are sized and aligned to it. Batches that are
/// not a multiple pad the last block with zero activations, which is
/// bit-exact (saturating-adding a zero product never changes an
/// accumulator) and discarded at gather.
pub const LANE_WIDTH: usize = 8;

/// Bits of a [`PlanEntry`] that hold the codebook code.
const CODE_BITS: u32 = 4;
const _: () = assert!(CODEBOOK_SIZE == 1 << CODE_BITS);

/// Most accumulators one [`PlanBlock`] owns: what is left of a `u16`
/// entry after the 4-bit code (12 bits).
pub const BLOCK_ACCUMULATORS: usize = 1 << (u16::BITS - CODE_BITS);

/// One plan entry, 2 bytes: `accumulator_in_block << 4 | codebook_code`.
///
/// Both fields are in range by construction — the accumulator is below
/// [`BLOCK_ACCUMULATORS`] and the code below [`CODEBOOK_SIZE`] for every
/// bit pattern — so a kernel indexing a `[_; BLOCK_ACCUMULATORS]`
/// accumulator array and the `[i32; CODEBOOK_SIZE]` LUT needs no bounds
/// check and no trust in the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct PlanEntry(u16);

impl PlanEntry {
    /// The accumulator this entry feeds, local to its block.
    #[inline(always)]
    pub fn accumulator(self) -> usize {
        (self.0 >> CODE_BITS) as usize
    }

    /// The codebook code (never 0: padding is dropped at build).
    #[inline(always)]
    pub fn code(self) -> usize {
        (self.0 & ((1 << CODE_BITS) - 1)) as usize
    }
}

/// One column-major block of a [`LayerPlan`]: a contiguous run of at
/// most [`BLOCK_ACCUMULATORS`] accumulators of the layer's PE-major
/// accumulator axis, with every real entry that feeds them — all PEs'
/// entries of one column merged into one run under a single `cols + 1`
/// extent index.
///
/// # Rail-free bound
///
/// A block also carries two numbers computed once at build: `P`, the
/// largest per-accumulator sum of its positive raw weights, and `N`,
/// the largest per-accumulator sum of its |negative| raw weights. For a
/// dispatch whose raw activations all lie in `[-a⁻, a⁺]`, a product is
/// positive only as (positive weight × positive activation) or
/// (negative × negative), so the positive products of any one
/// accumulator sum to at most `P·a⁺ + N·a⁻` and its negative products
/// to at least `−(N·a⁺ + P·a⁻)`. Every partial sum is the sum of a
/// *subset* of the accumulator's products (the columns visited so
/// far), hence lies in `[−(N·a⁺ + P·a⁻), P·a⁺ + N·a⁻]` at every step,
/// in any visiting order. [`PlanBlock::rail_free_for`] is that
/// inequality against `i32::MAX`. When it holds, induction over the
/// adds gives bit-identity: if the accumulator so far equals the exact
/// prefix sum and the next exact sum fits `i32`, `saturating_add` and
/// `wrapping_add` both return it — so a kernel may accumulate with
/// plain wrapping adds and never observe a rail. Zero activations and
/// the zero-padded lanes of a partial batch contribute zero products
/// (the empty subset), so they are inside the bound. When the
/// inequality fails nothing is assumed: the block takes the saturating
/// kernel for that dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanBlock {
    /// First accumulator owned, as a PE-major index into the layer.
    first: u32,
    /// Accumulators owned (`1..=BLOCK_ACCUMULATORS`).
    accumulators: u32,
    /// `P`: the largest per-accumulator sum of positive raw weights
    /// (`u32::MAX` when the build could not sum exactly).
    pos_weight: u32,
    /// `N`: the same over the |negative| raw weights.
    neg_weight: u32,
    entries: Vec<PlanEntry>,
    col_ptr: Vec<u32>,
}

impl PlanBlock {
    /// Whether no partial sum of any accumulator of this block can
    /// leave `i32` on a dispatch whose largest raw activation is
    /// `max_act` and smallest is `min_act` (pass 0 for a sign no
    /// activation has): `P·a⁺ + N·a⁻` and `N·a⁺ + P·a⁻` both at most
    /// `i32::MAX`, with `a⁺ = max(max_act, 0)` and `a⁻ = |min(min_act,
    /// 0)|` (see the type docs for why that makes wrapping and
    /// saturating accumulation bit-identical). Two multiply-adds; the
    /// native kernel asks it per block per dispatch.
    #[inline]
    pub fn rail_free_for(&self, max_act: i16, min_act: i16) -> bool {
        let (p, n) = (self.pos_weight as u64, self.neg_weight as u64);
        let (ap, an) = (max_act.max(0) as u64, min_act.min(0).unsigned_abs() as u64);
        // u32 × u16 products: the sums stay below 2^49.
        p * ap + n * an <= i32::MAX as u64 && n * ap + p * an <= i32::MAX as u64
    }

    /// Accumulators this block owns.
    pub fn accumulators(&self) -> usize {
        self.accumulators as usize
    }

    /// Total entries (padding is never stored in a plan).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Column `j`'s entry run, in ascending-accumulator order.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[inline]
    pub fn col(&self, j: usize) -> &[PlanEntry] {
        &self.entries[self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize]
    }
}

/// A compiled execution plan for one [`EncodedLayer`]: a short list of
/// column-major [`PlanBlock`]s of 2-byte [`PlanEntry`]s (padding
/// dropped, PE slices merged) and one layer-wide LUT of the raw Q8.8
/// multiplicands — built once, walked on every subsequent M×V.
///
/// # Layout
///
/// ```text
/// accumulators, PE-major:  | PE 0: local rows 0..r0 | PE 1: 0..r1 | ... | PE n-1 |
///                          |<------ block 0 (≤ 4096) ------>|<---- block 1 ---->|
///
/// block b:   col_ptr: [u32; cols + 1]     one extent index for the whole block
///            entries: [u16]               column-major; within a column,
///                                         ascending accumulator
///            entry  =  accumulator_in_block << 4 | codebook_code
///
/// layer:     lut: [i32; 16]               raw Q8.8 multiplicand per code
/// ```
///
/// The 64 PE slices are **merged**: a block owns a contiguous run of at
/// most [`BLOCK_ACCUMULATORS`] accumulators of the PE-major axis (an even
/// cut of that axis — all of AlexNet's 64 × 64 accumulators are one
/// block, two blocks are PEs 0..32 and 32..64, and an uneven or oversized
/// cut falls inside a slice, which is fine because accumulators, not
/// slices, are what a kernel owns). A live column is therefore **one**
/// contiguous run (~700 bytes on Alex-7) instead of 64 scattered 28-byte
/// ones, a dead column's bytes are genuinely skipped, and padding entries
/// — code 0 — are dropped at build (they add a raw zero, and
/// saturating-adding zero never changes an accumulator).
///
/// # Bit-exactness: one product per accumulator per column
///
/// The compressed format stores strictly increasing rows within one
/// `(PE, column)`, so an accumulator receives **at most one** product per
/// column. Walking columns in ascending order therefore hands every
/// `Accum32` the identical saturating-add sequence whatever the order or
/// grouping of entries *within* a column — merging slices, cutting
/// blocks anywhere, and fanning blocks out over threads cannot
/// reorder any accumulator's adds. And `lut[code] * a` is the same `i32`
/// product the hardware MAC forms from the decoded `codebook[code]`. The plan
/// property tests pin both against the functional golden model,
/// including near the `Accum32` rails where add order is observable.
///
/// # Rail-free blocks
///
/// Saturation itself is provable away, block by block and dispatch by
/// dispatch: each block records the largest per-accumulator sums of its
/// positive and |negative| raw weights, which bound every partial sum
/// of every accumulator for a given activation range
/// ([`PlanBlock::rail_free_for`]; the inequality and the induction step
/// "exact sum fits ⇒ saturating = wrapping" are on [`PlanBlock`]).
/// Blocks cut by [`LayerPlan::build_with_blocks`] get bounds of their
/// own; [`LayerPlan::rail_free_headroom`] is the activation range the
/// whole plan is proved for.
///
/// # Cost
///
/// A plan costs 2 bytes per surviving entry plus `4 × (cols + 1)` (and
/// 8 bytes of bounds) per block, against the hardware's 1 byte per
/// stored entry — the build-once/run-many trade of a serving host, at
/// a quarter of what an unpacked `(u32 row, i32 weight)` entry would
/// cost, and less than the in-memory [`EncodedLayer`] it was built from
/// (2 bytes per stored entry, padding included, plus an extent index
/// per PE).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    rows: usize,
    cols: usize,
    num_pes: usize,
    lut: [i32; CODEBOOK_SIZE],
    blocks: Vec<PlanBlock>,
}

/// One `(slice, block)` pair that shares accumulators: the slice-local
/// rows the block owns, and the PE-major accumulator index of the
/// slice's local row 0.
struct Window {
    slice: usize,
    block: usize,
    rows: std::ops::Range<usize>,
    slice_first: usize,
}

/// The one way a [`LayerPlan`] is built: fed one PE slice at a time, in
/// PE order, from any source of slices — an [`EncodedLayer`] in memory
/// ([`LayerPlan::build_with_blocks`]), a csc-nibble image's bytes in
/// place, or an entropy codec's slices, each decoded into one reused
/// buffer ([`WeightCodec::decode_plan`]). Every slice is checked as
/// [`EncodedLayer::validate`] checks it, with the same first error,
/// before any of it is scattered, so a source needs no decoded layer to
/// trust its bytes.
///
/// Extents start as an upper bound — a column's stored entries, padding
/// included, which is plain `col_ptr` arithmetic over every slice's
/// head, taken before the first entry is read. The scatter then reads
/// each slice once and writes at monotonically increasing offsets
/// (leaving every column run in ascending-accumulator order): each
/// entry is written unconditionally and the column's cursor advances by
/// whether it is real. One sequential sweep at the end closes the gaps
/// the dropped padding left, yielding the exact extent index.
///
/// [`WeightCodec::decode_plan`]: crate::WeightCodec::decode_plan
pub(crate) struct PlanBuilder {
    rules: SliceRules,
    lut: [i32; CODEBOOK_SIZE],
    blocks: Vec<PlanBlock>,
    /// Each block's column starts under the upper-bound extents (the
    /// blocks' `col_ptr`s are the write cursors until the sweep).
    starts: Vec<Vec<u32>>,
    /// Every `(slice, block)` pair, PE-outer; `windows[next_window..]`
    /// are the slices not yet pushed.
    windows: Vec<Window>,
    next_window: usize,
    /// The leading slices whose heads passed: only these are scattered.
    ready: usize,
    /// The head error of slice `ready`, reported when it is pushed — an
    /// earlier slice's entry error is found first, as `validate` would.
    refused: Option<ValidateLayerError>,
    /// The pushed slice's per-accumulator packed weight sums (reused).
    sums: Vec<u64>,
}

impl PlanBuilder {
    /// Takes every slice's head — `(local_rows, col_ptr, stored
    /// entries)`, in PE order — and sizes the plan's blocks, cut into at
    /// least `min_blocks` (see [`LayerPlan::build_with_blocks`]). The
    /// heads' checks stop at the first that fails; only the slices
    /// before it count toward the extents.
    pub(crate) fn new<'a, P: ColPtr + ?Sized + 'a>(
        rules: SliceRules,
        codebook: &Codebook,
        min_blocks: usize,
        heads: impl IntoIterator<Item = (usize, &'a P, usize)>,
    ) -> Self {
        let SliceRules {
            rows,
            cols,
            num_pes,
            ..
        } = rules;
        let mut lut = [0i32; CODEBOOK_SIZE];
        for (slot, w) in lut.iter_mut().zip(&codebook.to_fix16::<8>()) {
            *slot = w.raw() as i32;
        }

        // Even cuts of the PE-major accumulator axis.
        let parts = min_blocks
            .max(rows.div_ceil(BLOCK_ACCUMULATORS))
            .clamp(1, rows.max(1));
        let cut = |b: usize| (b as u64 * rows as u64 / parts as u64) as u32;
        // Every (slice, block) pair that shares accumulators, PE-outer,
        // from the interleave's shares (which every slice's head checks).
        let mut windows = Vec::with_capacity(num_pes + parts);
        let mut slice_first = 0usize;
        for s in 0..num_pes {
            let slice_end = slice_first + local_row_count(rows, num_pes, s);
            for b in 0..parts {
                let (first, end) = (cut(b) as usize, cut(b + 1) as usize);
                let (lo, hi) = (first.max(slice_first), end.min(slice_end));
                if lo < hi {
                    windows.push(Window {
                        slice: s,
                        block: b,
                        rows: lo - slice_first..hi - slice_first,
                        slice_first,
                    });
                }
            }
            slice_first = slice_end;
        }

        let mut starts = vec![vec![0u32; cols + 1]; parts];
        let (mut ready, mut refused, mut w) = (0, None, 0);
        for (pe, (local_rows, ptr, entries)) in heads.into_iter().enumerate() {
            if let Err(e) = rules.check_head(pe, local_rows, ptr, entries) {
                refused = Some(e);
                break;
            }
            while let Some(window) = windows.get(w).filter(|window| window.slice == pe) {
                let bounds = starts[window.block][1..].iter_mut();
                for (bound, (start, end)) in bounds.zip(ptr.spans()) {
                    *bound += (end - start) as u32;
                }
                w += 1;
            }
            ready += 1;
        }
        let blocks = starts
            .iter_mut()
            .enumerate()
            .map(|(b, start)| {
                for j in 0..cols {
                    start[j + 1] += start[j];
                }
                PlanBlock {
                    first: cut(b),
                    accumulators: cut(b + 1) - cut(b),
                    pos_weight: 0,
                    neg_weight: 0,
                    entries: vec![PlanEntry(0); start[cols] as usize],
                    col_ptr: start.clone(),
                }
            })
            .collect();
        Self {
            rules,
            lut,
            blocks,
            starts,
            windows,
            next_window: 0,
            ready,
            refused,
            sums: Vec::new(),
        }
    }

    /// Checks slice `pe` — the next in PE order — and scatters it into
    /// its blocks, in one pass: the scatter folds the entry checks in
    /// (the OR of every zero run, the largest code, whether a column ran
    /// past the slice's rows), and only a slice they flag is walked again
    /// by [`EncodedLayer::validate`]'s rules, to name its first error.
    /// The same pass sums every accumulator's positive and |negative| raw
    /// weights for the rail-free bounds ([`PlanBlock`]), as one packed
    /// add per entry: positive half in the high 32 bits, negative in the
    /// low. A half receives at most `cols` weights of at most 2^15.
    ///
    /// # Errors
    ///
    /// The slice's first [`ValidateLayerError`]; the plan is then
    /// refused, and no later slice may be pushed.
    pub(crate) fn push<P: ColPtr + ?Sized, E: StoredEntry>(
        &mut self,
        pe: usize,
        local_rows: usize,
        col_ptr: &P,
        entries: &[E],
    ) -> Result<(), ValidateLayerError> {
        if pe == self.ready {
            return Err(self.refused.take().expect("a refused head is pushed once"));
        }
        let weigh = self
            .lut
            .map(|w| (w.max(0) as u64) << 32 | w.min(0).unsigned_abs() as u64);
        self.sums.clear();
        self.sums.resize(local_rows, 0);
        // What the scatter sees of the entries: the OR of every zero run
        // (the widths' limits are `2^k - 1`), the largest code, and
        // whether a column ran past the slice's rows. A slice with no
        // window (no rows) has nothing to scatter: its entries, if any,
        // are checked below.
        let mut seen = (
            0u8,
            0u8,
            self.windows
                .get(self.next_window)
                .is_none_or(|w| w.slice != pe),
        );
        while let Some(w) = self.windows.get(self.next_window).filter(|w| w.slice == pe) {
            self.next_window += 1;
            let block = &mut self.blocks[w.block];
            let (sums, seen) = (&mut self.sums[..], &mut seen);
            if w.rows.len() == local_rows {
                scatter::<true, _, _>(block, w, col_ptr, entries, &weigh, sums, seen);
            } else {
                scatter::<false, _, _>(block, w, col_ptr, entries, &weigh, sums, seen);
            }
            // Each block's bounds are the largest halves of its
            // accumulators' packed sums.
            let owned = &self.sums[w.rows.clone()];
            let pos = owned.iter().map(|s| (s >> 32) as u32).max().unwrap_or(0);
            let neg = owned.iter().map(|&s| s as u32).max().unwrap_or(0);
            block.pos_weight = block.pos_weight.max(pos);
            block.neg_weight = block.neg_weight.max(neg);
        }
        let (zruns, max_code, overflow) = seen;
        if overflow || !self.rules.admits(zruns, max_code) {
            self.rules.check_entries(pe, local_rows, col_ptr, entries)?;
        }
        Ok(())
    }

    /// The plan, once every slice is pushed.
    pub(crate) fn finish(mut self) -> LayerPlan {
        let SliceRules {
            rows,
            cols,
            num_pes,
            ..
        } = self.rules;
        debug_assert_eq!(self.next_window, self.windows.len(), "every slice pushed");
        // Close the gaps the dropped padding left: one sequential sweep,
        // which also yields the exact extent index. The bounds are exact
        // only if no packed half could carry; a wider layer gets
        // `u32::MAX` bounds, which prove nothing.
        let exact = (cols as u64) << 15 < 1 << 32;
        for (block, start) in self.blocks.iter_mut().zip(&self.starts) {
            if !exact {
                (block.pos_weight, block.neg_weight) = (u32::MAX, u32::MAX);
            }
            let mut at = 0usize;
            for (cursor, &first) in block.col_ptr.iter_mut().zip(&start[..cols]) {
                let run = first as usize..*cursor as usize;
                *cursor = at as u32;
                block.entries.copy_within(run.clone(), at);
                at += run.len();
            }
            block.col_ptr[cols] = at as u32;
            block.entries.truncate(at);
            block.entries.shrink_to_fit();
        }
        LayerPlan {
            rows,
            cols,
            num_pes,
            lut: self.lut,
            blocks: self.blocks,
        }
    }
}

/// Scatters one slice's entries into one window of its block: column
/// `j`'s run lands at the block's cursor `col_ptr[j]`, every entry is
/// written and the cursor advances past the real ones in the window
/// (`WHOLE`: the window is the whole slice, so every real one). Hoisted
/// out of the entry loop, which would otherwise reload them past every
/// store: the block-local accumulator of the slice's row 0 (wrapping: a
/// block may start inside the slice), the window, and the arrays. Bad
/// bytes cannot make it index out of bounds — a cursor advances at most
/// once per stored entry, and the extents count every stored entry —
/// they only make the plan wrong, and `seen` then refuses it.
#[inline(always)]
fn scatter<const WHOLE: bool, P: ColPtr + ?Sized, E: StoredEntry>(
    block: &mut PlanBlock,
    w: &Window,
    col_ptr: &P,
    entries: &[E],
    weigh: &[u64; CODEBOOK_SIZE],
    sums: &mut [u64],
    seen: &mut (u8, u8, bool),
) {
    let base = w.slice_first.wrapping_sub(block.first as usize);
    let (lo, span, local_rows) = (w.rows.start, w.rows.len(), sums.len());
    let cols = block.col_ptr.len() - 1;
    let (out, cursors) = (&mut block.entries[..], &mut block.col_ptr[..cols]);
    let (mut zruns, mut max_code, mut overflow) = *seen;
    for (cursor, (start, end)) in cursors.iter_mut().zip(col_ptr.spans()) {
        let (mut row, mut at) = (0usize, *cursor as usize);
        for &e in &entries[start..end] {
            let (code, zrun) = e.fields();
            (zruns, max_code) = (zruns | zrun, max_code.max(code));
            row += zrun as usize;
            let code = code as usize % CODEBOOK_SIZE;
            out[at] = PlanEntry((base.wrapping_add(row) as u16) << CODE_BITS | code as u16);
            let keep = (code != 0) & (WHOLE || row.wrapping_sub(lo) < span);
            at += keep as usize;
            if let Some(sum) = sums.get_mut(row) {
                let weight = if WHOLE {
                    weigh[code]
                } else {
                    weigh[code] & (keep as u64).wrapping_neg()
                };
                *sum = sum.wrapping_add(weight);
            }
            row += 1;
        }
        overflow |= row > local_rows;
        *cursor = at as u32;
    }
    *seen = (zruns, max_code, overflow);
}

impl LayerPlan {
    /// Lowers an encoded layer into its execution plan with as few
    /// blocks as [`BLOCK_ACCUMULATORS`] allows — the plan a
    /// single-threaded engine walks as is.
    pub fn build(layer: &EncodedLayer) -> Self {
        Self::build_with_blocks(layer, 1)
    }

    /// [`LayerPlan::build`] cut into at least `min_blocks` blocks (at
    /// most one per row): blocks are the unit a multi-thread engine fans
    /// out over. A model's plans are cut once for the threads of the
    /// engines that walk them (`CompiledModel::cut_plans`); an engine
    /// handed a coarser plan walks it as is, on fewer threads.
    ///
    /// The layer's slices feed the one plan builder a stored layer image
    /// feeds ([`WeightCodec::decode_plan`]): upper-bound extents from
    /// `col_ptr` arithmetic, one PE-outer scatter that checks and writes
    /// every entry and advances by the real ones, one compaction sweep.
    /// On Alex-7 at 2 blocks (2-vCPU host, best of 60) that is 8.0–8.7
    /// ms from an `EncodedLayer` (9.1–11.2 for the branching scatter it
    /// replaced, which trusted a validated layer), and 7.7–9.3 ms from
    /// the csc-nibble image bytes — where decoding an `EncodedLayer`
    /// first and building from it took about 19. The scatter also sums
    /// each accumulator's positive and |negative| raw weights for the
    /// blocks' rail-free bounds ([`PlanBlock`]).
    ///
    /// # Panics
    ///
    /// Panics if the layer fails [`EncodedLayer::validate`] — a PE that
    /// does not hold its interleaved share of the rows among others: the
    /// accumulator → row map ([`LayerPlan::block_rows`]) is computed
    /// from that rule, not stored.
    ///
    /// [`WeightCodec::decode_plan`]: crate::WeightCodec::decode_plan
    pub fn build_with_blocks(layer: &EncodedLayer, min_blocks: usize) -> Self {
        let slices = layer.slices();
        let heads = slices
            .iter()
            .map(|s| (s.local_rows(), s.col_ptr(), s.num_entries()));
        let mut builder =
            PlanBuilder::new(SliceRules::of(layer), layer.codebook(), min_blocks, heads);
        for (pe, s) in slices.iter().enumerate() {
            if let Err(e) = builder.push(pe, s.local_rows(), s.col_ptr(), s.entries()) {
                panic!("invalid layer: {e}");
            }
        }
        builder.finish()
    }

    /// Output dimension (matrix rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension (matrix columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of PEs the layer was interleaved over.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// The raw Q8.8 multiplicand of each codebook code, widened to
    /// `i32`: `lut()[entry.code()] * activation` is the exact product
    /// the hardware MAC forms from the decoded `codebook[code]`.
    pub fn lut(&self) -> &[i32; CODEBOOK_SIZE] {
        &self.lut
    }

    /// The plan's blocks, in PE-major accumulator order.
    pub fn blocks(&self) -> &[PlanBlock] {
        &self.blocks
    }

    /// The output row of each accumulator of block `b`, in the block's
    /// own (PE-major) order: accumulator `local_row` of PE `pe` is row
    /// `local_row * num_pes + pe`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= blocks().len()`.
    pub fn block_rows(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        let block = &self.blocks[b];
        let n = self.num_pes;
        // The first `rem` PEs hold `q + 1` rows, the rest `q`.
        let (q, rem) = (self.rows / n, self.rows % n);
        let first = block.first as usize;
        let (mut pe, mut local) = if first < rem * (q + 1) {
            (first / (q + 1), first % (q + 1))
        } else {
            let past = first - rem * (q + 1);
            (rem + past / q, past % q)
        };
        (0..block.accumulators).map(move |_| {
            let row = local * n + pe;
            local += 1;
            if local == q + usize::from(pe < rem) {
                (pe, local) = (pe + 1, 0);
            }
            row
        })
    }

    /// Total entries across all blocks.
    pub fn total_entries(&self) -> usize {
        self.blocks.iter().map(PlanBlock::num_entries).sum()
    }

    /// The rail-free headroom this plan proves, whatever the dispatch:
    /// the largest raw Q8.8 magnitude `m` for which every block is
    /// [`PlanBlock::rail_free_for`] one-signed inputs (`(m, 0)`: what a
    /// post-ReLU layer feeds the next) and for signed inputs
    /// (`(m, -m)`), each capped at 2^15 = |`i16::MIN`| — the closed
    /// form of the predicate over the worst block. A limit of at least
    /// `i16::MAX` (one-signed) or 2^15 (signed) covers every input.
    pub fn rail_free_headroom(&self) -> (u32, u32) {
        let (mut one_sign, mut both) = (1u64, 1u64);
        for b in &self.blocks {
            one_sign = one_sign.max(b.pos_weight.max(b.neg_weight) as u64);
            both = both.max(b.pos_weight as u64 + b.neg_weight as u64);
        }
        let limit = |weight: u64| (i32::MAX as u64 / weight).min(1 << 15) as u32;
        (limit(one_sign), limit(both))
    }

    /// Resident size of the plan, bytes: every block's entries and
    /// extent index, the block table (which holds the rail-free bounds)
    /// and the LUT — the memory side of the build-once/run-many trade,
    /// and the `plan_bytes` the benches report.
    pub fn resident_bytes(&self) -> usize {
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| {
                std::mem::size_of_val(b.entries.as_slice())
                    + std::mem::size_of_val(b.col_ptr.as_slice())
            })
            .sum();
        blocks + std::mem::size_of_val(self.blocks.as_slice()) + std::mem::size_of_val(&self.lut)
    }
}

impl fmt::Display for LayerPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The headroom as Q8.8 values, rounded down (what is printed is
        // itself proved); "always" when it covers every input.
        let limit = |raw: u32, full: u32| match raw {
            raw if raw >= full => "always".to_string(),
            raw => format!("<= {:.2}", (raw as f64 / 2.56).floor() / 100.0),
        };
        let (post_relu, signed) = self.rail_free_headroom();
        write!(
            f,
            "LayerPlan({}x{}, {} PEs, {} block(s), {} entries, {} KiB, {:.2} B/entry, \
             rail-free post-ReLU {}, signed {})",
            self.rows,
            self.cols,
            self.num_pes,
            self.blocks.len(),
            self.total_entries(),
            self.resident_bytes() / 1024,
            self.resident_bytes() as f64 / self.total_entries().max(1) as f64,
            limit(post_relu, i16::MAX as u32),
            limit(signed, 1 << 15),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CompressConfig};
    use eie_nn::zoo::random_sparse;
    use eie_nn::CsrMatrix;

    /// Every `(row, col, raw weight)` triple a plan holds, sorted.
    fn plan_triples(plan: &LayerPlan) -> Vec<(usize, usize, i32)> {
        let mut got = Vec::new();
        for (b, block) in plan.blocks().iter().enumerate() {
            let rows: Vec<usize> = plan.block_rows(b).collect();
            for j in 0..plan.cols() {
                for e in block.col(j) {
                    got.push((rows[e.accumulator()], j, plan.lut()[e.code()]));
                }
            }
        }
        got.sort_unstable();
        got
    }

    /// Every real `(row, col, raw weight)` triple of an encoded layer,
    /// sorted — what a plan must hold, no more and no less.
    fn encoded_triples(enc: &EncodedLayer) -> Vec<(usize, usize, i32)> {
        let table = enc.codebook().to_fix16::<8>();
        let n = enc.num_pes();
        let mut want = Vec::new();
        for (pe, slice) in enc.slices().iter().enumerate() {
            for j in 0..enc.cols() {
                slice.walk_column(j, |local, code| {
                    if code != 0 {
                        want.push((local * n + pe, j, table[code as usize].raw() as i32));
                    }
                });
            }
        }
        want.sort_unstable();
        want
    }

    /// The structural invariants of the block layout, plus triple
    /// preservation against the encoded layer.
    fn assert_plan_is_faithful(enc: &EncodedLayer, plan: &LayerPlan) {
        // Blocks tile the accumulator axis, each within the u16 budget.
        let mut next = 0;
        for block in plan.blocks() {
            assert_eq!(block.first as usize, next);
            assert!((1..=BLOCK_ACCUMULATORS).contains(&block.accumulators()));
            assert_eq!(block.col_ptr.len(), plan.cols() + 1);
            assert_eq!(*block.col_ptr.last().unwrap() as usize, block.num_entries());
            for j in 0..plan.cols() {
                let run = block.col(j);
                assert!(run.iter().all(|e| e.accumulator() < block.accumulators()));
                assert!(run.iter().all(|e| e.code() != 0), "padding survived");
                // One product per accumulator per column, ascending.
                assert!(run
                    .windows(2)
                    .all(|w| w[0].accumulator() < w[1].accumulator()));
            }
            next += block.accumulators();
        }
        assert_eq!(next, plan.rows());
        // The accumulator → row map is a permutation of the rows.
        let mut rows: Vec<usize> = (0..plan.blocks().len())
            .flat_map(|b| plan.block_rows(b))
            .collect();
        rows.sort_unstable();
        assert!(rows.iter().copied().eq(0..plan.rows()));
        // Every real triple, and exactly the padding dropped.
        assert_eq!(plan_triples(plan), encoded_triples(enc));
        let padding: usize = enc.slices().iter().map(|s| s.padding_entries()).sum();
        assert_eq!(plan.total_entries() + padding, enc.total_entries());
    }

    #[test]
    fn plan_preserves_every_real_entry_and_drops_padding() {
        // A tall single-column matrix with a bottom weight forces long
        // zero runs and therefore padding entries.
        let m = CsrMatrix::from_triplets(201, 1, &[(0, 0, 1.0), (200, 0, 1.5)]);
        let enc = compress(&m, CompressConfig::with_pes(1));
        assert!(enc.slice(0).padding_entries() > 0);
        let plan = LayerPlan::build(&enc);
        assert_eq!(plan.total_entries(), 2);
        let rows: Vec<usize> = plan_triples(&plan).iter().map(|t| t.0).collect();
        assert_eq!(rows, [0, 200]);
        assert_plan_is_faithful(&enc, &plan);
    }

    #[test]
    fn block_structure_is_faithful_across_awkward_shapes() {
        let cases = [
            // (rows, cols, pes, density): NT-Wd's shape, three blocks
            // whose cuts fall inside slices.
            (8791, 24, 64, 0.02),
            // One PE slice larger than a block: cuts inside a slice.
            (9000, 12, 2, 0.03),
            // rows % num_pes != 0.
            (33, 17, 4, 0.3),
            // num_pes > rows: trailing slices are empty.
            (5, 9, 8, 0.6),
            // A single accumulator per PE.
            (4, 6, 4, 0.7),
        ];
        for (rows, cols, pes, density) in cases {
            let m = random_sparse(rows, cols, density, 19);
            let enc = compress(&m, CompressConfig::with_pes(pes));
            let plan = LayerPlan::build(&enc);
            assert_eq!(plan.blocks().len(), rows.div_ceil(BLOCK_ACCUMULATORS));
            assert_plan_is_faithful(&enc, &plan);
            for min_blocks in [2, 3, 7] {
                let cut = LayerPlan::build_with_blocks(&enc, min_blocks);
                let floor = rows.div_ceil(BLOCK_ACCUMULATORS);
                assert_eq!(cut.blocks().len(), min_blocks.max(floor).min(rows));
                assert_plan_is_faithful(&enc, &cut);
                assert_eq!(cut.lut(), plan.lut());
            }
        }
    }

    #[test]
    fn empty_columns_have_empty_runs() {
        let m = CsrMatrix::from_triplets(8, 4, &[(0, 1, 1.0)]);
        let enc = compress(&m, CompressConfig::with_pes(2));
        let plan = LayerPlan::build(&enc);
        let block = &plan.blocks()[0];
        assert!(block.col(0).is_empty());
        assert_eq!(block.col(1).len(), 1);
        assert!(block.col(2).is_empty() && block.col(3).is_empty());
        assert_plan_is_faithful(&enc, &plan);
    }

    #[test]
    fn lut_is_the_fixed_point_codebook() {
        let m = random_sparse(40, 24, 0.25, 3);
        let enc = compress(&m, CompressConfig::with_pes(4));
        let plan = LayerPlan::build(&enc);
        let table = enc.codebook().to_fix16::<8>();
        for (raw, w) in plan.lut().iter().zip(&table) {
            assert_eq!(*raw, w.raw() as i32);
        }
        assert_eq!(plan.lut()[0], 0, "code 0 is the reserved zero");
    }

    #[test]
    fn resident_bytes_count_entries_extents_table_and_lut() {
        for (rows, cols, pes) in [(64, 48, 4), (8791, 24, 64), (9000, 12, 2)] {
            let m = random_sparse(rows, cols, 0.05, 23);
            let plan = LayerPlan::build(&compress(&m, CompressConfig::with_pes(pes)));
            let arrays = 2 * plan.total_entries() + 4 * (cols + 1) * plan.blocks().len();
            assert!(plan.resident_bytes() > arrays);
            // Per block: two Vec headers, the span and the two bounds.
            let table = 64 * plan.blocks().len() + 64;
            assert!(plan.resident_bytes() <= arrays + table, "{plan}");
        }
    }

    #[test]
    fn rail_free_bounds_are_the_largest_signed_row_sums_of_each_block() {
        for (rows, cols, pes, density) in [(8791, 24, 64, 0.05), (33, 17, 4, 0.4), (5, 9, 8, 0.6)] {
            let enc = compress(
                &random_sparse(rows, cols, density, 29),
                CompressConfig::with_pes(pes),
            );
            for min_blocks in [1, 2, 7] {
                // A re-blocked plan gets bounds of its own.
                let plan = LayerPlan::build_with_blocks(&enc, min_blocks);
                for (b, block) in plan.blocks().iter().enumerate() {
                    let mut sums = vec![(0u32, 0u32); block.accumulators()];
                    for j in 0..cols {
                        for e in block.col(j) {
                            let w = plan.lut()[e.code()];
                            sums[e.accumulator()].0 += w.max(0) as u32;
                            sums[e.accumulator()].1 += w.min(0).unsigned_abs();
                        }
                    }
                    let want = (
                        sums.iter().map(|s| s.0).max().unwrap(),
                        sums.iter().map(|s| s.1).max().unwrap(),
                    );
                    assert_eq!((block.pos_weight, block.neg_weight), want, "block {b}");
                }
                // The headroom is the predicate's closed form: it holds
                // at the limit on every block and fails one unit past
                // it on some block (unless capped at "always").
                let (post_relu, signed) = plan.rail_free_headroom();
                let holds = |max: u32, min: u32| {
                    let (max, min) = (max.min(32767) as i16, -(min.min(32767) as i16));
                    plan.blocks().iter().all(|b| b.rail_free_for(max, min))
                };
                assert!(holds(post_relu, 0) && holds(0, post_relu));
                assert!(holds(signed, signed));
                assert!(post_relu == 1 << 15 || !holds(post_relu + 1, 0));
                assert!(signed == 1 << 15 || !holds(signed + 1, signed + 1));
                assert!(signed <= post_relu);
            }
        }
    }

    #[test]
    fn rail_free_predicate_is_the_inequality_at_its_edges() {
        let enc = compress(&random_sparse(16, 16, 0.5, 1), CompressConfig::with_pes(2));
        let mut block = LayerPlan::build(&enc).blocks()[0].clone();
        // P·a⁺ + N·a⁻ = 65537·32767 + 32768·1 = i32::MAX exactly (the
        // other end is half of it).
        (block.pos_weight, block.neg_weight) = (65_537, 32_768);
        assert!(block.rail_free_for(i16::MAX, -1));
        assert!(!block.rail_free_for(i16::MAX, -2));
        block.neg_weight += 1;
        assert!(!block.rail_free_for(i16::MAX, -1));
        assert!(block.rail_free_for(i16::MAX - 1, -1));
        // The other end, N·a⁺ + P·a⁻ = 65537·32767 + 32768·1, binds
        // on its own.
        (block.pos_weight, block.neg_weight) = (32_768, 65_537);
        assert!(block.rail_free_for(i16::MAX, -1));
        block.pos_weight += 1;
        assert!(!block.rail_free_for(i16::MAX, -1));
        // One-signed inputs see only one term of each end; a sign no
        // activation has may be passed as 0 or with the wrong sign.
        (block.pos_weight, block.neg_weight) = (65_536, 65_536);
        assert!(block.rail_free_for(i16::MAX, 0) && block.rail_free_for(0, -i16::MAX));
        assert!(block.rail_free_for(i16::MAX, 5) && block.rail_free_for(-5, -i16::MAX));
        assert!(!block.rail_free_for(i16::MAX, -1) && !block.rail_free_for(0, i16::MIN));
        // All-zero activations are rail-free under any weights.
        (block.pos_weight, block.neg_weight) = (u32::MAX, u32::MAX);
        assert!(block.rail_free_for(0, 0) && !block.rail_free_for(1, 0));
    }

    #[test]
    fn a_layer_too_wide_to_sum_exactly_is_unprovable() {
        // 2^17 columns × 2^15 could carry out of a packed half.
        let m = random_sparse(6, 1 << 17, 0.0005, 3);
        let plan = LayerPlan::build(&compress(&m, CompressConfig::with_pes(2)));
        let block = &plan.blocks()[0];
        assert_eq!((block.pos_weight, block.neg_weight), (u32::MAX, u32::MAX));
        assert!(!block.rail_free_for(1, 0) && block.rail_free_for(0, 0));
        assert_eq!(plan.rail_free_headroom(), (0, 0));
        assert!(plan
            .to_string()
            .contains("post-ReLU <= 0.00, signed <= 0.00"));
    }

    #[test]
    fn plan_shape_accessors_and_display() {
        let m = random_sparse(33, 17, 0.3, 5);
        let enc = compress(&m, CompressConfig::with_pes(3));
        let plan = LayerPlan::build(&enc);
        assert_eq!(plan.rows(), 33);
        assert_eq!(plan.cols(), 17);
        assert_eq!(plan.num_pes(), 3);
        assert_eq!(plan.blocks()[0].accumulators(), 33);
        let s = plan.to_string();
        assert!(s.contains("33x17") && s.contains("3 PEs"), "{s}");
        assert!(s.contains("1 block(s)") && s.contains("B/entry"), "{s}");
        // 33x17 small weights: nowhere near a rail.
        assert!(
            s.contains("rail-free post-ReLU always, signed always"),
            "{s}"
        );
    }
}
