//! A real canonical Huffman codec for encoded-layer storage.
//!
//! Deep Compression's final stage Huffman-codes the quantized weights and
//! relative indices for *storage* (the datapath always decodes back to
//! the fixed-width form before execution — EIE never touches Huffman
//! bits, paper §VIII "Model Compression"). [`EncodingStats`] estimates
//! the benefit from symbol entropy; this module implements the actual
//! codec so the estimate is verified by construction: encode → decode is
//! the identity, and the bitstream length matches the estimator exactly.
//!
//! The format is canonical Huffman over byte symbols: code lengths are
//! derived from symbol frequencies, codes assigned in (length, symbol)
//! order, and the header stores just the code lengths.
//!
//! Both directions run a whole code at a time, because every cold model
//! load pays the decoder once per stored entry: the encoder appends
//! codes through a 64-bit accumulator, and the decoder reads the packed
//! bytes in place through an 11-bit lookup table (one probe per symbol
//! for every code that short) with an ordered per-length fallback for
//! the rare codes up to [`MAX_CODE_LEN`] bits.
//!
//! [`EncodingStats`]: crate::EncodingStats

/// The longest code the stored `(symbol, length)` tables may declare.
pub const MAX_CODE_LEN: u8 = 31;

/// Width of the decoder's primary lookup table. 2¹¹ two-byte slots stay
/// inside L1, and a symbol whose code is longer than this is one an
/// optimal code judged rarer than about one in 2¹¹, so the fallback is
/// a path for the occasional symbol (or for hostile tables), never the
/// bulk of a stream.
const PRIMARY_BITS: u32 = 11;

/// Per-symbol occurrence counts of a byte stream.
pub type Histogram = [usize; 256];

/// Counts each byte value of `data`.
pub fn histogram(data: &[u8]) -> Histogram {
    let mut freq = [0usize; 256];
    for &b in data {
        freq[b as usize] += 1;
    }
    freq
}

/// A canonical Huffman code over byte symbols. Always a valid prefix
/// code: [`HuffmanCode::from_lengths`] rejects over-subscribed and
/// over-long length tables, so no shift or table index formed from the
/// fields can go out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol absent).
    lengths: [u8; 256],
    /// Canonical code value per symbol.
    codes: [u32; 256],
}

impl HuffmanCode {
    /// Builds the optimal prefix code for a symbol stream.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &[u8]) -> Self {
        Self::fit_histogram(&histogram(data))
    }

    /// Builds the optimal prefix code for a stream with these symbol
    /// counts — the same code [`HuffmanCode::fit`] derives from the
    /// stream itself.
    ///
    /// # Panics
    ///
    /// Panics if every count is zero, or if the stream is skewed enough
    /// (millions of symbols in a Fibonacci-like distribution) that the
    /// optimal code is deeper than [`MAX_CODE_LEN`].
    pub fn fit_histogram(freq: &Histogram) -> Self {
        // Huffman merge tracking depths per symbol group. Ties break on
        // the group's symbol list, so the tree — and with it every
        // stored image — is a function of the counts alone.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, Vec<u8>)>> = freq
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| std::cmp::Reverse((c, vec![s as u8])))
            .collect();
        assert!(!heap.is_empty(), "cannot fit a code to empty data");
        let mut lengths = [0u8; 256];
        if heap.len() == 1 {
            // Single-symbol streams get a 1-bit code.
            let std::cmp::Reverse((_, sym)) = heap.pop().expect("one symbol");
            lengths[sym[0] as usize] = 1;
        }
        while heap.len() > 1 {
            let std::cmp::Reverse((c1, s1)) = heap.pop().expect("len > 1");
            let std::cmp::Reverse((c2, s2)) = heap.pop().expect("len > 1");
            let mut merged = s1;
            merged.extend_from_slice(&s2);
            for &s in &merged {
                lengths[s as usize] += 1;
            }
            heap.push(std::cmp::Reverse((c1 + c2, merged)));
        }
        Self::from_lengths(lengths).expect("a Huffman tree is a prefix code of storable depth")
    }

    /// Reconstructs the canonical code from its length table.
    ///
    /// Returns `None` when the table is not a prefix code this format
    /// can store: a length above [`MAX_CODE_LEN`], or lengths that
    /// over-subscribe the code space (Kraft sum above one). Incomplete
    /// tables are accepted — the single-symbol stream's 1-bit code is
    /// one — and their unassigned prefixes simply fail to decode.
    pub fn from_lengths(lengths: [u8; 256]) -> Option<Self> {
        let mut kraft = 0u64;
        for &len in lengths.iter().filter(|&&len| len > 0) {
            if len > MAX_CODE_LEN {
                return None;
            }
            kraft += 1u64 << (MAX_CODE_LEN - len);
        }
        if kraft > 1u64 << MAX_CODE_LEN {
            return None;
        }
        // Canonical assignment: sort by (length, symbol), count upward.
        // The Kraft bound above keeps every code below 2^length.
        let mut codes = [0u32; 256];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for s in symbols_by_length(&lengths) {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }
        Some(Self { lengths, codes })
    }

    /// The code-length table (the decoder header).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Total encoded payload length in bits for a stream.
    pub fn encoded_bits(&self, data: &[u8]) -> usize {
        data.iter()
            .map(|&b| self.lengths[b as usize] as usize)
            .sum()
    }

    /// [`HuffmanCode::encoded_bits`] of any stream with these symbol
    /// counts, without the stream.
    pub fn histogram_bits(&self, freq: &Histogram) -> usize {
        freq.iter()
            .zip(&self.lengths)
            .map(|(&count, &len)| count * len as usize)
            .sum()
    }

    /// Encodes a stream into a bit vector (MSB-first per code).
    ///
    /// # Panics
    ///
    /// Panics if `data` contains a symbol absent from the code.
    pub fn encode(&self, data: &[u8]) -> BitVec {
        let mut out = BitVec::new();
        for &b in data {
            let len = self.lengths[b as usize];
            assert!(len > 0, "symbol {b:#04x} not in code");
            out.push_code(self.codes[b as usize], len);
        }
        out
    }

    /// Decodes `count` symbols from the first `bit_len` bits of a packed
    /// MSB-first buffer (the layout of [`BitVec::as_bytes`]), reading
    /// the bytes in place.
    ///
    /// Returns `None` if the buffer is not canonical (its byte count
    /// disagrees with `bit_len`, or a padding bit past the end is set)
    /// or the stream is malformed (runs out of bits or hits a prefix no
    /// code owns). The output is at most one byte per input bit.
    pub fn decode(&self, bytes: &[u8], bit_len: usize, count: usize) -> Option<Vec<u8>> {
        let mut stream = self.stream(bytes, bit_len, count)?;
        let mut out = vec![0u8; count];
        stream.fill(out.iter_mut())?;
        (stream.bits.consumed <= bit_len).then_some(out)
    }

    /// Opens a packed stream of `count` symbols for decoding a run at a
    /// time ([`StreamDecoder`]). `None` under [`HuffmanCode::decode`]'s
    /// buffer checks, which include `count <= bit_len` — every symbol
    /// costs at least one bit — so a caller sizing buffers by `count`
    /// allocates at most one byte per input bit.
    pub(crate) fn stream<'a>(
        &self,
        bytes: &'a [u8],
        bit_len: usize,
        count: usize,
    ) -> Option<StreamDecoder<'a>> {
        if bytes.len() != bit_len.div_ceil(8) {
            return None;
        }
        if !bit_len.is_multiple_of(8) && bytes.last()? & (0xFF >> (bit_len % 8)) != 0 {
            return None;
        }
        if count > bit_len {
            return None;
        }
        Some(StreamDecoder {
            table: DecodeTable::new(self),
            bits: BitReader::new(bytes),
            bit_len,
            left: count,
        })
    }
}

/// A canonical-Huffman stream decoded a run of symbols at a time — one
/// PE slice's worth into a reused buffer — instead of all at once.
pub(crate) struct StreamDecoder<'a> {
    table: DecodeTable,
    bits: BitReader<'a>,
    bit_len: usize,
    /// Symbols not yet decoded.
    left: usize,
}

impl StreamDecoder<'_> {
    /// Decodes the next symbols into `out`; `None` at a prefix no code
    /// owns.
    pub(crate) fn fill<'o>(
        &mut self,
        out: impl ExactSizeIterator<Item = &'o mut u8>,
    ) -> Option<()> {
        debug_assert!(out.len() <= self.left, "more symbols than the stream holds");
        self.left -= out.len();
        for sym in out {
            let window = self.bits.peek();
            let slot = self.table.primary[(window >> (64 - PRIMARY_BITS)) as usize];
            let len;
            (*sym, len) = if slot != 0 {
                (slot as u8, (slot >> 8) as u32)
            } else {
                self.table.long_code(window)?
            };
            self.bits.consume(len);
        }
        Some(())
    }

    /// Decodes whatever symbols are left and checks the stream is tight:
    /// its symbols' codes fill exactly `bit_len` bits. Past the end the
    /// reader supplies zeros, so a stream that ran out of bits shows
    /// here, once, instead of in a test per symbol.
    pub(crate) fn finish(&mut self) -> Option<()> {
        let mut rest = [0u8; 256];
        while self.left > 0 {
            let n = self.left.min(rest.len());
            self.fill(rest[..n].iter_mut())?;
        }
        (self.bits.consumed == self.bit_len).then_some(())
    }
}

/// The symbols a length table assigns codes to, in canonical
/// (length, symbol) order.
fn symbols_by_length(lengths: &[u8; 256]) -> Vec<u8> {
    let mut symbols: Vec<u8> = (0..=255u8).filter(|&s| lengths[s as usize] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s as usize], s));
    symbols
}

/// An MSB-first cursor over a packed buffer that keeps the upcoming bits
/// in a register, so the decode loop's critical path is a shift and a
/// table probe, not a memory load per symbol. Reads past the end of the
/// buffer yield zeros.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte to pull into `window`.
    next: usize,
    /// The upcoming bits, left aligned; the top `have` are valid.
    window: u64,
    have: u32,
    /// Bits consumed so far.
    consumed: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            next: 0,
            window: 0,
            have: 0,
            consumed: 0,
        }
    }

    /// The upcoming bits, left aligned: at least 32 — more than any code
    /// is long — are stream bits (or the zeros past the end).
    fn peek(&mut self) -> u64 {
        if self.have < 32 {
            // Top up with four bytes: 31 + 32 bits still fit the word.
            let mut word = [0u8; 4];
            match self.bytes.get(self.next..self.next + 4) {
                Some(full) => word.copy_from_slice(full),
                None => {
                    let tail = self.bytes.get(self.next..).unwrap_or(&[]);
                    word[..tail.len()].copy_from_slice(tail);
                }
            }
            self.window |= (u32::from_be_bytes(word) as u64) << (32 - self.have);
            self.next += 4;
            self.have += 32;
        }
        self.window
    }

    /// Drops the `len <= 32` leading bits [`BitReader::peek`] returned.
    fn consume(&mut self, len: u32) {
        self.window <<= len;
        self.have -= len;
        self.consumed += len as usize;
    }
}

/// The decoder's view of a [`HuffmanCode`], built once per stream.
struct DecodeTable {
    /// Indexed by the next [`PRIMARY_BITS`] stream bits: `len << 8 |
    /// symbol` for the code of at most that length those bits start
    /// with, 0 when they start a longer code or none.
    primary: Vec<u16>,
    /// One run per code length above [`PRIMARY_BITS`] that is in use,
    /// shortest first — canonical codes of one length are consecutive
    /// integers, so membership is a subtraction and a compare.
    long: Vec<LongRun>,
    /// Symbols in canonical order; [`LongRun::first_index`] points here.
    symbols: Vec<u8>,
}

/// All codes of one length longer than the primary table's width.
struct LongRun {
    len: u32,
    first_code: u32,
    count: u32,
    first_index: usize,
}

impl DecodeTable {
    fn new(code: &HuffmanCode) -> Self {
        let symbols = symbols_by_length(&code.lengths);
        let mut primary = vec![0u16; 1 << PRIMARY_BITS];
        let mut long: Vec<LongRun> = Vec::new();
        for (index, &sym) in symbols.iter().enumerate() {
            let len = code.lengths[sym as usize] as u32;
            let value = code.codes[sym as usize];
            if len <= PRIMARY_BITS {
                // Every table index whose top `len` bits are this code.
                let first = (value as usize) << (PRIMARY_BITS - len);
                let slot = (len as u16) << 8 | sym as u16;
                primary[first..first + (1 << (PRIMARY_BITS - len))].fill(slot);
            } else if let Some(run) = long.last_mut().filter(|run| run.len == len) {
                run.count += 1;
            } else {
                long.push(LongRun {
                    len,
                    first_code: value,
                    count: 1,
                    first_index: index,
                });
            }
        }
        Self {
            primary,
            long,
            symbols,
        }
    }

    /// Resolves a window whose leading bits matched no short code.
    fn long_code(&self, window: u64) -> Option<(u8, u32)> {
        self.long.iter().find_map(|run| {
            let offset = ((window >> (64 - run.len)) as u32).wrapping_sub(run.first_code);
            (offset < run.count).then(|| (self.symbols[run.first_index + offset as usize], run.len))
        })
    }
}

/// A growable MSB-first bit vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    bytes: Vec<u8>,
    len_bits: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// True if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Appends the low `len` bits of `code`, most-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn push_code(&mut self, code: u32, len: u8) {
        assert!(len <= 32, "a code is at most 32 bits");
        if len == 0 {
            return;
        }
        // Line the code up behind the bits already in the last byte,
        // then append whole bytes: at most 7 + 32 bits, one u64.
        let used = self.len_bits % 8;
        let total = used + len as usize;
        let field = (code as u64) << (64 - len as u32) >> used;
        let mut fresh = &field.to_be_bytes()[..total.div_ceil(8)];
        if used > 0 {
            *self.bytes.last_mut().expect("a partial byte exists") |= fresh[0];
            fresh = &fresh[1..];
        }
        self.bytes.extend_from_slice(fresh);
        self.len_bits += len as usize;
    }

    /// The bit at `pos`, or `None` past the end.
    pub fn get(&self, pos: usize) -> Option<bool> {
        if pos >= self.len_bits {
            return None;
        }
        Some(self.bytes[pos / 8] & (0x80 >> (pos % 8)) != 0)
    }

    /// The packed byte buffer (last byte zero-padded).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The decoder and encoder this module used to ship, kept verbatim
    /// as the oracle the table-driven routines are held against: one
    /// `(length, code)` hash probe per *bit*, one `push_bit` per bit.
    mod reference {
        use super::*;

        pub fn push_bit(bytes: &mut Vec<u8>, len_bits: &mut usize, bit: bool) {
            if len_bits.is_multiple_of(8) {
                bytes.push(0);
            }
            if bit {
                bytes[*len_bits / 8] |= 0x80 >> (*len_bits % 8);
            }
            *len_bits += 1;
        }

        pub fn encode(code: &HuffmanCode, data: &[u8]) -> (Vec<u8>, usize) {
            let (mut bytes, mut len_bits) = (Vec::new(), 0usize);
            for &b in data {
                for i in (0..code.lengths[b as usize]).rev() {
                    push_bit(
                        &mut bytes,
                        &mut len_bits,
                        (code.codes[b as usize] >> i) & 1 == 1,
                    );
                }
            }
            (bytes, len_bits)
        }

        fn bit(bytes: &[u8], bit_len: usize, pos: usize) -> Option<bool> {
            (pos < bit_len).then(|| bytes[pos / 8] & (0x80 >> (pos % 8)) != 0)
        }

        pub fn decode(
            code: &HuffmanCode,
            bytes: &[u8],
            bit_len: usize,
            count: usize,
        ) -> Option<Vec<u8>> {
            // `BitVec::from_bytes`' canonical-buffer checks.
            if bytes.len() != bit_len.div_ceil(8) {
                return None;
            }
            if !bit_len.is_multiple_of(8) && bytes.last()? & ((1u8 << (8 - bit_len % 8)) - 1) != 0 {
                return None;
            }
            let mut table: HashMap<(u8, u32), u8> = HashMap::new();
            for s in 0u16..256 {
                let len = code.lengths[s as usize];
                if len > 0 {
                    table.insert((len, code.codes[s as usize]), s as u8);
                }
            }
            let mut out = Vec::new();
            let mut pos = 0usize;
            for _ in 0..count {
                let mut value = 0u32;
                let mut len = 0u8;
                loop {
                    value = (value << 1) | bit(bytes, bit_len, pos)? as u32;
                    pos += 1;
                    len += 1;
                    if let Some(&sym) = table.get(&(len, value)) {
                        out.push(sym);
                        break;
                    }
                    if len >= 32 {
                        return None;
                    }
                }
            }
            Some(out)
        }
    }

    /// A tiny deterministic generator for the differential tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Length tables that stress every decoder path: flat, single
    /// symbol, a skewed chain reaching the 31-bit limit (everything past
    /// 11 bits goes through the fallback), incomplete, and random fits.
    fn length_tables() -> Vec<(&'static str, [u8; 256])> {
        let mut tables = Vec::new();
        tables.push(("all 256 symbols at 8 bits", [8u8; 256]));
        let mut flat16 = [0u8; 256];
        flat16[..16].fill(4);
        tables.push(("16 symbols at 4 bits", flat16));
        let mut single = [0u8; 256];
        single[42] = 1;
        tables.push(("single symbol", single));
        // 1, 2, 3, … 30, 31, 31: a complete code of depth 31.
        let mut chain = [0u8; 256];
        for (i, len) in (1..=31u8).enumerate() {
            chain[200 - i] = len;
        }
        chain[7] = 31;
        tables.push(("31-bit chain", chain));
        // The same chain with its two deepest leaves missing.
        let mut incomplete = chain;
        incomplete[7] = 0;
        incomplete[200 - 30] = 0;
        tables.push(("incomplete chain", incomplete));
        // Several codes per long length, straddling the primary width.
        let mut straddle = [0u8; 256];
        straddle[0] = 1;
        straddle[1] = 2;
        for s in 0..8 {
            straddle[10 + s] = 10;
            straddle[30 + s] = 11;
            straddle[50 + s] = 12;
            straddle[70 + s] = 13;
            straddle[90 + s] = 20;
        }
        tables.push(("straddles the primary table", straddle));
        tables
    }

    /// Symbols drawn uniformly from the code's alphabet, so deep codes
    /// appear as often as shallow ones.
    fn random_stream(code: &HuffmanCode, rng: &mut Lcg, n: usize) -> Vec<u8> {
        let present: Vec<u8> = (0..=255u8)
            .filter(|&s| code.lengths[s as usize] > 0)
            .collect();
        (0..n)
            .map(|_| present[rng.below(present.len() as u64) as usize])
            .collect()
    }

    #[test]
    fn table_decoder_matches_the_bitwise_reference_on_valid_streams() {
        let mut rng = Lcg(1);
        for (name, lengths) in length_tables() {
            let code = HuffmanCode::from_lengths(lengths).expect(name);
            for n in [0usize, 1, 2, 7, 64, 500] {
                let data = random_stream(&code, &mut rng, n);
                let bits = code.encode(&data);
                let (ref_bytes, ref_len) = reference::encode(&code, &data);
                assert_eq!(
                    (bits.as_bytes(), bits.len()),
                    (&ref_bytes[..], ref_len),
                    "{name}"
                );
                assert_eq!(bits.len(), code.encoded_bits(&data), "{name}");
                assert_eq!(bits.len(), code.histogram_bits(&histogram(&data)), "{name}");
                let got = code.decode(bits.as_bytes(), bits.len(), n);
                assert_eq!(
                    got,
                    reference::decode(&code, bits.as_bytes(), bits.len(), n)
                );
                assert_eq!(got.as_deref(), Some(&data[..]), "{name}");
            }
        }
    }

    #[test]
    fn table_decoder_matches_the_reference_on_every_cut_and_corruption() {
        let mut rng = Lcg(2);
        for (name, lengths) in length_tables() {
            let code = HuffmanCode::from_lengths(lengths).expect(name);
            let data = random_stream(&code, &mut rng, 24);
            let bits = code.encode(&data);
            let same = |bytes: &[u8], bit_len: usize, count: usize, what: &str| {
                assert_eq!(
                    code.decode(bytes, bit_len, count),
                    reference::decode(&code, bytes, bit_len, count),
                    "{name}: {what} (bit_len {bit_len}, count {count})"
                );
            };
            // The stream cut at every bit, padding cleared (a canonical
            // buffer that ends mid-code) and padding left set.
            for cut in 0..=bits.len() {
                let mut cleared = bits.as_bytes()[..cut.div_ceil(8)].to_vec();
                same(&cleared, cut, data.len(), "cut, padding kept");
                if !cut.is_multiple_of(8) {
                    *cleared.last_mut().unwrap() &= !(0xFFu8 >> (cut % 8));
                }
                for count in [data.len(), data.len() / 2, 1] {
                    same(&cleared, cut, count, "cut, padding cleared");
                }
            }
            // An inflated bit length: without the bytes, and with them.
            same(
                bits.as_bytes(),
                bits.len() + 8,
                data.len(),
                "inflated, no bytes",
            );
            let mut padded = bits.as_bytes().to_vec();
            padded.push(0);
            for count in [data.len(), data.len() + 1, data.len() + 9] {
                same(&padded, bits.len() + 8, count, "inflated, zero bytes");
            }
            // More symbols than bits, and far more than bytes.
            same(bits.as_bytes(), bits.len(), bits.len() + 1, "count > bits");
            same(bits.as_bytes(), bits.len(), usize::MAX, "count = MAX");
            // Random bit flips and random garbage.
            for _ in 0..200 {
                let mut corrupt = bits.as_bytes().to_vec();
                if corrupt.is_empty() {
                    break;
                }
                let at = rng.below(corrupt.len() as u64) as usize;
                corrupt[at] ^= 1 << rng.below(8);
                same(&corrupt, bits.len(), data.len(), "bit flip");
            }
            for _ in 0..50 {
                let garbage: Vec<u8> = (0..16).map(|_| rng.next() as u8).collect();
                same(&garbage, 128, 1 + rng.below(40) as usize, "garbage");
            }
        }
    }

    #[test]
    fn random_fitted_codes_agree_with_the_reference() {
        let mut rng = Lcg(3);
        for round in 0..40 {
            // Geometric-ish symbol frequencies give deep, uneven trees.
            let alphabet = 1 + rng.below(40) as usize;
            let data: Vec<u8> = (0..300 + rng.below(3000) as usize)
                .map(|_| {
                    let mut s = 0usize;
                    while s + 1 < alphabet && rng.below(3) != 0 {
                        s += 1;
                    }
                    (s * 5) as u8
                })
                .collect();
            let code = HuffmanCode::fit(&data);
            assert_eq!(code, HuffmanCode::fit_histogram(&histogram(&data)));
            let bits = code.encode(&data);
            let (ref_bytes, ref_len) = reference::encode(&code, &data);
            assert_eq!((bits.as_bytes(), bits.len()), (&ref_bytes[..], ref_len));
            let got = code.decode(bits.as_bytes(), bits.len(), data.len());
            assert_eq!(got.as_deref(), Some(&data[..]), "round {round}");
            let cut = bits.len() / 2;
            let prefix = &bits.as_bytes()[..cut.div_ceil(8)];
            assert_eq!(
                code.decode(prefix, cut, data.len()),
                reference::decode(&code, prefix, cut, data.len())
            );
        }
    }

    #[test]
    fn hostile_length_tables_are_rejected_before_any_table_is_built() {
        // Over-subscribed: three 1-bit codes; 256 codes of 7 bits; one
        // code too many at the bottom of a full chain.
        let mut three = [0u8; 256];
        three[..3].fill(1);
        assert_eq!(HuffmanCode::from_lengths(three), None);
        assert_eq!(HuffmanCode::from_lengths([7u8; 256]), None);
        let (_, mut chain) = length_tables()
            .into_iter()
            .find(|(name, _)| *name == "31-bit chain")
            .expect("the full chain is in the table set");
        chain[9] = 31;
        assert_eq!(HuffmanCode::from_lengths(chain), None);
        // Over-long: 32 bits and up never reach a shift.
        for len in [32u8, 33, 64, 255] {
            let mut long = [0u8; 256];
            long[0] = 1;
            long[1] = len;
            assert_eq!(HuffmanCode::from_lengths(long), None, "length {len}");
        }
        // Random tables: accepted exactly when the Kraft sum allows, and
        // an accepted table decodes garbage without panicking.
        let mut rng = Lcg(4);
        for _ in 0..300 {
            let mut lengths = [0u8; 256];
            for _ in 0..1 + rng.below(12) {
                lengths[rng.below(256) as usize] = 1 + rng.below(34) as u8;
            }
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 0.5f64.powi(l as i32))
                .sum();
            let fits = lengths.iter().all(|&l| l <= MAX_CODE_LEN) && kraft <= 1.0;
            let code = HuffmanCode::from_lengths(lengths);
            assert_eq!(code.is_some(), fits, "{lengths:?}");
            if let Some(code) = code {
                let garbage: Vec<u8> = (0..24).map(|_| rng.next() as u8).collect();
                assert_eq!(
                    code.decode(&garbage, 192, 30),
                    reference::decode(&code, &garbage, 192, 30)
                );
            }
        }
    }

    #[test]
    fn empty_length_table_decodes_nothing() {
        let code = HuffmanCode::from_lengths([0u8; 256]).expect("vacuously a prefix code");
        assert_eq!(code.decode(&[], 0, 0), Some(Vec::new()));
        assert_eq!(code.decode(&[0], 8, 1), None);
    }

    #[test]
    fn roundtrip_random_stream() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let code = HuffmanCode::fit(&data);
        let bits = code.encode(&data);
        assert_eq!(bits.len(), code.encoded_bits(&data));
        let back = code
            .decode(bits.as_bytes(), bits.len(), data.len())
            .expect("decodes");
        assert_eq!(back, data);
    }

    #[test]
    fn skewed_stream_compresses() {
        // 90% one symbol → strong compression vs 8 bits/symbol.
        let mut data = vec![7u8; 900];
        data.extend((0..100u32).map(|i| (i % 50) as u8));
        let code = HuffmanCode::fit(&data);
        let bits = code.encoded_bits(&data);
        assert!(
            bits < data.len() * 4,
            "skewed stream took {bits} bits for {} symbols",
            data.len()
        );
        let enc = code.encode(&data);
        assert_eq!(
            code.decode(enc.as_bytes(), enc.len(), data.len()).unwrap(),
            data
        );
    }

    #[test]
    fn single_symbol_stream() {
        let data = vec![42u8; 100];
        let code = HuffmanCode::fit(&data);
        let bits = code.encode(&data);
        assert_eq!(bits.len(), 100); // 1 bit per symbol
        assert_eq!(code.decode(bits.as_bytes(), 100, 100).unwrap(), data);
    }

    #[test]
    fn canonical_roundtrip_through_lengths() {
        // A decoder can be rebuilt from the length table alone.
        let data: Vec<u8> = (0..512u32).map(|i| (i % 37) as u8).collect();
        let code = HuffmanCode::fit(&data);
        let rebuilt = HuffmanCode::from_lengths(*code.lengths()).expect("a fitted table");
        assert_eq!(rebuilt, code);
        let bits = code.encode(&data);
        assert_eq!(
            rebuilt
                .decode(bits.as_bytes(), bits.len(), data.len())
                .unwrap(),
            data
        );
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let data = vec![1u8, 2, 3, 1, 2, 3, 1, 1];
        let code = HuffmanCode::fit(&data);
        let bits = code.encode(&data);
        // Ask for more symbols than encoded.
        assert_eq!(
            code.decode(bits.as_bytes(), bits.len(), data.len() + 1),
            None
        );
    }

    #[test]
    fn decode_validates_the_packed_buffer() {
        let mut bv = BitVec::new();
        bv.push_code(0b1011, 4);
        let mut lengths = [0u8; 256];
        lengths[..4].fill(2);
        let code = HuffmanCode::from_lengths(lengths).unwrap();
        assert_eq!(code.decode(bv.as_bytes(), 4, 2), Some(vec![2, 3]));
        // Wrong byte count for the declared bit length.
        assert_eq!(code.decode(&[0xB0, 0x00], 4, 2), None);
        // A set padding bit past the end is not canonical.
        assert_eq!(code.decode(&[0xB1], 4, 2), None);
    }

    #[test]
    fn bitvec_semantics() {
        let mut bv = BitVec::new();
        assert!(bv.is_empty());
        bv.push_code(0b101, 3);
        assert_eq!(bv.len(), 3);
        assert_eq!(bv.get(0), Some(true));
        assert_eq!(bv.get(1), Some(false));
        assert_eq!(bv.get(2), Some(true));
        assert_eq!(bv.get(3), None);
        assert_eq!(bv.as_bytes(), &[0b1010_0000]);
        // Bits above `len` are ignored; codes straddle byte boundaries.
        bv.push_code(0xFFFF_FF00, 0);
        bv.push_code(0xFFFF_FFF0 | 0b0110, 4);
        bv.push_code(0x8000_0001, 32);
        assert_eq!(bv.len(), 39);
        assert_eq!(
            bv.as_bytes(),
            &[0b1010_1101, 0b0000_0000, 0, 0, 0b0000_0010]
        );
    }
}
