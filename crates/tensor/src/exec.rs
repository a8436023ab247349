//! Workspace-wide execution layer: a deterministic thread pool and tiled
//! GEMM backends behind one [`ExecContext`].
//!
//! Every hot loop nest in the reproduction — the dense f32/i32 GEMMs, the
//! error-free quantized reference matmul, the functional NB-SMT emulation,
//! and the cycle-level systolic walker — runs through this module. The
//! context owns two orthogonal decisions:
//!
//! * **Kernel choice** ([`GemmBackend`]): [`Naive`] (the seed scalar loop,
//!   and the oracle every other kernel is checked against), [`Blocked`]
//!   (cache-tiled over row and reduction blocks), [`Parallel`] (row-tile
//!   fan-out of the blocked kernel over the pool), [`Simd`]
//!   (runtime-detected AVX2 intrinsics with a portable unrolled fallback),
//!   or [`Packed`] (B packed into column panels + register-blocked
//!   microkernel; see [`PackedRhs`] for the reusable-pack entry point).
//!   On hosts with AVX-512 F + VNNI, [`Parallel`] and [`Simd`] run their
//!   u8×i8 GEMM on one `vpdpbusd` kernel instead (B packed once per call
//!   into 16-column panels of k-quads, row tiles fanned out over the pool);
//!   other hosts keep the kernels above.
//! * **Worker pool** (`threads`): scoped `std::thread` workers over a
//!   deterministic, contiguous partition of the tile space.
//!
//! # Determinism contract
//!
//! Integer results (`i32`, `u8×i8`) are **bit-exact across backends and
//! invariant to thread count**, because integer arithmetic is exact:
//!
//! * Work is partitioned into *row tiles* (or output tiles for the systolic
//!   walker), each computed independently of the others.
//! * Every accumulator is wide enough for its reduction, so the order in
//!   which products are summed cannot change the result. The scalar and
//!   AVX2 kernels accumulate in i64. The VNNI kernel accumulates in i32
//!   lanes over k-blocks of at most 65 792 steps (`65 792·255·128 < 2³¹`,
//!   so no lane can wrap) and widen-adds each block into the i64 output;
//!   it is exact for every `k`, with no error path.
//! * Per-tile side results (PE statistics, cycle counts) are returned to the
//!   caller **in tile order** regardless of which worker produced them, and
//!   callers reduce them in that order.
//!
//! For **f32**, where summation order does matter, every kernel except
//! [`Simd`]'s visits the reduction dimension in ascending order with the
//! same zero-skip rule, so the same bit-exact guarantee holds. [`Simd`]'s
//! AVX2 f32 kernel keeps several lane accumulators per output element (and
//! fuses multiply-add where FMA is available), which reassociates the
//! reduction. [`Simd`] f32 is the explicitly declared **fast-f32 tier**:
//! per element, results agree with the scalar reference to within
//! `1e-5 × Σₚ|aₚ·bₚ|` (tolerance relative to the ℓ1 magnitude of the
//! reduction, which stays meaningful under cancellation; enforced by
//! `tests/exec_equivalence.rs`), and remain deterministic for a fixed host
//! CPU.
//!
//! Any future backend (wider SIMD, distributed) slots in by implementing
//! [`GemmBackend`] and honouring the same contract.

use serde::{Deserialize, Serialize};

/// Which GEMM kernel an [`ExecContext`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GemmBackendKind {
    /// The seed scalar loop nest (row-major `i, p, j` with zero-skip).
    Naive,
    /// Cache-tiled kernel: row blocks × reduction blocks, ascending.
    Blocked,
    /// Row-tile fan-out of the blocked kernel over the worker pool (u8×i8:
    /// the VNNI kernel where the host has it).
    #[default]
    Parallel,
    /// Runtime-detected AVX2 kernels (bit-exact integers, fast-f32 tier)
    /// with a portable unrolled fallback on other hosts (u8×i8: the VNNI
    /// kernel where the host has it).
    Simd,
    /// Packs B into column panels, then runs a register-blocked microkernel
    /// over the panels. Bit-exact for every element type.
    Packed,
}

impl GemmBackendKind {
    /// Parses a CLI-style backend name (`naive`, `blocked`, `parallel`,
    /// `simd`, `packed`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "naive" => Some(GemmBackendKind::Naive),
            "blocked" => Some(GemmBackendKind::Blocked),
            "parallel" => Some(GemmBackendKind::Parallel),
            "simd" => Some(GemmBackendKind::Simd),
            "packed" => Some(GemmBackendKind::Packed),
            _ => None,
        }
    }

    /// The canonical lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            GemmBackendKind::Naive => "naive",
            GemmBackendKind::Blocked => "blocked",
            GemmBackendKind::Parallel => "parallel",
            GemmBackendKind::Simd => "simd",
            GemmBackendKind::Packed => "packed",
        }
    }
}

impl std::fmt::Display for GemmBackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an [`ExecContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Number of worker threads the pool may use (`>= 1`). One means all
    /// work runs inline on the calling thread.
    pub threads: usize,
    /// Rows per work tile: the unit of parallel fan-out and the row-block
    /// size of the [`Blocked`] kernel.
    pub tile_rows: usize,
    /// Reduction-dimension block size of the [`Blocked`] kernel.
    pub tile_k: usize,
    /// Which GEMM kernel to dispatch to.
    pub backend: GemmBackendKind,
}

impl ExecConfig {
    /// The sequential configuration: one thread, the seed scalar kernel.
    /// This reproduces the pre-execution-layer behaviour exactly. (Spelled
    /// out literally — no `..default()` — so the no-context compatibility
    /// wrappers don't pay an `available_parallelism` syscall per call.)
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            tile_rows: 32,
            tile_k: 64,
            backend: GemmBackendKind::Naive,
        }
    }

    /// A parallel configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            ..ExecConfig::default()
        }
    }
}

impl Default for ExecConfig {
    /// Parallel backend over all available hardware threads, with cache-tile
    /// sizes chosen for 8-bit/32-bit operands on typical L1/L2 sizes.
    fn default() -> Self {
        ExecConfig {
            threads: available_threads(),
            tile_rows: 32,
            tile_k: 64,
            backend: GemmBackendKind::Parallel,
        }
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Handle to the execution layer: a tile-size configuration plus a scoped
/// worker pool with deterministic work partitioning. See the module docs for
/// the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecContext {
    config: ExecConfig,
}

impl ExecContext {
    /// Creates a context from a configuration (thread count and tile sizes
    /// are clamped to at least 1).
    ///
    /// This constructor is deliberately infallible and lenient — it backs
    /// the no-context compatibility wrappers on every hot path. Boundaries
    /// that *accept* an [`ExecConfig`] as input (the replica pool, the
    /// bench run-spec driver) reject invalid values with a typed error via
    /// [`crate::validate::Validate`] before a context is ever built; use
    /// `config.validate()?` there rather than relying on this clamp.
    pub fn new(mut config: ExecConfig) -> Self {
        config.threads = config.threads.max(1);
        config.tile_rows = config.tile_rows.max(1);
        config.tile_k = config.tile_k.max(1);
        ExecContext { config }
    }

    /// The sequential context (1 thread, [`Naive`] kernel): bit-for-bit the
    /// seed behaviour, used by all no-context compatibility wrappers.
    pub fn sequential() -> Self {
        ExecContext::new(ExecConfig::sequential())
    }

    /// A parallel context over all available hardware threads.
    pub fn parallel() -> Self {
        ExecContext::new(ExecConfig::default())
    }

    /// A parallel context with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecContext::new(ExecConfig::with_threads(threads))
    }

    /// The configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Worker threads the pool may use.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The GEMM backend this context dispatches to.
    pub fn backend(&self) -> &'static dyn GemmBackend {
        match self.config.backend {
            GemmBackendKind::Naive => &Naive,
            GemmBackendKind::Blocked => &Blocked,
            GemmBackendKind::Parallel => &Parallel,
            GemmBackendKind::Simd => &Simd,
            GemmBackendKind::Packed => &Packed,
        }
    }

    /// `C = A × B` on f32 with the configured backend. Slices are row-major;
    /// `out` must hold `m * n` elements and is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_f32(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0.0);
        self.backend().gemm_f32(self, m, k, n, a, b, out);
    }

    /// `C = A × B` on i32 operands accumulating into i64.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_i32(&self, m: usize, k: usize, n: usize, a: &[i32], b: &[i32], out: &mut [i64]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0);
        self.backend().gemm_i32(self, m, k, n, a, b, out);
    }

    /// `C = A × B` on the quantized grid (u8 activations × i8 weights,
    /// i64 accumulators) — the hardware's exact integer arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_u8i8(&self, m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0);
        self.backend().gemm_u8i8(self, m, k, n, a, b, out);
    }

    /// Quantized-grid GEMM against a pre-packed right-hand side.
    ///
    /// The caller packs `b` once with [`PackedRhs::pack`] and amortises the
    /// pack across calls (the serve stack caches one pack per layer per
    /// session). It always runs the portable panel microkernel on the
    /// calling thread. Results are bit-identical to [`Self::gemm_u8i8`] on
    /// the original `b` under every backend — integer accumulation is exact
    /// — so callers may switch between the packed and unpacked entry points
    /// freely.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `m` and the pack's dimensions.
    pub fn gemm_u8i8_prepacked(&self, m: usize, a: &[u8], b: &PackedRhs<i8>, out: &mut [i64]) {
        let (k, n) = (b.k(), b.n());
        check_gemm_dims(m, k, n, a.len(), k * n, out.len());
        out.fill(0);
        packed_rows::<U8I8Gemm>(a, b, k, n, 0, m, out);
    }

    /// Maps `f` over tile indices `0..count` using the worker pool and
    /// returns the results **in tile order**. Tiles are partitioned into
    /// contiguous, balanced runs per worker; with one thread (or one tile)
    /// everything runs inline on the calling thread.
    pub fn map_tiles<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let workers = self.threads().min(count);
        if workers <= 1 {
            return (0..count).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest: &mut [Option<R>] = &mut slots;
            let mut next = 0usize;
            for widx in 0..workers {
                let take = (count - next).div_ceil(workers - widx);
                let first = next;
                next += take;
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                scope.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(first + i));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every tile is owned by exactly one worker"))
            .collect()
    }

    /// Splits the row-major buffer `out` (`rows × width`) into row tiles of
    /// `tile_rows`, runs `f(tile_index, row_start, tile_row_count, chunk)`
    /// over the pool, and returns each tile's result **in tile order**.
    ///
    /// Each chunk is the disjoint sub-slice of `out` covering that tile's
    /// rows, so workers write results in place without synchronisation.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != rows * width`.
    pub fn map_row_tiles<T, R, F>(&self, out: &mut [T], rows: usize, width: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, usize, usize, &mut [T]) -> R + Sync,
    {
        assert_eq!(
            out.len(),
            rows * width,
            "map_row_tiles: buffer is {} elements, expected {rows} x {width}",
            out.len()
        );
        if rows == 0 {
            return Vec::new();
        }
        let tile = self.config.tile_rows;
        let tiles = rows.div_ceil(tile);
        let workers = self.threads().min(tiles);
        if workers <= 1 {
            let mut results = Vec::with_capacity(tiles);
            let mut rest = out;
            for t in 0..tiles {
                let row_start = t * tile;
                let nrows = tile.min(rows - row_start);
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(nrows * width);
                rest = tail;
                results.push(f(t, row_start, nrows, chunk));
            }
            return results;
        }
        let mut slots: Vec<Option<R>> = (0..tiles).map(|_| None).collect();
        std::thread::scope(|scope| {
            let f = &f;
            let mut out_rest: &mut [T] = out;
            let mut slot_rest: &mut [Option<R>] = &mut slots;
            let mut next_tile = 0usize;
            for widx in 0..workers {
                let take = (tiles - next_tile).div_ceil(workers - widx);
                let first = next_tile;
                next_tile += take;
                let row_start = first * tile;
                let row_end = (next_tile * tile).min(rows);
                let (chunk, tail) =
                    std::mem::take(&mut out_rest).split_at_mut((row_end - row_start) * width);
                out_rest = tail;
                let (res_chunk, res_tail) = std::mem::take(&mut slot_rest).split_at_mut(take);
                slot_rest = res_tail;
                scope.spawn(move || {
                    let mut chunk = chunk;
                    let mut row = row_start;
                    for (i, slot) in res_chunk.iter_mut().enumerate() {
                        let nrows = tile.min(rows - row);
                        let (cur, rest) = std::mem::take(&mut chunk).split_at_mut(nrows * width);
                        chunk = rest;
                        *slot = Some(f(first + i, row, nrows, cur));
                        row += nrows;
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every tile is owned by exactly one worker"))
            .collect()
    }

    /// Like [`Self::map_row_tiles`] but discards per-tile results.
    pub fn for_each_row_tile<T, F>(&self, out: &mut [T], rows: usize, width: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, usize, &mut [T]) + Sync,
    {
        let _ = self.map_row_tiles(out, rows, width, |t, rs, nr, chunk| f(t, rs, nr, chunk));
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::parallel()
    }
}

fn check_gemm_dims(m: usize, k: usize, n: usize, a: usize, b: usize, out: usize) {
    assert_eq!(a, m * k, "gemm: lhs is {a} elements, expected {m} x {k}");
    assert_eq!(b, k * n, "gemm: rhs is {b} elements, expected {k} x {n}");
    assert_eq!(
        out,
        m * n,
        "gemm: out is {out} elements, expected {m} x {n}"
    );
}

/// A GEMM kernel family usable through an [`ExecContext`].
///
/// Implementations must honour the determinism contract: for identical
/// inputs the output must be bit-identical to [`Naive`]'s, for every thread
/// count. The supplied context carries the worker pool and tile sizes.
// A GEMM signature is irreducibly (dims, lhs, rhs, out) + context.
#[allow(clippy::too_many_arguments)]
pub trait GemmBackend: Sync {
    /// The backend's canonical name.
    fn name(&self) -> &'static str;

    /// f32 GEMM; `out` arrives zero-initialised.
    fn gemm_f32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    );

    /// i32 GEMM with i64 accumulation; `out` arrives zero-initialised.
    fn gemm_i32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    );

    /// Quantized-grid GEMM (u8 × i8 → i64); `out` arrives zero-initialised.
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    );
}

/// Element-type triple shared by the generic kernels, so each backend is
/// written once and stamped out for f32, i32, and the quantized u8×i8 grid.
trait GemmElems {
    /// Left operand element.
    type Lhs: Copy + Send + Sync;
    /// Right operand element.
    type Rhs: Copy + Send + Sync;
    /// Accumulator element. `Default` is the additive zero for every
    /// instantiation (`0.0f32`, `0i64`), which the register-blocked
    /// microkernel relies on to seed its accumulator block.
    type Acc: Copy + Send + Default;

    /// The zero-skip rule every kernel applies identically (part of the
    /// bit-exactness contract: skipping `0 × b` must match the seed loop).
    fn is_zero(a: Self::Lhs) -> bool;
    /// One multiply-accumulate.
    fn mac(acc: &mut Self::Acc, a: Self::Lhs, b: Self::Rhs);
}

struct F32Gemm;
impl GemmElems for F32Gemm {
    type Lhs = f32;
    type Rhs = f32;
    type Acc = f32;
    fn is_zero(a: f32) -> bool {
        a == 0.0
    }
    fn mac(acc: &mut f32, a: f32, b: f32) {
        *acc += a * b;
    }
}

struct I32Gemm;
impl GemmElems for I32Gemm {
    type Lhs = i32;
    type Rhs = i32;
    type Acc = i64;
    fn is_zero(a: i32) -> bool {
        a == 0
    }
    fn mac(acc: &mut i64, a: i32, b: i32) {
        *acc += a as i64 * b as i64;
    }
}

struct U8I8Gemm;
impl GemmElems for U8I8Gemm {
    type Lhs = u8;
    type Rhs = i8;
    type Acc = i64;
    fn is_zero(a: u8) -> bool {
        a == 0
    }
    fn mac(acc: &mut i64, a: u8, b: i8) {
        *acc += a as i64 * b as i64;
    }
}

/// The seed scalar kernel over a row range: `i, p (zero-skip), j` with the
/// reduction dimension ascending — the per-element accumulation order every
/// other kernel must reproduce.
fn naive_rows<E: GemmElems>(
    a: &[E::Lhs],
    b: &[E::Rhs],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    out: &mut [E::Acc],
) {
    for i in 0..nrows {
        let arow = &a[(row_start + i) * k..(row_start + i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if E::is_zero(aval) {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                E::mac(o, aval, bval);
            }
        }
    }
}

/// The cache-tiled kernel over a row range: ascending reduction blocks of
/// `tile_k`, so the `tile_k × n` panel of `b` stays hot across the block's
/// rows. Per-element accumulation order is identical to [`naive_rows`].
#[allow(clippy::too_many_arguments)]
fn blocked_rows<E: GemmElems>(
    a: &[E::Lhs],
    b: &[E::Rhs],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    tile_k: usize,
    out: &mut [E::Acc],
) {
    let mut kb = 0usize;
    while kb < k {
        let kend = (kb + tile_k).min(k);
        for i in 0..nrows {
            let arow = &a[(row_start + i) * k..(row_start + i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &aval) in arow.iter().enumerate().take(kend).skip(kb) {
                if E::is_zero(aval) {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                    E::mac(o, aval, bval);
                }
            }
        }
        kb = kend;
    }
}

fn parallel_gemm<E: GemmElems>(
    ctx: &ExecContext,
    m: usize,
    k: usize,
    n: usize,
    a: &[E::Lhs],
    b: &[E::Rhs],
    out: &mut [E::Acc],
) {
    let tile_k = ctx.config().tile_k;
    if ctx.threads() <= 1 {
        // One worker: skip the row-tile fan-out entirely and run the blocked
        // kernel over the whole row range, so a 1-core host pays no per-tile
        // overhead and re-reads the `tile_k × n` panel of `b` once per block
        // instead of once per tile. Bit-identical by the determinism
        // contract (same per-element accumulation order).
        blocked_rows::<E>(a, b, k, n, 0, m, tile_k, out);
        return;
    }
    ctx.for_each_row_tile(out, m, n, |_tile, row_start, nrows, chunk| {
        blocked_rows::<E>(a, b, k, n, row_start, nrows, tile_k, chunk);
    });
}

/// The seed scalar loop nest, run inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl GemmBackend for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn gemm_f32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        naive_rows::<F32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_i32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        naive_rows::<I32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_u8i8(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        naive_rows::<U8I8Gemm>(a, b, k, n, 0, m, out);
    }
}

/// The cache-tiled kernel, run inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

impl GemmBackend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }
    fn gemm_f32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        blocked_rows::<F32Gemm>(a, b, k, n, 0, m, ctx.config().tile_k, out);
    }
    fn gemm_i32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        blocked_rows::<I32Gemm>(a, b, k, n, 0, m, ctx.config().tile_k, out);
    }
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        blocked_rows::<U8I8Gemm>(a, b, k, n, 0, m, ctx.config().tile_k, out);
    }
}

/// Row-tile fan-out of the blocked kernel over the context's worker pool;
/// the u8×i8 GEMM runs the VNNI kernel where the host has it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel;

impl GemmBackend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }
    fn gemm_f32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        parallel_gemm::<F32Gemm>(ctx, m, k, n, a, b, out);
    }
    fn gemm_i32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        parallel_gemm::<I32Gemm>(ctx, m, k, n, a, b, out);
    }
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        u8i8_vnni_or(vnni::detect(), parallel_u8i8, ctx, m, k, n, a, b, out);
    }
}

/// The portable fallback for [`Simd`]: the naive loop order with the `j`
/// loop hand-unrolled 4-wide so the compiler keeps four independent
/// accumulator chains. Per-element accumulation order (ascending `p`,
/// zero-skip) is identical to [`naive_rows`], so this stays on the bit-exact
/// tier for every element type including f32.
fn unrolled_rows<E: GemmElems>(
    a: &[E::Lhs],
    b: &[E::Rhs],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    out: &mut [E::Acc],
) {
    for i in 0..nrows {
        let arow = &a[(row_start + i) * k..(row_start + i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if E::is_zero(aval) {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let mut j = 0usize;
            while j + 4 <= n {
                E::mac(&mut orow[j], aval, brow[j]);
                E::mac(&mut orow[j + 1], aval, brow[j + 1]);
                E::mac(&mut orow[j + 2], aval, brow[j + 2]);
                E::mac(&mut orow[j + 3], aval, brow[j + 3]);
                j += 4;
            }
            while j < n {
                E::mac(&mut orow[j], aval, brow[j]);
                j += 1;
            }
        }
    }
}

/// AVX2 kernels behind the [`Simd`] backend. Only compiled on x86_64; the
/// caller checks `is_x86_feature_detected!("avx2")` (and `"fma"` for the
/// fused f32 path) before entering, which is the entire safety obligation of
/// the `unsafe` functions here.
///
/// Integer kernels broadcast one `a` element per reduction step and run a
/// strip of output columns in 64-bit lanes: `_mm256_cvtepi32_epi64` /
/// `_mm256_cvtepi8_epi64` sign-extend the `b` strip, then
/// `_mm256_mul_epi32` (signed low-32 × low-32 → 64) accumulates exactly.
/// Each output element still sees the reduction in ascending-`k` order with
/// the shared zero-skip rule, so integer results are bit-exact with
/// [`naive_rows`]. The f32 kernel instead keeps 4 ymm accumulators per
/// column strip and fuses multiply-add when FMA is available — the declared
/// fast-f32 tier (see the module docs).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    /// Runs the AVX2 i32 kernel if the host supports it; `false` means the
    /// caller must take the portable fallback.
    pub fn try_gemm_i32(
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: avx2 verified at runtime just above.
        unsafe { gemm_i32(m, k, n, a, b, out) };
        true
    }

    /// Runs the AVX2 u8×i8 kernel if the host supports it.
    pub fn try_gemm_u8i8(
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: avx2 verified at runtime just above.
        unsafe { gemm_u8i8(m, k, n, a, b, out) };
        true
    }

    /// Runs the AVX2 f32 kernel (fused multiply-add where the host has FMA)
    /// if the host supports it.
    pub fn try_gemm_f32(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: avx2 + fma verified at runtime just above.
            unsafe { gemm_f32_fma(m, k, n, a, b, out) };
        } else {
            // SAFETY: avx2 verified at runtime just above.
            unsafe { gemm_f32(m, k, n, a, b, out) };
        }
        true
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_i32(m: usize, k: usize, n: usize, a: &[i32], b: &[i32], out: &mut [i64]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 16 <= n {
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    let va = _mm256_set1_epi64x(aval as i64);
                    let bp = b.as_ptr().add(p * n + j);
                    let b01 = _mm256_loadu_si256(bp as *const __m256i);
                    let b23 = _mm256_loadu_si256(bp.add(8) as *const __m256i);
                    let vb0 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(b01));
                    let vb1 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(b01));
                    let vb2 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(b23));
                    let vb3 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(b23));
                    acc0 = _mm256_add_epi64(acc0, _mm256_mul_epi32(va, vb0));
                    acc1 = _mm256_add_epi64(acc1, _mm256_mul_epi32(va, vb1));
                    acc2 = _mm256_add_epi64(acc2, _mm256_mul_epi32(va, vb2));
                    acc3 = _mm256_add_epi64(acc3, _mm256_mul_epi32(va, vb3));
                }
                let op = orow.as_mut_ptr().add(j);
                _mm256_storeu_si256(op as *mut __m256i, acc0);
                _mm256_storeu_si256(op.add(4) as *mut __m256i, acc1);
                _mm256_storeu_si256(op.add(8) as *mut __m256i, acc2);
                _mm256_storeu_si256(op.add(12) as *mut __m256i, acc3);
                j += 16;
            }
            // Scalar tail: same ascending-k, zero-skip order per element.
            for jj in j..n {
                let mut acc = 0i64;
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    acc += aval as i64 * b[p * n + jj] as i64;
                }
                orow[jj] = acc;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_u8i8(m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 16 <= n {
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    // u8 broadcast is non-negative, so the signed low-32
                    // multiply below is exact for it.
                    let va = _mm256_set1_epi64x(aval as i64);
                    let bytes = _mm_loadu_si128(b.as_ptr().add(p * n + j) as *const __m128i);
                    let vb0 = _mm256_cvtepi8_epi64(bytes);
                    let vb1 = _mm256_cvtepi8_epi64(_mm_srli_si128::<4>(bytes));
                    let vb2 = _mm256_cvtepi8_epi64(_mm_srli_si128::<8>(bytes));
                    let vb3 = _mm256_cvtepi8_epi64(_mm_srli_si128::<12>(bytes));
                    acc0 = _mm256_add_epi64(acc0, _mm256_mul_epi32(va, vb0));
                    acc1 = _mm256_add_epi64(acc1, _mm256_mul_epi32(va, vb1));
                    acc2 = _mm256_add_epi64(acc2, _mm256_mul_epi32(va, vb2));
                    acc3 = _mm256_add_epi64(acc3, _mm256_mul_epi32(va, vb3));
                }
                let op = orow.as_mut_ptr().add(j);
                _mm256_storeu_si256(op as *mut __m256i, acc0);
                _mm256_storeu_si256(op.add(4) as *mut __m256i, acc1);
                _mm256_storeu_si256(op.add(8) as *mut __m256i, acc2);
                _mm256_storeu_si256(op.add(12) as *mut __m256i, acc3);
                j += 16;
            }
            for jj in j..n {
                let mut acc = 0i64;
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    acc += aval as i64 * b[p * n + jj] as i64;
                }
                orow[jj] = acc;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_f32_fma(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_f32_impl::<true>(m, k, n, a, b, out);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_f32_impl::<false>(m, k, n, a, b, out);
    }

    /// Shared f32 strip kernel; `FMA` selects fused multiply-add. Inlined
    /// into the two `#[target_feature]` wrappers above so each gets compiled
    /// with its own feature set.
    #[inline(always)]
    unsafe fn gemm_f32_impl<const FMA: bool>(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 32 <= n {
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(aval);
                    let bp = b.as_ptr().add(p * n + j);
                    let vb0 = _mm256_loadu_ps(bp);
                    let vb1 = _mm256_loadu_ps(bp.add(8));
                    let vb2 = _mm256_loadu_ps(bp.add(16));
                    let vb3 = _mm256_loadu_ps(bp.add(24));
                    if FMA {
                        acc0 = _mm256_fmadd_ps(va, vb0, acc0);
                        acc1 = _mm256_fmadd_ps(va, vb1, acc1);
                        acc2 = _mm256_fmadd_ps(va, vb2, acc2);
                        acc3 = _mm256_fmadd_ps(va, vb3, acc3);
                    } else {
                        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, vb0));
                        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, vb1));
                        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, vb2));
                        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, vb3));
                    }
                }
                let op = orow.as_mut_ptr().add(j);
                _mm256_storeu_ps(op, acc0);
                _mm256_storeu_ps(op.add(8), acc1);
                _mm256_storeu_ps(op.add(16), acc2);
                _mm256_storeu_ps(op.add(24), acc3);
                j += 32;
            }
            for jj in j..n {
                let mut acc = 0.0f32;
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0.0 {
                        continue;
                    }
                    acc += aval * b[p * n + jj];
                }
                orow[jj] = acc;
            }
        }
    }
}

/// Reduction steps per i32 k-block of the VNNI kernel, a whole number of
/// quads with `VNNI_K_BLOCK·255·128 < 2³¹`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const VNNI_K_BLOCK: usize = 65_792;

/// The AVX-512 VNNI u8×i8 kernel behind [`Parallel`] and [`Simd`] on hosts
/// that report `avx512f` and `avx512vnni`.
///
/// B is packed once per call into [`PACK_NR`]-column panels of k-quads
/// (`panel × quad × column × 4` bytes, zero-padded past `k` and `n`), so
/// one 64-byte load feeds one `vpdpbusd`: 16 columns × 4 reduction steps,
/// u8 × i8 products summed into 16 i32 lanes. A 4-row × 4-panel register
/// tile keeps 16 accumulators live across a k-block.
///
/// Exactness: a k-block spans at most [`VNNI_K_BLOCK`] reduction steps, so every
/// partial sum is bounded by `VNNI_K_BLOCK·255·128 < 2³¹` and the i32 lanes never
/// wrap; each block is then widened and added into the i64 output. Results
/// equal [`naive_rows`] for every `k` by exact integer arithmetic, whatever
/// the summation order.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod vnni {
    use std::arch::x86_64::*;

    use super::{ExecContext, PACK_NR, VNNI_K_BLOCK};

    /// Quads (groups of 4 reduction steps) per k-block.
    const BLOCK_QUADS: usize = VNNI_K_BLOCK / 4;
    /// Rows of the register tile.
    const MR: usize = 4;
    /// Panels of the register tile.
    const NP: usize = 4;
    /// Bytes of one panel quad: [`PACK_NR`] columns × 4 reduction steps.
    const QUAD_BYTES: usize = PACK_NR * 4;

    /// Proof that the host runs AVX-512 F + VNNI. Only [`detect`] makes
    /// one, which is the safety obligation of the kernel below.
    #[derive(Debug, Clone, Copy)]
    pub struct Isa(());

    /// `Some` when the host reports `avx512f` and `avx512vnni`.
    pub fn detect() -> Option<Isa> {
        (std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni"))
        .then_some(Isa(()))
    }

    /// Packs row-major `k × n` B into panels of k-quads: four rows of B at
    /// a time, each column's 4 bytes written together.
    fn pack(k: usize, n: usize, b: &[i8]) -> Vec<i8> {
        let kq = k.div_ceil(4);
        let panels = n.div_ceil(PACK_NR);
        let mut data = vec![0i8; panels * kq * QUAD_BYTES];
        let zero = vec![0i8; n];
        for (q, rows) in b.chunks(4 * n).enumerate() {
            // Rows past `k` in the last quad read as zeros.
            let [r0, r1, r2, r3]: [&[i8]; 4] =
                std::array::from_fn(|r| rows.get(r * n..(r + 1) * n).unwrap_or(&zero));
            for pj in 0..panels {
                let j0 = pj * PACK_NR;
                let quad = &mut data[(pj * kq + q) * QUAD_BYTES..][..QUAD_BYTES];
                for (j, dst) in (j0..n).zip(quad.chunks_exact_mut(4)) {
                    dst.copy_from_slice(&[r0[j], r1[j], r2[j], r3[j]]);
                }
            }
        }
        data
    }

    /// `out = A × B` over the pool: packs B once, then fans row tiles out.
    /// `out` arrives zero-initialised.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_u8i8(
        ctx: &ExecContext,
        isa: Isa,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let packed = pack(k, n, b);
        ctx.for_each_row_tile(out, m, n, |_tile, row_start, nrows, chunk| {
            let rows = &a[row_start * k..(row_start + nrows) * k];
            gemm_rows(isa, rows, k, n, &packed, chunk);
        });
    }

    /// `out += A × B` for the rows of `a` (`nrows × k`) against packed B.
    fn gemm_rows(isa: Isa, a: &[u8], k: usize, n: usize, packed: &[i8], out: &mut [i64]) {
        let kq = k.div_ceil(4);
        let panels = n.div_ceil(PACK_NR);
        let nrows = a.len() / k;
        let mut qb = 0;
        while qb < kq {
            let qe = (qb + BLOCK_QUADS).min(kq);
            let mut pg = 0;
            while pg < panels {
                let np = NP.min(panels - pg);
                let mut i = 0;
                while i < nrows {
                    let mr = if i + MR <= nrows { MR } else { 1 };
                    let mut acc = [[[0i32; PACK_NR]; NP]; MR];
                    let tile = Tile {
                        a: &a[i * k..(i + mr) * k],
                        k,
                        packed: &packed[pg * kq * QUAD_BYTES..(pg + np) * kq * QUAD_BYTES],
                        kq,
                        quads: qb..qe,
                    };
                    match (mr, np) {
                        (MR, 4) => tile.run::<MR, 4>(isa, &mut acc),
                        (MR, 3) => tile.run::<MR, 3>(isa, &mut acc),
                        (MR, 2) => tile.run::<MR, 2>(isa, &mut acc),
                        (MR, _) => tile.run::<MR, 1>(isa, &mut acc),
                        (_, 4) => tile.run::<1, 4>(isa, &mut acc),
                        (_, 3) => tile.run::<1, 3>(isa, &mut acc),
                        (_, 2) => tile.run::<1, 2>(isa, &mut acc),
                        (_, _) => tile.run::<1, 1>(isa, &mut acc),
                    }
                    // Widen the exact i32 block sums into the i64 output.
                    for (r, acc_row) in acc.iter().enumerate().take(mr) {
                        let orow = &mut out[(i + r) * n..(i + r + 1) * n];
                        for (p, lanes) in acc_row.iter().enumerate().take(np) {
                            let j0 = (pg + p) * PACK_NR;
                            let cols = &mut orow[j0..(j0 + PACK_NR).min(n)];
                            for (o, &v) in cols.iter_mut().zip(lanes) {
                                *o += i64::from(v);
                            }
                        }
                    }
                    i += mr;
                }
                pg += np;
            }
            qb = qe;
        }
    }

    /// One register tile: up to [`MR`] rows of A against up to [`NP`]
    /// consecutive panels, over one k-block of quads.
    struct Tile<'a> {
        /// The tile's rows of A, each `k` bytes.
        a: &'a [u8],
        k: usize,
        /// The tile's panels, each `kq` quads.
        packed: &'a [i8],
        kq: usize,
        /// The k-block, in quads; at most [`BLOCK_QUADS`] long.
        quads: std::ops::Range<usize>,
    }

    impl Tile<'_> {
        /// Writes the block sums of row `r`, panel `p` to `acc[r][p]`.
        fn run<const R: usize, const P: usize>(
            &self,
            _isa: Isa,
            acc: &mut [[[i32; PACK_NR]; NP]; MR],
        ) {
            assert!(R <= MR && P <= NP, "register tile is {MR}x{NP}");
            assert_eq!(self.a.len(), R * self.k, "tile rows");
            assert_eq!(self.packed.len(), P * self.kq * QUAD_BYTES, "tile panels");
            assert!(self.quads.end <= self.kq && self.quads.len() <= BLOCK_QUADS);
            // SAFETY: `_isa` proves avx512f + avx512vnni (only `detect`
            // makes an `Isa`); the asserts above bound every access.
            unsafe { self.run_vnni::<R, P>(acc) }
        }

        /// # Safety
        ///
        /// The host must support avx512f and avx512vnni, and the slice
        /// lengths must be those asserted in [`Tile::run`]: then every
        /// A read (`4q + 4 <= k` for whole quads, a bounded copy for the
        /// last partial quad) and B read (`(p·kq + q + 1)·64 <=
        /// packed.len()`) is in bounds.
        #[target_feature(enable = "avx512f,avx512vnni")]
        unsafe fn run_vnni<const R: usize, const P: usize>(
            &self,
            acc: &mut [[[i32; PACK_NR]; NP]; MR],
        ) {
            let (k, kq) = (self.k, self.kq);
            let whole = k / 4;
            let mut vacc = [[_mm512_setzero_si512(); P]; R];
            let mut vb = [_mm512_setzero_si512(); P];
            let bptr = self.packed.as_ptr();
            let aptr = self.a.as_ptr();
            for q in self.quads.start..self.quads.end.min(whole) {
                for (p, b) in vb.iter_mut().enumerate() {
                    *b = _mm512_loadu_si512(bptr.add((p * kq + q) * QUAD_BYTES) as *const _);
                }
                for (r, row) in vacc.iter_mut().enumerate() {
                    let word = (aptr.add(r * k + 4 * q) as *const i32).read_unaligned();
                    let va = _mm512_set1_epi32(word);
                    for (v, &b) in row.iter_mut().zip(vb.iter()) {
                        *v = _mm512_dpbusd_epi32(*v, va, b);
                    }
                }
            }
            if whole < kq && self.quads.contains(&whole) {
                // The last quad holds `k % 4` real steps: zero-pad A's word
                // (B's panel is zero-padded already).
                for (p, b) in vb.iter_mut().enumerate() {
                    *b = _mm512_loadu_si512(bptr.add((p * kq + whole) * QUAD_BYTES) as *const _);
                }
                for (r, row) in vacc.iter_mut().enumerate() {
                    let mut bytes = [0u8; 4];
                    bytes[..k - 4 * whole].copy_from_slice(&self.a[r * k + 4 * whole..(r + 1) * k]);
                    let va = _mm512_set1_epi32(i32::from_le_bytes(bytes));
                    for (v, &b) in row.iter_mut().zip(vb.iter()) {
                        *v = _mm512_dpbusd_epi32(*v, va, b);
                    }
                }
            }
            for (out_row, row) in acc.iter_mut().zip(vacc.iter()) {
                for (out, v) in out_row.iter_mut().zip(row.iter()) {
                    _mm512_storeu_si512(out.as_mut_ptr() as *mut _, *v);
                }
            }
        }
    }
}

/// Non-x86_64 stand-in: no host ever has the ISA, so the kernel is
/// unreachable.
#[cfg(not(target_arch = "x86_64"))]
mod vnni {
    use super::ExecContext;

    /// Uninhabited: there is no VNNI off x86_64.
    #[derive(Debug, Clone, Copy)]
    pub enum Isa {}

    /// Always `None` off x86_64.
    pub fn detect() -> Option<Isa> {
        None
    }

    /// Unreachable: `isa` cannot exist.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_u8i8(
        _: &ExecContext,
        isa: Isa,
        _: usize,
        _: usize,
        _: usize,
        _: &[u8],
        _: &[i8],
        _: &mut [i64],
    ) {
        match isa {}
    }
}

/// A u8×i8 GEMM kernel: `(ctx, m, k, n, a, b, out)`.
type U8I8Kernel = fn(&ExecContext, usize, usize, usize, &[u8], &[i8], &mut [i64]);

/// The u8×i8 GEMM of [`Parallel`] and [`Simd`]: the VNNI kernel when `isa`
/// is `Some`, else the backend's own kernel. Takes the detected feature as
/// a parameter so tests can run both halves on a VNNI host.
#[allow(clippy::too_many_arguments)]
fn u8i8_vnni_or(
    isa: Option<vnni::Isa>,
    fallback: U8I8Kernel,
    ctx: &ExecContext,
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    b: &[i8],
    out: &mut [i64],
) {
    match isa {
        Some(isa) => vnni::gemm_u8i8(ctx, isa, m, k, n, a, b, out),
        None => fallback(ctx, m, k, n, a, b, out),
    }
}

/// [`Parallel`]'s u8×i8 kernel without VNNI: the blocked row-tile fan-out.
fn parallel_u8i8(
    ctx: &ExecContext,
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    b: &[i8],
    out: &mut [i64],
) {
    parallel_gemm::<U8I8Gemm>(ctx, m, k, n, a, b, out);
}

/// [`Simd`]'s u8×i8 kernel without VNNI: AVX2, else the unrolled loop.
fn simd_u8i8(_: &ExecContext, m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2::try_gemm_u8i8(m, k, n, a, b, out) {
        return;
    }
    unrolled_rows::<U8I8Gemm>(a, b, k, n, 0, m, out);
}

/// Runtime-detected SIMD kernels: AVX2 on x86_64 hosts that report it, the
/// portable [`unrolled_rows`] fallback everywhere else, and the VNNI kernel
/// for u8×i8 where the host has it. Integer kernels are bit-exact; f32 is
/// the declared fast-f32 tier (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Simd;

impl GemmBackend for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }
    fn gemm_f32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2::try_gemm_f32(m, k, n, a, b, out) {
            return;
        }
        unrolled_rows::<F32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_i32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2::try_gemm_i32(m, k, n, a, b, out) {
            return;
        }
        unrolled_rows::<I32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        u8i8_vnni_or(vnni::detect(), simd_u8i8, ctx, m, k, n, a, b, out);
    }
}

/// Columns per packed panel (the microkernel's register-block width).
pub const PACK_NR: usize = 16;

/// The B matrix of a GEMM re-laid into column panels of [`PACK_NR`]: panel
/// `pj` holds columns `pj*NR .. pj*NR+NR` contiguously per reduction step
/// (`k × NR`, zero-padded in the last panel), so the microkernel streams B
/// linearly regardless of `n`.
///
/// Packing is a pure, deterministic relayout — computing through a pack is
/// bit-identical to the unpacked kernels for every element type. Build one
/// with [`PackedRhs::pack`] and reuse it across calls; the serve stack
/// caches one pack per layer for the lifetime of a serving session.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRhs<T> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> PackedRhs<T> {
    /// Packs a row-major `k × n` matrix into column panels.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != k * n`.
    pub fn pack(k: usize, n: usize, b: &[T]) -> Self {
        assert_eq!(
            b.len(),
            k * n,
            "pack: rhs is {} elements, expected {k} x {n}",
            b.len()
        );
        let panels = n.div_ceil(PACK_NR);
        let mut data = vec![T::default(); panels * k * PACK_NR];
        for pj in 0..panels {
            let j0 = pj * PACK_NR;
            let width = PACK_NR.min(n - j0);
            let base = pj * k * PACK_NR;
            for p in 0..k {
                for l in 0..width {
                    data[base + p * PACK_NR + l] = b[p * n + j0 + l];
                }
            }
        }
        PackedRhs { k, n, data }
    }
}

impl<T> PackedRhs<T> {
    /// Reduction dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// The register-blocked microkernel over packed panels: 2 rows × [`PACK_NR`]
/// columns of accumulators live across the whole reduction, B streams
/// linearly from the panel. Each output element still accumulates in
/// ascending-`k` order with the shared zero-skip rule, so results are
/// bit-exact with [`naive_rows`] for every element type including f32.
fn packed_rows<E: GemmElems>(
    a: &[E::Lhs],
    pack: &PackedRhs<E::Rhs>,
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    out: &mut [E::Acc],
) {
    let panels = n.div_ceil(PACK_NR);
    for pj in 0..panels {
        let j0 = pj * PACK_NR;
        let width = PACK_NR.min(n - j0);
        let pdata = &pack.data[pj * k * PACK_NR..(pj + 1) * k * PACK_NR];
        let mut i = 0usize;
        while i + 2 <= nrows {
            let ar0 = &a[(row_start + i) * k..(row_start + i) * k + k];
            let ar1 = &a[(row_start + i + 1) * k..(row_start + i + 1) * k + k];
            let mut acc = [[E::Acc::default(); PACK_NR]; 2];
            for p in 0..k {
                let bl = &pdata[p * PACK_NR..(p + 1) * PACK_NR];
                let a0 = ar0[p];
                let a1 = ar1[p];
                let z0 = E::is_zero(a0);
                let z1 = E::is_zero(a1);
                // One fused pass over the panel row when both rows are live:
                // the common dense case loads each B lane once for two MACs.
                if !z0 && !z1 {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[0][l], a0, bl[l]);
                        E::mac(&mut acc[1][l], a1, bl[l]);
                    }
                } else if !z0 {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[0][l], a0, bl[l]);
                    }
                } else if !z1 {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[1][l], a1, bl[l]);
                    }
                }
            }
            for l in 0..width {
                out[i * n + j0 + l] = acc[0][l];
                out[(i + 1) * n + j0 + l] = acc[1][l];
            }
            i += 2;
        }
        if i < nrows {
            let ar0 = &a[(row_start + i) * k..(row_start + i) * k + k];
            let mut acc = [E::Acc::default(); PACK_NR];
            for p in 0..k {
                let bl = &pdata[p * PACK_NR..(p + 1) * PACK_NR];
                let a0 = ar0[p];
                if !E::is_zero(a0) {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[l], a0, bl[l]);
                    }
                }
            }
            for l in 0..width {
                out[i * n + j0 + l] = acc[l];
            }
        }
    }
}

/// Packs B per call, then runs the register-blocked microkernel over the
/// panels. Bit-exact for every element type. Callers that reuse the same B
/// across many GEMMs should pack once via [`PackedRhs::pack`] and use
/// [`ExecContext::gemm_u8i8_prepacked`] instead, which skips the per-call
/// pack entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Packed;

impl GemmBackend for Packed {
    fn name(&self) -> &'static str {
        "packed"
    }
    fn gemm_f32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let pack = PackedRhs::pack(k, n, b);
        packed_rows::<F32Gemm>(a, &pack, k, n, 0, m, out);
    }
    fn gemm_i32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        let pack = PackedRhs::pack(k, n, b);
        packed_rows::<I32Gemm>(a, &pack, k, n, 0, m, out);
    }
    fn gemm_u8i8(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        let pack = PackedRhs::pack(k, n, b);
        packed_rows::<U8I8Gemm>(a, &pack, k, n, 0, m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_i32(m: usize, k: usize, seed: u64) -> Vec<i32> {
        // Small deterministic LCG; values in the i8-ish range with zeros.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..m * k)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) % 255) as i32 - 127;
                if v % 5 == 0 {
                    0
                } else {
                    v
                }
            })
            .collect()
    }

    fn all_contexts() -> Vec<ExecContext> {
        let mut ctxs = vec![ExecContext::sequential()];
        for backend in [
            GemmBackendKind::Naive,
            GemmBackendKind::Blocked,
            GemmBackendKind::Parallel,
            GemmBackendKind::Simd,
            GemmBackendKind::Packed,
        ] {
            for threads in [1usize, 2, 8] {
                ctxs.push(ExecContext::new(ExecConfig {
                    threads,
                    tile_rows: 3,
                    tile_k: 7,
                    backend,
                }));
            }
        }
        ctxs
    }

    #[test]
    fn backend_kind_parse_round_trips() {
        for kind in [
            GemmBackendKind::Naive,
            GemmBackendKind::Blocked,
            GemmBackendKind::Parallel,
            GemmBackendKind::Simd,
            GemmBackendKind::Packed,
        ] {
            assert_eq!(GemmBackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            GemmBackendKind::parse("NAIVE"),
            Some(GemmBackendKind::Naive)
        );
        assert_eq!(GemmBackendKind::parse("avx512"), None);
        assert_eq!(GemmBackendKind::default(), GemmBackendKind::Parallel);
    }

    #[test]
    fn i32_gemm_identical_across_backends_and_threads() {
        let (m, k, n) = (13, 29, 11);
        let a = sample_i32(m, k, 1);
        let b = sample_i32(k, n, 2);
        let mut reference = vec![0_i64; m * n];
        ExecContext::sequential().gemm_i32(m, k, n, &a, &b, &mut reference);
        for ctx in all_contexts() {
            let mut out = vec![0_i64; m * n];
            ctx.gemm_i32(m, k, n, &a, &b, &mut out);
            assert_eq!(out, reference, "ctx {:?}", ctx.config());
        }
    }

    #[test]
    fn f32_gemm_bit_exact_across_backends_and_threads() {
        let (m, k, n) = (9, 33, 7);
        let a: Vec<f32> = sample_i32(m, k, 3)
            .iter()
            .map(|&v| v as f32 * 0.37)
            .collect();
        let b: Vec<f32> = sample_i32(k, n, 4)
            .iter()
            .map(|&v| v as f32 * 0.11)
            .collect();
        let mut reference = vec![0.0_f32; m * n];
        ExecContext::sequential().gemm_f32(m, k, n, &a, &b, &mut reference);
        let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        for ctx in all_contexts() {
            // Simd f32 is the declared fast-f32 tier (reassociated lanes),
            // covered by its own tolerance test below; every other backend
            // stays bit-exact.
            if ctx.config().backend == GemmBackendKind::Simd {
                continue;
            }
            let mut out = vec![0.0_f32; m * n];
            ctx.gemm_f32(m, k, n, &a, &b, &mut out);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, ref_bits, "ctx {:?}", ctx.config());
        }
    }

    #[test]
    fn simd_f32_stays_within_declared_tolerance() {
        // Shapes chosen to exercise the 32-wide strip and the scalar tail.
        for (m, k, n) in [(9, 33, 7), (4, 17, 40), (3, 64, 37)] {
            let a: Vec<f32> = sample_i32(m, k, 3)
                .iter()
                .map(|&v| v as f32 * 0.37)
                .collect();
            let b: Vec<f32> = sample_i32(k, n, 4)
                .iter()
                .map(|&v| v as f32 * 0.11)
                .collect();
            let mut reference = vec![0.0_f32; m * n];
            ExecContext::sequential().gemm_f32(m, k, n, &a, &b, &mut reference);
            let ctx = ExecContext::new(ExecConfig {
                backend: GemmBackendKind::Simd,
                ..ExecConfig::sequential()
            });
            let mut out = vec![0.0_f32; m * n];
            ctx.gemm_f32(m, k, n, &a, &b, &mut out);
            for (idx, (&got, &want)) in out.iter().zip(reference.iter()).enumerate() {
                // Declared fast-f32 tier: 1e-5 relative to the l1 magnitude
                // of the reduction (robust under cancellation).
                let (i, j) = (idx / n, idx % n);
                let scale: f32 = (0..k).map(|p| (a[i * k + p] * b[p * n + j]).abs()).sum();
                let tol = 1e-5_f32 * scale.max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "element {idx}: {got} vs {want} ({m}x{k}x{n})"
                );
            }
        }
    }

    #[test]
    fn prepacked_u8i8_matches_unpacked() {
        let (m, k, n) = (7, 23, 19);
        let a: Vec<u8> = sample_i32(m, k, 9)
            .iter()
            .map(|&v| v.unsigned_abs() as u8)
            .collect();
        let b: Vec<i8> = sample_i32(k, n, 10).iter().map(|&v| v as i8).collect();
        let mut reference = vec![0_i64; m * n];
        ExecContext::sequential().gemm_u8i8(m, k, n, &a, &b, &mut reference);
        let pack = PackedRhs::pack(k, n, &b);
        assert_eq!((pack.k(), pack.n()), (k, n));
        for ctx in all_contexts() {
            let mut out = vec![0_i64; m * n];
            ctx.gemm_u8i8_prepacked(m, &a, &pack, &mut out);
            assert_eq!(out, reference, "ctx {:?}", ctx.config());
        }
    }

    #[test]
    fn u8i8_gemm_identical_across_backends_and_threads() {
        let (m, k, n) = (6, 40, 5);
        let a: Vec<u8> = sample_i32(m, k, 5)
            .iter()
            .map(|&v| v.unsigned_abs() as u8)
            .collect();
        let b: Vec<i8> = sample_i32(k, n, 6).iter().map(|&v| v as i8).collect();
        let mut reference = vec![0_i64; m * n];
        ExecContext::sequential().gemm_u8i8(m, k, n, &a, &b, &mut reference);
        for ctx in all_contexts() {
            let mut out = vec![0_i64; m * n];
            ctx.gemm_u8i8(m, k, n, &a, &b, &mut out);
            assert_eq!(out, reference, "ctx {:?}", ctx.config());
        }
    }

    /// Runs `Parallel`'s and `Simd`'s u8×i8 paths, VNNI (when the host has
    /// it) and fallback, against `Naive` under a 1- and a 3-thread context.
    fn check_u8i8_paths(m: usize, k: usize, n: usize, a: &[u8], b: &[i8]) {
        let mut reference = vec![0_i64; m * n];
        naive_rows::<U8I8Gemm>(a, b, k, n, 0, m, &mut reference);
        let mut isas = vec![None];
        isas.extend(vnni::detect().map(Some));
        for threads in [1usize, 3] {
            let ctx = ExecContext::new(ExecConfig {
                threads,
                tile_rows: 5,
                ..ExecConfig::default()
            });
            for &isa in &isas {
                let paths: [(&str, U8I8Kernel); 2] =
                    [("parallel", parallel_u8i8), ("simd", simd_u8i8)];
                for (name, fallback) in paths {
                    let mut out = vec![0_i64; m * n];
                    u8i8_vnni_or(isa, fallback, &ctx, m, k, n, a, b, &mut out);
                    assert!(
                        out == reference,
                        "{name} vnni={} threads={threads} shape={m}x{k}x{n}",
                        isa.is_some()
                    );
                }
            }
        }
    }

    fn note_if_no_vnni() {
        if vnni::detect().is_none() {
            println!("note: host lacks avx512f + avx512vnni; only the fallback u8xi8 path ran");
        }
    }

    #[test]
    fn u8i8_vnni_and_fallback_match_naive_on_edge_shapes() {
        note_if_no_vnni();
        let mut seed = 20;
        // k covers 1, 3, 5 and 4q ± 1; n is off the 16-column panel width;
        // m is off the 4-row register tile.
        for k in [1usize, 3, 4, 5, 7, 9, 63, 65, 129] {
            for (m, n) in [(1usize, 1usize), (5, 15), (6, 17), (9, 33), (3, 70)] {
                seed += 1;
                let mut a: Vec<u8> = sample_i32(m, k, seed)
                    .iter()
                    .map(|&v| (v * 2).unsigned_abs() as u8)
                    .collect();
                let b: Vec<i8> = sample_i32(k, n, seed + 100)
                    .iter()
                    .map(|&v| v as i8)
                    .collect();
                // An all-zero row in the middle of the tile.
                if m > 2 {
                    a[k..2 * k].fill(0);
                }
                check_u8i8_paths(m, k, n, &a, &b);
            }
        }
        // Degenerate shapes leave the zeroed output untouched.
        check_u8i8_paths(0, 4, 3, &[], &[1; 12]);
        check_u8i8_paths(2, 0, 3, &[], &[]);
        check_u8i8_paths(2, 4, 0, &[1; 8], &[]);
    }

    #[test]
    fn u8i8_extreme_operands_stay_exact_past_the_i32_block() {
        note_if_no_vnni();
        // The block bound itself: every partial sum of a k-block fits i32.
        assert!(VNNI_K_BLOCK as i64 * 255 * 128 < 1 << 31);
        assert_eq!(VNNI_K_BLOCK % 4, 0, "a k-block holds whole quads");
        let (m, n) = (2, 17);
        // One step past the block, and far enough past it that a single
        // unblocked i32 accumulator would wrap.
        for k in [VNNI_K_BLOCK + 1, 2 * VNNI_K_BLOCK + 3] {
            let a = vec![255_u8; m * k];
            let b = vec![-128_i8; k * n];
            check_u8i8_paths(m, k, n, &a, &b);
            let want = -(k as i64) * 255 * 128;
            let mut out = vec![0_i64; m * n];
            ExecContext::parallel().gemm_u8i8(m, k, n, &a, &b, &mut out);
            assert!(out.iter().all(|&v| v == want), "k={k}");
        }
        assert!((2 * VNNI_K_BLOCK + 3) as i64 * 255 * 128 > 1 << 31);
    }

    #[test]
    fn map_tiles_preserves_tile_order() {
        for threads in [1usize, 2, 3, 8] {
            let ctx = ExecContext::with_threads(threads);
            let results = ctx.map_tiles(17, |t| t * t);
            assert_eq!(results, (0..17).map(|t| t * t).collect::<Vec<_>>());
        }
        assert!(ExecContext::parallel().map_tiles(0, |t| t).is_empty());
    }

    #[test]
    fn map_row_tiles_covers_every_row_once() {
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::new(ExecConfig {
                threads,
                tile_rows: 4,
                ..ExecConfig::default()
            });
            let (rows, width) = (11usize, 3usize);
            let mut out = vec![0_u32; rows * width];
            let tiles = ctx.map_row_tiles(&mut out, rows, width, |t, row_start, nrows, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (row_start * width + i) as u32 + 1;
                }
                (t, row_start, nrows)
            });
            // Every element written exactly once, in its global position.
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u32 + 1);
            }
            // Tile descriptors arrive in order and cover 0..rows.
            assert_eq!(tiles.len(), 3);
            assert_eq!(tiles[0], (0, 0, 4));
            assert_eq!(tiles[1], (1, 4, 4));
            assert_eq!(tiles[2], (2, 8, 3));
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let ctx = ExecContext::parallel();
        let mut out: Vec<i64> = Vec::new();
        ctx.gemm_i32(0, 5, 3, &[], &[0; 15], &mut out);
        let mut out = vec![7_i64; 4];
        // k = 0: output must be all zeros.
        ctx.gemm_i32(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm: lhs")]
    fn mismatched_lengths_panic() {
        let ctx = ExecContext::sequential();
        let mut out = vec![0_i64; 4];
        ctx.gemm_i32(2, 3, 2, &[1; 5], &[1; 6], &mut out);
    }

    #[test]
    fn config_clamps_to_valid_values() {
        let ctx = ExecContext::new(ExecConfig {
            threads: 0,
            tile_rows: 0,
            tile_k: 0,
            backend: GemmBackendKind::Parallel,
        });
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.config().tile_rows, 1);
        assert_eq!(ctx.config().tile_k, 1);
        assert!(available_threads() >= 1);
    }
}
