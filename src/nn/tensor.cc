#include "nn/tensor.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/gemm_kernels.h"

// The vector kernels are built by GCC on x86-64 (the toolchain this
// repository builds and tests with); elsewhere the portable kernel
// runs alone.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define HGPCN_GEMM_X86_VECTOR 1
#include <immintrin.h>
#endif

namespace hgpcn
{

void
Tensor::randomize(Rng &rng, float scale)
{
    for (auto &v : store)
        v = rng.uniform(-scale, scale);
}

void
Tensor::reluInPlace()
{
    for (auto &v : store)
        v = v > 0.0f ? v : 0.0f;
}

void
Tensor::reluRows(std::size_t row_begin, std::size_t row_end)
{
    float *p = store.data() + row_begin * n_cols;
    float *const end = store.data() + row_end * n_cols;
    for (; p != end; ++p)
        *p = *p > 0.0f ? *p : 0.0f;
}

/*
 * The GEMM micro-kernels. Each computes out = a * b over dense
 * row-major operands, overwriting out, and each accumulates every
 * output element over ascending k from +0.0f with one multiply and
 * one add per k (no split accumulators, no fused multiply-add), so
 * all of them are bit-identical to the naive triple loop: blocking
 * and vectorizing reorder memory access, never the floating-point
 * sums. The file is compiled with -ffp-contract=off
 * (src/CMakeLists.txt) so the compiler cannot fuse the multiply and
 * add into an FMA, which rounds once instead of twice.
 */
namespace
{

constexpr std::size_t kRowBlock = 4;

/*
 * The portable kernel: register-blocked over 4 rows of `a` so each
 * loaded row of `b` feeds 4 output rows from L1; `restrict`
 * pointers let the compiler vectorize the j-loop for the baseline
 * ISA. Runs where no vector instantiation below is supported.
 */
inline void
gemmRowBlock(const float *__restrict a0, const float *__restrict a1,
             const float *__restrict a2, const float *__restrict a3,
             const float *__restrict b, float *__restrict o0,
             float *__restrict o1, float *__restrict o2,
             float *__restrict o3, std::size_t kk, std::size_t n)
{
    std::fill(o0, o0 + n, 0.0f);
    std::fill(o1, o1 + n, 0.0f);
    std::fill(o2, o2 + n, 0.0f);
    std::fill(o3, o3 + n, 0.0f);
    for (std::size_t k = 0; k < kk; ++k) {
        const float *__restrict b_row = b + k * n;
        const float s0 = a0[k];
        const float s1 = a1[k];
        const float s2 = a2[k];
        const float s3 = a3[k];
        for (std::size_t j = 0; j < n; ++j) {
            o0[j] += s0 * b_row[j];
            o1[j] += s1 * b_row[j];
            o2[j] += s2 * b_row[j];
            o3[j] += s3 * b_row[j];
        }
    }
}

inline void
gemmOneRow(const float *__restrict a_row, const float *__restrict b,
           float *__restrict out_row, std::size_t kk, std::size_t n)
{
    std::fill(out_row, out_row + n, 0.0f);
    for (std::size_t k = 0; k < kk; ++k) {
        const float s = a_row[k];
        const float *__restrict b_row = b + k * n;
        for (std::size_t j = 0; j < n; ++j)
            out_row[j] += s * b_row[j];
    }
}

void
gemmScalar(const float *a, const float *b, float *out, std::size_t m,
           std::size_t kk, std::size_t n)
{
    std::size_t i = 0;
    for (; i + kRowBlock <= m; i += kRowBlock) {
        const float *ai = a + i * kk;
        float *oi = out + i * n;
        gemmRowBlock(ai, ai + kk, ai + 2 * kk, ai + 3 * kk, b, oi,
                     oi + n, oi + 2 * n, oi + 3 * n, kk, n);
    }
    for (; i < m; ++i)
        gemmOneRow(a + i * kk, b, out + i * n, kk, n);
}

#ifdef HGPCN_GEMM_X86_VECTOR

/*
 * The vector kernel, one template over an ISA traits type (Avx512,
 * Avx2 below). Rows are taken in chunks whose `a` slice stays in L2;
 * each chunk is walked in column strips — Isa::kTileVecs vectors
 * wide, then one vector, then one masked vector over the last
 * n % Isa::kWidth columns — and each strip in tiles of kRowBlock
 * rows, then single rows. A tile's accumulators stay in registers
 * for the whole k loop; each k loads the tile's slice of the b row
 * once, broadcasts a[r][k] and does a separate multiply and add —
 * per element exactly the portable kernel's `o += s * b`.
 *
 * The templates carry no target attribute: each ISA's entry point
 * below is target-specific and `flatten`, which inlines the whole
 * template, traits included, into code generated for that ISA. The
 * traits take vectors by reference, never by value, so where
 * nothing is inlined (-O0) the calls between generic and
 * target-specific code still agree on the ABI.
 */
template <class Isa, std::size_t R, std::size_t C, bool Masked>
inline void
gemmTile(const float *a, const float *b, float *out, std::size_t kk,
         std::size_t n, std::size_t tail)
{
    // Masked: one vector covering only the first `tail` columns.
    static_assert(C >= 1 && (!Masked || C == 1), "bad tile shape");
    constexpr std::size_t w = Isa::kWidth;
    typename Isa::Vec acc[R][C];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
        for (std::size_t c = 0; c < C; ++c)
            Isa::zero(acc[r][c]);
    }
    for (std::size_t k = 0; k < kk; ++k) {
        const float *b_row = b + k * n;
        typename Isa::Vec bv[C];
#pragma GCC unroll 16
        for (std::size_t c = 0; c < C; ++c) {
            if constexpr (Masked)
                Isa::loadTail(bv[c], b_row, tail);
            else
                Isa::load(bv[c], b_row + c * w);
        }
#pragma GCC unroll 16
        for (std::size_t r = 0; r < R; ++r) {
            typename Isa::Vec s;
            Isa::broadcast(s, a[r * kk + k]);
#pragma GCC unroll 16
            for (std::size_t c = 0; c < C; ++c)
                Isa::mulAdd(acc[r][c], s, bv[c]);
        }
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
        for (std::size_t c = 0; c < C; ++c) {
            if constexpr (Masked)
                Isa::storeTail(out + r * n, acc[r][c], tail);
            else
                Isa::store(out + r * n + c * w, acc[r][c]);
        }
    }
}

/** One column strip (C vectors wide) down @p m rows: kRowBlock-row
 * tiles, then 1-row tiles for the remainder. */
template <class Isa, std::size_t C, bool Masked>
inline void
gemmStrip(const float *a, const float *b, float *out, std::size_t m,
          std::size_t kk, std::size_t n, std::size_t tail)
{
    std::size_t i = 0;
    for (; i + kRowBlock <= m; i += kRowBlock) {
        gemmTile<Isa, kRowBlock, C, Masked>(a + i * kk, b, out + i * n,
                                            kk, n, tail);
    }
    for (; i < m; ++i) {
        gemmTile<Isa, 1, C, Masked>(a + i * kk, b, out + i * n, kk, n,
                                    tail);
    }
}

/** Bytes of `a` one row chunk spans: small enough to stay in L2
 * while every column strip of `b` streams past it, so a `b` too
 * wide for L2 is read once per chunk, not once per row tile. */
constexpr std::size_t kRowChunkBytes = 256 * 1024;

template <class Isa>
inline void
gemmVector(const float *a, const float *b, float *out, std::size_t m,
           std::size_t kk, std::size_t n)
{
    constexpr std::size_t w = Isa::kWidth;
    constexpr std::size_t strip = w * Isa::kTileVecs;
    const std::size_t row_bytes =
        sizeof(float) * std::max<std::size_t>(kk, 1);
    const std::size_t chunk = std::max(
        kRowBlock, kRowChunkBytes / row_bytes / kRowBlock * kRowBlock);
    for (std::size_t i0 = 0; i0 < m; i0 += chunk) {
        const std::size_t rows = std::min(chunk, m - i0);
        const float *ai = a + i0 * kk;
        float *oi = out + i0 * n;
        std::size_t j = 0;
        for (; j + strip <= n; j += strip) {
            gemmStrip<Isa, Isa::kTileVecs, false>(ai, b + j, oi + j,
                                                  rows, kk, n, 0);
        }
        for (; j + w <= n; j += w)
            gemmStrip<Isa, 1, false>(ai, b + j, oi + j, rows, kk, n, 0);
        if (j < n) {
            gemmStrip<Isa, 1, true>(ai, b + j, oi + j, rows, kk, n,
                                    n - j);
        }
    }
}

/** AVX-512F: 16 lanes; a 4 x 64 tile holds 16 of the 32 zmm
 * registers. */
struct Avx512
{
    using Vec = __m512;
    static constexpr std::size_t kWidth = 16;
    static constexpr std::size_t kTileVecs = 4;

    /** @return lanes [0, cols) set, for 0 < cols < kWidth. */
    static __mmask16
    lanes(std::size_t cols)
    {
        return static_cast<__mmask16>((1u << cols) - 1u);
    }
    [[gnu::target("avx512f")]] static void
    zero(Vec &v)
    {
        v = _mm512_setzero_ps();
    }
    [[gnu::target("avx512f")]] static void
    load(Vec &v, const float *p)
    {
        v = _mm512_loadu_ps(p);
    }
    [[gnu::target("avx512f")]] static void
    loadTail(Vec &v, const float *p, std::size_t cols)
    {
        v = _mm512_maskz_loadu_ps(lanes(cols), p);
    }
    [[gnu::target("avx512f")]] static void
    store(float *p, const Vec &v)
    {
        _mm512_storeu_ps(p, v);
    }
    [[gnu::target("avx512f")]] static void
    storeTail(float *p, const Vec &v, std::size_t cols)
    {
        _mm512_mask_storeu_ps(p, lanes(cols), v);
    }
    [[gnu::target("avx512f")]] static void
    broadcast(Vec &v, float s)
    {
        v = _mm512_set1_ps(s);
    }
    [[gnu::target("avx512f")]] static void
    mulAdd(Vec &acc, const Vec &s, const Vec &b)
    {
        acc = _mm512_add_ps(acc, _mm512_mul_ps(s, b));
    }
};

/** AVX2: 8 lanes; 16 ymm registers leave room for a 4 x 16 tile
 * (8 accumulators) plus the b slice and the broadcast. */
struct Avx2
{
    using Vec = __m256;
    static constexpr std::size_t kWidth = 8;
    static constexpr std::size_t kTileVecs = 2;

    /** @return lanes [0, cols) set, for 0 < cols < kWidth. */
    [[gnu::target("avx2")]] static __m256i
    lanes(std::size_t cols)
    {
        return _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(cols)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    [[gnu::target("avx2")]] static void
    zero(Vec &v)
    {
        v = _mm256_setzero_ps();
    }
    [[gnu::target("avx2")]] static void
    load(Vec &v, const float *p)
    {
        v = _mm256_loadu_ps(p);
    }
    [[gnu::target("avx2")]] static void
    loadTail(Vec &v, const float *p, std::size_t cols)
    {
        v = _mm256_maskload_ps(p, lanes(cols));
    }
    [[gnu::target("avx2")]] static void
    store(float *p, const Vec &v)
    {
        _mm256_storeu_ps(p, v);
    }
    [[gnu::target("avx2")]] static void
    storeTail(float *p, const Vec &v, std::size_t cols)
    {
        _mm256_maskstore_ps(p, lanes(cols), v);
    }
    [[gnu::target("avx2")]] static void
    broadcast(Vec &v, float s)
    {
        v = _mm256_set1_ps(s);
    }
    [[gnu::target("avx2")]] static void
    mulAdd(Vec &acc, const Vec &s, const Vec &b)
    {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(s, b));
    }
};

[[gnu::target("avx512f"), gnu::flatten]] void
gemmAvx512(const float *a, const float *b, float *out, std::size_t m,
           std::size_t kk, std::size_t n)
{
    gemmVector<Avx512>(a, b, out, m, kk, n);
}

[[gnu::target("avx2"), gnu::flatten]] void
gemmAvx2(const float *a, const float *b, float *out, std::size_t m,
         std::size_t kk, std::size_t n)
{
    gemmVector<Avx2>(a, b, out, m, kk, n);
}

#endif // HGPCN_GEMM_X86_VECTOR

} // namespace

namespace gemm
{

std::vector<Instantiation>
supported()
{
    std::vector<Instantiation> kernels{{"scalar", &gemmScalar}};
#ifdef HGPCN_GEMM_X86_VECTOR
    if (__builtin_cpu_supports("avx2"))
        kernels.push_back({"avx2", &gemmAvx2});
    if (__builtin_cpu_supports("avx512f"))
        kernels.push_back({"avx512", &gemmAvx512});
#endif
    return kernels;
}

const Instantiation &
selected()
{
    static const Instantiation pick = supported().back();
    return pick;
}

} // namespace gemm

void
Tensor::matmulRowsInto(const Tensor &a, const Tensor &b, Tensor &out,
                       std::size_t row_begin, std::size_t row_end)
{
    HGPCN_ASSERT(a.cols() == b.rows(), "matmul shape mismatch: [",
                 a.rows(), ",", a.cols(), "] x [", b.rows(), ",",
                 b.cols(), "]");
    HGPCN_ASSERT(out.rows() == a.rows() && out.cols() == b.cols(),
                 "matmul output shape mismatch");
    HGPCN_ASSERT(row_begin <= row_end && row_end <= a.rows(),
                 "matmul row range out of bounds");
    const std::size_t kk = a.cols();
    const std::size_t n = b.cols();
    gemm::selected().kernel(a.store.data() + row_begin * kk,
                            b.store.data(),
                            out.store.data() + row_begin * n,
                            row_end - row_begin, kk, n);
}

void
Tensor::matmulInto(const Tensor &a, const Tensor &b, Tensor &out)
{
    out.resizeUninit(a.rows(), b.cols());
    matmulRowsInto(a, b, out, 0, a.rows());
}

Tensor
Tensor::matmul(const Tensor &a, const Tensor &b)
{
    Tensor out(a.rows(), b.cols());
    matmulRowsInto(a, b, out, 0, a.rows());
    return out;
}

void
Tensor::addRowBias(const std::vector<float> &bias)
{
    addRowBias(bias, 0, n_rows);
}

void
Tensor::addRowBias(const std::vector<float> &bias,
                   std::size_t row_begin, std::size_t row_end)
{
    HGPCN_ASSERT(bias.size() == n_cols, "bias width mismatch");
    const float *__restrict b = bias.data();
    for (std::size_t r = row_begin; r < row_end; ++r) {
        float *__restrict row_ptr = row(r);
        for (std::size_t c = 0; c < n_cols; ++c)
            row_ptr[c] += b[c];
    }
}

Tensor
Tensor::maxPoolGroups(std::size_t group) const
{
    Tensor out;
    maxPoolGroupsInto(group, out);
    return out;
}

void
Tensor::maxPoolGroupsInto(std::size_t group, Tensor &out) const
{
    HGPCN_ASSERT(group >= 1 && n_rows % group == 0,
                 "rows ", n_rows, " not a multiple of group ", group);
    const std::size_t out_rows = n_rows / group;
    out.resizeUninit(out_rows, n_cols);
    for (std::size_t g = 0; g < out_rows; ++g) {
        float *__restrict dst = out.row(g);
        const float *__restrict first = row(g * group);
        std::copy(first, first + n_cols, dst);
        for (std::size_t i = 1; i < group; ++i) {
            const float *__restrict src = row(g * group + i);
            for (std::size_t c = 0; c < n_cols; ++c)
                dst[c] = std::max(dst[c], src[c]);
        }
    }
}

void
Tensor::maxPoolGroupsRowsInto(std::size_t group, std::size_t src_begin,
                              std::size_t src_end, Tensor &out) const
{
    HGPCN_ASSERT(src_begin <= src_end && src_end <= n_rows,
                 "pool row range out of bounds");
    const std::size_t span = src_end - src_begin;
    HGPCN_ASSERT(group >= 1 && span % group == 0,
                 "rows ", span, " not a multiple of group ", group);
    const std::size_t out_rows = span / group;
    out.resizeUninit(out_rows, n_cols);
    for (std::size_t g = 0; g < out_rows; ++g) {
        float *__restrict dst = out.row(g);
        const float *__restrict first = row(src_begin + g * group);
        std::copy(first, first + n_cols, dst);
        for (std::size_t i = 1; i < group; ++i) {
            const float *__restrict src =
                row(src_begin + g * group + i);
            for (std::size_t c = 0; c < n_cols; ++c)
                dst[c] = std::max(dst[c], src[c]);
        }
    }
}

void
Tensor::copyRowsInto(std::size_t src_begin, std::size_t src_end,
                     Tensor &out) const
{
    HGPCN_ASSERT(src_begin <= src_end && src_end <= n_rows,
                 "copy row range out of bounds");
    out.resizeUninit(src_end - src_begin, n_cols);
    if (src_end > src_begin)
        std::copy(row(src_begin), row(src_begin) + (src_end - src_begin) * n_cols,
                  out.row(0));
}

std::size_t
Tensor::argmaxRow(std::size_t r) const
{
    HGPCN_ASSERT(n_cols > 0, "empty tensor");
    const float *row_ptr = row(r);
    return static_cast<std::size_t>(
        std::max_element(row_ptr, row_ptr + n_cols) - row_ptr);
}

} // namespace hgpcn
