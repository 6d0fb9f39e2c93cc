/**
 * @file
 * Internal: the GEMM micro-kernel instantiations behind
 * Tensor::matmulRowsInto.
 *
 * One kernel template is instantiated per x86 vector ISA (AVX-512,
 * AVX2) beside the portable scalar kernel; Tensor picks the widest
 * one the host runs, once, at first use. Every instantiation
 * accumulates each output element over ascending k from +0.0f with
 * a separate multiply and add, so all of them are bit-identical to
 * the naive triple loop. This header exists so tests can hold each
 * instantiation the host supports to that oracle; library code goes
 * through Tensor.
 */

#ifndef HGPCN_NN_GEMM_KERNELS_H
#define HGPCN_NN_GEMM_KERNELS_H

#include <cstddef>
#include <vector>

namespace hgpcn::gemm
{

/**
 * out = a * b over dense row-major operands: a is [m, kk], b is
 * [kk, n], out is [m, n] and fully overwritten.
 */
using Kernel = void (*)(const float *a, const float *b, float *out,
                        std::size_t m, std::size_t kk, std::size_t n);

/** One instantiation of the kernel. */
struct Instantiation
{
    const char *isa; //!< "scalar", "avx2" or "avx512"
    Kernel kernel;
};

/** @return every instantiation this host can run, narrowest first
 * (the scalar kernel always leads). */
std::vector<Instantiation> supported();

/** @return the instantiation Tensor runs: the last of supported(),
 * chosen on the first call. */
const Instantiation &selected();

} // namespace hgpcn::gemm

#endif // HGPCN_NN_GEMM_KERNELS_H
