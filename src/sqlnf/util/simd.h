// ISA plumbing for the explicit SIMD kernel layer — the ONLY header
// that may define SQLNF_SIMD_* feature macros, and (with
// core/simd_kernels.cc) the only file that may include intrinsics
// headers. The sqlnf_lint `simd-confinement` rule enforces both, so
// every other translation unit stays ISA-agnostic and portable: callers
// see only the dispatch API of core/simd_kernels.h.
//
// Two compile-time tiers, probed here and selected at RUNTIME by
// core/simd_kernels.cc (simd::ActiveLevel):
//
//   SQLNF_SIMD_X86        x86-64 baseline — SSE2 is guaranteed by the
//                         ABI, so the 128-bit kernels compile
//                         unconditionally with no target attribute.
//   SQLNF_SIMD_HAVE_AVX2  AVX2 kernels are COMPILED (per-function
//                         __attribute__((target("avx2"))), so the rest
//                         of the TU keeps the baseline ISA). Whether
//                         they EXECUTE is decided per process by
//                         __builtin_cpu_supports("avx2") — never by
//                         the compile flags alone, so one binary runs
//                         correctly on any x86-64.
//
// Every other target, AArch64 included, runs the scalar kernels: no
// CI leg compiles a vector tier there, so none ships. Defining
// SQLNF_SIMD_FORCE_SCALAR (the CI fallback leg) compiles out every
// vector path: DetectedLevel() is kScalar and the scalar
// reference kernels — the differential oracle — are all that remains.
// The kernels are bit-identical across levels by contract, so forcing
// scalar can never change a result, only its speed.

#ifndef SQLNF_UTIL_SIMD_H_
#define SQLNF_UTIL_SIMD_H_

#if !defined(SQLNF_SIMD_FORCE_SCALAR) && \
    (defined(__x86_64__) || defined(_M_X64))
#define SQLNF_SIMD_X86 1
#else
#define SQLNF_SIMD_X86 0
#endif

// AVX2 via per-function target attributes needs GCC/Clang; MSVC would
// need /arch juggling and has no __builtin_cpu_supports.
#if SQLNF_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
#define SQLNF_SIMD_HAVE_AVX2 1
#define SQLNF_SIMD_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define SQLNF_SIMD_HAVE_AVX2 0
#define SQLNF_SIMD_TARGET_AVX2
#endif

// Applied to the scalar reference kernels so the compiler does not
// auto-vectorize the oracle: the scalar level must stay genuinely
// scalar — it is the differential baseline the E19 speedup gate and
// the forced-scalar CI leg both measure against. (Clang has no
// per-function optimize attribute; its loops carry
// `#pragma clang loop vectorize(disable)` instead, see
// SQLNF_SIMD_NO_AUTOVEC.)
#if defined(__clang__)
#define SQLNF_SIMD_SCALAR_FN
#define SQLNF_SIMD_NO_AUTOVEC \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define SQLNF_SIMD_SCALAR_FN \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define SQLNF_SIMD_NO_AUTOVEC
#else
#define SQLNF_SIMD_SCALAR_FN
#define SQLNF_SIMD_NO_AUTOVEC
#endif

#endif  // SQLNF_UTIL_SIMD_H_
