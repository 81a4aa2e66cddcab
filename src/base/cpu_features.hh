/**
 * @file
 * Host CPU feature detection shared by every layer with a SIMD path.
 *
 * SIMD bodies are compiled via per-function target attributes
 * (`__attribute__((target("avx2")))`), never a TU-wide -mavx2: a
 * TU-wide flag would let the compiler emit AVX2 in shared
 * inline/template instantiations (std::function, vector) whose COMDAT
 * copy the linker may pick for the whole program, crashing pre-AVX2
 * hosts. Per-function targeting confines AVX2 to exactly the code
 * guarded by hostHasAvx2().
 */

#ifndef GNNMARK_BASE_CPU_FEATURES_HH
#define GNNMARK_BASE_CPU_FEATURES_HH

/** 1 when this compiler can build the AVX2 paths (x86-64 GCC/Clang). */
#if defined(__x86_64__) && defined(__GNUC__)
#define GNNMARK_AVX2 1
#else
#define GNNMARK_AVX2 0
#endif

namespace gnnmark {

/** True when the AVX2 paths are compiled in and this CPU has AVX2.
 *  Detected once per process, so the answer never flips mid-run. */
bool hostHasAvx2();

} // namespace gnnmark

#endif // GNNMARK_BASE_CPU_FEATURES_HH
