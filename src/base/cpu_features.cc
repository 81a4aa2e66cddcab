#include "base/cpu_features.hh"

namespace gnnmark {

bool
hostHasAvx2()
{
#if GNNMARK_AVX2
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#else
    return false;
#endif
}

} // namespace gnnmark
