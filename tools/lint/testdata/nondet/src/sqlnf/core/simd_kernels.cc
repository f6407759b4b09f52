#include <cstdlib>
namespace sqlnf::simd {
int EnvLevel() {
  // VIOLATION: the nondeterminism rule has no exemptions, not even here.
  const char* env = std::getenv("SQLNF_SIMD_LEVEL");
  return env != nullptr ? 1 : 0;
}
}  // namespace sqlnf::simd
