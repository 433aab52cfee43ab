#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.hpp"

namespace hdcs {

namespace {

SimdTier detect() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bw")) return SimdTier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
  return SimdTier::kSse2;  // SSE2 is baseline on x86-64
#else
  // The "sse2" tier is plain fixed-width-lane C++, portable to any ISA.
  return SimdTier::kSse2;
#endif
}

SimdTier initial_tier() {
  SimdTier detected = detect();
  const char* env = std::getenv("HDCS_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  SimdTier requested;
  if (!parse_simd_tier(env, &requested)) {
    LOG_WARN("HDCS_SIMD=" << env
                          << " is not scalar|sse2|avx2|avx512; using detected tier "
                          << to_string(detected));
    return detected;
  }
  if (static_cast<int>(requested) > static_cast<int>(detected)) {
    LOG_WARN("HDCS_SIMD=" << env << " not supported by this CPU; clamping to "
                          << to_string(detected));
    return detected;
  }
  return requested;
}

// -1 = not yet selected. Lazy so the env override works no matter when the
// first kernel runs, without static-init-order games.
std::atomic<int> g_tier{-1};

}  // namespace

SimdTier simd_tier_detected() {
  static const SimdTier t = detect();
  return t;
}

SimdTier simd_tier() {
  int t = g_tier.load(std::memory_order_relaxed);
  if (t >= 0) return static_cast<SimdTier>(t);
  SimdTier chosen = initial_tier();
  int expected = -1;
  if (g_tier.compare_exchange_strong(expected, static_cast<int>(chosen),
                                     std::memory_order_relaxed)) {
    return chosen;
  }
  return static_cast<SimdTier>(expected);
}

void set_simd_tier(SimdTier t) {
  if (!simd_tier_available(t)) t = simd_tier_detected();
  g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
}

const char* to_string(SimdTier t) {
  switch (t) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse2: return "sse2";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "?";
}

bool parse_simd_tier(std::string_view text, SimdTier* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (lower == "scalar") *out = SimdTier::kScalar;
  else if (lower == "sse2") *out = SimdTier::kSse2;
  else if (lower == "avx2") *out = SimdTier::kAvx2;
  else if (lower == "avx512") *out = SimdTier::kAvx512;
  else return false;
  return true;
}

}  // namespace hdcs
