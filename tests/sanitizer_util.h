// sanitizer_util.h -- shared test helper: detect LeakSanitizer so tests
// can skip cells that leak *by design* (the paper's "None" scheme drops
// retired records on the floor; everything else stays leak-checked).
#pragma once

#include <string_view>

namespace smr::testutil {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kLeakChecked = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kLeakChecked = true;
#else
inline constexpr bool kLeakChecked = false;
#endif
#else
inline constexpr bool kLeakChecked = false;
#endif

/// The 'none' scheme leaks every retired record by design; skip its cells
/// when LeakSanitizer is watching.
template <class Scheme>
bool skip_leaky_cell() {
    return kLeakChecked && std::string_view(Scheme::name) == "none";
}

}  // namespace smr::testutil
