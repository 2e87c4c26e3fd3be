#include "src/stm/backend/backend.hpp"

#include <cstdio>
#include <cstdlib>

namespace rubic::stm {

std::string_view backend_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kOrecSwiss:
      return "orec_swiss";
    case BackendKind::kNorec:
      return "norec";
    case BackendKind::kTl2:
      return "tl2";
  }
  return "?";
}

std::optional<BackendKind> parse_backend(std::string_view name) noexcept {
  for (const BackendKind kind : known_backends()) {
    if (name == backend_name(kind)) return kind;
  }
  return std::nullopt;
}

std::vector<BackendKind> known_backends() {
  return {BackendKind::kOrecSwiss, BackendKind::kNorec, BackendKind::kTl2};
}

BackendKind default_backend() {
  static const BackendKind cached = [] {
    const char* env = std::getenv("RUBIC_STM_BACKEND");
    if (env == nullptr || env[0] == '\0') return BackendKind::kOrecSwiss;
    if (const auto parsed = parse_backend(env)) return *parsed;
    std::fprintf(stderr,
                 "RUBIC_STM_BACKEND='%s' is not a known backend (known:", env);
    for (const BackendKind kind : known_backends()) {
      std::fprintf(stderr, " %.*s",
                   static_cast<int>(backend_name(kind).size()),
                   backend_name(kind).data());
    }
    std::fprintf(stderr, ")\n");
    std::abort();
  }();
  return cached;
}

}  // namespace rubic::stm
