#pragma once
// The four schemes the paper compares (Section 5.4) plus the Fig. 9
// ablation variant.

#include "net/red_ecn.hpp"

namespace pet::exp {

enum class Scheme {
  kSecn1,        // static DCQCN config: Kmin 5KB / Kmax 200KB
  kSecn2,        // static HPCC config: Kmin 100KB / Kmax 400KB
  kAcc,          // DDQN + global replay, basic state set
  kPet,          // IPPO + six-factor state (this paper)
  kPetAblation,  // PET without D_incast / R_flow (Fig. 9)
};

[[nodiscard]] const char* scheme_name(Scheme scheme);

[[nodiscard]] inline bool is_learning_scheme(Scheme s) {
  return s == Scheme::kAcc || s == Scheme::kPet || s == Scheme::kPetAblation;
}

/// Static ECN configurations (paper Section 5.4). Pmax is not specified by
/// the paper; 20% is used for both so the contrast stays threshold-driven.
[[nodiscard]] net::RedEcnConfig secn1_config();
[[nodiscard]] net::RedEcnConfig secn2_config();

}  // namespace pet::exp
