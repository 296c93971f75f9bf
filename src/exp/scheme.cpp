#include "exp/scheme.hpp"

namespace pet::exp {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSecn1: return "SECN1";
    case Scheme::kSecn2: return "SECN2";
    case Scheme::kAcc: return "ACC";
    case Scheme::kPet: return "PET";
    case Scheme::kPetAblation: return "PET-noIR";
  }
  return "?";
}

net::RedEcnConfig secn1_config() {
  return net::RedEcnConfig{
      .kmin_bytes = 5 * 1024, .kmax_bytes = 200 * 1024, .pmax = 0.2};
}

net::RedEcnConfig secn2_config() {
  return net::RedEcnConfig{
      .kmin_bytes = 100 * 1024, .kmax_bytes = 400 * 1024, .pmax = 0.2};
}

}  // namespace pet::exp
