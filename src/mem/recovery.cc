#include "mem/recovery.hh"

#include "common/logging.hh"

namespace clumsy::mem
{

bool
usesParity(RecoveryScheme scheme)
{
    return scheme != RecoveryScheme::NoDetection;
}

unsigned
readAttempts(RecoveryScheme scheme)
{
    switch (scheme) {
      case RecoveryScheme::NoDetection:
        return 1;
      case RecoveryScheme::OneStrike:
        return 1;
      case RecoveryScheme::TwoStrike:
        return 2;
      case RecoveryScheme::ThreeStrike:
        return 3;
    }
    panic("unreachable recovery scheme");
}

std::string
to_string(RecoveryScheme scheme)
{
    switch (scheme) {
      case RecoveryScheme::NoDetection:
        return "no detection";
      case RecoveryScheme::OneStrike:
        return "one-strike";
      case RecoveryScheme::TwoStrike:
        return "two-strike";
      case RecoveryScheme::ThreeStrike:
        return "three-strike";
    }
    panic("unreachable recovery scheme");
}

} // namespace clumsy::mem
