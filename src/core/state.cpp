#include "core/state.hpp"

namespace ulpmc::core {

const char* trap_name(Trap t) {
    switch (t) {
    case Trap::None:
        return "none";
    case Trap::IllegalInstruction:
        return "illegal-instruction";
    case Trap::MemoryFault:
        return "memory-fault";
    case Trap::FetchFault:
        return "fetch-fault";
    case Trap::EccFault:
        return "ecc-fault";
    case Trap::Watchdog:
        return "watchdog";
    case Trap::RegParityFault:
        return "reg-parity-fault";
    }
    return "?";
}

const char* reg_protection_name(RegProtection p) {
    switch (p) {
    case RegProtection::None:
        return "none";
    case RegProtection::Parity:
        return "parity";
    case RegProtection::Tmr:
        return "tmr";
    }
    return "?";
}

} // namespace ulpmc::core
