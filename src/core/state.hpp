// Architectural state of one TamaRISC core, and the trap conditions the
// simulator can raise. The state is deliberately a plain aggregate so the
// functional and the cycle-accurate core models can be compared field by
// field in co-simulation tests (DESIGN.md §2, substitution 4).
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "core/flags.hpp"

namespace ulpmc::core {

/// Everything software can observe about a core.
struct CoreState {
    std::array<Word, kNumRegisters> regs{};
    PAddr pc = 0;
    Flags flags;

    friend bool operator==(const CoreState&, const CoreState&) = default;
};

/// Abnormal conditions; None means normal execution.
enum class Trap : std::uint8_t {
    None = 0,
    IllegalInstruction, ///< reserved opcode / malformed encoding
    MemoryFault,        ///< data access outside the mapped address space
    FetchFault,         ///< PC outside the loaded program
    EccFault,           ///< uncorrectable (double-bit) memory upset detected
    Watchdog,           ///< no forward progress for the watchdog window
    RegParityFault      ///< register-file parity mismatch on operand read
};

/// Human-readable trap name (for diagnostics and tests).
const char* trap_name(Trap t);

/// Register-file protection scheme (DESIGN.md §9). Parity fail-stops on
/// the first read of a corrupted register; TMR majority-votes three
/// shadow copies on every read and masks the upset silently.
enum class RegProtection : std::uint8_t { None = 0, Parity, Tmr };

/// Human-readable protection-mode name (CLI, tables, JSON).
const char* reg_protection_name(RegProtection p);

} // namespace ulpmc::core
