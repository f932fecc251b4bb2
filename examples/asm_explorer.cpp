// TamaRISC toolchain explorer: assemble a source file (or the built-in
// demo), print the listing with round-trip disassembly, execute it on the
// functional ISS with a full instruction trace, and dump the final state.
//
//   $ ./build/examples/asm_explorer [program.asm] [--trace N]   (--help lists options)
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/functional_core.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"

using namespace ulpmc;

namespace {

const char* kDemo = R"(
; Demo: compute gcd(462, 1071) = 21 by repeated subtraction.
        .entry main
main:   movi r1, 462
        movi r2, 1071
gcd:    sub  r3, r1, r2     ; flags from r1 - r2
        bra  eq, done
        bra  lt, swap       ; r1 < r2
        mov  r1, r3         ; r1 -= r2
        bra  al, gcd
swap:   mov  r3, r1         ; exchange r1, r2
        mov  r1, r2
        mov  r2, r3
        bra  al, gcd
done:   movi r4, result
        mov  @r4, r1
        hlt
        .data
        .space 32
result: .word 0
)";

} // namespace

int main(int argc, char** argv) {
    std::string source = kDemo;
    std::string name = "<built-in demo>";
    std::uint64_t trace_limit = 40;
    std::vector<std::string> files;

    Cli cli("asm_explorer", "[program.asm] [options]");
    cli.positionals(files)
        .integer("--trace", "N", "trace the first N instructions (default 40)", trace_limit, 0,
                 ~0ull)
        .parse(argc, argv);
    if (files.size() > 1) {
        std::cerr << "more than one program file given ('" << files[0] << "' and '" << files[1]
                  << "')\n";
        return 2;
    }
    if (!files.empty()) {
        std::ifstream in(files[0]);
        if (!in) {
            std::cerr << "cannot open " << files[0] << '\n';
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        source = ss.str();
        name = files[0];
    }

    isa::Program prog;
    try {
        prog = isa::assemble(source);
    } catch (const isa::AssemblyError& e) {
        std::cerr << name << ": " << e.what() << '\n';
        return 1;
    }

    std::cout << "== " << name << ": " << prog.text.size() << " instructions, "
              << prog.data.size() << " data words ==\n";
    for (std::size_t pc = 0; pc < prog.text.size(); ++pc) {
        std::printf("  %04zu  %06X  %s\n", pc, prog.text[pc],
                    isa::disassemble_word(prog.text[pc], static_cast<PAddr>(pc)).c_str());
    }

    std::cout << "\n== symbols ==\n";
    for (const auto& [sym_name, sym] : prog.symbols())
        std::cout << "  " << sym_name << " = " << sym.value
                  << (sym.space == isa::Symbol::Space::Text ? " (text)\n" : " (data)\n");

    std::cout << "\n== trace (first " << trace_limit << " instructions) ==\n";
    core::FlatMemory mem;
    mem.load(0, prog.data);
    core::FunctionalCore core(prog.text, mem);
    core.state().pc = prog.entry;
    core.set_tracer([&](const core::TraceEntry& e) {
        if (e.instret >= trace_limit) return;
        std::printf("  %6llu  pc=%04u  %-28s", static_cast<unsigned long long>(e.instret), e.pc,
                    isa::disassemble(e.in, e.pc).c_str());
        std::printf(" [%c%c%c%c]\n", e.after.flags.c ? 'C' : '-', e.after.flags.z ? 'Z' : '-',
                    e.after.flags.n ? 'N' : '-', e.after.flags.v ? 'V' : '-');
    });
    core.run(1'000'000);

    std::cout << "\n== final state (" << core.instret() << " instructions, "
              << core::trap_name(core.trap()) << ") ==\n";
    for (unsigned r = 0; r < kNumRegisters; ++r) {
        std::printf("  r%-2u = %5u (0x%04X)%s", r, core.state().regs[r], core.state().regs[r],
                    (r % 4 == 3) ? "\n" : "   ");
    }
    if (const auto result = prog.symbol("result"); result) {
        std::cout << "  result @" << result->value << " = "
                  << mem.peek(static_cast<Addr>(result->value)) << '\n';
    }
    return core.trap() == core::Trap::None ? 0 : 2;
}
