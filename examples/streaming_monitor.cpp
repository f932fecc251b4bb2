// Continuous monitoring: the node's real operating mode — block after
// block, indefinitely. Demonstrates the barrier extension re-establishing
// lockstep at every block boundary (watch the fetch-merge ratio), and the
// event trace showing the barrier protocol in action.
//
//   $ ./build/examples/streaming_monitor [blocks]   (1..4096, default 6)
#include <iostream>
#include <string>
#include <vector>

#include "app/streaming.hpp"
#include "cluster/trace.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "exp/experiments.hpp"

using namespace ulpmc;

int main(int argc, char** argv) {
    std::vector<std::string> args;
    Cli cli("streaming_monitor", "[blocks]   (consecutive blocks, 1..4096, default 6)");
    cli.positionals(args).parse(argc, argv);
    std::uint64_t n = 6;
    const std::string err = args.size() > 1 ? "more than one [blocks] argument"
                            : args.empty()  ? ""
                                            : read_u64(args[0], 1, 4096, n);
    if (!err.empty()) {
        std::cerr << "blocks: " << err << "\n";
        return 2;
    }
    const auto blocks = static_cast<unsigned>(n);

    std::cout << "Streaming " << blocks << " consecutive 512-sample blocks per lead\n\n";

    Table t({"config", "cycles/block", "fetch-merge ratio", "verified"});
    for (const bool barrier : {false, true}) {
        app::BenchmarkOptions opt;
        opt.use_barrier = barrier;
        const app::StreamingBenchmark stream(opt, blocks);
        const auto out = stream.run(cluster::ArchKind::UlpmcBank);
        t.add_row({barrier ? "ulpmc-bank + barrier (ext.)" : "ulpmc-bank, free-running",
                   format_fixed(out.cycles_per_block, 0),
                   format_percent(out.fetch_merge_ratio) + " (ideal 87.5%)",
                   out.verified ? "yes" : "NO"});
    }
    t.print(std::cout);

    std::cout << "\nBarrier protocol, first block boundary (event trace):\n";
    app::BenchmarkOptions opt;
    opt.use_barrier = true;
    const app::StreamingBenchmark stream(opt, 2);
    auto cfg = cluster::make_config(cluster::ArchKind::UlpmcBank,
                                    stream.base().layout().dm_layout());
    cfg.barrier_enabled = true;
    cluster::Cluster cl(cfg, stream.program());
    for (unsigned p = 0; p < kNumCores; ++p) {
        const auto& x = stream.base().lead_samples(p);
        for (std::size_t i = 0; i < x.size(); ++i)
            cl.dm_poke(static_cast<CoreId>(p),
                       static_cast<Addr>(stream.base().layout().x_base() + i),
                       static_cast<Word>(x[i]));
    }
    // A custom sink that keeps only the barrier protocol (the TraceSink
    // interface makes event filtering trivial).
    class BarrierLog final : public cluster::TraceSink {
    public:
        void on_event(const cluster::TraceEvent& e) override {
            if (e.kind == cluster::EventKind::BarrierArrive ||
                e.kind == cluster::EventKind::BarrierRelease)
                events.push_back(e);
        }
        std::vector<cluster::TraceEvent> events;
    } log;
    cl.set_trace(&log);
    cl.run();

    int shown = 0;
    for (const auto& e : log.events) {
        std::cout << "  " << cluster::RingTrace::render(e) << '\n';
        if (e.kind == cluster::EventKind::BarrierRelease && ++shown == 3) break;
    }
    std::cout << "\nThe cores arrive spread over several cycles (Huffman desync) and leave\n"
                 "in the same cycle -- lockstep restored for the next CS phase.\n";
    return 0;
}
