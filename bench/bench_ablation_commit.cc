// Ablation A4 — §6 commit processing: co-located managers.
//
// The paper closes by noting that commit processing should "exploit the
// most efficient concepts available", among them main-memory
// communication for co-located managers (DM-TM on the same
// workstation). This bench times a full DOP cycle through the shipped
// envelope 2PC with the client-TM remote from vs. co-located with the
// server. The protocol's own round-trip shapes (single-shard
// degenerate envelope, cross-shard phase 1 + Decide fan-out, and the
// cross-shard commit under message loss) are measured by
// bench_multi_server.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "txn/server_service.h"

namespace concord {
namespace {

// End-to-end effect on DOP processing: commit-protocol share of a full
// checkout/checkin cycle, with the workstation remote vs co-located
// with the server.
void BM_Commit_DopCycleByPlacement(benchmark::State& state) {
  const bool colocated = state.range(0) != 0;
  core::ConcordSystem system(bench::DefaultConfig());
  const NodeId ws =
      colocated ? system.server_node() : system.AddWorkstation("remote");
  // A client TM for the chosen placement, behind its own service stub
  // (co-located stubs pay only intra-node hops, never the LAN).
  txn::ServerStub stub(system.server_node(),
                       system.rpc().Bind(ws, system.server_node()));
  txn::ClientTm tm(&stub, &system.network(), ws, &system.clock());
  storage::DesignObject obj(system.dots().module);
  obj.SetAttr(vlsi::kAttrName, "m");
  obj.SetAttr(vlsi::kAttrDomain, vlsi::kDomainStructure);
  SimTime t0 = system.clock().Now();
  uint64_t cycles = 0;
  for (auto _ : state) {
    auto dop = tm.BeginDop(DaId(1));
    auto out = tm.Checkin(*dop, obj, {});
    tm.CommitDop(*dop).ok();
    benchmark::DoNotOptimize(out);
    ++cycles;
  }
  state.counters["sim_us_per_dop_cycle"] =
      static_cast<double>(system.clock().Now() - t0) /
      static_cast<double>(cycles);
  state.SetLabel(colocated ? "client_tm_on_server" : "client_tm_remote");
}
BENCHMARK(BM_Commit_DopCycleByPlacement)->Arg(0)->Arg(1);

}  // namespace
}  // namespace concord

BENCHMARK_MAIN();
