/**
 * @file
 * Reproduces paper Fig. 11(a): latency of the L2-LUT construction and
 * distance-calculation stages when run solo and pipelined (the
 * paper's RT/Tensor-core MPS co-run).
 *
 * The measured run is sequential; the pipelined row is the analytic
 * co-run bound filter + max(lut, scan) from the measured stage busy
 * times. On CPU the batched engine overlaps the stages across cores
 * instead of across execution units.
 */
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/juno_index.h"
#include "harness/reporter.h"
#include "harness/workload.h"

using namespace juno;

int
main()
{
    printBanner("Fig. 11(a): stage latency, sequential vs pipelined "
                "bound (DEEP-like, JUNO-H)");
    const auto spec = bench::deepSpec();
    Workload workload(spec, 100);

    JunoParams params = junoPresetH();
    params.clusters = bench::clustersFor(spec.num_points);
    params.pq_entries = 128;
    params.nprobs = 32;
    params.max_training_points = 10000;
    params.policy.ref_samples = 4000;
    JunoIndex index(workload.metric(), workload.base(), params);

    index.resetStageTimers();
    Timer seq_timer;
    index.search(
        SearchRequest(workload.queries(), bench::searchOptions(100)));
    const double seq_wall = seq_timer.seconds();
    const double lut_busy = index.stageTimers().seconds("rt_lut");
    const double scan_busy = index.stageTimers().seconds("scan");
    const double filter_busy = index.stageTimers().seconds("filter");

    TablePrinter table({"configuration", "wall_ms", "normalized"});
    const double base = seq_wall * 1e3;
    table.addRow({"solo-run (sequential)", TablePrinter::num(base), "1.00"});
    const double ideal =
        (filter_busy + std::max(lut_busy, scan_busy)) * 1e3;
    table.addRow({"pipelined (analytic bound)", TablePrinter::num(ideal),
                  TablePrinter::num(ideal / base)});
    table.print();

    std::printf("\nstage busy time (lut=%s): filter=%.1fms "
                "rt_lut=%.1fms scan=%.1fms\n",
                lutBackendName(index.params().lut), filter_busy * 1e3,
                lut_busy * 1e3, scan_busy * 1e3);
    std::printf("paper: pipelining hides the shorter stage behind the "
                "longer; naive co-run without\nthe Tensor-core "
                "accumulation mapping suffers ~2-3x slowdown from "
                "contention.\n");
    return 0;
}
