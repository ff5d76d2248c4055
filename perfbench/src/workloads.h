/**
 * @file
 * The three benchmark workloads. Each builds its inputs from
 * Args::seed, times set-up, measures for Args::seconds, checks the
 * program's outputs and fills a RunResult. With Args::trace set it
 * also records spans around its calls into the program and fills the
 * per-layer metrics.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"

namespace perfbench {

/** JUNO-H batched search at the fig12 frontier point. */
void runJunoBatch(const Args &args, RunResult &result);

/** SearchService over IVFPQ fast-scan: closed then open loop. */
void runPqServe(const Args &args, RunResult &result);

/** SearchService over LiveIndex(IVF-Flat) with concurrent writes. */
void runLiveMixed(const Args &args, RunResult &result);

/** Where a traced run of @p args writes its spans. */
std::string spanPath(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
