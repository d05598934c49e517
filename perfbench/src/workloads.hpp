#pragma once

#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Closed loop, one client: `hpcgpt ask --rag` questions through
/// core::rag_ask over an indexed SearchEngine, with interleaved adds.
Outcome run_ask_rag(const RunConfig& config);
/// Open loop: Poisson arrivals of classification prompts, Task-1
/// questions and CI verify requests into one InferenceServer, then a burst.
Outcome run_triage_mixed(const RunConfig& config);
/// Batch job: repeated HpcGpt::finetune calls over fixed-size slices.
Outcome run_finetune(const RunConfig& config);

using WorkloadFn = Outcome (*)(const RunConfig&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
