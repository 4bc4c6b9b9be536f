// Umbrella header: the full public API of the IMPRESS reproduction.
//
//   #include "impress.hpp"
//
// Modules (each usable independently — see docs/):
//   impress::common  — rng, stats, channels, thread pool, json, charts
//   impress::sim     — discrete-event engine
//   impress::hpc     — nodes, resource pools, utilization, gantt,
//                      analytics (lifecycle-mark readers)
//   impress::rp      — pilot-job runtime (sessions, pilots, tasks,
//                      schedulers, executors, task graphs)
//   impress::protein — sequences, structures, PDB/FASTA, contacts,
//                      landscapes, datasets
//   impress::mpnn    — ProteinMPNN surrogate + task factory
//   impress::fold    — AlphaFold surrogate + task factory
//   impress::core    — pipelines, coordinator, campaigns, generators,
//                      reports, exports, session dumps

#pragma once

#include "common/ascii_chart.hpp"
#include "common/channel.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/time_util.hpp"
#include "common/uid.hpp"

#include "sim/engine.hpp"

#include "hpc/analytics.hpp"
#include "hpc/gantt.hpp"
#include "hpc/node.hpp"
#include "hpc/resource_pool.hpp"
#include "hpc/utilization.hpp"

#include "runtime/executor.hpp"
#include "runtime/pilot.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/session.hpp"
#include "runtime/task.hpp"
#include "runtime/task_manager.hpp"

#include "protein/contacts.hpp"
#include "protein/datasets.hpp"
#include "protein/fasta.hpp"
#include "protein/geometry.hpp"
#include "protein/landscape.hpp"
#include "protein/msa.hpp"
#include "protein/pdb.hpp"
#include "protein/residue.hpp"
#include "protein/sequence.hpp"
#include "protein/structure.hpp"

#include "mpnn/mpnn.hpp"
#include "mpnn/mpnn_task.hpp"

#include "fold/fold.hpp"
#include "fold/fold_task.hpp"

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/coordinator.hpp"
#include "core/dpo_generator.hpp"
#include "core/crossover_generator.hpp"
#include "core/export.hpp"
#include "core/generator.hpp"
#include "core/pipeline.hpp"
#include "core/protocol.hpp"
#include "core/report.hpp"
#include "core/session_dump.hpp"
