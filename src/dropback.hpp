// dropback.hpp — the public API umbrella header.
//
// This is the one include downstream users need:
//
//   #include "dropback.hpp"
//
//   using namespace dropback;
//   core::DropBackConfig config;
//   config.schedule = optim::constant_budget(20000);
//   core::DropBackOptimizer optimizer(model.collect_parameters(),
//                                     /*lr=*/0.1F, config);
//   auto options = train::TrainConfig{}
//                      .with_epochs(20)
//                      .with_prefetch(1)
//                      .with_checkpoint("run.dbts");
//   train::Trainer trainer(model, optimizer, train_set, val_set, options);
//   trainer.run();
//   core::SparseWeightStore::from_optimizer(optimizer).save_file("model.dbsw");
//
// The stable surface (docs/API.md):
//
//   train::TrainConfig       — one configuration object for a training run
//   optim::BudgetSchedule    — schedule-driven weight budgets (k_t, freeze,
//                              stochastic re-admission; docs/SCHEDULES.md)
//   train::Trainer           — generic hook-extensible training loop
//   core::DropBackOptimizer  — the paper's Algorithm 1, production form
//   core::TrackedSet         — top-k tracked-weight selection
//   core::SparseWeightStore  — compressed (tracked + regenerated) export
//   data::Dataset/DataLoader — dataset interface + prefetching loader
//   energy::TrafficCounter   — the paper's energy/traffic accounting
//   util thread controls     — set_num_threads / configure_threads
//
// Headers below this surface (tensor/, autograd/, nn/ internals, obs/
// details) may reorganize between releases; include them directly only when
// extending the library itself. New example code should prefer this header
// over reaching into subsystem headers one by one.
#pragma once

#include "core/dropback_optimizer.hpp"
#include "core/sparse_weight_store.hpp"
#include "core/tracked_set.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "energy/energy_model.hpp"
#include "train/train_config.hpp"
#include "train/trainer.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
