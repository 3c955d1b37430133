#include "train/dropback_session.hpp"

#include <sstream>

#include "nn/checkpoint.hpp"
#include "train/training_checkpoint.hpp"
#include "util/atomic_file.hpp"
#include "util/container.hpp"

namespace dropback::train {

DropBackSession::DropBackSession(nn::Module& model, Options options)
    : model_(model), options_(options) {
  options.train.validate();
  params_ = model.collect_parameters();
  core::DropBackConfig config;
  config.schedule = options.budget_schedule;
  config.regenerate_untracked = options.regenerate_untracked;
  optimizer_ = std::make_unique<core::DropBackOptimizer>(params_, options.lr,
                                                         config);
  // dbk-lint: allow(R5): 1.0 means "no decay", an exact config sentinel
  if (options.lr_decay_epochs > 0 && options.lr_decay != 1.0F) {
    schedule_ = std::make_unique<optim::StepDecay>(
        options.lr, options.lr_decay, options.lr_decay_epochs);
  }
  if (options.track_energy) optimizer_->set_traffic_counter(&traffic_);
}

TrainResult DropBackSession::fit(const data::Dataset& train_set,
                                 const data::Dataset& val_set) {
  TrainConfig train_config = options_.train;
  if (schedule_) train_config.schedule = schedule_.get();
  Trainer trainer(model_, *optimizer_, train_set, val_set, train_config);
  return trainer.run();
}

double DropBackSession::evaluate(const data::Dataset& dataset) const {
  return Trainer::evaluate(model_, dataset, options_.train.batch_size);
}

core::SparseWeightStore DropBackSession::compressed() const {
  return core::SparseWeightStore::from_optimizer(*optimizer_);
}

void DropBackSession::export_compressed(const std::string& path) const {
  compressed().save_file(path);
}

void DropBackSession::save_training_state(std::ostream& out) const {
  util::ContainerWriter writer("DBSS");
  nn::save_checkpoint(writer.add_section("model"), params_);
  write_inits_section(writer.add_section("inits"), params_);
  optimizer_->save_state(writer.add_section("optimizer"));
  writer.write_to(out);
}

void DropBackSession::save_training_state(const std::string& path) const {
  util::atomic_write_file(
      path, [this](std::ostream& out) { save_training_state(out); });
}

void DropBackSession::load_training_state(std::istream& in) {
  const util::ContainerReader reader =
      util::ContainerReader::read_from(in, "DBSS");
  reader.expect_sections({"model", "inits", "optimizer"});
  std::istringstream model_in = reader.section_stream("model");
  nn::load_checkpoint(model_in, params_);
  std::istringstream inits_in = reader.section_stream("inits");
  read_inits_section(inits_in, params_);
  std::istringstream opt_in = reader.section_stream("optimizer");
  optimizer_->load_state(opt_in);
}

void DropBackSession::load_training_state(const std::string& path) {
  std::istringstream in(util::read_file(path), std::ios::binary);
  load_training_state(in);
}

}  // namespace dropback::train
