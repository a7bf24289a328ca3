#pragma once

// Instance-kind adapters: wrap the extended models (width-weighted busy
// time, multi-window active time) as core::InstanceExtension payloads so
// they travel through ProblemInstance / SolverRegistry / engine::runner on
// the same rails as the standard kinds. Solvers reach the concrete model
// back through the typed accessors below. The adapters also own the two
// models' Instance I/O v2 codecs (`model weighted` / `model multi-window`
// with per-job weight/window lines): linking this translation unit
// registers them with core::parse_instance, and the extensions implement
// the write hooks, so write_instance ∘ parse_instance is the identity for
// the extended kinds exactly as for the standard ones.

#include <memory>
#include <string>

#include "active/multi_window.hpp"
#include "busy/weighted.hpp"
#include "core/solver.hpp"

namespace abt::engine {

/// busy::WeightedInstance as a ProblemInstance payload (Family::kBusy,
/// InstanceKind::kWeighted).
class WeightedExtension final : public core::InstanceExtension {
 public:
  explicit WeightedExtension(busy::WeightedInstance inst)
      : inst_(std::move(inst)) {}

  [[nodiscard]] core::InstanceKind kind() const override {
    return core::InstanceKind::kWeighted;
  }
  [[nodiscard]] int size() const override { return inst_.size(); }
  [[nodiscard]] int capacity() const override { return inst_.capacity(); }
  [[nodiscard]] double lower_bound() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string_view model_name() const override {
    return "weighted";
  }
  bool write_body(std::string& out) const override;

  [[nodiscard]] const busy::WeightedInstance& instance() const {
    return inst_;
  }

 private:
  busy::WeightedInstance inst_;
};

/// active::MultiWindowInstance as a ProblemInstance payload
/// (Family::kActive, InstanceKind::kMultiWindow).
class MultiWindowExtension final : public core::InstanceExtension {
 public:
  explicit MultiWindowExtension(active::MultiWindowInstance inst)
      : inst_(std::move(inst)) {}

  [[nodiscard]] core::InstanceKind kind() const override {
    return core::InstanceKind::kMultiWindow;
  }
  [[nodiscard]] int size() const override { return inst_.size(); }
  [[nodiscard]] int capacity() const override { return inst_.capacity(); }
  [[nodiscard]] double lower_bound() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string_view model_name() const override {
    return "multi-window";
  }
  bool write_body(std::string& out) const override;

  [[nodiscard]] const active::MultiWindowInstance& instance() const {
    return inst_;
  }

 private:
  active::MultiWindowInstance inst_;
};

[[nodiscard]] core::ProblemInstance make_weighted_instance(
    busy::WeightedInstance inst);
[[nodiscard]] core::ProblemInstance make_multi_window_instance(
    active::MultiWindowInstance inst);

/// Typed accessors; assert on a kind mismatch (the registry's kind gate
/// guarantees solvers never see the wrong payload).
[[nodiscard]] const busy::WeightedInstance& weighted_of(
    const core::ProblemInstance& inst);
[[nodiscard]] const active::MultiWindowInstance& multi_window_of(
    const core::ProblemInstance& inst);

/// Registers the `weighted` / `multi-window` codecs with core/io.
/// Idempotent; runs automatically when this translation unit is linked
/// (and again from engine::builtin_registry for belt and braces), so any
/// binary that can solve an extended kind can also parse and emit it.
void register_instance_codecs();

}  // namespace abt::engine
