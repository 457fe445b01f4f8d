// Translation Functions (paper §2.2, eq. 1).
//
// T_c maps an (input QoS, output QoS) pair to the component's resource
// requirement vector. The paper treats T_c as a plug-in function supplied
// by the component developer; we model it as a std::function returning
// nullopt for operating points the component cannot realize (no QRG edge).
//
// TranslationTable is the common table-backed implementation: an explicit
// list of (in level index, out level index) -> requirement entries, which is
// exactly the form of the paper's figure 10.
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "core/resource.hpp"
#include "util/flat_map.hpp"

namespace qres {

/// Index of a QoS level within a component's enumerated input (or output)
/// level list.
using LevelIndex = std::uint32_t;

/// Plug-in translation: (input level index, output level index) ->
/// requirement, or nullopt when the component cannot produce that output
/// from that input. Indices refer to the enumerated level lists of the
/// owning ServiceComponent.
///
/// Must be a pure function of (in, out): the QRG skeleton evaluates it once
/// per service and reuses the result for every session (core/qrg.hpp), so
/// a result that changes over time would never be seen.
using TranslationFn =
    std::function<std::optional<ResourceVector>(LevelIndex in, LevelIndex out)>;

/// Table-backed translation (figure-10 style): explicit feasible entries.
class TranslationTable {
 public:
  TranslationTable() = default;

  /// Declares that output level `out` is producible from input level `in`
  /// at the given resource cost. Overwrites an existing entry.
  void set(LevelIndex in, LevelIndex out, ResourceVector requirement);

  /// Lookup; nullopt when the pair was never declared.
  std::optional<ResourceVector> get(LevelIndex in, LevelIndex out) const;

  std::size_t size() const noexcept { return entries_.size(); }

  /// Adapts the table to the TranslationFn plug-in interface.
  TranslationFn as_function() const;

  /// Returns a copy with every requirement scaled by `factor` (used to
  /// derive low-diversity variants and per-service tweaks).
  TranslationTable scaled(double factor) const;

  /// Iterates over entries as ((in, out), requirement).
  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

 private:
  FlatMap<std::pair<LevelIndex, LevelIndex>, ResourceVector> entries_;
};

}  // namespace qres
