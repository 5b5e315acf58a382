// Sequential network container plus a batched runner that amortizes the
// simulated GPU's launch overhead across a batch — mirroring how real
// inference engines batch frames (paper §7.4.2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace deeplens {
namespace nn {

/// \brief A straight-line stack of layers.
class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  /// Appends a layer; returns a borrowed pointer for weight surgery.
  template <typename L, typename... Args>
  L* Add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* ptr = layer.get();
    layers_.push_back(std::move(layer));
    return ptr;
  }

  /// Runs the stack on one input.
  Result<Tensor> Forward(const Tensor& input, Device* device) const;

  const std::string& name() const { return name_; }
  size_t num_layers() const { return layers_.size(); }
  int64_t num_params() const;
  std::string Summary() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Runs `net` over a batch of inputs as one RunBatch: a single launch and
/// transfer charge on the GPU backend, items spread over the host pool on
/// every backend.
Result<std::vector<Tensor>> ForwardBatch(const Network& net,
                                         const std::vector<Tensor>& inputs,
                                         Device* device);

}  // namespace nn
}  // namespace deeplens
