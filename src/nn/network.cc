#include "nn/network.h"

#include "common/string_util.h"

namespace deeplens {
namespace nn {

Result<Tensor> Network::Forward(const Tensor& input, Device* device) const {
  Tensor cur = input;
  for (const auto& layer : layers_) {
    DL_ASSIGN_OR_RETURN(cur, layer->Forward(cur, device));
  }
  return cur;
}

int64_t Network::num_params() const {
  int64_t n = 0;
  for (const auto& layer : layers_) n += layer->num_params();
  return n;
}

std::string Network::Summary() const {
  std::string out = name_ + " (" + std::to_string(num_params()) + " params)";
  for (const auto& layer : layers_) {
    out += "\n  " + layer->name();
  }
  return out;
}

Result<std::vector<Tensor>> ForwardBatch(const Network& net,
                                         const std::vector<Tensor>& inputs,
                                         Device* device) {
  size_t transfer_bytes = 0;
  for (const Tensor& t : inputs) {
    transfer_bytes += static_cast<size_t>(t.size()) * sizeof(float);
  }
  std::vector<Tensor> outputs(inputs.size());
  DL_RETURN_NOT_OK(RunBatch(
      device, inputs.size(), transfer_bytes,
      [&](size_t i, Device* math) -> Status {
        DL_ASSIGN_OR_RETURN(outputs[i], net.Forward(inputs[i], math));
        return Status::OK();
      }));
  return outputs;
}

}  // namespace nn
}  // namespace deeplens
