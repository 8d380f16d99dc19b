#include "mcapi/capi.hpp"

#include "support/assert.hpp"

namespace mcsym::mcapi::capi {

namespace {
std::uint64_t addr_key(mcapi_node_t node, mcapi_port_t port) {
  return (static_cast<std::uint64_t>(node) << 32) | port;
}

void set_status(mcapi_status_t* status, mcapi_status_t value) {
  MCSYM_ASSERT_MSG(status != nullptr, "MCAPI calls require a status out-param");
  *status = value;
}
}  // namespace

const char* mcapi_status_name(mcapi_status_t status) {
  switch (status) {
    case mcapi_status_t::MCAPI_SUCCESS: return "MCAPI_SUCCESS";
    case mcapi_status_t::MCAPI_ERR_NODE_NOTINIT: return "MCAPI_ERR_NODE_NOTINIT";
    case mcapi_status_t::MCAPI_ERR_NODE_INITIALIZED:
      return "MCAPI_ERR_NODE_INITIALIZED";
    case mcapi_status_t::MCAPI_ERR_PORT_INVALID: return "MCAPI_ERR_PORT_INVALID";
    case mcapi_status_t::MCAPI_ERR_ENDP_INVALID: return "MCAPI_ERR_ENDP_INVALID";
    case mcapi_status_t::MCAPI_ERR_ENDP_NOTOWNER: return "MCAPI_ERR_ENDP_NOTOWNER";
    case mcapi_status_t::MCAPI_ERR_ENDP_EXISTS: return "MCAPI_ERR_ENDP_EXISTS";
    case mcapi_status_t::MCAPI_ERR_REQUEST_INVALID:
      return "MCAPI_ERR_REQUEST_INVALID";
    case mcapi_status_t::MCAPI_ERR_PARAMETER: return "MCAPI_ERR_PARAMETER";
  }
  return "?";
}

// --- VirtualTarget ----------------------------------------------------------

NodeSession* VirtualTarget::initialize(mcapi_domain_t domain, mcapi_node_t node,
                                       mcapi_status_t* status) {
  if (finalized_ || domain != domain_) {
    set_status(status, mcapi_status_t::MCAPI_ERR_PARAMETER);
    return nullptr;
  }
  if (node_thread_.contains(node)) {
    set_status(status, mcapi_status_t::MCAPI_ERR_NODE_INITIALIZED);
    return nullptr;
  }
  ThreadBuilder builder = program_.add_thread("node" + std::to_string(node));
  node_thread_.emplace(node, builder.ref());
  sessions_.push_back(NodeSession(*this, node, builder));
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
  return &sessions_.back();
}

Program VirtualTarget::finalize() {
  MCSYM_ASSERT_MSG(!finalized_, "target already finalized");
  finalized_ = true;
  program_.finalize();
  return std::move(program_);
}

std::optional<EndpointRef> VirtualTarget::lookup(mcapi_domain_t domain,
                                                 mcapi_node_t node,
                                                 mcapi_port_t port) const {
  if (domain != domain_) return std::nullopt;
  const auto it = endpoints_.find(addr_key(node, port));
  if (it == endpoints_.end()) return std::nullopt;
  return it->second;
}

bool VirtualTarget::owns(mcapi_node_t node, EndpointRef ep) const {
  const auto it = node_thread_.find(node);
  if (it == node_thread_.end()) return false;
  if (ep >= program_.num_endpoints()) return false;
  return program_.endpoint(ep).owner == it->second;
}

// --- NodeSession ------------------------------------------------------------

mcapi_endpoint_t NodeSession::endpoint_create(mcapi_port_t port,
                                              mcapi_status_t* status) {
  if (target_->endpoints_.contains(addr_key(node_, port))) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_EXISTS);
    return {};
  }
  const EndpointRef ref = target_->program_.add_endpoint(
      std::string("n").append(std::to_string(node_)).append("p").append(
          std::to_string(port)),
      builder_.ref());
  target_->endpoints_.emplace(addr_key(node_, port), ref);
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
  return mcapi_endpoint_t{ref};
}

mcapi_endpoint_t NodeSession::endpoint_get(mcapi_domain_t domain,
                                           mcapi_node_t node, mcapi_port_t port,
                                           mcapi_status_t* status) {
  const auto found = target_->lookup(domain, node, port);
  if (!found) {
    set_status(status, mcapi_status_t::MCAPI_ERR_PORT_INVALID);
    return {};
  }
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
  return mcapi_endpoint_t{*found};
}

void NodeSession::msg_send(mcapi_endpoint_t from, mcapi_endpoint_t to,
                           std::int64_t value, mcapi_priority_t /*priority*/,
                           mcapi_status_t* status) {
  if (!from.valid() || !to.valid()) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_INVALID);
    return;
  }
  if (!target_->owns(node_, from.ref)) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_NOTOWNER);
    return;
  }
  builder_.send(from.ref, to.ref, value);
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

void NodeSession::msg_send(mcapi_endpoint_t from, mcapi_endpoint_t to,
                           std::string_view var, std::int64_t plus,
                           mcapi_priority_t /*priority*/, mcapi_status_t* status) {
  if (!from.valid() || !to.valid()) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_INVALID);
    return;
  }
  if (!target_->owns(node_, from.ref)) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_NOTOWNER);
    return;
  }
  builder_.send(from.ref, to.ref,
                plus == 0 ? builder_.v(var) : builder_.v(var, plus));
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

void NodeSession::msg_recv(mcapi_endpoint_t ep, std::string_view buffer,
                           mcapi_status_t* status) {
  if (!ep.valid()) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_INVALID);
    return;
  }
  if (!target_->owns(node_, ep.ref)) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_NOTOWNER);
    return;
  }
  builder_.recv(ep.ref, buffer);
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

void NodeSession::msg_recv_i(mcapi_endpoint_t ep, std::string_view buffer,
                             mcapi_request_t* request, mcapi_status_t* status) {
  if (request == nullptr) {
    set_status(status, mcapi_status_t::MCAPI_ERR_PARAMETER);
    return;
  }
  if (!ep.valid()) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_INVALID);
    return;
  }
  if (!target_->owns(node_, ep.ref)) {
    set_status(status, mcapi_status_t::MCAPI_ERR_ENDP_NOTOWNER);
    return;
  }
  const std::uint32_t slot = next_request_++;
  request_open_.resize(next_request_, false);
  request_open_[slot] = true;
  builder_.recv_nb(ep.ref, buffer, slot);
  *request = mcapi_request_t{slot};
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

void NodeSession::test(mcapi_request_t* request, std::string_view flag,
                       mcapi_status_t* status) {
  if (request == nullptr || !request->valid() ||
      request->slot >= request_open_.size() || !request_open_[request->slot]) {
    set_status(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);
    return;
  }
  builder_.test_poll(request->slot, flag);
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

void NodeSession::wait_any(const std::vector<mcapi_request_t*>& requests,
                           std::string_view index_var, mcapi_status_t* status) {
  if (requests.empty()) {
    set_status(status, mcapi_status_t::MCAPI_ERR_PARAMETER);
    return;
  }
  std::vector<std::uint32_t> slots;
  slots.reserve(requests.size());
  for (const mcapi_request_t* r : requests) {
    if (r == nullptr || !r->valid() || r->slot >= request_open_.size() ||
        !request_open_[r->slot]) {
      set_status(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);
      return;
    }
    slots.push_back(r->slot);
  }
  builder_.wait_any(std::move(slots), index_var);
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

void NodeSession::wait(mcapi_request_t* request, mcapi_status_t* status) {
  if (request == nullptr || !request->valid() ||
      request->slot >= request_open_.size() || !request_open_[request->slot]) {
    set_status(status, mcapi_status_t::MCAPI_ERR_REQUEST_INVALID);
    return;
  }
  request_open_[request->slot] = false;
  builder_.wait(request->slot);
  *request = mcapi_request_t{};  // spec: the request handle is consumed
  set_status(status, mcapi_status_t::MCAPI_SUCCESS);
}

}  // namespace mcsym::mcapi::capi
