#include "common/profiler.hpp"

#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace felis {

RegionNode* RegionNode::child(const std::string& child_name) {
  auto& slot = children[child_name];
  if (!slot) {
    slot = std::make_unique<RegionNode>();
    slot->name = child_name;
  }
  return slot.get();
}

OpCounters RegionNode::inclusive_counters() const {
  OpCounters total = counters;
  for (const auto& [_, c] : children) total += c->inclusive_counters();
  return total;
}

double RegionNode::child_seconds() const {
  double s = 0;
  for (const auto& [_, c] : children) s += c->seconds;
  return s;
}

Profiler::Profiler() {
  root_.name = "total";
  current_ = &root_;
}

void Profiler::push(const std::string& name) {
  RegionNode* node = current_->child(name);
  stack_.push_back({node, timing_enabled_ ? Clock::now() : Clock::time_point{}});
  current_ = node;
}

void Profiler::pop() {
  FELIS_CHECK_MSG(!stack_.empty(), "Profiler::pop with empty region stack");
  const Frame frame = stack_.back();
  stack_.pop_back();
  frame.node->calls += 1;
  if (timing_enabled_) {
    const Clock::time_point end = Clock::now();
    frame.node->seconds +=
        std::chrono::duration<double>(end - frame.start).count();
    if (trace_ != nullptr) {
      std::string path;
      for (const Frame& open : stack_) path += open.node->name + "/";
      trace_->record(kRegionTrack, path + frame.node->name, frame.start, end);
    }
  }
  current_ = stack_.empty() ? &root_ : stack_.back().node;
}

namespace {
void reset_node(RegionNode& node) {
  node.seconds = 0;
  node.calls = 0;
  node.counters = OpCounters{};
  for (auto& [_, c] : node.children) reset_node(*c);
}

const RegionNode* find_node(const RegionNode& node, const std::string& path) {
  if (path.empty()) return &node;
  const auto slash = path.find('/');
  const std::string head = path.substr(0, slash);
  const auto it = node.children.find(head);
  if (it == node.children.end()) return nullptr;
  if (slash == std::string::npos) return it->second.get();
  return find_node(*it->second, path.substr(slash + 1));
}

void report_node(const RegionNode& node, double parent_seconds, int depth,
                 std::ostringstream& os) {
  const OpCounters inc = node.inclusive_counters();
  os << std::string(static_cast<usize>(2 * depth), ' ') << node.name << ": "
     << std::fixed << std::setprecision(6) << node.seconds << " s";
  if (parent_seconds > 0) {
    os << " (" << std::setprecision(1) << 100.0 * node.seconds / parent_seconds
       << "%)";
  }
  os << "  calls=" << node.calls;
  if (inc.flops > 0) os << "  Gflop=" << std::setprecision(3) << inc.flops / 1e9;
  if (inc.bytes > 0) os << "  GB=" << std::setprecision(3) << inc.bytes / 1e9;
  if (inc.messages > 0) {
    os << "  msgs=" << std::setprecision(0) << inc.messages << "  msgMB="
       << std::setprecision(3) << inc.msg_bytes / 1e6;
  }
  if (inc.reductions > 0)
    os << "  reductions=" << std::setprecision(0) << inc.reductions;
  os << '\n';
  for (const auto& [_, c] : node.children)
    report_node(*c, node.seconds, depth + 1, os);
}
}  // namespace

void Profiler::reset() {
  FELIS_CHECK_MSG(stack_.empty(), "Profiler::reset inside an open region");
  reset_node(root_);
}

const RegionNode* Profiler::find(const std::string& path) const {
  return find_node(root_, path);
}

std::string Profiler::report() const {
  std::ostringstream os;
  double top_seconds = 0;
  for (const auto& [_, c] : root_.children) top_seconds += c->seconds;
  for (const auto& [_, c] : root_.children) report_node(*c, top_seconds, 0, os);
  return os.str();
}

ScopedRegion::ScopedRegion(Profiler& prof, const std::string& name) : prof_(prof) {
  prof_.push(name);
}

ScopedRegion::~ScopedRegion() { prof_.pop(); }

}  // namespace felis
