#include "obs/profiler.hpp"

#include <algorithm>
#include <map>

#include "util/json.hpp"
#include "util/table.hpp"

namespace dropback::obs {

namespace {

/// Merge accumulator keyed by label within one parent.
struct MergedNode {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  int threads = 0;
  std::map<std::string, MergedNode> children;  // label -> child
};

void flatten(const MergedNode& node, const std::string& path, int depth,
             std::vector<ProfileEntry>& out) {
  // Siblings by descending time (name ascending on ties) — the order both
  // the table and the JSONL dump use.
  std::vector<std::pair<std::string, const MergedNode*>> kids;
  kids.reserve(node.children.size());
  for (const auto& [name, child] : node.children) {
    kids.emplace_back(name, &child);
  }
  std::stable_sort(kids.begin(), kids.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->total_ns > b.second->total_ns;
                   });
  for (const auto& [name, child] : kids) {
    // Keep our own copy of the path: recursing below reallocates `out`, so
    // a reference into it would dangle.
    const std::string child_path = path.empty() ? name : path + "/" + name;
    ProfileEntry entry;
    entry.path = child_path;
    entry.name = name;
    entry.depth = depth;
    entry.calls = child->calls;
    entry.total_ns = child->total_ns;
    entry.threads = child->threads;
    out.push_back(entry);
    flatten(*child, child_path, depth + 1, out);
  }
}

}  // namespace

ProfileReport collect_profile() {
  MergedNode root;
  for (const std::vector<SpanTotal>& thread : TraceCollector::totals()) {
    // Parents precede children, so one pass maps each of the thread's
    // nodes onto its merged node.
    std::vector<MergedNode*> merged{&root};
    for (std::size_t i = 1; i < thread.size(); ++i) {
      const SpanTotal& t = thread[i];
      MergedNode& m =
          merged[static_cast<std::size_t>(t.parent)]->children[t.name];
      m.calls += t.calls;
      m.total_ns += t.total_ns;
      ++m.threads;  // one visit per thread
      merged.push_back(&m);
    }
  }
  ProfileReport report;
  flatten(root, "", 0, report.entries);
  return report;
}

const ProfileEntry* ProfileReport::find(const std::string& path) const {
  for (const auto& entry : entries) {
    if (entry.path == path) return &entry;
  }
  return nullptr;
}

double ProfileReport::child_coverage(const std::string& path) const {
  const ProfileEntry* parent = find(path);
  if (!parent || parent->total_ns == 0) return 0.0;
  std::uint64_t covered = 0;
  for (const auto& entry : entries) {
    if (entry.depth == parent->depth + 1 &&
        entry.path.size() > path.size() + 1 &&
        entry.path.compare(0, path.size() + 1, path + "/") == 0) {
      covered += entry.total_ns;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(parent->total_ns);
}

std::string ProfileReport::pretty() const {
  util::Table table({"scope", "calls", "total ms", "% parent", "threads"});
  // Parent totals by path for the %-of-parent column.
  std::map<std::string, std::uint64_t> totals;
  for (const auto& entry : entries) totals[entry.path] = entry.total_ns;
  for (const auto& entry : entries) {
    std::string label(static_cast<std::size_t>(entry.depth) * 2, ' ');
    label += entry.name;
    std::string pct = "-";
    const auto slash = entry.path.rfind('/');
    if (slash != std::string::npos) {
      const auto it = totals.find(entry.path.substr(0, slash));
      if (it != totals.end() && it->second > 0) {
        pct = util::Table::pct(static_cast<double>(entry.total_ns) /
                               static_cast<double>(it->second));
      }
    }
    table.add_row({label, std::to_string(entry.calls),
                   util::Table::num(entry.total_ms(), 3), pct,
                   std::to_string(entry.threads)});
  }
  return table.render();
}

std::string ProfileReport::to_jsonl() const {
  std::string out;
  for (const auto& entry : entries) {
    out += util::kernel_timing_json(entry.path, entry.calls,
                                    entry.total_ns / 1000, entry.threads);
    out += '\n';
  }
  return out;
}

}  // namespace dropback::obs
