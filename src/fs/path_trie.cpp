#include "fs/path_trie.hpp"

#include <algorithm>
#include <cassert>

namespace adr::fs {

std::vector<std::string> split_path(std::string_view path) {
  std::vector<std::string> comps;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) comps.emplace_back(path.substr(i, j - i));
    i = j;
  }
  return comps;
}

std::string join_path(const std::vector<std::string>& components) {
  std::string out;
  for (const auto& c : components) {
    out.push_back('/');
    out += c;
  }
  if (out.empty()) out = "/";
  return out;
}

struct PathTrie::Node {
  std::vector<std::string> edge;                 // components from parent
  std::vector<std::unique_ptr<Node>> children;   // sorted by edge.front()
  std::optional<FileMeta> file;

  /// Index of the child whose first edge component is `c`, or npos.
  std::size_t child_index(const std::string& c) const {
    const auto it = std::lower_bound(
        children.begin(), children.end(), c,
        [](const std::unique_ptr<Node>& n, const std::string& key) {
          return n->edge.front() < key;
        });
    if (it != children.end() && (*it)->edge.front() == c)
      return static_cast<std::size_t>(it - children.begin());
    return static_cast<std::size_t>(-1);
  }

  void adopt(std::unique_ptr<Node> child) {
    const auto it = std::lower_bound(
        children.begin(), children.end(), child->edge.front(),
        [](const std::unique_ptr<Node>& n, const std::string& key) {
          return n->edge.front() < key;
        });
    children.insert(it, std::move(child));
  }
};

PathTrie::PathTrie() : root_(std::make_unique<Node>()), node_count_(1) {}
PathTrie::~PathTrie() = default;
PathTrie::PathTrie(PathTrie&&) noexcept = default;
PathTrie& PathTrie::operator=(PathTrie&&) noexcept = default;

bool PathTrie::insert(std::string_view path, const FileMeta& meta) {
  const auto comps = split_path(path);
  return insert_components(root_.get(), comps, 0, meta);
}

bool PathTrie::insert_components(Node* node,
                                 const std::vector<std::string>& comps,
                                 std::size_t i, const FileMeta& meta) {
  for (;;) {
    if (i == comps.size()) {
      const bool is_new = !node->file.has_value();
      node->file = meta;
      if (is_new) ++file_count_;
      return is_new;
    }
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) {
      auto leaf = std::make_unique<Node>();
      leaf->edge.assign(comps.begin() + static_cast<std::ptrdiff_t>(i),
                        comps.end());
      leaf->file = meta;
      node->adopt(std::move(leaf));
      ++node_count_;
      ++file_count_;
      return true;
    }
    Node* child = node->children[ci].get();
    // Longest common component prefix of child->edge and comps[i..].
    std::size_t k = 0;
    while (k < child->edge.size() && i + k < comps.size() &&
           child->edge[k] == comps[i + k]) {
      ++k;
    }
    assert(k >= 1);
    if (k == child->edge.size()) {
      node = child;
      i += k;
      continue;
    }
    // Split the edge: mid covers the shared prefix, child keeps the tail.
    // mid starts with the same component as the child it replaces, so it
    // takes the child's slot in place and the children stay sorted.
    auto mid = std::make_unique<Node>();
    mid->edge.assign(child->edge.begin(),
                     child->edge.begin() + static_cast<std::ptrdiff_t>(k));
    std::unique_ptr<Node> detached = std::move(node->children[ci]);
    detached->edge.erase(detached->edge.begin(),
                         detached->edge.begin() + static_cast<std::ptrdiff_t>(k));
    Node* mid_raw = mid.get();
    mid->adopt(std::move(detached));
    node->children[ci] = std::move(mid);
    ++node_count_;
    node = mid_raw;
    i += k;
  }
}

const FileMeta* PathTrie::find(std::string_view path) const {
  const auto comps = split_path(path);
  const Node* node = root_.get();
  std::size_t i = 0;
  while (i < comps.size()) {
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) return nullptr;
    const Node* child = node->children[ci].get();
    if (i + child->edge.size() > comps.size()) return nullptr;
    for (std::size_t k = 0; k < child->edge.size(); ++k) {
      if (child->edge[k] != comps[i + k]) return nullptr;
    }
    i += child->edge.size();
    node = child;
  }
  return node->file ? &*node->file : nullptr;
}

FileMeta* PathTrie::find(std::string_view path) {
  return const_cast<FileMeta*>(
      static_cast<const PathTrie*>(this)->find(path));
}

bool PathTrie::erase(std::string_view path) {
  const auto comps = split_path(path);
  // Collect the descent chain so we can prune/merge bottom-up.
  std::vector<std::pair<Node*, std::size_t>> chain;  // (parent, child index)
  Node* node = root_.get();
  std::size_t i = 0;
  while (i < comps.size()) {
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) return false;
    Node* child = node->children[ci].get();
    if (i + child->edge.size() > comps.size()) return false;
    for (std::size_t k = 0; k < child->edge.size(); ++k) {
      if (child->edge[k] != comps[i + k]) return false;
    }
    chain.emplace_back(node, ci);
    i += child->edge.size();
    node = child;
  }
  if (!node->file) return false;
  node->file.reset();
  --file_count_;

  // Prune empty nodes and re-merge single-child pass-through nodes so the
  // tree stays compact under churn.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    Node* parent = it->first;
    const std::size_t ci = it->second;
    Node* child = parent->children[ci].get();
    if (!child->file && child->children.empty()) {
      parent->children.erase(parent->children.begin() +
                             static_cast<std::ptrdiff_t>(ci));
      --node_count_;
    } else if (!child->file && child->children.size() == 1) {
      std::unique_ptr<Node> only = std::move(child->children.front());
      child->edge.insert(child->edge.end(),
                         std::make_move_iterator(only->edge.begin()),
                         std::make_move_iterator(only->edge.end()));
      child->file = std::move(only->file);
      child->children = std::move(only->children);
      --node_count_;
      break;  // structure above is unchanged
    } else {
      break;
    }
  }
  return true;
}

const PathTrie::Node* PathTrie::descend(const std::vector<std::string>& comps,
                                        std::string* out_prefix) const {
  const Node* node = root_.get();
  std::string prefix;
  std::size_t i = 0;
  while (i < comps.size()) {
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) return nullptr;
    const Node* child = node->children[ci].get();
    const std::size_t take = std::min(child->edge.size(), comps.size() - i);
    for (std::size_t k = 0; k < take; ++k) {
      if (child->edge[k] != comps[i + k]) return nullptr;
    }
    // Consume the whole edge (it may extend past the queried prefix — that
    // still counts as "under" the prefix).
    for (const auto& c : child->edge) {
      prefix.push_back('/');
      prefix += c;
    }
    i += take;
    node = child;
  }
  if (out_prefix) *out_prefix = std::move(prefix);
  return node;
}

bool PathTrie::contains_prefix_of(std::string_view path) const {
  const auto comps = split_path(path);
  const Node* node = root_.get();
  if (node->file) return true;
  std::size_t i = 0;
  while (i < comps.size()) {
    const std::size_t ci = node->child_index(comps[i]);
    if (ci == static_cast<std::size_t>(-1)) return false;
    const Node* child = node->children[ci].get();
    if (i + child->edge.size() > comps.size()) return false;
    for (std::size_t k = 0; k < child->edge.size(); ++k) {
      if (child->edge[k] != comps[i + k]) return false;
    }
    i += child->edge.size();
    node = child;
    if (node->file) return true;
  }
  return false;
}

bool PathTrie::contains_under(std::string_view prefix) const {
  const auto comps = split_path(prefix);
  const Node* node = descend(comps, nullptr);
  if (!node) return false;
  return node->file.has_value() || !node->children.empty();
}

namespace {

void dfs(const PathTrie::Node* node, std::string& path,
         const std::function<void(const std::string&, const FileMeta&)>& fn);

}  // namespace

void PathTrie::for_each_under(
    std::string_view prefix,
    const std::function<void(const std::string&, const FileMeta&)>& fn) const {
  const auto comps = split_path(prefix);
  std::string path;
  const Node* node = descend(comps, &path);
  if (!node) return;
  dfs(node, path, fn);
}

void PathTrie::for_each(
    const std::function<void(const std::string&, const FileMeta&)>& fn) const {
  std::string path;
  dfs(root_.get(), path, fn);
}

namespace {

void dfs(const PathTrie::Node* node, std::string& path,
         const std::function<void(const std::string&, const FileMeta&)>& fn) {
  if (node->file) fn(path.empty() ? "/" : path, *node->file);
  for (const auto& child : node->children) {
    const std::size_t mark = path.size();
    for (const auto& c : child->edge) {
      path.push_back('/');
      path += c;
    }
    dfs(child.get(), path, fn);
    path.resize(mark);
  }
}

std::size_t node_bytes(const PathTrie::Node* node) {
  std::size_t bytes = sizeof(PathTrie::Node);
  for (const auto& c : node->edge) bytes += sizeof(std::string) + c.capacity();
  bytes += node->children.capacity() * sizeof(void*);
  for (const auto& child : node->children) bytes += node_bytes(child.get());
  return bytes;
}

}  // namespace

std::size_t PathTrie::memory_bytes() const { return node_bytes(root_.get()); }

void PathTrie::clear() {
  root_ = std::make_unique<Node>();
  file_count_ = 0;
  node_count_ = 1;
}

}  // namespace adr::fs
