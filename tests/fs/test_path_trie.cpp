#include "fs/path_trie.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace adr::fs {
namespace {

FileMeta meta(std::uint64_t size = 1, util::TimePoint atime = 0) {
  FileMeta m;
  m.size_bytes = size;
  m.atime = atime;
  return m;
}

TEST(SplitPath, Basics) {
  EXPECT_EQ(split_path("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_path("a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_path("//x//y/"), (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_TRUE(split_path("").empty());
}

TEST(JoinPath, Canonical) {
  EXPECT_EQ(join_path({"a", "b"}), "/a/b");
  EXPECT_EQ(join_path({}), "/");
}

TEST(PathTrie, InsertFindErase) {
  PathTrie t;
  EXPECT_TRUE(t.insert("/scratch/u1/a.dat", meta(10)));
  EXPECT_TRUE(t.insert("/scratch/u1/b.dat", meta(20)));
  EXPECT_EQ(t.file_count(), 2u);
  ASSERT_NE(t.find("/scratch/u1/a.dat"), nullptr);
  EXPECT_EQ(t.find("/scratch/u1/a.dat")->size_bytes, 10u);
  EXPECT_EQ(t.find("/scratch/u1/c.dat"), nullptr);
  EXPECT_TRUE(t.erase("/scratch/u1/a.dat"));
  EXPECT_EQ(t.find("/scratch/u1/a.dat"), nullptr);
  EXPECT_FALSE(t.erase("/scratch/u1/a.dat"));
  EXPECT_EQ(t.file_count(), 1u);
}

TEST(PathTrie, InsertOverwriteKeepsCount) {
  PathTrie t;
  EXPECT_TRUE(t.insert("/x/y", meta(1)));
  EXPECT_FALSE(t.insert("/x/y", meta(2)));
  EXPECT_EQ(t.file_count(), 1u);
  EXPECT_EQ(t.find("/x/y")->size_bytes, 2u);
}

TEST(PathTrie, DirectoryIsNotAFile) {
  PathTrie t;
  t.insert("/a/b/c.dat", meta());
  EXPECT_EQ(t.find("/a/b"), nullptr);
  EXPECT_EQ(t.find("/a"), nullptr);
  EXPECT_FALSE(t.contains("/a/b"));
  EXPECT_TRUE(t.contains_under("/a/b"));
}

TEST(PathTrie, InteriorFileAndDescendant) {
  PathTrie t;
  t.insert("/a/b", meta(1));
  t.insert("/a/b/c", meta(2));
  EXPECT_EQ(t.file_count(), 2u);
  EXPECT_EQ(t.find("/a/b")->size_bytes, 1u);
  EXPECT_EQ(t.find("/a/b/c")->size_bytes, 2u);
  EXPECT_TRUE(t.erase("/a/b"));
  EXPECT_NE(t.find("/a/b/c"), nullptr);
}

TEST(PathTrie, EdgeCompressionKeepsNodeCountSmall) {
  PathTrie t;
  // One deep path: root + a single compressed chain node.
  t.insert("/very/deep/directory/chain/with/many/levels/file.dat", meta());
  EXPECT_EQ(t.node_count(), 2u);
  // A second file splits the chain once: root + shared prefix + 2 leaves.
  t.insert("/very/deep/directory/other/file.dat", meta());
  EXPECT_EQ(t.node_count(), 4u);
}

TEST(PathTrie, SplittingAMiddleChildOfAWideNodeKeepsChildrenSorted) {
  // Every user directory under /s is one compressed chain u<k>/d/f.dat;
  // a second file in the middle user splits that chain in its parent's
  // child slot. for_each walks children in slot order, so the visit order
  // is the sorted path order exactly when the slots stay sorted.
  PathTrie t;
  std::vector<std::string> expected;
  for (int k = 10; k < 30; ++k) {
    const std::string path = "/s/u" + std::to_string(k) + "/d/f.dat";
    t.insert(path, meta());
    expected.push_back(path);
  }
  t.insert("/s/u20/e/g.dat", meta());
  t.insert("/s/u10/c/h.dat", meta());  // split the first child too
  t.insert("/s/u29/x/y.dat", meta());  // and the last
  expected.insert(expected.end(),
                  {"/s/u20/e/g.dat", "/s/u10/c/h.dat", "/s/u29/x/y.dat"});
  std::sort(expected.begin(), expected.end());

  std::vector<std::string> visited;
  t.for_each([&](const std::string& p, const FileMeta&) {
    visited.push_back(p);
  });
  EXPECT_EQ(visited, expected);
  // Lookups binary-search the slots, so every path must still be found.
  for (const std::string& p : expected) EXPECT_NE(t.find(p), nullptr) << p;
}

TEST(PathTrie, EraseRemergesChains) {
  PathTrie t;
  t.insert("/a/b/c/d/e1", meta());
  t.insert("/a/b/c/d/e2", meta());
  const std::size_t with_both = t.node_count();
  t.erase("/a/b/c/d/e2");
  // The split point can merge back into a single chain.
  EXPECT_LT(t.node_count(), with_both);
  EXPECT_NE(t.find("/a/b/c/d/e1"), nullptr);
}

TEST(PathTrie, ContainsUnder) {
  PathTrie t;
  t.insert("/scratch/u1/p/a.dat", meta());
  EXPECT_TRUE(t.contains_under("/scratch"));
  EXPECT_TRUE(t.contains_under("/scratch/u1"));
  EXPECT_TRUE(t.contains_under("/scratch/u1/p/a.dat"));
  EXPECT_FALSE(t.contains_under("/scratch/u2"));
  EXPECT_FALSE(t.contains_under("/other"));
}

TEST(PathTrie, ContainsPrefixOf) {
  PathTrie t;
  t.insert("/scratch/u1/keep", meta());
  EXPECT_TRUE(t.contains_prefix_of("/scratch/u1/keep"));
  EXPECT_TRUE(t.contains_prefix_of("/scratch/u1/keep/sub/file.dat"));
  EXPECT_FALSE(t.contains_prefix_of("/scratch/u1/keepx"));
  EXPECT_FALSE(t.contains_prefix_of("/scratch/u1"));
  EXPECT_FALSE(t.contains_prefix_of("/scratch/u2/keep"));
}

TEST(PathTrie, ForEachUnderVisitsExactSubtree) {
  PathTrie t;
  t.insert("/s/u1/a", meta());
  t.insert("/s/u1/sub/b", meta());
  t.insert("/s/u2/c", meta());
  std::set<std::string> seen;
  t.for_each_under("/s/u1", [&](const std::string& p, const FileMeta&) {
    seen.insert(p);
  });
  EXPECT_EQ(seen, (std::set<std::string>{"/s/u1/a", "/s/u1/sub/b"}));
}

TEST(PathTrie, ForEachUnderMissingPrefixVisitsNothing) {
  PathTrie t;
  t.insert("/s/u1/a", meta());
  int n = 0;
  t.for_each_under("/nope", [&](const std::string&, const FileMeta&) { ++n; });
  EXPECT_EQ(n, 0);
}

TEST(PathTrie, ForEachReportsCanonicalPaths) {
  PathTrie t;
  t.insert("//s///u1//a.dat", meta());
  std::string got;
  t.for_each([&](const std::string& p, const FileMeta&) { got = p; });
  EXPECT_EQ(got, "/s/u1/a.dat");
  EXPECT_NE(t.find("/s/u1/a.dat"), nullptr);  // normalized lookup
}

TEST(PathTrie, ClearResets) {
  PathTrie t;
  t.insert("/a/b", meta());
  t.clear();
  EXPECT_EQ(t.file_count(), 0u);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find("/a/b"), nullptr);
}

TEST(PathTrie, MemoryBytesGrowsWithContent) {
  PathTrie t;
  const std::size_t base = t.memory_bytes();
  for (int i = 0; i < 100; ++i) {
    t.insert("/s/u/" + std::to_string(i) + "/f.dat", meta());
  }
  EXPECT_GT(t.memory_bytes(), base);
}

TEST(PathTrie, MoveSemantics) {
  PathTrie t;
  t.insert("/a/b", meta(5));
  PathTrie moved = std::move(t);
  ASSERT_NE(moved.find("/a/b"), nullptr);
  EXPECT_EQ(moved.find("/a/b")->size_bytes, 5u);
}

// Property test: a trie behaves exactly like a map<path, meta> under a
// random insert/erase/find workload.
TEST(PathTrieProperty, MatchesReferenceMap) {
  util::Rng rng(99);
  PathTrie t;
  std::map<std::string, std::uint64_t> ref;
  const char* comps[] = {"u1", "u2", "proj", "run", "data", "f1", "f2", "f3"};

  for (int step = 0; step < 5000; ++step) {
    // Random path of depth 1..5 over a small component alphabet (forces
    // heavy sharing, splitting and merging).
    std::string path;
    const int depth = 1 + static_cast<int>(rng.bounded(5));
    for (int d = 0; d < depth; ++d) {
      path += "/";
      path += comps[rng.bounded(std::size(comps))];
    }
    const auto action = rng.bounded(3);
    if (action == 0) {
      const std::uint64_t size = rng.bounded(1000);
      const bool was_new = ref.emplace(path, size).second;
      if (!was_new) ref[path] = size;
      EXPECT_EQ(t.insert(path, meta(size)), was_new);
    } else if (action == 1) {
      EXPECT_EQ(t.erase(path), ref.erase(path) > 0);
    } else {
      const auto it = ref.find(path);
      const FileMeta* m = t.find(path);
      if (it == ref.end()) {
        EXPECT_EQ(m, nullptr) << path;
      } else {
        ASSERT_NE(m, nullptr) << path;
        EXPECT_EQ(m->size_bytes, it->second);
      }
    }
    EXPECT_EQ(t.file_count(), ref.size());
  }

  // Full enumeration agrees with the reference (paths and order).
  std::vector<std::string> trie_paths;
  t.for_each([&](const std::string& p, const FileMeta&) {
    trie_paths.push_back(p);
  });
  EXPECT_EQ(trie_paths.size(), ref.size());
  for (const auto& p : trie_paths) EXPECT_TRUE(ref.count(p)) << p;
}

}  // namespace
}  // namespace adr::fs
