// Regression tests for bench/bench_common.{hpp,cpp}: CLI flag parsing
// (missing values and malformed numbers must abort, not silently fall back)
// and JsonWriter snapshot durability (atomic replace, string escaping).

#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace somrm::bench {
namespace {

// Builds a mutable argv from string literals for the arg_* helpers.
class Args {
 public:
  explicit Args(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(BenchArgsTest, FlagInLastSlotWithoutValueThrows) {
  // The old scan stopped at argc - 1, so a value-less trailing flag was
  // silently ignored and the bench ran with the fallback.
  Args args({"bench", "--states"});
  try {
    arg_size(args.argc(), args.argv(), "--states", 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--states"), std::string::npos)
        << e.what();
  }
  Args dargs({"bench", "--epsilon"});
  EXPECT_THROW(arg_double(dargs.argc(), dargs.argv(), "--epsilon", 1e-9),
               std::invalid_argument);
  Args sargs({"bench", "--json"});
  EXPECT_THROW(arg_string(sargs.argc(), sargs.argv(), "--json", ""),
               std::invalid_argument);
}

TEST(BenchArgsTest, ValidValuesParseAndAbsentFlagsFallBack) {
  Args args({"bench", "--states", "5000", "--t", "2.5", "--json", "out.json"});
  EXPECT_EQ(arg_size(args.argc(), args.argv(), "--states", 1), 5000u);
  EXPECT_EQ(arg_double(args.argc(), args.argv(), "--t", 0.0), 2.5);
  EXPECT_EQ(arg_string(args.argc(), args.argv(), "--json", ""), "out.json");
  EXPECT_EQ(arg_size(args.argc(), args.argv(), "--moments", 7), 7u);
  EXPECT_EQ(arg_double(args.argc(), args.argv(), "--eps", 1e-9), 1e-9);
}

TEST(BenchArgsTest, MalformedNumbersThrowNamingTheFlag) {
  // strtod/strtoull used to return 0 for garbage, so `--states 5k` ran a
  // zero-state (or partially-parsed) measurement without complaint.
  for (const char* bad : {"abc", "5k", "1.5.2", ""}) {
    Args args({"bench", "--t", bad});
    try {
      arg_double(args.argc(), args.argv(), "--t", 1.0);
      FAIL() << "expected throw for --t " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--t"), std::string::npos);
    }
  }
  for (const char* bad : {"abc", "5k", "3.5", "-5", ""}) {
    Args args({"bench", "--states", bad});
    EXPECT_THROW(arg_size(args.argc(), args.argv(), "--states", 1),
                 std::invalid_argument)
        << bad;
  }
  // Trailing-garbage doubles are rejected too, not truncated.
  Args args({"bench", "--t", "2.5e"});
  EXPECT_THROW(arg_double(args.argc(), args.argv(), "--t", 1.0),
               std::invalid_argument);
}

TEST(BenchArgsTest, SizeListParsesCommaSeparatedValues) {
  Args args({"bench", "--threads", "1,2,4,8,16"});
  const std::vector<std::size_t> want = {1, 2, 4, 8, 16};
  EXPECT_EQ(arg_size_list(args.argc(), args.argv(), "--threads", {7}), want);
  const std::vector<std::size_t> fallback = {3};
  EXPECT_EQ(arg_size_list(args.argc(), args.argv(), "--absent", fallback),
            fallback);
  Args one({"bench", "--threads", "4"});
  EXPECT_EQ(arg_size_list(one.argc(), one.argv(), "--threads", {}),
            std::vector<std::size_t>{4});
  for (const char* bad : {"", "1,,2", "1,2,", "1,a", "-1,2", "2.5"}) {
    Args margs({"bench", "--threads", bad});
    EXPECT_THROW(arg_size_list(margs.argc(), margs.argv(), "--threads", {}),
                 std::invalid_argument)
        << "\"" << bad << "\"";
  }
}

TEST(BenchJsonTest, EscapeHandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(BenchJsonTest, WriterEscapesRecordStrings) {
  const std::string path = testing::TempDir() + "escape_records.json";
  JsonWriter writer(path);
  BenchRecord rec;
  rec.bench = "weird\"name\nwith newline";
  rec.kernel = "panel\\v2";
  rec.git_sha = "deadbeef";
  writer.add(std::move(rec));
  writer.write();
  const std::string content = slurp(path);
  EXPECT_NE(content.find("weird\\\"name\\nwith newline"), std::string::npos)
      << content;
  EXPECT_NE(content.find("panel\\\\v2"), std::string::npos);
  // No raw newline may survive inside the emitted object line.
  EXPECT_EQ(content.find("weird\"name"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchJsonTest, AppendMergesAndFailureLeavesSnapshotIntact) {
  const std::string path = testing::TempDir() + "append_records.json";
  std::remove(path.c_str());

  {
    JsonWriter first(path, /*append=*/true);  // append to nothing: fresh array
    BenchRecord rec;
    rec.bench = "run1";
    rec.states = 10;
    first.add(std::move(rec));
    first.write();
  }
  {
    JsonWriter second(path, /*append=*/true);
    BenchRecord rec;
    rec.bench = "run2";
    rec.states = 20;
    second.add(std::move(rec));
    second.write();
  }
  const std::string merged = slurp(path);
  EXPECT_NE(merged.find("run1"), std::string::npos) << merged;
  EXPECT_NE(merged.find("run2"), std::string::npos) << merged;

  // A failed append (existing file is not a JSON array) must leave the
  // existing file byte-identical — the old implementation's "w" reopen of
  // the destination truncated the snapshot it could not extend.
  const std::string garbage_path = testing::TempDir() + "not_an_array.json";
  spit(garbage_path, "this is not json\n");
  JsonWriter bad(garbage_path, /*append=*/true);
  BenchRecord rec;
  rec.bench = "run3";
  bad.add(std::move(rec));
  EXPECT_THROW(bad.write(), std::runtime_error);
  EXPECT_EQ(slurp(garbage_path), "this is not json\n");
  std::remove(garbage_path.c_str());
  std::remove(path.c_str());
}

TEST(BenchJsonTest, OverwriteReplacesAtomicallyViaTempFile) {
  const std::string path = testing::TempDir() + "replace_records.json";
  spit(path, "[\n  {\"bench\": \"old\"}\n]\n");
  JsonWriter writer(path);  // no append: replace
  BenchRecord rec;
  rec.bench = "new";
  writer.add(std::move(rec));
  writer.write();
  const std::string content = slurp(path);
  EXPECT_EQ(content.find("old"), std::string::npos);
  EXPECT_NE(content.find("new"), std::string::npos);
  // The temp staging file is renamed away, not left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(BenchJsonTest, DisabledWriterIsANoOp) {
  JsonWriter writer("");
  EXPECT_FALSE(writer.enabled());
  BenchRecord rec;
  rec.bench = "ignored";
  writer.add(std::move(rec));
  writer.write();  // must not create a file or throw
}

}  // namespace
}  // namespace somrm::bench
