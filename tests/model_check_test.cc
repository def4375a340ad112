// Model-checking property test: a long random sequence of namespace + data
// operations executed in lock-step against ZoFS (and LogFS, NOVA) and the
// testbed reference model. Every operation's error code, every read's bytes
// and, at the end, the whole tree must match the model exactly.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/rand.h"
#include "src/harness/fslab.h"
#include "src/mpk/mpk.h"
#include "src/testbed/testbed.h"

namespace {

using common::Err;
using harness::FsKind;
using testbed::Op;

class ModelCheckTest : public ::testing::TestWithParam<FsKind> {
 protected:
  void TearDown() override { mpk::BindThreadToProcess(nullptr); }
};

TEST_P(ModelCheckTest, RandomOpsMatchReference) {
  harness::LabOptions lo;
  lo.dev_bytes = 512ull << 20;
  lo.kernel_crossing_ns = 0;
  lo.clwb_ns = 0;
  lo.sfence_ns = 0;
  harness::FsLab lab(GetParam(), lo);
  vfs::FileSystem* fs = lab.View(0);
  const vfs::Cred cred{0, 0};
  testbed::Executor exec(fs, cred);
  testbed::Model model;
  common::Rng rng(GetParam() == FsKind::kZofs ? 71 : 72);

  auto rand_dir = [&]() {
    int d = rng.Below(6);
    return d == 0 ? std::string("/") : "/d" + std::to_string(d);
  };
  auto rand_path = [&]() {
    std::string dir = rand_dir();
    return (dir == "/" ? "" : dir) + "/f" + std::to_string(rng.Below(25));
  };
  auto name = [](Err e) { return std::string(common::ErrName(e)); };
  auto code = [&](const auto& r) { return name(r.ok() ? Err::kOk : r.error()); };
  // Runs `op` on the file system and the model; the codes must agree.
  auto run = [&](const Op& op, int i) {
    const Err want = model.Apply(op);
    EXPECT_EQ(name(exec.Run(op)), name(want))
        << i << " " << op.path << (op.kind == Op::Kind::kRename ? " -> " + op.path2 : "");
  };

  for (int d = 1; d <= 3; d++) {
    run(Op::On(Op::Kind::kMkdir, "/d" + std::to_string(d)), -1);
  }

  const int kOps = 2500;
  for (int i = 0; i < kOps; i++) {
    switch (rng.Below(8)) {
      case 0:  // create (possibly existing)
        run(Op::Create(rand_path(), 0644), i);
        break;
      case 1: {  // write a random extent
        std::string p = rand_path();
        uint64_t off = rng.Below(30000);
        run(Op::Write(p, off, rng.AlnumString(1 + rng.Below(8000))), i);
        break;
      }
      case 2: {  // read-and-compare a random window
        std::string p = rand_path();
        const std::string* want = model.Content(p);
        auto fd = fs->Open(cred, p, vfs::kRead, 0);
        EXPECT_EQ(code(fd), name(want != nullptr ? Err::kOk : Err::kNoEnt)) << i << " open " << p;
        if (fd.ok() && want != nullptr) {
          uint64_t off = rng.Below(want->size() + 100);
          std::string buf(4000, '\1');
          auto r = fs->Pread(*fd, buf.data(), buf.size(), off);
          ASSERT_TRUE(r.ok());
          std::string expect =
              off >= want->size()
                  ? ""
                  : want->substr(off, std::min<uint64_t>(buf.size(), want->size() - off));
          EXPECT_EQ(std::string(buf.data(), *r), expect) << i << " read " << p << "@" << off;
          fs->Close(*fd);
        }
        break;
      }
      case 3:  // unlink
        run(Op::On(Op::Kind::kUnlink, rand_path()), i);
        break;
      case 4: {  // rename file -> file, possibly over an existing one
        std::string from = rand_path();
        std::string to = rand_path();
        if (from != to) {
          run(Op::Rename(from, to), i);
        }
        break;
      }
      case 5: {  // stat agrees on size
        std::string p = rand_path();
        const std::string* want = model.Content(p);
        auto st = fs->Stat(cred, p);
        EXPECT_EQ(code(st), name(want != nullptr ? Err::kOk : Err::kNoEnt)) << i << " stat " << p;
        if (st.ok() && want != nullptr) {
          EXPECT_EQ(st->size, want->size()) << i << " size of " << p;
        }
        break;
      }
      case 6:
        run(Op::On(Op::Kind::kMkdir, "/d" + std::to_string(1 + rng.Below(5))), i);
        break;
      case 7:
        run(Op::On(Op::Kind::kRmdir, "/d" + std::to_string(1 + rng.Below(5))), i);
        break;
    }
  }

  // Final sweep: the tree holds exactly the model's paths, and every file
  // reads back with exact contents.
  std::set<std::string> files;
  std::set<std::string> dirs;
  std::string err;
  ASSERT_TRUE(testbed::Walk(fs, cred, "/", &files, &dirs, &err)) << err;
  EXPECT_EQ(dirs, model.dirs());
  for (const auto& [path, f] : model.files()) {
    std::string got;
    ASSERT_EQ(files.erase(path), 1u) << path << " missing";
    ASSERT_EQ(testbed::ReadFile(fs, cred, path, &got), 1) << path;
    EXPECT_EQ(got, f.content) << path;
  }
  EXPECT_TRUE(files.empty()) << *files.begin() << " is not in the model";
  if (lab.kernfs() != nullptr) {
    EXPECT_TRUE(lab.kernfs()->CheckAllocTableForTest().empty())
        << lab.kernfs()->CheckAllocTableForTest();
  }
}

INSTANTIATE_TEST_SUITE_P(UserSpaceFs, ModelCheckTest,
                         ::testing::Values(FsKind::kZofs, FsKind::kLogFs, FsKind::kNova),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           std::string n = FsKindName(info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
