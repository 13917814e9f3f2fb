// xrank_cli end to end: the binary serves the engine's index kinds and
// refuses the paper's baselines with the engine's error.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "test_util.h"

namespace xrank {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

CliRun RunCli(const std::string& args) {
  CliRun run;
  const std::string command =
      std::string("\"") + XRANK_CLI_PATH + "\" " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string WriteFigure1() {
  const std::string path = ::testing::TempDir() + "/cli_figure1.xml";
  std::ofstream out(path);
  out << testutil::Figure1Xml();
  return path;
}

TEST(XrankCliTest, RefusesBaselineIndexKind) {
  const std::string file = WriteFigure1();
  CliRun refused = RunCli("--index=naive-id --query=xql " + file);
  EXPECT_NE(refused.exit_code, 0) << refused.output;
  EXPECT_NE(refused.output.find("Naive-ID"), std::string::npos)
      << refused.output;
  EXPECT_NE(refused.output.find("harness"), std::string::npos)
      << refused.output;

  CliRun served = RunCli("--index=hdil --query=xql " + file);
  EXPECT_EQ(served.exit_code, 0) << served.output;
  EXPECT_NE(served.output.find("<subsection>"), std::string::npos)
      << served.output;
}

}  // namespace
}  // namespace xrank
