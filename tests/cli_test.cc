// In-process tests of the `sjsel` command-line tool.

#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace sjsel {
namespace cli {
namespace {

// Runs the CLI with output captured into strings.
struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunTool(const std::vector<std::string>& args) {
  CliResult result;
  const std::string out_path = ::testing::TempDir() + "/cli_out.txt";
  const std::string err_path = ::testing::TempDir() + "/cli_err.txt";
  std::FILE* out = std::fopen(out_path.c_str(), "w+");
  std::FILE* err = std::fopen(err_path.c_str(), "w+");
  result.code = RunCli(args, out, err);
  auto slurp = [](std::FILE* f) {
    std::string s;
    std::rewind(f);
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) s.append(buf, n);
    std::fclose(f);
    return s;
  };
  result.out = slurp(out);
  result.err = slurp(err);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CliResult r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandPrintsUsage) {
  const CliResult r = RunTool({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenStatsRoundTrip) {
  const std::string ds = TempPath("cli_uniform.ds");
  CliResult r = RunTool({"gen", "uniform:500", ds, "--seed=7"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("500 rectangles"), std::string::npos);

  r = RunTool({"stats", ds});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rectangles  : 500"), std::string::npos);
  EXPECT_NE(r.out.find("coverage"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GenPaperDataset) {
  const std::string ds = TempPath("cli_scrc.ds");
  const CliResult r = RunTool({"gen", "SCRC", ds, "--scale=0.01"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1000 rectangles"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GenRejectsBadSpec) {
  const CliResult r = RunTool({"gen", "nonsense", TempPath("x.ds")});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown dataset spec"), std::string::npos);
}

TEST(CliTest, FullHistogramPipeline) {
  const std::string ds_a = TempPath("cli_a.ds");
  const std::string ds_b = TempPath("cli_b.ds");
  const std::string gh_a = TempPath("cli_a.gh");
  const std::string gh_b = TempPath("cli_b.gh");

  ASSERT_EQ(RunTool({"gen", "uniform:2000", ds_a, "--seed=1"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:2000", ds_b, "--seed=2"}).code, 0);

  // Use a shared extent so the two histogram files are combinable.
  CliResult r = RunTool({"hist-build", ds_a, gh_a, "--level=6",
                     "--extent=0,0,1,1"});
  EXPECT_EQ(r.code, 0) << r.err;
  r = RunTool({"hist-build", ds_b, gh_b, "--level=6", "--extent=0,0,1,1"});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"hist-info", gh_a});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheme   : GH (revised)"), std::string::npos);
  EXPECT_NE(r.out.find("level    : 6"), std::string::npos);

  r = RunTool({"estimate", gh_a, gh_b});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  EXPECT_NE(r.out.find("estimated selectivity"), std::string::npos);

  r = RunTool({"range", gh_a, "0.2,0.2,0.8,0.8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated matches"), std::string::npos);

  for (const std::string& p : {ds_a, ds_b, gh_a, gh_b}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, PhPipelineAndMixedSchemesRejected) {
  const std::string ds = TempPath("cli_ph.ds");
  const std::string ph = TempPath("cli_ph.hist");
  const std::string gh = TempPath("cli_gh.hist");
  ASSERT_EQ(RunTool({"gen", "uniform:1000", ds}).code, 0);
  ASSERT_EQ(RunTool({"hist-build", ds, ph, "--scheme=ph", "--level=4",
                 "--extent=0,0,1,1"})
                .code,
            0);
  ASSERT_EQ(
      RunTool({"hist-build", ds, gh, "--level=4", "--extent=0,0,1,1"}).code, 0);

  CliResult r = RunTool({"hist-info", ph});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("scheme   : PH (split)"), std::string::npos);
  EXPECT_NE(r.out.find("avg span"), std::string::npos);

  r = RunTool({"estimate", ph, ph});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"estimate", ph, gh});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("different schemes"), std::string::npos);

  r = RunTool({"range", ph, "0,0,1,1"});
  EXPECT_EQ(r.code, 2);  // range needs GH

  for (const std::string& p : {ds, ph, gh}) std::remove(p.c_str());
}

TEST(CliTest, MinSkewPipeline) {
  const std::string ds = TempPath("cli_ms.ds");
  const std::string ms = TempPath("cli_ms.hist");
  ASSERT_EQ(RunTool({"gen", "clustered:1500", ds}).code, 0);
  CliResult r = RunTool({"hist-build", ds, ms, "--scheme=minskew",
                         "--buckets=64", "--extent=0,0,1,1"});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"hist-info", ms});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheme   : MinSkew"), std::string::npos);
  EXPECT_NE(r.out.find("buckets"), std::string::npos);

  r = RunTool({"estimate", ms, ms});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  std::remove(ds.c_str());
  std::remove(ms.c_str());
}

TEST(CliTest, JoinAlgorithmsAgree) {
  const std::string ds_a = TempPath("cli_ja.ds");
  const std::string ds_b = TempPath("cli_jb.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:800", ds_a, "--seed=3"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:800", ds_b, "--seed=4"}).code, 0);

  std::string first;
  for (const std::string algo :
       {"sweep", "pbsm", "rtree", "quadtree", "nested"}) {
    const CliResult r = RunTool({"join", ds_a, ds_b, "--algo=" + algo});
    EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
    const size_t pos = r.out.find("pairs      : ");
    ASSERT_NE(pos, std::string::npos);
    const std::string count =
        r.out.substr(pos, r.out.find('\n', pos) - pos);
    if (first.empty()) {
      first = count;
    } else {
      EXPECT_EQ(count, first) << algo;
    }
  }
  EXPECT_EQ(RunTool({"join", ds_a, ds_b, "--algo=bogus"}).code, 2);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, SampleCommand) {
  const std::string ds_a = TempPath("cli_sa.ds");
  const std::string ds_b = TempPath("cli_sb.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:2000", ds_a, "--seed=5"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "uniform:2000", ds_b, "--seed=6"}).code, 0);
  for (const std::string method : {"rs", "rswr", "ss"}) {
    const CliResult r = RunTool({"sample", ds_a, ds_b, "--method=" + method,
                             "--fa=0.2", "--fb=0.2"});
    EXPECT_EQ(r.code, 0) << method << ": " << r.err;
    EXPECT_NE(r.out.find("samples              : 400 x 400"),
              std::string::npos)
        << method;
    EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  }
  EXPECT_EQ(RunTool({"sample", ds_a, ds_b, "--method=bogus"}).code, 2);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, GeoPipeline) {
  const std::string streams = TempPath("cli_streams.geo");
  const std::string blocks = TempPath("cli_blocks.geo");
  CliResult r = RunTool({"gen-geo", "streams", streams, "--n=400"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("400 streams geometries"), std::string::npos);
  r = RunTool({"gen-geo", "blocks", blocks, "--n=400"});
  EXPECT_EQ(r.code, 0) << r.err;

  r = RunTool({"refine-join", streams, blocks});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("candidates (filter)"), std::string::npos);
  EXPECT_NE(r.out.find("false-hit ratio"), std::string::npos);

  EXPECT_EQ(RunTool({"gen-geo", "nonsense", streams}).code, 2);
  EXPECT_EQ(RunTool({"refine-join", "/nope.geo", blocks}).code, 1);
  std::remove(streams.c_str());
  std::remove(blocks.c_str());
}

TEST(CliTest, KnnCommand) {
  const std::string ds = TempPath("cli_knn.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:500", ds, "--seed=9"}).code, 0);
  CliResult r = RunTool({"knn", ds, "0.5,0.5", "--k=3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 nearest of 500"), std::string::npos);
  EXPECT_NE(r.out.find("dist"), std::string::npos);
  EXPECT_EQ(RunTool({"knn", ds, "zzz"}).code, 2);
  std::remove(ds.c_str());
}

TEST(CliTest, MissingFilesAreReported) {
  EXPECT_EQ(RunTool({"stats", "/nonexistent.ds"}).code, 1);
  EXPECT_EQ(RunTool({"hist-info", "/nonexistent.hist"}).code, 1);
  EXPECT_EQ(RunTool({"join", "/nope1.ds", "/nope2.ds"}).code, 1);
}

TEST(CliTest, BadExtentFlagRejected) {
  const std::string ds = TempPath("cli_ext.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);
  const CliResult r =
      RunTool({"hist-build", ds, TempPath("x.gh"), "--extent=zzz"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --extent"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GarbageNumericFlagsRejectedNamingTheFlag) {
  const std::string ds = TempPath("cli_strict.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);

  // Each case: the exit code is the usage-error 2 and stderr names the
  // offending flag instead of silently treating the value as 0.
  CliResult r = RunTool({"gen", "uniform:100", ds, "--seed=abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --seed"), std::string::npos);
  EXPECT_NE(r.err.find("abc"), std::string::npos);

  r = RunTool({"hist-build", ds, TempPath("x.gh"), "--level=7junk"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --level"), std::string::npos);

  r = RunTool({"sample", ds, ds, "--fa=0.5x"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --fa"), std::string::npos);

  r = RunTool({"join", ds, ds, "--threads="});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --threads"), std::string::npos);

  r = RunTool({"knn", ds, "0.5,0.5", "--k=99999999999999999999"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --k"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, GuardedEstimateOnDatasets) {
  const std::string ds_a = TempPath("cli_ge_a.ds");
  const std::string ds_b = TempPath("cli_ge_b.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:1500", ds_a, "--seed=11"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:1500", ds_b, "--seed=12"}).code, 0);

  // Clean inputs: the primary GH rung answers, no degradation.
  CliResult r = RunTool({"estimate", ds_a, ds_b});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("estimated pairs"), std::string::npos);
  EXPECT_NE(r.out.find("rung                 : gh"), std::string::npos);
  EXPECT_NE(r.out.find("degradation_reason   : none"), std::string::npos);

  // Forced GH failure: still exit 0, the PH rung answers, and the
  // degradation trail names the skipped rung.
  r = RunTool({"estimate", ds_a, ds_b, "--inject-faults=estimator.gh=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rung                 : ph"), std::string::npos);
  EXPECT_NE(r.out.find("degradation_reason   : gh:injected"),
            std::string::npos);

  // Whole upper chain out: the parametric anchor still answers.
  r = RunTool({"estimate", ds_a, ds_b,
               "--inject-faults=estimator.gh=always,estimator.ph=always,"
               "estimator.sampling=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rung                 : parametric"),
            std::string::npos);

  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, ExplainCommandEndToEnd) {
  const std::string ds_a = TempPath("cli_ex_a.ds");
  const std::string ds_b = TempPath("cli_ex_b.ds");
  const std::string json = TempPath("cli_ex.json");
  const std::string csv = TempPath("cli_ex.csv");
  ASSERT_EQ(RunTool({"gen", "uniform:1200", ds_a, "--seed=31"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:1200", ds_b, "--seed=32"}).code, 0);

  const std::vector<std::string> cmd = {"explain", ds_a,      ds_b,
                                        "--exact", "--top=5", "--level=4",
                                        "--json=" + json, "--csv=" + csv};
  const CliResult r = RunTool(cmd);
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* needle :
       {"explain              : gh level 4", "estimated pairs",
        "chain:", "contribution skew:", "top contributing cells:",
        "actual pairs", "top erring cells:", "c1*o2"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }

  // Deterministic output: a second run and a threaded run are
  // byte-identical (json/csv side files excluded from this run).
  const CliResult again =
      RunTool({"explain", ds_a, ds_b, "--exact", "--top=5", "--level=4"});
  const CliResult threaded = RunTool({"explain", ds_a, ds_b, "--exact",
                                      "--top=5", "--level=4", "--threads=4"});
  const CliResult base =
      RunTool({"explain", ds_a, ds_b, "--exact", "--top=5", "--level=4"});
  EXPECT_EQ(base.out, again.out);
  EXPECT_EQ(base.out, threaded.out);

  // Side files were written and are non-empty.
  for (const std::string& path : {json, csv}) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0) << path;
    std::fclose(f);
    std::remove(path.c_str());
  }

  // Unknown scheme is a usage error.
  EXPECT_EQ(RunTool({"explain", ds_a, ds_b, "--scheme=bogus"}).code, 2);

  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, EstimateExplainPrintsChainTrail) {
  const std::string ds_a = TempPath("cli_ee_a.ds");
  const std::string ds_b = TempPath("cli_ee_b.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:600", ds_a, "--seed=41"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "uniform:600", ds_b, "--seed=42"}).code, 0);
  const CliResult r =
      RunTool({"estimate", ds_a, ds_b, "--explain",
               "--inject-faults=estimator.gh=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("chain:"), std::string::npos);
  EXPECT_NE(r.out.find("gh         failed"), std::string::npos);
  EXPECT_NE(r.out.find("cause=injected"), std::string::npos);
  EXPECT_NE(r.out.find("ph         answered"), std::string::npos);
  // Without --explain the chain block stays out of the output.
  const CliResult plain = RunTool({"estimate", ds_a, ds_b});
  EXPECT_EQ(plain.out.find("chain:"), std::string::npos);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, BadInjectFaultsSpecRejected) {
  const CliResult r = RunTool({"stats", "/nonexistent.ds",
                               "--inject-faults=bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad fault clause"), std::string::npos);
}

TEST(CliTest, KernelBackendFlag) {
  // Unknown backend names are a usage error naming the accepted set.
  const CliResult bad =
      RunTool({"stats", "/nonexistent.ds", "--kernel-backend=avx512"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("scalar|avx2"), std::string::npos) << bad.err;

  // Forcing the scalar backend changes no byte of the answer.
  const std::string ds_a = TempPath("cli_kb_a.ds");
  const std::string ds_b = TempPath("cli_kb_b.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:1501", ds_a, "--seed=21"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:1499", ds_b, "--seed=22"}).code, 0);
  const CliResult detected = RunTool({"estimate", ds_a, ds_b});
  const CliResult scalar =
      RunTool({"estimate", ds_a, ds_b, "--kernel-backend=scalar"});
  EXPECT_EQ(detected.code, 0) << detected.err;
  EXPECT_EQ(scalar.code, 0) << scalar.err;
  EXPECT_NE(detected.out.find("estimated pairs"), std::string::npos);
  EXPECT_EQ(scalar.out, detected.out);
  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
}

TEST(CliTest, InjectedIoFaultIsDiagnosedNotCrashed) {
  const std::string ds = TempPath("cli_iofault.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:200", ds}).code, 0);
  // io.read makes every file load fail: the command must report the
  // injected IoError and exit 1, and a following run (injection scoped to
  // one invocation) must succeed again.
  CliResult r = RunTool({"stats", ds, "--inject-faults=io.read=always"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("io.read"), std::string::npos);
  EXPECT_EQ(RunTool({"stats", ds}).code, 0);
  std::remove(ds.c_str());
}

TEST(CliTest, HistBuildValidatePolicyFlag) {
  const std::string ds = TempPath("cli_val.ds");
  const std::string gh = TempPath("cli_val.gh");
  ASSERT_EQ(RunTool({"gen", "uniform:300", ds}).code, 0);
  // Generated data is clean, so every policy builds successfully…
  for (const std::string policy : {"reject", "clamp", "quarantine"}) {
    const CliResult r = RunTool({"hist-build", ds, gh, "--level=5",
                                 "--validate=" + policy});
    EXPECT_EQ(r.code, 0) << policy << ": " << r.err;
  }
  // …and an unknown policy is a usage error.
  const CliResult r = RunTool({"hist-build", ds, gh, "--validate=maybe"});
  EXPECT_EQ(r.code, 2);
  std::remove(ds.c_str());
  std::remove(gh.c_str());
}

TEST(CliTest, PlanCommandEndToEnd) {
  const std::string ds_a = TempPath("cli_plan_a.ds");
  const std::string ds_b = TempPath("cli_plan_b.ds");
  const std::string ds_c = TempPath("cli_plan_c.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:1200", ds_a, "--seed=41"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "clustered:900", ds_b, "--seed=42"}).code, 0);
  ASSERT_EQ(RunTool({"gen", "uniform:600", ds_c, "--seed=43"}).code, 0);

  CliResult r = RunTool({"plan", ds_a, ds_b, ds_c});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("datasets             : 3"), std::string::npos);
  EXPECT_NE(r.out.find("pair estimates:"), std::string::npos);
  EXPECT_NE(r.out.find("algorithm            : dp"), std::string::npos);
  const std::string text_plan = r.out;

  // The planner is deterministic across thread counts — the whole
  // rendering, not just the chosen tree.
  r = RunTool({"plan", ds_a, ds_b, ds_c, "--threads=4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, text_plan);

  // --json emits one machine-readable document.
  r = RunTool({"plan", ds_a, ds_b, ds_c, "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"tree\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"degraded\":false"), std::string::npos);

  // Degraded pair estimates surface in the plan output.
  r = RunTool({"plan", ds_a, ds_b, ds_c,
               "--inject-faults=estimator.gh=always"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("gh:injected"), std::string::npos);

  std::remove(ds_a.c_str());
  std::remove(ds_b.c_str());
  std::remove(ds_c.c_str());
}

TEST(CliTest, PlanRejectsTooFewInputs) {
  const std::string ds = TempPath("cli_plan_one.ds");
  ASSERT_EQ(RunTool({"gen", "uniform:100", ds}).code, 0);
  const CliResult r = RunTool({"plan", ds});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("at least two"), std::string::npos);
  std::remove(ds.c_str());
}

TEST(CliTest, ServeRejectsBadFlags) {
  CliResult r = RunTool({"serve"});
  EXPECT_EQ(r.code, 2);
  r = RunTool({"serve", TempPath("cli_srv.sock"), "--workers=0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--workers"), std::string::npos);
}

TEST(CliTest, ClientReportsConnectFailure) {
  const CliResult r =
      RunTool({"client", TempPath("cli_no_server.sock"), "{\"op\":\"ping\"}"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("connect"), std::string::npos);
}

}  // namespace
}  // namespace cli
}  // namespace sjsel
