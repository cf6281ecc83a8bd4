// mtm_analyze command-line driver. See mtm_analyze.h for the pass
// catalogue and suppression syntax.
//
// Usage:
//   mtm_analyze --root DIR [--compdb build/compile_commands.json]
//               [--config tools/mtm_analyze/layers.toml]
//               [--json PATH] [--check-system-includes] [--stats]
//               [--fix [--check]] [extra-root-relative-files...]
//
// Seeds the project from the compilation database (plus any positional
// files), closes over project includes, runs all passes, and prints
// findings in mtm_lint format. Exit status 0 iff the tree is clean.
//
// --fix rewrites machine-applicable include-graph findings in place and
// exits 0 when edits were applied cleanly; --fix --check writes nothing and
// exits 1 iff the autofixer would change any file (CI uses this to prove
// the tree is fix-clean).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string ArgValue(const std::string& arg, const std::string& name) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    return arg.substr(prefix.size());
  }
  return "";
}

// Merges a TOML config file into `config`; returns false after printing a
// diagnostic on failure.
bool LoadConfigFile(const std::string& path, mtm::analyze::Config* config) {
  std::string text;
  std::string error;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "mtm_analyze: cannot read %s\n", path.c_str());
    return false;
  }
  if (!mtm::analyze::ParseConfig(text, config, &error)) {
    std::fprintf(stderr, "mtm_analyze: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compdb;
  std::string config_path;
  std::string json_path;
  bool fix = false;
  bool check = false;
  bool check_system_includes = false;
  bool stats = false;
  std::vector<std::string> seeds;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (!(value = ArgValue(arg, "root")).empty()) {
      root = value;
    } else if (!(value = ArgValue(arg, "compdb")).empty()) {
      compdb = value;
    } else if (!(value = ArgValue(arg, "config")).empty()) {
      config_path = value;
    } else if (!(value = ArgValue(arg, "json")).empty()) {
      json_path = value;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--check-system-includes") {
      check_system_includes = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help") {
      std::printf("usage: mtm_analyze --root=DIR [--compdb=PATH] [--config=PATH] "
                  "[--json=PATH] [--check-system-includes] "
                  "[--stats] [--fix [--check]] [files...]\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "mtm_analyze: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      seeds.push_back(arg);
    }
  }
  if (check && !fix) {
    std::fprintf(stderr, "mtm_analyze: --check requires --fix\n");
    return 2;
  }
  while (!root.empty() && root.back() == '/') {
    root.pop_back();
  }
  // Database entries are absolute, so `--root=.` must become absolute too
  // before the prefix match below can relativize them.
  std::error_code ec;
  std::string abs_root = std::filesystem::canonical(root, ec).string();
  if (ec) {
    std::fprintf(stderr, "mtm_analyze: cannot resolve root %s\n", root.c_str());
    return 2;
  }
  root = abs_root;

  std::vector<std::string> include_dirs;
  if (!compdb.empty()) {
    std::string text;
    if (!ReadFile(compdb, &text)) {
      std::fprintf(stderr, "mtm_analyze: cannot read %s\n", compdb.c_str());
      return 2;
    }
    mtm::analyze::CompileDb db = mtm::analyze::ParseCompileDb(text);
    for (std::string file : db.files) {
      // Database entries are usually absolute; make them root-relative and
      // drop anything outside the tree (system or generated sources).
      if (file.rfind(root + "/", 0) == 0) {
        file = file.substr(root.size() + 1);
      } else if (!file.empty() && file[0] == '/') {
        continue;
      }
      seeds.push_back(file);
    }
    // -I/-isystem directories inside the tree resolve angle includes into
    // project files; external directories are dropped (their headers stay
    // opaque system includes).
    for (std::string dir : db.include_dirs) {
      if (dir == root) {
        include_dirs.push_back("");
      } else if (dir.rfind(root + "/", 0) == 0) {
        include_dirs.push_back(dir.substr(root.size() + 1));
      }
    }
  }
  if (seeds.empty()) {
    std::fprintf(stderr, "mtm_analyze: no input files (use --compdb or list files)\n");
    return 2;
  }

  mtm::analyze::Config config;
  if (config_path.empty()) {
    std::ifstream probe(root + "/tools/mtm_analyze/layers.toml");
    if (probe) {
      config_path = root + "/tools/mtm_analyze/layers.toml";
    }
  }
  if (!config_path.empty() && !LoadConfigFile(config_path, &config)) {
    return 2;
  }
  config.check_system_includes = check_system_includes;

  mtm::analyze::Project project = mtm::analyze::Project::Load(root, seeds, include_dirs);
  mtm::analyze::AnalyzeStats analyze_stats;
  std::vector<mtm::analyze::Finding> findings =
      mtm::analyze::Analyze(project, config, stats ? &analyze_stats : nullptr);

  if (fix) {
    std::map<std::string, std::string> fixed =
        mtm::analyze::ComputeFixedContents(project, findings);
    if (check) {
      for (const auto& [path, unused] : fixed) {
        std::printf("%s: would be rewritten by --fix\n", path.c_str());
      }
      std::printf("mtm_analyze: --fix --check: %zu file(s) would change\n", fixed.size());
      return fixed.empty() ? 0 : 1;
    }
    for (const auto& [path, contents] : fixed) {
      std::ofstream out(root + "/" + path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "mtm_analyze: cannot write %s\n", path.c_str());
        return 2;
      }
      out << contents;
      std::printf("%s: fixed\n", path.c_str());
    }
    std::printf("mtm_analyze: --fix: %zu file(s) rewritten\n", fixed.size());
    return 0;
  }

  std::fputs(mtm::analyze::FormatText(findings).c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << mtm::analyze::FormatJson(findings, project.files().size());
  }
  if (stats) {
    std::fputs(mtm::analyze::FormatStats(analyze_stats).c_str(), stdout);
  }
  std::printf("mtm_analyze: %zu files checked, %zu finding(s)\n", project.files().size(),
              findings.size());
  return findings.empty() ? 0 : 1;
}
