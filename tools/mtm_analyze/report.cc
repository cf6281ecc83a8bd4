#include <sstream>
#include <string>
#include <vector>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace mtm::analyze {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatText(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.check << "] " << f.message << "\n";
  }
  return os.str();
}

std::string FormatJson(const std::vector<Finding>& findings, std::size_t files_checked) {
  std::ostringstream os;
  os << "{\n  \"files_checked\": " << files_checked << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n"
       << "      \"check\": \"" << JsonEscape(f.check) << "\",\n"
       << "      \"file\": \"" << JsonEscape(f.file) << "\",\n"
       << "      \"line\": " << f.line << ",\n"
       << "      \"message\": \"" << JsonEscape(f.message) << "\"\n"
       << "    }";
  }
  os << (findings.empty() ? "" : "\n  ") << "],\n";
  os << "  \"ok\": " << (findings.empty() ? "true" : "false") << "\n}\n";
  return os.str();
}

std::string FormatStats(const AnalyzeStats& stats) {
  std::ostringstream os;
  os << "mtm_analyze stats:\n";
  os << "  files analyzed:     " << stats.files_checked << "\n";
  if (stats.findings_by_check.empty()) {
    os << "  findings:           none\n";
  } else {
    os << "  findings by check:\n";
    for (const auto& [check, count] : stats.findings_by_check) {
      os << "    " << check << ": " << count << "\n";
    }
  }
  return os.str();
}

}  // namespace mtm::analyze
