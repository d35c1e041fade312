// wcmd — the standalone adversarial-input daemon (docs/SERVE.md).
//
//   wcmd [--socket path|@name] [--data-dir dir] [--threads n]
//        [--queue-max n] [--batch-max n] [--max-connections n]
//        [--eventlog file.jsonl] [--quiet]
//
// Identical to `wcmgen serve` (both parse with serve::parse_daemon_flags):
// accept line-delimited strict-JSON requests over a Unix-domain socket,
// coalesce identical in-flight requests, batch them into scheduler job
// graphs, and answer through the multi-tenant WCMS response cache.
// SIGINT/SIGTERM drain gracefully: every request already read is answered
// before the process exits.
//
// Exit codes: 0 clean drain, 2 usage error, 3 socket/file error,
// 5 drain invariant violated (a read request was never answered).

#include <iostream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "telemetry/eventlog.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/version.hpp"

namespace {

using namespace wcm;

constexpr const char* kUsage =
    R"(wcmd — long-running adversarial-input daemon (docs/SERVE.md)

usage: wcmd [--socket path|@name] [--data-dir dir] [--threads n]
            [--queue-max n] [--batch-max n] [--max-connections n]
            [--eventlog file.jsonl] [--quiet]

)";

constexpr const char* kEpilogue =
    R"(
SIGINT/SIGTERM drain gracefully.  Exit codes: 0 clean drain, 2 usage,
3 socket error, 5 drain invariant violated.
)";

int run(int argc, char** argv) {
  failpoint::configure_from_env();
  const serve::DaemonOptions opts =
      serve::parse_daemon_flags({argv + 1, argv + argc});
  if (opts.help) {
    std::cout << kUsage << serve::kDaemonFlagsUsage << kEpilogue;
    return 0;
  }
  if (opts.version) {
    std::cout << "wcmd " << version_string() << " (" << build_describe()
              << ")\n";
    return 0;
  }
  return serve::run_server(opts);
}

}  // namespace

int main(int argc, char** argv) {
  telemetry::configure_from_env();
  telemetry::eventlog::configure_from_env();
  int code = 0;
  try {
    code = run(argc, argv);
  } catch (const parse_error& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    code = 2;
  } catch (const io_error& e) {
    std::cerr << "socket error: " << e.what() << "\n";
    code = 3;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    code = 5;
  }
  wcm::telemetry::flush_trace(&std::cerr);
  return code;
}
