// sealdb_cli: command-line client for a running sealdb_server.
//
//   sealdb_cli [--host H] [--port P] <command> [args...]
//     ping
//     get <key>
//     put <key> <value>
//     del <key>
//     scan <start> <limit>
//     metrics
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/seal_client.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] <command> [args...]\n"
               "commands:\n"
               "  ping                    liveness check\n"
               "  get <key>               print the value for <key>\n"
               "  put <key> <value>       store <key> -> <value>\n"
               "  del <key>               delete <key>\n"
               "  scan <start> <limit>    print up to <limit> entries\n"
               "  metrics                 Prometheus-style text exposition\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 4790;

  int i = 1;
  for (; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      break;  // first non-flag token is the command
    }
  }
  if (i >= argc) {
    Usage(argv[0]);
    return 2;
  }
  const std::string command = argv[i++];
  std::vector<std::string> args(argv + i, argv + argc);

  sealdb::net::SealClient client;
  sealdb::Status s = client.Connect(host, port);
  if (!s.ok()) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(),
                 static_cast<unsigned>(port), s.ToString().c_str());
    return 1;
  }

  if (command == "ping" && args.empty()) {
    s = client.Ping();
    if (s.ok()) std::printf("PONG\n");
  } else if (command == "get" && args.size() == 1) {
    std::string value;
    s = client.Get(args[0], &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
  } else if (command == "put" && args.size() == 2) {
    s = client.Put(args[0], args[1]);
    if (s.ok()) std::printf("OK\n");
  } else if (command == "del" && args.size() == 1) {
    s = client.Delete(args[0]);
    if (s.ok()) std::printf("OK\n");
  } else if (command == "scan" && args.size() == 2) {
    std::vector<std::pair<std::string, std::string>> entries;
    s = client.Scan(args[0],
                    static_cast<size_t>(std::atoll(args[1].c_str())),
                    &entries);
    if (s.ok()) {
      for (const auto& [key, value] : entries) {
        std::printf("%s\t%s\n", key.c_str(), value.c_str());
      }
      std::printf("(%zu entries)\n", entries.size());
    }
  } else if (command == "metrics" && args.empty()) {
    std::string text;
    s = client.Metrics(&text);
    if (s.ok()) std::printf("%s", text.c_str());
  } else {
    Usage(argv[0]);
    return 2;
  }

  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", command.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}
