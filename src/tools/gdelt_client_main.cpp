// gdelt_client: sends requests to a running gdelt_serve daemon.
//
// One-shot:  gdelt_client --port 7450 --request '{"query":"stats"}'
// Batch:     printf '%s\n' '{"query":"stats"}' '{"query":"quarterly"}' |
//              gdelt_client --port 7450
//
// Responses are printed one JSON line each to stdout, in request order.
// Exit code is 0 only if every response had "ok":true.
#include <cstdio>
#include <iostream>
#include <string>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "util/args.hpp"

using namespace gdelt;

namespace {

/// Prints the response and reports whether it carried "ok":true.
bool PrintResponse(const std::string& line) {
  std::printf("%s\n", line.c_str());
  const auto parsed = serve::JsonValue::Parse(line);
  if (!parsed.ok()) return false;
  const auto* ok = parsed->Find("ok");
  return ok != nullptr && ok->AsBool();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Client for the gdelt_serve newline-delimited JSON API.");
  args.AddString("host", "127.0.0.1", "server address");
  args.AddInt("port", 7450, "server port");
  args.AddString("request", "",
                 "single request JSON line (default: batch from stdin)");
  args.AddInt("repeat", 1, "send the --request line this many times");
  args.AddBool("help", false, "print usage");
  if (const Status s = args.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 args.HelpText().c_str());
    return 2;
  }
  if (args.GetBool("help")) {
    std::printf("%s", args.HelpText().c_str());
    return 0;
  }

  auto client = serve::LineClient::Connect(args.GetString("host"),
                                           static_cast<int>(
                                               args.GetInt("port")));
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  bool all_ok = true;
  const auto send_one = [&](const std::string& request) {
    const auto response = client->RoundTrip(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      all_ok = false;
      return false;
    }
    all_ok = PrintResponse(*response) && all_ok;
    return true;
  };

  if (!args.GetString("request").empty()) {
    const auto repeat = args.GetInt("repeat");
    for (std::int64_t i = 0; i < repeat; ++i) {
      if (!send_one(args.GetString("request"))) return 1;
    }
    return all_ok ? 0 : 1;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!send_one(line)) return 1;
  }
  return all_ok ? 0 : 1;
}
