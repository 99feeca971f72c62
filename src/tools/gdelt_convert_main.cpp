// gdelt_convert: the preprocessing tool. Converts raw GDELT chunk archives
// into the indexed binary database the query engine loads.
//
// Usage: gdelt_convert --in <raw dir> --out <binary dir> [--no-verify]
//                      [--resume] [--quarantine-dir <dir>] [--retries <n>]
#include <cstdio>

#include "convert/converter.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace gdelt;

int main(int argc, char** argv) {
  ArgParser args(
      "Converts a raw GDELT 2.0 dataset (masterfilelist.txt + chunk "
      "archives) into the binary column-store database, cleaning and "
      "validating along the way (cf. paper Table II).");
  args.AddString("in", "gdelt_raw", "input directory with masterfilelist.txt");
  args.AddString("out", "gdelt_db", "output directory for binary tables");
  args.AddBool("no-verify", false, "skip archive checksum verification");
  args.AddBool("resume", false,
               "skip archives journaled by an interrupted earlier run");
  args.AddString("quarantine-dir", "",
                 "copy persistently corrupt archives here for diagnosis");
  args.AddInt("retries", 3, "fetch attempts per archive (>= 1)");
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

  convert::ConvertOptions options;
  options.input_dir = args.GetString("in");
  options.output_dir = args.GetString("out");
  options.verify_archive_checksums = !args.GetBool("no-verify");
  options.resume = args.GetBool("resume");
  options.fetch.quarantine_dir = args.GetString("quarantine-dir");
  const std::int64_t retries = args.GetInt("retries");
  if (retries < 1) {
    std::fprintf(stderr, "--retries must be >= 1\n");
    return 2;
  }
  options.fetch.max_attempts = static_cast<std::uint32_t>(retries);

  WallTimer timer;
  const auto report = convert::ConvertDataset(options);
  if (!report.ok()) {
    std::fprintf(stderr, "conversion failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\nconversion took %.2fs\n", report->ToText().c_str(),
              timer.ElapsedSeconds());
  return 0;
}
