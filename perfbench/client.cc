// perfbench_client: the benchmark's load generator.
//
// Plays a script of request lines against a running dpjoin_serve over one
// TCP connection, one request at a time, and records for every request when
// it was written and when the last byte of its response arrived. It never
// parses a response inside the timed interval: the clock stops when the
// response's '\n' is read, and the raw line is kept for the checks made
// after the run.
//
//   perfbench_client --port=N --script=FILE --out=FILE [--until-timed]
//
// Script format (tab-separated, one record per line):
//
//   phase <name> <duration_us> <timed 0|1>
//   req <request line>
//
// A `req` belongs to the phase above it. A phase stops sending new requests
// after <duration_us> (0 = run every request). `$REL{name}` inside a request
// line is replaced, when the request is written, by the release id of the
// last release response named `name`. `--until-timed` stops before the
// first timed phase (a set-up measurement).
//
// Output: `phase <name> <start_ns> <end_ns> <cpu_us>` per phase, then
// `rec <phase> <request> <send_ns> <done_ns> <response line>` per answered
// request (<request> indexes the phase's `req` lines), all times
// CLOCK_MONOTONIC nanoseconds.
//
// The client uses only POSIX sockets so that it does not change when the
// code it measures changes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t CpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (static_cast<int64_t>(usage.ru_utime.tv_sec) +
          usage.ru_stime.tv_sec) * 1000000 +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

struct Phase {
  std::string name;
  int64_t duration_us = 0;
  bool timed = false;
  std::vector<std::string> requests;
};

struct Record {
  size_t index = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  std::string response;
};

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_client: " << message << "\n";
  std::exit(1);
}

std::vector<std::string> SplitTabs(const std::string& line, size_t max_parts) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (parts.size() + 1 < max_parts) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) break;
    parts.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  parts.push_back(line.substr(start));
  return parts;
}

std::vector<Phase> ReadScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read script " + path);
  std::vector<Phase> phases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.compare(0, 6, "phase\t") == 0) {
      const std::vector<std::string> f = SplitTabs(line, 4);
      if (f.size() != 4) Die("bad phase line: " + line);
      Phase phase;
      phase.name = f[1];
      phase.duration_us = std::stoll(f[2]);
      phase.timed = f[3] == "1";
      phases.push_back(std::move(phase));
    } else if (line.compare(0, 4, "req\t") == 0) {
      if (phases.empty()) Die("req before any phase");
      phases.back().requests.push_back(line.substr(4));
    } else {
      Die("bad script line: " + line);
    }
  }
  return phases;
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("cannot connect to port " + std::to_string(port));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// The string value of `"key": "<value>"` in a flat JSON line, tolerant of
// whitespace; empty when absent.
std::string StringField(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  for (size_t at = json.find(quoted); at != std::string::npos;
       at = json.find(quoted, at + 1)) {
    size_t pos = at + quoted.size();
    while (pos < json.size() && json[pos] == ' ') ++pos;
    if (pos >= json.size() || json[pos] != ':') continue;  // a value
    ++pos;
    while (pos < json.size() && json[pos] == ' ') ++pos;
    if (pos >= json.size() || json[pos] != '"') return "";
    const size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) return "";
    return json.substr(pos + 1, end - pos - 1);
  }
  return "";
}

class Runner {
 public:
  explicit Runner(int port) : fd_(Connect(port)) {}
  ~Runner() { close(fd_); }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  // Runs one phase; returns its records in request order (requests a
  // phase's duration cut are not sent).
  std::vector<Record> Run(const Phase& phase, int64_t* start_ns,
                          int64_t* end_ns) {
    std::vector<Record> records;
    const int64_t start = NowNs();
    *start_ns = start;
    const int64_t deadline =
        phase.duration_us > 0 ? start + phase.duration_us * 1000 : INT64_MAX;
    for (size_t i = 0; i < phase.requests.size() && NowNs() < deadline; ++i) {
      const std::string line = Substitute(phase.requests[i]) + '\n';
      Record record;
      record.index = i;
      record.send_ns = NowNs();
      WriteAll(line);
      ReadLine(&record.response);
      record.done_ns = NowNs();
      // Learn release ids only after the clock has stopped.
      Learn(record.response);
      records.push_back(std::move(record));
    }
    *end_ns = NowNs();
    return records;
  }

 private:
  std::string Substitute(std::string line) const {
    for (size_t pos = line.find("$REL{"); pos != std::string::npos;
         pos = line.find("$REL{", pos)) {
      const size_t end = line.find('}', pos);
      if (end == std::string::npos) Die("unterminated $REL{ in script");
      const std::string name = line.substr(pos + 5, end - pos - 5);
      const auto it = release_ids_.find(name);
      if (it == release_ids_.end()) {
        Die("script refers to unknown release " + name);
      }
      line.replace(pos, end - pos + 1, it->second);
      pos += it->second.size();
    }
    return line;
  }

  void WriteAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = write(fd_, data.data() + off, data.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Die("write to server failed");
      }
    }
  }

  // Reads up to the next '\n'; bytes after it stay buffered.
  void ReadLine(std::string* line) {
    size_t scan = 0;
    while (true) {
      const size_t nl = in_.find('\n', scan);
      if (nl != std::string::npos) {
        line->assign(in_, 0, nl);
        in_.erase(0, nl + 1);
        return;
      }
      scan = in_.size();
      char buffer[1 << 16];
      const ssize_t n = read(fd_, buffer, sizeof(buffer));
      if (n == 0) Die("server closed the connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        Die("read from server failed");
      }
      in_.append(buffer, static_cast<size_t>(n));
    }
  }

  // Records the id of a release response so a later `$REL{name}` can name
  // it.
  void Learn(const std::string& response) {
    if (StringField(response, "cmd") != "release") return;
    const std::string id = StringField(response, "release");
    const std::string name = StringField(response, "name");
    if (!id.empty() && !name.empty()) release_ids_[name] = id;
  }

  const int fd_;
  std::string in_;
  std::map<std::string, std::string> release_ids_;
};

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  std::string script_path, out_path;
  bool until_timed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      port = std::stoi(arg.substr(7));
    } else if (arg.rfind("--script=", 0) == 0) {
      script_path = arg.substr(9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--until-timed") {
      until_timed = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (port <= 0 || script_path.empty() || out_path.empty()) {
    Die("usage: perfbench_client --port=N --script=FILE --out=FILE "
        "[--until-timed]");
  }

  const std::vector<Phase> phases = ReadScript(script_path);
  Runner runner(port);

  std::ofstream out(out_path);
  if (!out) Die("cannot write " + out_path);
  for (size_t p = 0; p < phases.size(); ++p) {
    if (until_timed && phases[p].timed) break;
    int64_t start_ns = 0, end_ns = 0;
    const int64_t cpu_before = CpuUs();
    std::vector<Record> records = runner.Run(phases[p], &start_ns, &end_ns);
    out << "phase\t" << phases[p].name << '\t' << start_ns << '\t' << end_ns
        << '\t' << (CpuUs() - cpu_before) << '\n';
    for (const Record& record : records) {
      out << "rec\t" << p << '\t' << record.index << '\t' << record.send_ns
          << '\t' << record.done_ns << '\t' << record.response << '\n';
    }
  }
  out.close();
  if (!out) Die("short write to " + out_path);
  return 0;
}
