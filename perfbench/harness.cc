#include "harness.hh"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "kernel.hh"
#include "nn/gemm_int8.hh"

namespace adbench {

void
Result::metric(const std::string& name, double value,
               const std::string& unit, int speed)
{
    for (const auto& m : metrics_)
        if (m.name == name)
            ad::fatal("adbench: metric '", name, "' recorded twice");
    metrics_.push_back({name, value, unit, speed});
}

double
Result::value(const std::string& name) const
{
    for (const auto& m : metrics_)
        if (m.name == name)
            return m.value;
    ad::fatal("adbench: no metric '", name, "'");
}

int
Result::speed(const std::string& name) const
{
    for (const auto& m : metrics_)
        if (m.name == name)
            return m.speed;
    return 0;
}

bool
Result::has(const std::string& name) const
{
    for (const auto& m : metrics_)
        if (m.name == name)
            return true;
    return false;
}

std::vector<std::string>
Result::names() const
{
    std::vector<std::string> out;
    for (const auto& m : metrics_)
        out.push_back(m.name);
    return out;
}

bool
Result::check(bool ok, const std::string& what)
{
    if (!ok)
        failedChecks_.push_back(what);
    return ok;
}

void
Result::note(const std::string& line)
{
    notes_.push_back(line);
}

std::string
Result::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto& m = metrics_[i];
        os << (i ? ", " : "") << quoted(m.name)
           << ": {\"value\": " << num(m.value)
           << ", \"unit\": " << quoted(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

void
SpeedProbe::sample(int n)
{
    const double t0 = nowMs();
    for (int i = 0; i < n; ++i)
        ms_.push_back(referenceKernelMs());
    lastMs_ = nowMs();
    spentMs_ += lastMs_ - t0;
}

void
SpeedProbe::sampleIfDue()
{
    if (nowMs() - lastMs_ >= kPeriodMs)
        sample();
}

double
SpeedProbe::medianMs() const
{
    return ms_.empty() ? kReferenceMs : median(ms_);
}

double
SpeedProbe::recentScale() const
{
    if (ms_.empty())
        return 1.0;
    const std::size_t n = std::min(kRecent, ms_.size());
    return kReferenceMs /
           median(std::vector<double>(ms_.end() - static_cast<long>(n),
                                      ms_.end()));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

Tail
tailOf(std::vector<double> v, double maxPercentile)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (p > maxPercentile)
            continue;
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * n - 1e-9));
        const std::size_t idx = rank == 0 ? 0 : rank - 1;
        const std::size_t beyond = v.size() - idx - 1;
        if (beyond >= 10) {
            t.valueMs = v[idx];
            t.percentile = p;
            t.beyond = beyond;
            return t;
        }
    }
    t.valueMs = v.back();
    return t;
}

void
noteTail(Result& res, const Tail& t, double wanted, const std::string& what)
{
    std::string line = "tail: p" + num(t.percentile) + " of " +
                       std::to_string(t.samples) + " " + what + " (" +
                       std::to_string(t.beyond) + " beyond)";
    if (t.percentile != wanted)
        line += "; too few " + what + " for p" + num(wanted) +
                ", so latency_tail_ms is the lower percentile";
    res.note(line);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
processCpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& t) {
        return t.tv_sec * 1e3 + t.tv_usec / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double
nowMs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

void
Digest::addBytes(const void* p, std::size_t n)
{
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ull;
    }
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

} // namespace

std::string
hostFingerprint(const Args& args)
{
    const char* forced = std::getenv("AD_FORCE_ISA");
    std::ostringstream os;
    os << "{\"cpu_model\": " << quoted(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"int8_tier\": " << quoted(ad::nn::int8KernelIsa())
       << ", \"ad_force_isa\": " << quoted(forced ? forced : "")
       << ", \"compiler\": " << quoted(ADBENCH_COMPILER)
       << ", \"flags\": " << quoted(ADBENCH_FLAGS)
       << ", \"build_type\": " << quoted(ADBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << quoted(args.gitSha)
       << ", \"src_digest\": " << quoted(args.srcDigest)
       << ", \"workload\": " << quoted(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"seconds\": " << num(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
    return os.str();
}

bool
writeFile(const std::string& path, const std::string& text)
{
    const auto slash = path.rfind('/');
    if (slash != std::string::npos)
        ::mkdir(path.substr(0, slash).c_str(), 0755);
    std::ofstream out(path);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace adbench
