#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "workloads/profiles.hh"

#ifndef CCSIM_GIT_SHA
#define CCSIM_GIT_SHA "unknown"
#endif

namespace ccsim::bench {

namespace {

int
envInt(const char *name, int def)
{
    return static_cast<int>(
        sim::envU64(name, static_cast<std::uint64_t>(def)));
}

/**
 * Build-provenance object spliced into every captured record: the git
 * revision and compiler the binary came from, an FNV-1a hash over the
 * build identity (revision + compiler + NDEBUG) for cheap "same
 * build?" comparisons across trajectory rows, and the host's hardware
 * thread count (parallel sweep speedups are meaningless without it).
 */
std::string
provenanceJson()
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const char *s) {
        for (; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 1099511628211ull;
        }
    };
    mix(CCSIM_GIT_SHA);
    mix("|");
    mix(__VERSION__);
#ifdef NDEBUG
    mix("|ndebug");
#endif
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "\"prov\": {\"git_sha\": \"%s\", \"compiler\": \"%s\", "
                  "\"build_hash\": \"%016llx\", \"hw_threads\": %u}",
                  CCSIM_GIT_SHA, __VERSION__, (unsigned long long)h,
                  std::thread::hardware_concurrency());
    return buf;
}

} // namespace

std::vector<std::string>
singleWorkloads()
{
    return workloads::allProfileNames();
}

std::vector<int>
mainMixes()
{
    int n = envInt("CCSIM_MIXES", 20);
    std::vector<int> mixes;
    for (int i = 1; i <= n; ++i)
        mixes.push_back(i);
    return mixes;
}

std::vector<int>
sweepMixes()
{
    int n = envInt("CCSIM_SWEEP_MIXES", 5);
    std::vector<int> mixes;
    for (int i = 1; i <= n; ++i)
        mixes.push_back(i);
    return mixes;
}

std::uint64_t
rltlInsts()
{
    return static_cast<std::uint64_t>(envInt("CCSIM_RLTL_INSTS", 1000000));
}

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    sim::ExpScale s = sim::expScale();
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("scale: %llu insts/core, %llu warm-up (CCSIM_INSTS/CCSIM_WARMUP)\n",
                (unsigned long long)s.insts, (unsigned long long)s.warmup);
    std::printf("==============================================================\n");
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / values.size();
}

std::string
captureRecord(const std::function<void(std::FILE *)> &emit)
{
    char *buf = nullptr;
    std::size_t size = 0;
    std::FILE *mem = open_memstream(&buf, &size);
    if (!mem)
        return std::string();
    emit(mem);
    std::fclose(mem);
    std::string out(buf, size);
    std::free(buf);
    // Splice build provenance into the record's top-level object (the
    // emitters all end with "}" or "}\n"); non-JSON output passes
    // through untouched.
    std::size_t pos = out.find_last_of('}');
    if (pos != std::string::npos)
        out.insert(pos, ", " + provenanceJson());
    return out;
}

} // namespace ccsim::bench
