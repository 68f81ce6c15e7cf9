#include "sim/checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/obs.hh"
#include "sim/runner.hh"
#include "sim/runtime_options.hh"
#include "sim/simulator.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/once_map.hh"
#include "util/serialize.hh"

namespace hp
{

namespace
{

/** Eight-byte magic leading every checkpoint file image. */
constexpr char kMagic[8] = {'H', 'P', 'C', 'K', 'P', 'T', '0', '\n'};

/**
 * Removes a checkpoint file that failed validation. The file name is
 * derived from the hash of the blob's key, so a blob that fails the
 * version or key check under its own name can never load again —
 * leaving it would just re-fail (and leak disk) on every future run.
 */
void
evictStaleCheckpoint(const std::string &path, std::string *error)
{
    std::error_code ec;
    if (std::filesystem::remove(path, ec) && !ec) {
        if (error)
            *error += "; evicted stale checkpoint file";
    }
}

/** The header checksum: the key's hash seeds the payload's, so a
 *  flipped bit anywhere after the header fails decode. */
std::uint64_t
checksum(const void *key, std::uint64_t key_size, const void *payload,
         std::uint64_t payload_size)
{
    return hashBytes(payload, payload_size, hashBytes(key, key_size));
}

std::string
hexHash(std::uint64_t hash)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[hash & 0xf];
        hash >>= 4;
    }
    return out;
}

/** "<prefix>-<hash of key>.ckpt": the HP_CKPT_DIR file of a blob. */
std::string
blobFileName(const std::string &prefix, const std::string &key)
{
    return prefix + "-" + hexHash(hashBytes(key.data(), key.size())) +
           ".ckpt";
}

/**
 * The miss-attribution mode's part of a blob's identity. The
 * hierarchy serializes its attribution tracker only when attribution
 * is on (the process-wide obs::config()), so a blob captured in one
 * mode must never be restored in the other.
 */
const char *
attributionMark()
{
    return obs::config().attributionEnabled() ? "|attribution=1"
                                              : "|attribution=0";
}

/**
 * The warming mode's part of a blob's identity: a sampled run warms
 * functionally (Simulator::runWarmup), an exact one in detail, so one
 * warmupConfig() reaches two different warmed states.
 */
const char *
warmingMark(bool functional)
{
    return functional ? "|warming=functional" : "|warming=detailed";
}

} // namespace

SimConfig
warmupConfig(const SimConfig &config)
{
    SimConfig w = measurementConfig(config);
    // Read only at or after the warmup boundary: measureInsts enters
    // the loop bound (the boundary is reached the moment committed_
    // crosses warmupInsts regardless of the total), and
    // longRangePercentile is read by beginMeasurement().
    w.measureInsts = SimConfig{}.measureInsts;
    w.longRangePercentile = SimConfig{}.longRangePercentile;
    // The sampling parameters slice the measurement phase only;
    // whether the run samples at all decides its warming mode, which
    // the checkpoint key carries (warmingMark).
    w.sample = SampleConfig{};
    return w;
}

Checkpoint
Checkpoint::capture(Simulator &sim, std::string warmup_key)
{
    StateWriter writer;
    sim.serializeState(writer);
    return Checkpoint(std::move(warmup_key), writer.take());
}

bool
Checkpoint::restoreInto(Simulator &sim, std::string *error) const
{
    StateLoader loader(payload_.data(), payload_.size());
    sim.serializeState(loader);
    if (loader.failed()) {
        if (error) {
            *error = loader.failReason()
                ? std::string("checkpoint state rejected: ") +
                      loader.failReason()
                : std::string("checkpoint payload truncated");
        }
        return false;
    }
    if (loader.remaining() != 0) {
        if (error)
            *error = "checkpoint payload has trailing bytes "
                     "(config/state mismatch)";
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
Checkpoint::encode() const
{
    // The header's fields keep their full width under every format, so
    // any build can read a blob's version.
    std::vector<std::uint8_t> image;
    auto append = [&image](const void *data, std::size_t n) {
        const auto *bytes = static_cast<const std::uint8_t *>(data);
        image.insert(image.end(), bytes, bytes + n);
    };
    const std::uint32_t version = kCheckpointFormatVersion;
    const std::uint64_t key_size = warmupKey_.size();
    const std::uint64_t payload_size = payload_.size();
    const std::uint64_t sum = checksum(warmupKey_.data(), key_size,
                                       payload_.data(), payload_size);
    image.reserve(sizeof(kMagic) + sizeof(version) + 3 * sizeof(sum) +
                  key_size + payload_size);
    append(kMagic, sizeof(kMagic));
    append(&version, sizeof(version));
    append(&key_size, sizeof(key_size));
    append(&payload_size, sizeof(payload_size));
    append(&sum, sizeof(sum));
    append(warmupKey_.data(), key_size);
    append(payload_.data(), payload_size);
    return image;
}

std::shared_ptr<const Checkpoint>
Checkpoint::decode(const std::vector<std::uint8_t> &bytes,
                   std::string *error)
{
    auto reject = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return nullptr;
    };
    StateLoader loader(bytes.data(), bytes.size());
    char magic[sizeof(kMagic)] = {};
    loader.bytes(magic, sizeof(magic));
    if (loader.failed() ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return reject("not a checkpoint blob (bad magic)");

    std::uint32_t version = 0;
    loader.bytes(&version, sizeof(version));
    if (loader.failed() || version != kCheckpointFormatVersion)
        return reject("checkpoint format version " +
                      std::to_string(version) + ", this build expects " +
                      std::to_string(kCheckpointFormatVersion));

    std::uint64_t key_size = 0, payload_size = 0, sum = 0;
    loader.bytes(&key_size, sizeof(key_size));
    loader.bytes(&payload_size, sizeof(payload_size));
    loader.bytes(&sum, sizeof(sum));
    const std::uint64_t body = loader.remaining();
    if (loader.failed() || key_size > body ||
        payload_size != body - key_size)
        return reject("checkpoint length mismatch (truncated blob)");

    const std::uint8_t *key = bytes.data() + (bytes.size() - body);
    const std::uint8_t *payload = key + key_size;
    if (checksum(key, key_size, payload, payload_size) != sum)
        return reject("checkpoint checksum mismatch (corrupt blob)");
    return std::make_shared<const Checkpoint>(
        std::string(reinterpret_cast<const char *>(key), key_size),
        std::vector<std::uint8_t>(payload, payload + payload_size));
}

std::string
checkpointDir()
{
    const char *dir = runtimeEnv("HP_CKPT_DIR");
    return dir ? std::string(dir) : std::string();
}

bool
saveCheckpointFile(const std::string &dir,
                   const std::string &file_name, const Checkpoint &ckpt)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);

    const fs::path target = fs::path(dir) / file_name;
    // Unique temp name per process so concurrent sweeps can't observe
    // (or clobber) a half-written file; rename is atomic within dir.
    const fs::path tmp =
        target.string() + ".tmp." + hexHash(std::uint64_t(
            reinterpret_cast<std::uintptr_t>(&ckpt)));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        const std::vector<std::uint8_t> image = ckpt.encode();
        out.write(reinterpret_cast<const char *>(image.data()),
                  std::streamsize(image.size()));
        if (!out) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::shared_ptr<const Checkpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expected_key, std::string *error)
{
    // One block read: a sampled warm run loads K ~0.5 MB blobs per leg,
    // where byte-wise istreambuf iteration costs milliseconds each.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return nullptr;
    }
    const std::streamsize size = in.tellg();
    std::vector<std::uint8_t> bytes(
        size > 0 ? std::size_t(size) : 0);
    in.seekg(0);
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()),
                 std::streamsize(bytes.size()))) {
        if (error)
            *error = "short read from " + path;
        return nullptr;
    }
    std::shared_ptr<const Checkpoint> ckpt =
        Checkpoint::decode(bytes, error);
    if (!ckpt) {
        // A blob we can open but not decode (bad magic, stale format
        // version, truncation, checksum mismatch) will never become
        // loadable; evict it so HP_CKPT_DIR does not accumulate dead
        // files across versions.
        evictStaleCheckpoint(path, error);
        return nullptr;
    }
    if (ckpt->warmupKey() != expected_key) {
        if (error)
            *error = path + " was produced by a different warmup "
                            "config (key mismatch)";
        evictStaleCheckpoint(path, error);
        return nullptr;
    }
    return ckpt;
}

std::string
intervalCheckpointKey(const SimConfig &measurement_config,
                      std::uint64_t start_inst,
                      std::uint64_t warm_insts)
{
    // The "w" marks the detailed-warmup length baked into the state.
    // Interval forks exist only in sampled runs, which warm
    // functionally.
    return ExperimentRunner::configKey(measurement_config) +
           attributionMark() + warmingMark(true) + "|iv@" +
           std::to_string(start_inst) + "w" + std::to_string(warm_insts);
}

std::string
intervalCheckpointFileName(const SimConfig &measurement_config,
                           std::uint64_t start_inst,
                           std::uint64_t warm_insts)
{
    return blobFileName(
        measurement_config.workload + "-iv",
        intervalCheckpointKey(measurement_config, start_inst, warm_insts));
}

std::shared_ptr<const Checkpoint>
acquireWarmedCheckpoint(const SimConfig &config,
                        std::unique_ptr<Simulator> *producer)
{
    static OnceMap<std::string, std::shared_ptr<const Checkpoint>> classes;
    const SimConfig wcfg = warmupConfig(config);
    const std::string key = ExperimentRunner::configKey(wcfg) +
                            attributionMark() +
                            warmingMark(warmsFunctionally(config));
    return classes.get(key, [&] {
        // Cross-process reuse: a prior run may have spilled this class.
        const std::string dir = checkpointDir();
        const std::string file = blobFileName(wcfg.workload, key);
        if (!dir.empty()) {
            std::string error;
            if (auto ckpt = loadCheckpointFile(
                    (std::filesystem::path(dir) / file).string(), key,
                    &error))
                return ckpt;
        }
        auto sim = std::make_unique<Simulator>(config);
        sim->runWarmup();
        auto ckpt = std::make_shared<const Checkpoint>(
            Checkpoint::capture(*sim, key));
        if (!dir.empty())
            saveCheckpointFile(dir, file, *ckpt);
        if (producer)
            *producer = std::move(sim);
        return ckpt;
    });
}

SimMetrics
runCheckpointed(const SimConfig &config)
{
    // Without warmup there is no boundary to share: a zero-length
    // warmup steps a cycle only when the run measures anything, so
    // warmupConfig() would merge two different states.
    if (config.warmupInsts == 0)
        return Simulator(config).run();
    // The producer of the class checkpoint continues the simulator it
    // warmed, paying no restore.
    std::unique_ptr<Simulator> warmed;
    const std::shared_ptr<const Checkpoint> ckpt =
        acquireWarmedCheckpoint(config, &warmed);
    if (warmed)
        return warmed->finishRun();
    Simulator sim(config);
    std::string error;
    if (ckpt->restoreInto(sim, &error))
        return sim.finishRun();
    // A blob that decodes but does not restore never will: evict it,
    // as loadCheckpointFile does one that fails to decode, so the next
    // process warms the class and spills a fresh blob.
    if (const std::string dir = checkpointDir(); !dir.empty()) {
        evictStaleCheckpoint(
            (std::filesystem::path(dir) /
             blobFileName(warmupConfig(config).workload, ckpt->warmupKey()))
                .string(),
            &error);
    }
    HP_WARN_LIMIT(8, "checkpoint restore failed (" + error +
                         "); running cold");
    return Simulator(config).run();
}

} // namespace hp
