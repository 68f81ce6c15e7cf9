/**
 * @file
 * Checkpoint blob format tests: golden-file stability, save → restore
 * → save byte-identity, and rejection (never UB, never a throw) of
 * malformed, corrupted, version-mismatched, or foreign-keyed blobs.
 *
 * The golden blob tests/golden/warmup_small.ckpt is checked in. When
 * an intentional format change bumps kCheckpointFormatVersion,
 * regenerate it with:
 *     HP_CKPT_GOLDEN_REGEN=1 ./checkpoint_test \
 *         --gtest_filter='*Golden*'
 * and commit the new blob together with the version bump.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

#ifndef HP_GOLDEN_DIR
#define HP_GOLDEN_DIR "tests/golden"
#endif

namespace hp
{
namespace
{

/**
 * The golden config: deliberately tiny structures and a short warmup
 * so the checked-in blob stays small (~100 KB, dominated by the
 * fixed-size TAGE/ITTAGE tables) while still exercising the
 * hierarchical prefetcher's compression/metadata path. The reuse
 * probe is excluded — its tree spans the binary's whole block
 * footprint (megabytes) and is covered by the replay tests instead.
 */
SimConfig
goldenConfig()
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 60'000;
    config.measureInsts = 100'000;
    config.prefetcher = PrefetcherKind::Hierarchical;
    config.hier.trackBundleStats = true;
    config.btbEntries = 512;
    config.mem.l1iBytes = 8 * 1024;
    config.mem.l2Bytes = 32 * 1024;
    config.mem.llcBytes = 64 * 1024;
    config.mem.itlbEntries = 16;
    config.hier.metadataBufferBytes = 16 * 1024;
    return config;
}

std::string
goldenPath()
{
    return std::string(HP_GOLDEN_DIR) + "/warmup_small.ckpt";
}

Checkpoint
captureGolden()
{
    Simulator sim(goldenConfig());
    sim.runWarmup();
    return Checkpoint::capture(
        sim, ExperimentRunner::configKey(warmupConfig(goldenConfig())));
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

TEST(CheckpointGoldenTest, GoldenBlobRestoresAndRoundTrips)
{
    if (std::getenv("HP_CKPT_GOLDEN_REGEN") != nullptr) {
        const std::vector<std::uint8_t> image = captureGolden().encode();
        std::ofstream out(goldenPath(), std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out.write(reinterpret_cast<const char *>(image.data()),
                  std::streamsize(image.size()));
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    const std::vector<std::uint8_t> on_disk = readFile(goldenPath());
    std::string error;
    std::shared_ptr<const Checkpoint> golden =
        Checkpoint::decode(on_disk, &error);
    ASSERT_NE(golden, nullptr) << error;

    // save → restore → save must be byte-identical: restore the blob
    // into a fresh simulator, capture again, and compare images.
    Simulator sim(goldenConfig());
    ASSERT_TRUE(golden->restoreInto(sim, &error)) << error;
    Checkpoint again = Checkpoint::capture(sim, golden->warmupKey());
    EXPECT_EQ(again.encode(), on_disk);
}

TEST(CheckpointGoldenTest, GoldenBlobMatchesCurrentEncoder)
{
    if (std::getenv("HP_CKPT_GOLDEN_REGEN") != nullptr)
        GTEST_SKIP() << "regeneration run";
    // A fresh warmup of the golden config must reproduce the checked-in
    // bytes exactly — any drift means the serialization layout changed
    // without a kCheckpointFormatVersion bump.
    EXPECT_EQ(captureGolden().encode(), readFile(goldenPath()));
}

TEST(CheckpointFormatTest, CountersAreNotInTheBlob)
{
    // A simulator that has finished a run takes the warm state from a
    // blob and keeps every counter it had (all but the paths that read
    // the two clocks, which are state: sim.cycles, and sim.committed
    // and sim.instructions). The two simulators then hold the same
    // state with different counters, and capture the same bytes.
    Simulator warm(goldenConfig());
    warm.runWarmup();
    const Checkpoint ckpt = Checkpoint::capture(warm, "k");

    Simulator used(goldenConfig());
    (void)used.run();
    const StatsSnapshot before = used.stats().snapshot();
    std::string error;
    ASSERT_TRUE(ckpt.restoreInto(used, &error)) << error;

    const StatsSnapshot after = used.stats().snapshot();
    const StatsSnapshot warm_stats = warm.stats().snapshot();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        const auto &[path, value] = after.entries()[i];
        if (path == "sim.cycles" || path == "sim.committed" ||
            path == "sim.instructions") {
            EXPECT_EQ(value, warm_stats.entries()[i].second) << path;
        } else {
            EXPECT_EQ(value, before.entries()[i].second)
                << "the restore moved counter " << path;
        }
    }
    for (const char *path : {"l1i.demand_accesses", "btb.lookups",
                             "hier.bundles_started"})
        EXPECT_NE(after.value(path), warm_stats.value(path)) << path;
    EXPECT_EQ(Checkpoint::capture(used, "k").payload(), ckpt.payload());
}

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip)
{
    Checkpoint ckpt("some-key", {1, 2, 3, 250, 251, 252});
    std::string error;
    std::shared_ptr<const Checkpoint> back =
        Checkpoint::decode(ckpt.encode(), &error);
    ASSERT_NE(back, nullptr) << error;
    EXPECT_EQ(back->warmupKey(), "some-key");
    EXPECT_EQ(back->payload(), ckpt.payload());
}

TEST(CheckpointFormatTest, RejectsBadMagic)
{
    std::vector<std::uint8_t> image = Checkpoint("k", {7}).encode();
    image[0] ^= 0xff;
    std::string error;
    EXPECT_EQ(Checkpoint::decode(image, &error), nullptr);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(CheckpointFormatTest, RejectsVersionMismatchWithClearError)
{
    std::vector<std::uint8_t> image = Checkpoint("k", {7}).encode();
    image[8] = std::uint8_t(kCheckpointFormatVersion + 1); // version LSB
    std::string error;
    EXPECT_EQ(Checkpoint::decode(image, &error), nullptr);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    EXPECT_NE(error.find(std::to_string(kCheckpointFormatVersion + 1)),
              std::string::npos)
        << error;
}

TEST(CheckpointFormatTest, RejectsAFormat4BlobByItsVersion)
{
    // The header keeps its fixed-width fields in every format, so a
    // blob of the previous format is named by its version, not
    // misread as varints.
    std::vector<std::uint8_t> image = Checkpoint("k", {7}).encode();
    const std::uint32_t four = 4;
    std::memcpy(&image[8], &four, sizeof(four));
    std::string error;
    EXPECT_EQ(Checkpoint::decode(image, &error), nullptr);
    EXPECT_EQ(error, "checkpoint format version 4, this build expects " +
                         std::to_string(kCheckpointFormatVersion));
}

TEST(CheckpointFormatTest, RejectsTruncation)
{
    const std::vector<std::uint8_t> image =
        Checkpoint("key", {1, 2, 3, 4}).encode();
    // Every proper prefix must be rejected, never misread.
    for (std::size_t n = 0; n < image.size(); ++n) {
        std::vector<std::uint8_t> cut(image.begin(), image.begin() + n);
        std::string error;
        EXPECT_EQ(Checkpoint::decode(cut, &error), nullptr)
            << "prefix of " << n << " bytes decoded";
        EXPECT_FALSE(error.empty());
    }
}

TEST(CheckpointFormatTest, RejectsEveryBitFlipAndTruncationOfTheGolden)
{
    // The header checksum covers the key and the payload, and every
    // length must match the image: a flipped bit or a cut anywhere in
    // a real blob decodes to null with a diagnostic, never a throw.
    std::vector<std::uint8_t> image = readFile(goldenPath());
    std::string error;
    ASSERT_NE(Checkpoint::decode(image, &error), nullptr) << error;

    // Every bit of the first 64 bytes (the header and the key's
    // start), then a stride of 45 bytes + 1 bit, which walks every
    // bit position in turn.
    auto expectRejected = [](const std::vector<std::uint8_t> &bytes,
                             const std::string &what) {
        std::string why;
        std::shared_ptr<const Checkpoint> back;
        EXPECT_NO_THROW(back = Checkpoint::decode(bytes, &why)) << what;
        EXPECT_EQ(back, nullptr) << what;
        EXPECT_FALSE(why.empty()) << what;
    };
    const std::size_t bits = image.size() * 8;
    for (std::size_t bit = 0; bit < bits; bit += bit < 512 ? 1 : 361) {
        const std::uint8_t mask = std::uint8_t(1u << (bit % 8));
        image[bit / 8] ^= mask;
        expectRejected(image, "bit " + std::to_string(bit) + " flipped");
        image[bit / 8] ^= mask;
    }
    for (std::size_t n = 0; n < image.size(); n += n < 64 ? 1 : 97) {
        expectRejected(std::vector<std::uint8_t>(image.begin(),
                                                 image.begin() + n),
                       "cut at " + std::to_string(n));
    }
}

TEST(CheckpointFormatTest, RejectsTrailingGarbage)
{
    std::vector<std::uint8_t> image = Checkpoint("k", {7}).encode();
    image.push_back(0);
    std::string error;
    EXPECT_EQ(Checkpoint::decode(image, &error), nullptr);
}

TEST(CheckpointFormatTest, RestoreRejectsPayloadForOtherConfig)
{
    // A payload captured under one config must not silently restore
    // into a simulator with a different shape.
    SimConfig small = goldenConfig();
    SimConfig big = small;
    big.mem.l1iBytes *= 4;

    Simulator warm(small);
    warm.runWarmup();
    Checkpoint ckpt = Checkpoint::capture(warm, "k");

    Simulator other(big);
    std::string error;
    EXPECT_FALSE(ckpt.restoreInto(other, &error));
    EXPECT_FALSE(error.empty());
}

TEST(CheckpointFileTest, SaveLoadRoundTripAndKeyCheck)
{
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string dir =
        (tmpdir ? std::string(tmpdir) : "/tmp") + "/hp_ckpt_test";
    Checkpoint ckpt("right-key", {9, 8, 7});
    ASSERT_TRUE(saveCheckpointFile(dir, "t.ckpt", ckpt));

    std::string error;
    std::shared_ptr<const Checkpoint> loaded =
        loadCheckpointFile(dir + "/t.ckpt", "right-key", &error);
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(loaded->payload(), ckpt.payload());

    EXPECT_EQ(loadCheckpointFile(dir + "/t.ckpt", "wrong-key", &error),
              nullptr);
    EXPECT_NE(error.find("key mismatch"), std::string::npos) << error;

    EXPECT_EQ(loadCheckpointFile(dir + "/absent.ckpt", "k", &error),
              nullptr);
}

TEST(CheckpointFileTest, StaleBlobsAreEvictedOnLoad)
{
    namespace fs = std::filesystem;
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string dir =
        (tmpdir ? std::string(tmpdir) : "/tmp") + "/hp_ckpt_evict_test";
    fs::create_directories(dir);
    std::string error;

    // Corrupt file (bad magic): rejected AND removed — under its
    // hash-derived name it could never load again, so leaving it
    // would re-fail and leak disk on every future run.
    const std::string corrupt = dir + "/corrupt.ckpt";
    {
        std::ofstream out(corrupt, std::ios::binary);
        out << "this is not a checkpoint";
    }
    EXPECT_EQ(loadCheckpointFile(corrupt, "k", &error), nullptr);
    EXPECT_NE(error.find("evicted"), std::string::npos) << error;
    EXPECT_FALSE(fs::exists(corrupt));

    // Version-mismatched blob: also evicted.
    const std::string old = dir + "/old.ckpt";
    {
        Checkpoint ckpt("k", {1, 2, 3});
        std::vector<std::uint8_t> image = ckpt.encode();
        image[8] ^= 0xff; // flip a version byte behind the magic
        std::ofstream out(old, std::ios::binary);
        out.write(reinterpret_cast<const char *>(image.data()),
                  std::streamsize(image.size()));
    }
    EXPECT_EQ(loadCheckpointFile(old, "k", &error), nullptr);
    EXPECT_FALSE(fs::exists(old));

    // A payload bit flipped on disk: the checksum rejects it, and the
    // file is evicted like a stale one.
    const std::string flipped = dir + "/flipped.ckpt";
    {
        std::vector<std::uint8_t> image =
            Checkpoint("k", {1, 2, 3}).encode();
        image.back() ^= 0x10;
        std::ofstream out(flipped, std::ios::binary);
        out.write(reinterpret_cast<const char *>(image.data()),
                  std::streamsize(image.size()));
    }
    EXPECT_EQ(loadCheckpointFile(flipped, "k", &error), nullptr);
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    EXPECT_FALSE(fs::exists(flipped));

    // Key-mismatched blob (same format, different config): evicted,
    // since its name can only ever be probed with the same wrong key.
    const std::string foreign = dir + "/foreign.ckpt";
    {
        Checkpoint ckpt("other-key", {1, 2, 3});
        ASSERT_TRUE(saveCheckpointFile(dir, "foreign.ckpt", ckpt));
    }
    EXPECT_EQ(loadCheckpointFile(foreign, "k", &error), nullptr);
    EXPECT_FALSE(fs::exists(foreign));

    // A missing file is an error but never an eviction attempt crash.
    EXPECT_EQ(loadCheckpointFile(dir + "/absent.ckpt", "k", &error),
              nullptr);
}

} // namespace
} // namespace hp
