/**
 * @file
 * Warmup checkpointing: capture the complete post-warmup
 * microarchitectural state of a Simulator once per *warmup
 * equivalence class* and fork every matching measurement run from it
 * instead of re-simulating the warmup phase.
 *
 * Two configs belong to the same class when their warmupConfig() —
 * the config with every warmup-irrelevant field pinned to a fixed
 * value — has the same key, both warm the same way (a sampled run
 * functionally, an exact one in detail; see Simulator::runWarmup) and
 * the process runs in the same miss-attribution mode (the blob
 * carries the attribution tracker only when it is on). A OnceMap
 * (util/once_map.hh) keyed by that
 * identity warms each class once, the same way the runner's result
 * cache simulates each config once, so concurrent grid points block
 * on the one warmup instead of racing. With HP_CKPT_DIR set,
 * checkpoints are also spilled to disk and reused across processes
 * (see DESIGN.md §8 for the blob format).
 *
 * Correctness bar: a restored run must be bit-identical to a cold
 * run — enforced by tests/sim/checkpoint_replay_test and the
 * checkpoint_equivalence bench.
 */

#ifndef HP_SIM_CHECKPOINT_HH
#define HP_SIM_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"

namespace hp
{

class Simulator;

/**
 * Version of the checkpoint blob encoding. Bump whenever any
 * component's serializeState layout changes — a version mismatch
 * rejects the blob instead of misinterpreting it.
 */
constexpr std::uint32_t kCheckpointFormatVersion = 5;

/**
 * The warmup-equivalence twin of @p config: every field the warmup
 * phase never reads is pinned to a fixed value. Builds on
 * measurementConfig() (fields unread by the configured prefetcher)
 * and additionally pins measureInsts and longRangePercentile, which
 * are only read at or after the warmup boundary.
 */
SimConfig warmupConfig(const SimConfig &config);

/**
 * An immutable post-warmup state blob plus the warmup-config key that
 * produced it. The payload is the canonical StateWriter stream of
 * Simulator::serializeState at the warmup boundary.
 */
class Checkpoint
{
  public:
    Checkpoint(std::string warmup_key,
               std::vector<std::uint8_t> payload)
        : warmupKey_(std::move(warmup_key)), payload_(std::move(payload))
    {
    }

    /** Serializes @p sim (stopped at the warmup boundary). */
    static Checkpoint capture(Simulator &sim, std::string warmup_key);

    /**
     * Restores this checkpoint's state into a freshly constructed
     * @p sim. @return false (with @p error set) if the payload is
     * truncated or has trailing bytes; @p sim is then unusable.
     */
    bool restoreInto(Simulator &sim, std::string *error) const;

    /** Encodes the header (magic, version, key and payload lengths,
     *  checksum), the key and the payload into one file image. */
    std::vector<std::uint8_t> encode() const;

    /**
     * Validates and parses a file image. @return nullptr with
     * @p error set on bad magic, version mismatch, a length that
     * disagrees with the image, or a checksum mismatch. Never throws
     * on bad input.
     */
    static std::shared_ptr<const Checkpoint>
    decode(const std::vector<std::uint8_t> &bytes, std::string *error);

    const std::string &warmupKey() const { return warmupKey_; }
    const std::vector<std::uint8_t> &payload() const { return payload_; }

  private:
    std::string warmupKey_;
    std::vector<std::uint8_t> payload_;
};

/** HP_CKPT_DIR, or empty when disk spill is disabled. */
std::string checkpointDir();

/** Atomically (tmp + rename) writes @p ckpt under @p dir. */
bool saveCheckpointFile(const std::string &dir,
                        const std::string &file_name,
                        const Checkpoint &ckpt);

/**
 * Loads and validates a checkpoint file. @return nullptr (with
 * @p error set) when missing, malformed, version-mismatched, or
 * keyed for a different warmup config than @p expected_key.
 */
std::shared_ptr<const Checkpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expected_key, std::string *error);

/**
 * Key / file name for a *mid-stream interval fork* blob: the window
 * simulator state @p start_inst committed instructions past the
 * warmup boundary, reached by fast-forwarding to
 * (start_inst - warm_insts) and then running @p warm_insts detailed
 * (non-measuring) instructions — i.e. the state a measurement window
 * starts from, detailed warmup included, so a cache hit pays only the
 * window itself. Keyed by the measurement config (sample pinned off —
 * the instruction stream does not depend on where the windows fall)
 * plus both positions, the miss-attribution mode and the functional
 * warming mode, so every sampled run with the same config,
 * detail-warmup length and attribution mode, in any process, shares
 * the same fork blobs. Positions are relative to the boundary, never
 * absolute, so a blob can be
 * addressed without first restoring the warmup checkpoint. The file
 * name is "<workload>-iv-<hash of the key>.ckpt".
 */
std::string intervalCheckpointKey(const SimConfig &measurement_config,
                                  std::uint64_t start_inst,
                                  std::uint64_t warm_insts);
std::string
intervalCheckpointFileName(const SimConfig &measurement_config,
                           std::uint64_t start_inst,
                           std::uint64_t warm_insts);

/**
 * Runs @p config to completion, reusing (or creating) the shared
 * warmup checkpoint of its class; a config without warmup runs cold.
 * Results are bit-identical to Simulator(config).run(); a blob that
 * fails to restore falls back to a cold run rather than failing the
 * experiment.
 */
SimMetrics runCheckpointed(const SimConfig &config);

/**
 * The warmed checkpoint of @p config's warmup class. The first
 * requester of a class produces it: it loads the class's blob from
 * HP_CKPT_DIR, or warms a simulator, captures it and spills the blob
 * there as "<workload>-<hash of the key>.ckpt". The key is that of
 * warmupConfig() plus the miss-attribution and warming modes. This is
 * the re-fork anchor of sampled simulation: every measurement
 * interval restores a fresh Simulator from the returned immutable
 * blob, so interval replay is bit-identical regardless of
 * how many intervals run or on which threads. When this call warms a
 * simulator and @p producer is set, the warmed simulator is handed
 * over there. Never returns nullptr; a producer's exception reaches
 * every requester of the class.
 */
std::shared_ptr<const Checkpoint>
acquireWarmedCheckpoint(const SimConfig &config,
                        std::unique_ptr<Simulator> *producer = nullptr);

} // namespace hp

#endif // HP_SIM_CHECKPOINT_HH
