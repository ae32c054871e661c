#pragma once
/// \file checkpoint_manager.hpp
/// \brief FTI-like checkpoint/restart API (paper §4.2 workflow):
///        Protect() registers variables, Checkpoint() saves them,
///        Recover() restores them — with a pluggable compressor per
///        variable and CRC-32 integrity on every payload.
///
/// One write pipeline, in two shapes that share its serialization body:
///  - checkpoint() — the blocking case (CkptMode::kSync): the live variables
///    are serialized straight into a pending store version, which commits
///    before the call returns. No staging copy, no writer thread.
///  - stage() / wait_drain() / commit_version() / abort_version() — the
///    staged case (CkptMode::kAsync, kTiered): stage() memcpys the protected
///    variables into one of two staging slots and returns; a background
///    AsyncCheckpointWriter drains the slot through the same body into a
///    pending store version, which the caller later commits or rolls back.
///    The caller's wait_drain() lends its thread to the drain's compression.
///    A third stage() while both slots are busy blocks until a drain
///    finishes (double-buffer back-pressure, matching FTI semantics).
/// Both shapes produce byte-identical streams for identical values.

#include <array>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint_record.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/chunk/chunk_codec.hpp"
#include "ckpt/frame_stream.hpp"
#include "compress/compressor.hpp"
#include "obs/observability.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {

class AsyncCheckpointWriter;
class DrainBoard;

/// Whether checkpoints block for the full compress+write (kSync), only for
/// the staging copy with the drain in the background (kAsync), or go
/// through the multi-level hierarchy — staged L1 drain plus background
/// L1→L2→L3 promotion and severity-aware recovery (kTiered).
enum class CkptMode { kSync, kAsync, kTiered };

[[nodiscard]] const char* to_string(CkptMode m) noexcept;

/// Receipt of a stage(): identifies the in-flight version and what the
/// staging copy cost for real.
struct StageTicket {
  int version = -1;
  std::size_t raw_bytes = 0;   ///< Uncompressed bytes captured in the slot.
  double stage_seconds = 0.0;  ///< Real seconds spent on the staging memcpy.
};

/// Checkpoint manager in the style of FTI: variables are registered once
/// with Protect(), then Checkpoint()/Recover() move all of them at once.
///
/// Double-array variables go through the configured compressor (per-variable
/// override possible: the lossy scheme compresses only the solution vector,
/// while scalar/state blobs are stored verbatim).
class CheckpointManager {
 public:
  /// `default_compressor` applies to every protected vector without an
  /// override; not owned, may be mutated between checkpoints (adaptive
  /// error bounds) — but never while a drain is in flight.
  CheckpointManager(std::unique_ptr<CheckpointStore> store,
                    const Compressor* default_compressor);
  ~CheckpointManager();

  /// FTI Protect(): register a double-vector variable under a unique id.
  /// Passing a per-variable compressor overrides the default.
  void protect(int id, std::string name, Vector* data,
               const Compressor* compressor = nullptr);

  /// Protect with a split source/target: checkpoints read from `source`
  /// (e.g. the solver's live solution vector — no intermediate copy), while
  /// recover() restores into `restore_target`. Both must outlive the
  /// registration; they may alias. `source` must not mutate during a
  /// synchronous checkpoint() or a stage() call (the staging copy snapshots
  /// it; afterwards it is free to change).
  void protect(int id, std::string name, const Vector* source,
               Vector* restore_target, const Compressor* compressor = nullptr);

  /// Register an opaque byte blob (solver scalar state, app metadata).
  /// Blobs are stored verbatim (never lossy).
  void protect_blob(int id, std::string name, std::vector<byte_t>* data);

  /// Remove a registration.
  void unprotect(int id);

  /// Save all protected variables as a new checkpoint version
  /// (blocking: compress + write + commit before returning). On a codec or
  /// store error the pending version is dropped and the error rethrown.
  CheckpointRecord checkpoint();

  // ----- staged (asynchronous) pipeline ------------------------------------

  /// Copy all protected variables into a free staging slot and enqueue the
  /// background drain. Returns as soon as the copy is done; blocks only if
  /// both staging slots hold unfinished drains (back-pressure).
  StageTicket stage();

  /// Block until `version`'s drain (compression + pending store write) has
  /// finished and return its record. While the drain still has chunks left
  /// to compress, the calling thread compresses some of them instead of
  /// idling; the drain thread still writes the whole stream, in order.
  /// Idempotent until the version is committed or aborted. Rethrows any
  /// drain-side exception, including one raised on a chunk the caller
  /// compressed.
  CheckpointRecord wait_drain(int version);

  /// Promote a drained version to committed and prune per retention.
  void commit_version(int version);

  /// Roll back a staged/drained version (failure during the drain window):
  /// the pending store blob is dropped and recover() keeps using the last
  /// committed version.
  void abort_version(int version);

  /// Drains submitted but not yet committed/aborted.
  [[nodiscard]] int versions_in_flight() const noexcept {
    return static_cast<int>(staged_versions_.size());
  }

  // --------------------------------------------------------------------------

  /// Restore all protected variables from the latest committed checkpoint.
  /// Vectors are resized to the checkpointed length.
  CheckpointRecord recover();

  /// FTI Snapshot(): recover() if a restart is pending, else checkpoint().
  CheckpointRecord snapshot();

  /// Mark that the next snapshot() must recover (set after a failure).
  void request_recovery() noexcept { recovery_pending_ = true; }

  [[nodiscard]] bool has_checkpoint() const {
    return store_->latest_version() >= 0;
  }
  [[nodiscard]] int latest_version() const { return store_->latest_version(); }

  /// Discard a committed version (used when a failure interrupts the
  /// checkpoint write itself, so the torn file must not be recovered from).
  /// A discarded version can no longer serve as a delta base: the next
  /// checkpoint after a discard starts a fresh chain.
  void discard_version(int version);

  /// Keep at most `n` most recent versions (older ones deleted on write).
  void set_retention(int n) {
    require(n >= 1, "checkpoint manager: retention must be >= 1");
    retention_ = n;
  }

  /// Chunk size of the framed serializer: a compressed vector larger than
  /// `block_elems` doubles is stored as chunks of that many, each one codec
  /// payload, which a thread joining a staged drain can compress beside the
  /// drain (see DrainBoard). 0 stores every vector as one payload. Default
  /// 65,536 doubles (512 KiB per chunk). The chunk size is recorded in the
  /// stream, so this can change between runs. The legacy and delta formats
  /// ignore it. Must not change while a drain is in flight.
  void set_block_pipeline(std::size_t block_elems) noexcept {
    block_elems_ = block_elems;
  }

  /// Default chunk size of the delta (chunked) serializer, in doubles.
  static constexpr std::size_t kDefaultChunkElems = 4096;

  /// Configure chunked delta checkpointing. `max_delta_chain` = 0 (the
  /// default) keeps the legacy serializer, byte-identical to the
  /// pre-chunk format. With a positive value every checkpoint uses the
  /// content-addressed chunk format: chunks whose raw content is unchanged
  /// since the previous committed checkpoint are stored as references, and
  /// at most `max_delta_chain` consecutive deltas ride on one full
  /// checkpoint before the next full is forced (bounding both recovery
  /// read amplification and how long retention must keep chain bases).
  /// Retention pruning never drops a version that a live chain references.
  /// Delta chunks are compressed through the drain's DrainBoard like framed
  /// chunks, so a joining thread helps here too. Must not change while a
  /// drain is in flight.
  void set_delta(int max_delta_chain,
                 std::size_t chunk_elems = kDefaultChunkElems) {
    require(max_delta_chain >= 0,
            "checkpoint manager: max_delta_chain must be >= 0");
    require(chunk_elems >= 1,
            "checkpoint manager: delta chunk_elems must be >= 1");
    max_delta_chain_ = max_delta_chain;
    delta_chunk_elems_ = chunk_elems;
  }
  [[nodiscard]] int max_delta_chain() const noexcept {
    return max_delta_chain_;
  }
  [[nodiscard]] std::size_t delta_chunk_elems() const noexcept {
    return delta_chunk_elems_;
  }

  /// Configure the streaming framed serializer (see frame_stream.hpp).
  /// Enabled by default: non-delta checkpoints are produced frame-by-frame
  /// through a store sink with bounded writer memory, and recovered
  /// incrementally the same way. Disabling falls back to the legacy
  /// whole-stream serializer ("CKPT" magic). Delta mode (set_delta > 0)
  /// takes precedence: delta streams keep their own chunked "DKPT" format.
  /// Recovery always dispatches on the stored magic, so any mode can read
  /// checkpoints written by any other. Must not change while a drain is in
  /// flight.
  void set_streaming(const StreamingConfig& cfg) {
    cfg.validate();
    streaming_ = cfg;
  }
  [[nodiscard]] const StreamingConfig& streaming() const noexcept {
    return streaming_;
  }

  [[nodiscard]] const CheckpointStore& store() const { return *store_; }

  /// Attach (or detach, with a null sink) the observability handles. The
  /// sink is forwarded to the store hierarchy and the async writer; the
  /// pointed-to registry/recorder must outlive the manager or be detached
  /// before they die. Must not change while a drain is in flight.
  void set_observability(obs::Sink sink);

 private:
  struct Entry {
    std::string name;
    const Vector* src = nullptr;  // checkpointed data (exactly one of
    Vector* dst = nullptr;        //   src/blob is set; dst is recover()'s
    std::vector<byte_t>* blob = nullptr;  //   target, == src unless split)
    const Compressor* compressor = nullptr;  // null => manager default
  };

  /// One variable captured in a staging slot (owning copies, so the live
  /// solver state can keep mutating while the drain compresses).
  struct StagedVar {
    std::string name;
    Vector vec;
    std::vector<byte_t> blob;
  };

  /// Double-buffered staging area: one slot drains while the other stages.
  struct StagingSlot {
    std::vector<StagedVar> vars;
    bool busy = false;
  };

  /// Borrowed view of one variable for the shared serializer. checkpoint()
  /// points it at the live protected data, the staged drain at a slot.
  struct VarView {
    int id = 0;
    const std::string* name = nullptr;
    const Vector* vec = nullptr;
    const std::vector<byte_t>* blob = nullptr;
    const Compressor* compressor = nullptr;
  };

  [[nodiscard]] const Compressor* compressor_for(const Entry& e) const {
    return e.compressor != nullptr ? e.compressor : default_compressor_;
  }

  /// The one serialization dispatch (delta, framed or legacy), shared by
  /// checkpoint() and the staged drain: write `vars` as the *pending* store
  /// version `version`. `base`/`state`: see build_delta_stream. `slot`, if
  /// >= 0, is the staging slot `vars` point into; it is released once the
  /// stream no longer reads it (before the store write) or on a throw.
  /// `board` carries the chunk compress tasks of the framed and delta
  /// encoders; a staged drain shares it with its joiner, checkpoint() passes
  /// one nobody helps. It is closed before the slot is released. The
  /// encoders below fill the format-specific record fields, this body the
  /// version, raw sizes and blob sizes common to all three.
  CheckpointRecord write_pending_version(
      const std::vector<VarView>& vars, int version,
      const ChunkBaseState* base,
      std::shared_ptr<const ChunkBaseState>& state, int slot,
      DrainBoard& board);

  /// Serialize one snapshot into the legacy in-memory stream format: each
  /// vector is one codec payload (or its raw doubles), compressed here.
  CheckpointRecord build_stream(const std::vector<VarView>& vars,
                                std::vector<byte_t>& bytes) const;

  /// Serialize one snapshot as a framed stream straight into `sink` with
  /// bounded memory (see frame_stream.hpp). Vectors larger than
  /// block_elems_ are chunked; the chunk compress tasks are published on
  /// `board` and each payload is taken from it in stream order. Calls
  /// FrameWriter's finish() but NOT sink.finish() — sealing the sink is the
  /// caller's job (write_pending_version seals it only after releasing the
  /// slot).
  CheckpointRecord build_frame_stream(const std::vector<VarView>& vars,
                                      ByteSink& sink, DrainBoard& board) const;

  /// Incremental frame-by-frame recovery of a framed stream; `src` is
  /// positioned just past the 4-byte magic recover() peeked for dispatch.
  CheckpointRecord recover_frame_stream(int version, ByteSource& src);

  /// Serialize one snapshot as a chunked delta stream against `base`
  /// (nullptr ⇒ full chunked checkpoint). Plans every vector, publishes all
  /// literal chunks on `board`, then writes the manifests, taking each
  /// payload in order. Fills `out_state` with the hashes a successor delta
  /// needs.
  CheckpointRecord build_delta_stream(
      const std::vector<VarView>& vars, int version,
      const ChunkBaseState* base, std::vector<byte_t>& bytes,
      std::shared_ptr<const ChunkBaseState>& out_state,
      DrainBoard& board) const;

  /// The base the next checkpoint deltas against, or nullptr when a full
  /// checkpoint is due (no committed predecessor, chain at max length,
  /// chunk size changed, or the candidate was discarded).
  [[nodiscard]] std::shared_ptr<const ChunkBaseState> pick_delta_base() const;

  /// The registration a stored variable restores into; throws
  /// corrupt_stream_error for an id nobody protected.
  Entry& entry_for(int id);
  /// The codec of vector registration `e`, checked against the name the
  /// stream stored for variable `name`.
  [[nodiscard]] const Compressor& codec_for(const Entry& e,
                                            const std::string& stored,
                                            const std::string& name) const;

  /// Chain-walking recovery of a delta-format checkpoint: literal chunks
  /// decompress in place, references resolve against base versions read
  /// from the store, down to the chain's full checkpoint.
  CheckpointRecord recover_delta(int version,
                                 const std::vector<byte_t>& data);

  void prune_retention(int latest_committed);
  /// Insert `v` and its base_of_ chain into `live`. Hop-bounded as pure
  /// defense (base links always point strictly downward, so a well-formed
  /// map cannot cycle).
  void mark_chain(int v, std::set<int>& live) const;
  int acquire_slot();              ///< Blocks until a staging slot is free.
  void release_slot(int slot);

  std::unique_ptr<CheckpointStore> store_;
  const Compressor* default_compressor_;
  NoneCompressor none_;
  std::map<int, Entry> entries_;
  int next_version_ = 0;
  int retention_ = 1;
  int prune_floor_ = 0;  ///< Versions below this are already pruned.
  std::size_t block_elems_ = std::size_t{1} << 16;  ///< Framed chunk size.
  StreamingConfig streaming_{};  ///< Framed serializer knobs (default on).
  obs::Sink sink_{};  ///< Observability handles (both null => off).
  bool recovery_pending_ = false;

  // Delta (chunked) checkpointing state (owner thread only).
  int max_delta_chain_ = 0;
  std::size_t delta_chunk_elems_ = kDefaultChunkElems;
  /// Chunk hashes of the most recent *committed* version — the only
  /// version a new checkpoint may delta against.
  std::shared_ptr<const ChunkBaseState> committed_state_;
  /// Committed version → base version (-1 = full); drives the ref-counted
  /// retention that keeps live chain bases alive.
  std::map<int, int> base_of_;
  /// A staged (uncommitted) delta version: the base captured at stage time,
  /// so pruning cannot retire a base its drain still needs, and the cell
  /// the drain fills with the version's chunk hashes (read only after
  /// wait_drain() joined the drain).
  struct StagedDelta {
    int base = -1;
    std::shared_ptr<std::shared_ptr<const ChunkBaseState>> state;
  };
  std::map<int, StagedDelta> staged_delta_;

  // Async pipeline state. The writer thread is created on first stage(), so
  // purely synchronous users never spawn a thread.
  std::array<StagingSlot, 2> slots_;
  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  std::map<int, CheckpointRecord> drained_;  ///< wait_drain() results cache.
  std::set<int> failed_drains_;  ///< Versions whose drain threw (awaiting abort).
  std::set<int> staged_versions_;  ///< stage()d, not yet committed/aborted.
  // Declared last: drain jobs touch the slots, the slot mutex and the
  // store, so the worker must join (writer destruction) before any of them
  // is torn down.
  std::unique_ptr<AsyncCheckpointWriter> writer_;
};

}  // namespace lck
