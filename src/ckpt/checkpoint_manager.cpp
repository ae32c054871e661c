#include "ckpt/checkpoint_manager.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "ckpt/async_writer.hpp"
#include "ckpt/chunk/chunk_hash.hpp"
#include "common/byte_buffer.hpp"
#include "common/crc32.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace lck {
namespace {

constexpr std::uint32_t kMagic = 0x54504b43u;  // "CKPT"
constexpr std::uint16_t kVersion = 1;

enum class VarKind : std::uint8_t { kVector = 0, kBlob = 1 };

/// Per-vector payload layout inside a framed ("FKPT") stream.
enum class FrameVarLayout : std::uint8_t {
  kVerbatim = 0,  ///< raw little-endian doubles, no codec framing
  kChunked = 1,   ///< length-prefixed per-chunk compressor payloads
};

/// Plausibility cap for one chunk payload inside a framed stream: no
/// in-tree codec expands beyond ~2x (all have stored fallbacks), so 4x the
/// raw chunk plus slack can only mean a corrupt length field — reject it
/// before the allocation, not after.
constexpr std::size_t frame_chunk_payload_bound(std::size_t elems) noexcept {
  return elems * sizeof(double) * 4 + (std::size_t{1} << 20);
}

/// References are resolved purely by content hash, so for lossless codecs
/// (where decompress ∘ compress is the identity) the re-materialized slice
/// must hash back to the manifest's raw-content hash — re-checking turns a
/// CRC-64 collision (or any resolver bug) into a loud error instead of
/// silently corrupted solver state. Lossy codecs are exempt: a reference
/// deliberately reproduces the base's *approximation* of the identical raw
/// content, whose bytes differ from the raw original.
void verify_ref_hash(const Compressor& comp, std::span<const double> slice,
                     std::uint64_t expected, const std::string& var_name) {
  if (comp.lossy()) return;
  const std::span<const byte_t> raw{
      reinterpret_cast<const byte_t*>(slice.data()),
      slice.size() * sizeof(double)};
  if (crc64(raw) != expected)
    throw corrupt_stream_error(
        "recover: delta reference resolved to mismatched content for "
        "variable " +
        var_name);
}

/// Per-codec compression observability: real seconds and achieved ratio,
/// labeled by the compressor name.
void observe_compress(obs::Sink sink, const Compressor& comp,
                      std::size_t raw_bytes, std::size_t stored_bytes,
                      double seconds) {
  if (sink.metrics == nullptr) return;
  sink.metrics->observe("compress.seconds", seconds,
                        {{"codec", comp.name()}});
  if (stored_bytes > 0)
    sink.metrics->observe("compress.ratio",
                          static_cast<double>(raw_bytes) /
                              static_cast<double>(stored_bytes),
                          {{"codec", comp.name()}});
}

}  // namespace

const char* to_string(CkptMode m) noexcept {
  switch (m) {
    case CkptMode::kSync: return "sync";
    case CkptMode::kAsync: return "async";
    case CkptMode::kTiered: return "tiered";
  }
  return "?";
}

CheckpointManager::CheckpointManager(std::unique_ptr<CheckpointStore> store,
                                     const Compressor* default_compressor)
    : store_(std::move(store)), default_compressor_(default_compressor) {
  require(store_ != nullptr, "checkpoint manager: null store");
  if (default_compressor_ == nullptr) default_compressor_ = &none_;
  next_version_ = store_->latest_version() + 1;
}

CheckpointManager::~CheckpointManager() {
  // Versions still undecided at destruction roll back: their pending store
  // blobs (e.g. DiskStore's .lck.pending files) must not outlive the
  // manager, and the last *committed* version stays the recovery point.
  const std::set<int> undecided = staged_versions_;
  for (const int v : undecided) {
    try {
      abort_version(v);
    } catch (...) {  // NOLINT: best-effort cleanup in a destructor
    }
  }
}

void CheckpointManager::protect(int id, std::string name, Vector* data,
                                const Compressor* compressor) {
  protect(id, std::move(name), data, data, compressor);
}

void CheckpointManager::protect(int id, std::string name, const Vector* source,
                                Vector* restore_target,
                                const Compressor* compressor) {
  require(source != nullptr, "protect: null source");
  require(restore_target != nullptr, "protect: null restore target");
  require(!entries_.contains(id), "protect: id already registered");
  entries_[id] = Entry{std::move(name), source, restore_target, nullptr,
                       compressor};
}

void CheckpointManager::protect_blob(int id, std::string name,
                                     std::vector<byte_t>* data) {
  require(data != nullptr, "protect_blob: null variable");
  require(!entries_.contains(id), "protect_blob: id already registered");
  entries_[id] = Entry{std::move(name), nullptr, nullptr, data, nullptr};
}

void CheckpointManager::unprotect(int id) { entries_.erase(id); }

void CheckpointManager::set_observability(obs::Sink sink) {
  sink_ = sink;
  store_->set_observability(sink);
}

CheckpointRecord CheckpointManager::build_stream(
    const std::vector<VarView>& vars, std::vector<byte_t>& bytes) const {
  CheckpointRecord rec;
  ByteWriter out;
  out.put(kMagic);
  out.put(kVersion);
  out.put(static_cast<std::uint32_t>(vars.size()));

  WallTimer timer;
  for (const auto& var : vars) {
    out.put(static_cast<std::int32_t>(var.id));
    out.put_string(*var.name);
    if (var.vec != nullptr) {
      out.put(static_cast<std::uint8_t>(VarKind::kVector));
      const Vector& vec = *var.vec;
      const Compressor& comp = *var.compressor;
      out.put_string(comp.name());
      out.put(static_cast<std::uint64_t>(vec.size()));
      const WallTimer comp_timer;
      const auto payload = comp.compress(vec);
      observe_compress(sink_, comp, vec.size() * sizeof(double),
                       payload.size(), comp_timer.seconds());
      rec.per_var_bytes[*var.name] = payload.size();
      out.put(static_cast<std::uint64_t>(payload.size()));
      out.put(crc32(payload));
      out.put_bytes(payload);
    } else {
      out.put(static_cast<std::uint8_t>(VarKind::kBlob));
      out.put_string("none");
      out.put(static_cast<std::uint64_t>(var.blob->size()));
      out.put(static_cast<std::uint64_t>(var.blob->size()));
      out.put(crc32(*var.blob));
      out.put_bytes(*var.blob);
    }
  }
  rec.compress_seconds = timer.seconds();

  rec.stored_bytes = out.size();
  bytes = std::move(out).take();
  return rec;
}

CheckpointRecord CheckpointManager::build_frame_stream(
    const std::vector<VarView>& vars, ByteSink& sink, DrainBoard& board) const {
  // Every compress task, in stream order: a vector larger than
  // block_elems_ is cut into chunks of that size, any other is one chunk.
  // Verbatim ("none") vectors have no tasks (chunk_elems stays 0).
  std::vector<DrainBoard::Task> tasks;
  std::vector<std::size_t> chunk_elems(vars.size(), 0);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const VarView& var = vars[i];
    if (var.vec == nullptr ||
        dynamic_cast<const NoneCompressor*>(var.compressor) != nullptr)
      continue;
    const Vector& vec = *var.vec;
    chunk_elems[i] = std::max<std::size_t>(vec.size(), 1);
    if (block_elems_ > 0 && vec.size() > block_elems_)
      chunk_elems[i] = block_elems_;
    const ChunkGeometry geo(vec.size(), chunk_elems[i]);
    for (std::size_t c = 0; c < geo.count(); ++c)
      tasks.push_back(
          {var.compressor, {vec.data() + geo.begin(c), geo.length(c)}});
  }
  // A staged drain shares its tasks with the thread that joins it; either
  // way chunks are written strictly in order, and at most two payloads (the
  // drain's and the joiner's) are in flight, keeping memory bounded.
  board.publish(std::move(tasks));

  CheckpointRecord rec;
  FrameWriter out(sink, streaming_, sink_);
  out.put(kVersion);
  out.put(static_cast<std::uint32_t>(vars.size()));

  WallTimer timer;
  std::size_t next_task = 0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const VarView& var = vars[i];
    out.put(static_cast<std::int32_t>(var.id));
    out.put_string(*var.name);
    if (var.vec != nullptr) {
      out.put(static_cast<std::uint8_t>(VarKind::kVector));
      const Vector& vec = *var.vec;
      const Compressor* comp = var.compressor;
      out.put_string(comp->name());
      out.put(static_cast<std::uint64_t>(vec.size()));
      if (chunk_elems[i] == 0) {
        // Raw doubles straight into the frames; the frame style (e.g.
        // lz4) is the only compression layer, and the per-frame CRC the
        // only integrity layer — no codec header, no payload allocation.
        out.put(static_cast<std::uint8_t>(FrameVarLayout::kVerbatim));
        const std::span<const byte_t> raw{
            reinterpret_cast<const byte_t*>(vec.data()),
            vec.size() * sizeof(double)};
        out.put_bytes(raw);
        rec.per_var_bytes[*var.name] = raw.size();
      } else {
        out.put(static_cast<std::uint8_t>(FrameVarLayout::kChunked));
        const ChunkGeometry geo(vec.size(), chunk_elems[i]);
        out.put(static_cast<std::uint64_t>(geo.chunk_elems));
        std::size_t var_bytes = 0;
        const WallTimer comp_timer;
        double comp_seconds = 0.0;
        for (std::size_t c = 0; c < geo.count(); ++c, ++next_task) {
          const double before = comp_timer.seconds();
          const auto payload = board.take(next_task);
          comp_seconds += comp_timer.seconds() - before;
          out.put(static_cast<std::uint64_t>(payload.size()));
          out.put_bytes(payload);
          var_bytes += payload.size();
        }
        observe_compress(sink_, *comp, vec.size() * sizeof(double), var_bytes,
                         comp_seconds);
        rec.per_var_bytes[*var.name] = var_bytes;
      }
    } else {
      out.put(static_cast<std::uint8_t>(VarKind::kBlob));
      out.put(static_cast<std::uint64_t>(var.blob->size()));
      out.put_bytes(*var.blob);
    }
  }
  out.finish();
  rec.compress_seconds = timer.seconds();
  rec.stored_bytes = out.stream_bytes();
  return rec;
}

CheckpointRecord CheckpointManager::build_delta_stream(
    const std::vector<VarView>& vars, int version,
    const ChunkBaseState* base, std::vector<byte_t>& bytes,
    std::shared_ptr<const ChunkBaseState>& out_state,
    DrainBoard& board) const {
  CheckpointRecord rec;
  rec.base_version = base != nullptr ? base->version : -1;
  rec.chain_len = base != nullptr ? base->chain_len + 1 : 0;

  auto state = std::make_shared<ChunkBaseState>();
  state->version = version;
  state->chunk_elems = delta_chunk_elems_;
  state->chain_len = rec.chain_len;

  // Plan every vector before writing any of it, so all literal chunks of
  // the checkpoint go on the board at once, in stream order.
  WallTimer timer;
  std::vector<std::vector<ChunkTag>> tags(vars.size());
  std::vector<DrainBoard::Task> tasks;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const VarView& var = vars[i];
    if (var.vec == nullptr) continue;
    std::string comp_name = var.compressor->name();
    const std::vector<std::uint64_t>* base_hashes =
        base != nullptr ? base->hashes_for(var.id, comp_name) : nullptr;
    std::vector<std::uint64_t> hashes;
    tags[i] = plan_chunked_vector(*var.vec, delta_chunk_elems_, base_hashes,
                                  hashes);
    rec.chunks += tags[i].size();
    rec.chunks_deduped += static_cast<std::size_t>(
        std::count(tags[i].begin(), tags[i].end(), ChunkTag::kRef));
    const ChunkGeometry geo(var.vec->size(), delta_chunk_elems_);
    for (std::size_t c = 0; c < geo.count(); ++c)
      if (tags[i][c] == ChunkTag::kLiteral)
        tasks.push_back(
            {var.compressor, {var.vec->data() + geo.begin(c), geo.length(c)}});
    state->vars.push_back({var.id, std::move(comp_name), std::move(hashes)});
  }
  board.publish(std::move(tasks));

  ByteWriter out;
  out.put(kDeltaMagic);
  out.put(kDeltaFormatVersion);
  out.put(static_cast<std::int32_t>(rec.base_version));
  out.put(rec.chain_len);
  out.put(static_cast<std::uint32_t>(vars.size()));

  std::size_t next_task = 0;
  auto planned = state->vars.cbegin();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const VarView& var = vars[i];
    out.put(static_cast<std::int32_t>(var.id));
    out.put_string(*var.name);
    if (var.vec != nullptr) {
      out.put(static_cast<std::uint8_t>(DeltaVarKind::kVector));
      const VarChunkHashes& plan = *planned++;
      const WallTimer comp_timer;
      double comp_seconds = 0.0;
      const std::size_t var_bytes = emit_chunked_vector(
          out, plan.comp_name, var.vec->size(), delta_chunk_elems_,
          plan.hashes, tags[i], [&](std::size_t) {
            const double before = comp_timer.seconds();
            auto payload = board.take(next_task++);
            comp_seconds += comp_timer.seconds() - before;
            return payload;
          });
      observe_compress(sink_, *var.compressor,
                       var.vec->size() * sizeof(double), var_bytes,
                       comp_seconds);
      rec.per_var_bytes[*var.name] = var_bytes;
    } else {
      out.put(static_cast<std::uint8_t>(DeltaVarKind::kBlob));
      out.put(static_cast<std::uint64_t>(var.blob->size()));
      out.put(crc32(*var.blob));
      out.put_bytes(*var.blob);
    }
  }
  rec.compress_seconds = timer.seconds();

  rec.stored_bytes = out.size();
  bytes = std::move(out).take();
  out_state = std::move(state);
  return rec;
}

void CheckpointManager::mark_chain(int v, std::set<int>& live) const {
  // 1024 hops is far beyond any legal chain (bounded by max_delta_chain_);
  // the cap only guards a corrupt map from wedging pruning.
  int hops = 0;
  while (v >= 0 && hops++ <= 1024 && live.insert(v).second) {
    const auto it = base_of_.find(v);
    v = it != base_of_.end() ? it->second : -1;
  }
}

void CheckpointManager::prune_retention(int latest_committed) {
  // Aborted async versions leave holes in the version sequence, so scan up
  // from the lowest possibly-live version instead of stopping at the first
  // gap (remove() of an absent version is a cheap no-op in both stores).
  const int keep_from = latest_committed - retention_ + 1;
  // Nothing below the window to remove (e.g. tiered mode parks the
  // manager-level retention and lets the hierarchy prune). The manager only
  // consults base links for its own pruning decisions, so here they can be
  // bounded to the chains still reachable from the tip and from in-flight
  // staged bases — without this, a long parked-retention run would leak one
  // entry per checkpoint.
  if (keep_from <= prune_floor_) {
    if (!base_of_.empty()) {
      std::set<int> live;
      mark_chain(latest_committed, live);
      for (const auto& [v, staged] : staged_delta_)
        mark_chain(staged.base, live);
      std::erase_if(base_of_,
                    [&live](const auto& e) { return !live.contains(e.first); });
    }
    return;
  }

  // Ref-counted bases: a version below the retention window survives as
  // long as a retained (or in-flight staged) version's delta chain still
  // references it — dropping it would break that chain's recovery.
  std::set<int> live;
  if (!base_of_.empty() || !staged_delta_.empty()) {
    for (int v = std::max(0, keep_from); v <= latest_committed; ++v)
      mark_chain(v, live);
    for (const auto& [v, staged] : staged_delta_) mark_chain(staged.base, live);
  }

  for (int v = prune_floor_; v < keep_from; ++v) {
    if (live.contains(v)) continue;
    store_->remove(v);
    base_of_.erase(v);
  }
  // Never advance the floor past a version that is still undecided (it may
  // commit out of order later) or past a live chain base (it must be
  // re-examined once the chain referencing it retires).
  int advance_to = keep_from;
  if (!live.empty()) advance_to = std::min(advance_to, *live.begin());
  if (!staged_versions_.empty())
    advance_to = std::min(advance_to, *staged_versions_.begin());
  prune_floor_ = std::max(prune_floor_, advance_to);
}

std::shared_ptr<const ChunkBaseState> CheckpointManager::pick_delta_base()
    const {
  if (max_delta_chain_ <= 0 || committed_state_ == nullptr) return nullptr;
  // A base whose chunk geometry no longer matches cannot be referenced;
  // a chain at max length forces the periodic full checkpoint; a base
  // discarded from the store (torn write) must not be referenced either.
  if (committed_state_->chunk_elems != delta_chunk_elems_) return nullptr;
  if (static_cast<int>(committed_state_->chain_len) + 1 > max_delta_chain_)
    return nullptr;
  if (!store_->exists(committed_state_->version)) return nullptr;
  return committed_state_;
}

CheckpointRecord CheckpointManager::write_pending_version(
    const std::vector<VarView>& vars, int version, const ChunkBaseState* base,
    std::shared_ptr<const ChunkBaseState>& state, int slot,
    DrainBoard& board) {
  // Once the stream no longer reads `vars`, the slot is free again — but
  // only after the board is closed: a chunk the joiner is still
  // compressing reads the slot too.
  const auto release_staging = [&] {
    board.close();
    if (slot >= 0) release_slot(slot);
  };
  std::vector<byte_t> bytes;
  std::unique_ptr<ByteSink> sink;
  CheckpointRecord rec;
  try {
    if (max_delta_chain_ > 0) {
      rec = build_delta_stream(vars, version, base, bytes, state, board);
    } else if (streaming_.enabled) {
      // Frames flow into the store sink while `vars` is still readable —
      // the stream is never materialized, so peak memory is bounded by the
      // frame writer, not the checkpoint size.
      sink = store_->open_write_pending(version);
      rec = build_frame_stream(vars, *sink, board);
    } else {
      rec = build_stream(vars, bytes);
    }
  } catch (...) {
    // A throwing compressor must not strand the slot as busy forever. (A
    // part-written streaming sink cleans up in its destructor.)
    release_staging();
    throw;
  }
  rec.version = version;
  for (const auto& var : vars) {
    rec.raw_bytes += var.vec != nullptr ? var.vec->size() * sizeof(double)
                                        : var.blob->size();
    // Every format stores blobs verbatim.
    if (var.blob != nullptr) rec.per_var_bytes[*var.name] = var.blob->size();
  }
  // The stream owns the data now; free the slot (`vars` dangles from here
  // on) before the slow store write so the owner can stage the next
  // checkpoint meanwhile. A streaming sink already holds every byte, so
  // sealing it does not need the slot.
  release_staging();
  if (sink != nullptr)
    sink->finish();
  else
    store_->write_pending(version, bytes);
  return rec;
}

CheckpointRecord CheckpointManager::checkpoint() {
  require(!entries_.empty(), "checkpoint: nothing protected");
  std::vector<VarView> views;
  views.reserve(entries_.size());
  for (const auto& [id, e] : entries_)
    views.push_back({id, &e.name, e.src, e.blob, compressor_for(e)});
  const int version = next_version_;
  const auto base = pick_delta_base();
  std::shared_ptr<const ChunkBaseState> state;
  CheckpointRecord rec;
  try {
    // The live variables are the source: no staging copy, no writer thread,
    // and nobody helps with the board.
    DrainBoard board;
    rec = write_pending_version(views, version, base.get(), state, -1, board);
    store_->commit(version);
  } catch (...) {
    store_->abort(version);  // leave no half-written pending blob behind
    throw;
  }
  if (state != nullptr) {
    base_of_[version] = rec.base_version;
    committed_state_ = std::move(state);
  }
  prune_retention(version);
  ++next_version_;
  return rec;
}

// ----- staged (asynchronous) pipeline ---------------------------------------

int CheckpointManager::acquire_slot() {
  std::unique_lock<std::mutex> lock(slot_mu_);
  for (;;) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy) {
        slots_[i].busy = true;
        return static_cast<int>(i);
      }
    }
    slot_cv_.wait(lock);
  }
}

void CheckpointManager::release_slot(int slot) {
  {
    const std::lock_guard<std::mutex> lock(slot_mu_);
    slots_[static_cast<std::size_t>(slot)].busy = false;
  }
  slot_cv_.notify_all();
}

StageTicket CheckpointManager::stage() {
  require(!entries_.empty(), "stage: nothing protected");
  if (writer_ == nullptr) writer_ = std::make_unique<AsyncCheckpointWriter>();

  const int slot_idx = acquire_slot();
  StagingSlot& slot = slots_[static_cast<std::size_t>(slot_idx)];

  WallTimer timer;
  StageTicket ticket;
  ticket.version = next_version_++;

  // The drain's view of the slot; built here, on the owner thread.
  std::vector<VarView> views;
  try {
    // Copy-assign into the slot's existing StagedVars so the double buffer
    // reuses its allocations from the previous round.
    slot.vars.resize(entries_.size());
    views.reserve(entries_.size());
    std::size_t k = 0;
    for (const auto& [id, e] : entries_) {
      StagedVar& sv = slot.vars[k++];
      sv.name = e.name;
      if (e.src != nullptr) {
        sv.vec = *e.src;
        sv.blob.clear();
        ticket.raw_bytes += e.src->size() * sizeof(double);
        views.push_back({id, &sv.name, &sv.vec, nullptr, compressor_for(e)});
      } else {
        sv.blob = *e.blob;
        sv.vec.clear();
        ticket.raw_bytes += e.blob->size();
        views.push_back({id, &sv.name, nullptr, &sv.blob, compressor_for(e)});
      }
    }
  } catch (...) {
    // A failed copy (e.g. bad_alloc) must not strand the slot as busy.
    release_slot(slot_idx);
    throw;
  }
  ticket.stage_seconds = timer.seconds();
  if (sink_.metrics != nullptr) {
    sink_.metrics->observe("ckpt.stage_copy_seconds", ticket.stage_seconds);
    sink_.metrics->observe("ckpt.stage_raw_bytes",
                           static_cast<double>(ticket.raw_bytes));
  }

  const int version = ticket.version;
  // The delta base is decided here, on the owner thread, so the background
  // drain never touches the (owner-mutated) bookkeeping: it encodes against
  // an immutable snapshot of the base's hashes.
  const auto base = pick_delta_base();
  auto state = std::make_shared<std::shared_ptr<const ChunkBaseState>>();
  auto board = std::make_shared<DrainBoard>();
  auto drain = [this, version, slot_idx, base, state, board,
                views = std::move(views)] {
    const WallTimer job_timer;  // Runs on the writer thread; registry shards.
    const CheckpointRecord rec = write_pending_version(
        views, version, base.get(), *state, slot_idx, *board);
    if (sink_.metrics != nullptr)
      sink_.metrics->observe("ckpt.drain_job_seconds", job_timer.seconds());
    return rec;
  };
  // Runs on the owner thread, inside wait_drain(): rather than block while
  // the drain compresses, the owner compresses the chunks it has not
  // reached yet.
  auto help = [this, board] {
    const std::size_t helped = board->help();
    if (sink_.metrics != nullptr && helped > 0)
      sink_.metrics->add("ckpt.drain_helped_chunks",
                         static_cast<double>(helped));
  };
  // Track the version before enqueueing so a failed submit can unwind
  // completely: nothing else releases the slot once it is marked busy.
  try {
    staged_versions_.insert(version);
    if (max_delta_chain_ > 0)
      staged_delta_[version] = {base != nullptr ? base->version : -1, state};
    writer_->submit(version, std::move(drain), std::move(help));
  } catch (...) {
    staged_versions_.erase(version);
    staged_delta_.erase(version);
    release_slot(slot_idx);
    throw;
  }
  return ticket;
}

CheckpointRecord CheckpointManager::wait_drain(int version) {
  // The writer surrenders each outcome exactly once, so waiting on a
  // version already committed/aborted (or never staged), or re-waiting on
  // one whose drain threw, would block forever — fail fast instead.
  require(staged_versions_.contains(version),
          "wait_drain: version is not an in-flight drain");
  if (const auto it = drained_.find(version); it != drained_.end())
    return it->second;
  if (failed_drains_.contains(version))
    throw corrupt_stream_error("wait_drain: drain already failed for version " +
                               std::to_string(version));
  require(writer_ != nullptr, "wait_drain: no drain was submitted");
  const WallTimer join_timer;  // Joining includes helping the drain.
  const auto observe_join = [&] {
    if (sink_.metrics != nullptr)
      sink_.metrics->observe("ckpt.drain_join_seconds", join_timer.seconds());
  };
  try {
    const CheckpointRecord rec = writer_->wait(version);
    observe_join();
    drained_[version] = rec;
    return rec;
  } catch (...) {
    observe_join();
    failed_drains_.insert(version);
    throw;
  }
}

void CheckpointManager::commit_version(int version) {
  const CheckpointRecord rec = wait_drain(version);
  store_->commit(version);
  drained_.erase(version);
  staged_versions_.erase(version);
  if (const auto it = staged_delta_.find(version); it != staged_delta_.end()) {
    // The drain joined above, so its write to the cell happened-before this.
    base_of_[version] = rec.base_version;
    committed_state_ = std::move(*it->second.state);
    staged_delta_.erase(it);
  }
  // Prune against the highest committed version, so an out-of-order commit
  // of an already-superseded version retires it immediately.
  prune_retention(store_->latest_version());
}

void CheckpointManager::abort_version(int version) {
  require(staged_versions_.contains(version),
          "abort_version: version is not an in-flight drain");
  try {
    wait_drain(version);
  } catch (...) {
    // The drain itself failed; there is nothing pending to drop, but the
    // version must still be retired below.
  }
  store_->abort(version);
  drained_.erase(version);
  failed_drains_.erase(version);
  staged_versions_.erase(version);
  staged_delta_.erase(version);
}

void CheckpointManager::discard_version(int version) {
  store_->remove(version);
  base_of_.erase(version);
  if (committed_state_ != nullptr && committed_state_->version == version)
    committed_state_.reset();
}

// ----------------------------------------------------------------------------

CheckpointRecord CheckpointManager::recover() {
  const int version = store_->latest_version();
  if (version < 0) throw corrupt_stream_error("recover: no checkpoint exists");

  // Streams are self-describing; peek the magic to dispatch. Framed
  // streams restore incrementally through the source (bounded memory);
  // the legacy and delta formats are parsed in memory, so the remainder
  // of the blob is materialized for them.
  auto src = store_->open_read(version);
  byte_t magic_buf[4];
  const std::size_t magic_got = read_fully(*src, magic_buf);
  std::uint32_t magic = 0;
  if (magic_got == 4) std::memcpy(&magic, magic_buf, 4);
  if (magic == kFrameStreamMagic) return recover_frame_stream(version, *src);

  std::vector<byte_t> data(magic_buf, magic_buf + magic_got);
  {
    const auto rest = read_all(*src);
    data.insert(data.end(), rest.begin(), rest.end());
  }
  src.reset();

  if (is_delta_stream(data)) return recover_delta(version, data);

  CheckpointRecord rec;
  rec.version = version;
  rec.stored_bytes = data.size();

  ByteReader in(data);
  if (in.get<std::uint32_t>() != kMagic)
    throw corrupt_stream_error("recover: bad checkpoint magic");
  if (in.get<std::uint16_t>() != kVersion)
    throw corrupt_stream_error("recover: unsupported format version");
  const auto count = in.get<std::uint32_t>();

  WallTimer timer;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto id = in.get<std::int32_t>();
    const std::string name = in.get_string();
    const auto kind = static_cast<VarKind>(in.get<std::uint8_t>());
    const std::string comp_name = in.get_string();
    const auto elem_count = in.get<std::uint64_t>();
    const auto payload_size = in.get<std::uint64_t>();
    const auto stored_crc = in.get<std::uint32_t>();
    const auto payload = in.get_bytes(payload_size);
    if (crc32(payload) != stored_crc)
      throw corrupt_stream_error("recover: CRC mismatch for variable " + name);

    Entry& e = entry_for(id);
    if (kind == VarKind::kVector) {
      const Compressor& comp = codec_for(e, comp_name, name);
      e.dst->resize(elem_count);
      comp.decompress(payload, *e.dst);
      rec.raw_bytes += elem_count * sizeof(double);
    } else {
      require(e.blob != nullptr, "recover: kind mismatch (expected blob)");
      e.blob->assign(payload.begin(), payload.end());
      rec.raw_bytes += payload.size();
    }
    rec.per_var_bytes[name] = payload_size;
  }
  rec.compress_seconds = timer.seconds();
  if (sink_.metrics != nullptr)
    sink_.metrics->observe("ckpt.recover_seconds", rec.compress_seconds,
                           {{"format", "legacy"}});
  recovery_pending_ = false;
  return rec;
}

CheckpointRecord CheckpointManager::recover_frame_stream(int version,
                                                         ByteSource& src) {
  CheckpointRecord rec;
  rec.version = version;

  FrameReader in(src, /*magic_already_consumed=*/true);
  if (in.get<std::uint16_t>() != kVersion)
    throw corrupt_stream_error("recover: unsupported format version");
  const auto count = in.get<std::uint32_t>();

  WallTimer timer;
  std::vector<byte_t> payload;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto id = in.get<std::int32_t>();
    const std::string name = in.get_string();
    const auto kind = static_cast<VarKind>(in.get<std::uint8_t>());

    Entry& e = entry_for(id);
    if (kind == VarKind::kVector) {
      const Compressor& comp = codec_for(e, in.get_string(), name);
      const auto elem_count = in.get<std::uint64_t>();
      const auto layout = static_cast<FrameVarLayout>(in.get<std::uint8_t>());
      if (elem_count > (std::uint64_t{1} << 48))
        throw corrupt_stream_error("recover: implausible element count");
      e.dst->resize(elem_count);
      rec.raw_bytes += elem_count * sizeof(double);
      if (layout == FrameVarLayout::kVerbatim) {
        in.read_into({reinterpret_cast<byte_t*>(e.dst->data()),
                      static_cast<std::size_t>(elem_count) * sizeof(double)});
        rec.per_var_bytes[name] = elem_count * sizeof(double);
      } else if (layout == FrameVarLayout::kChunked) {
        const auto chunk_elems = in.get<std::uint64_t>();
        if (chunk_elems == 0 ||
            chunk_elems > std::max<std::uint64_t>(elem_count, 1))
          throw corrupt_stream_error("recover: implausible chunk size");
        const ChunkGeometry geo(static_cast<std::size_t>(elem_count),
                                static_cast<std::size_t>(chunk_elems));
        std::size_t var_bytes = 0;
        for (std::size_t c = 0; c < geo.count(); ++c) {
          const std::size_t len = geo.length(c);
          const auto payload_size = in.get<std::uint64_t>();
          if (payload_size > frame_chunk_payload_bound(len))
            throw corrupt_stream_error(
                "recover: implausible chunk payload size");
          payload.resize(static_cast<std::size_t>(payload_size));
          in.read_into(payload);
          comp.decompress(payload, {e.dst->data() + geo.begin(c), len});
          var_bytes += payload.size();
        }
        rec.per_var_bytes[name] = var_bytes;
      } else {
        throw corrupt_stream_error("recover: unknown vector layout");
      }
    } else if (kind == VarKind::kBlob) {
      require(e.blob != nullptr, "recover: kind mismatch (expected blob)");
      const auto size = in.get<std::uint64_t>();
      if (size > (std::uint64_t{1} << 40))
        throw corrupt_stream_error("recover: implausible blob size");
      e.blob->resize(static_cast<std::size_t>(size));
      in.read_into(*e.blob);
      rec.raw_bytes += e.blob->size();
      rec.per_var_bytes[name] = e.blob->size();
    } else {
      throw corrupt_stream_error("recover: unknown variable kind");
    }
  }
  in.expect_end();
  rec.stored_bytes = in.stream_bytes() + 4;  // + the magic recover() peeked
  rec.compress_seconds = timer.seconds();
  if (sink_.metrics != nullptr)
    sink_.metrics->observe("ckpt.recover_seconds", rec.compress_seconds,
                           {{"format", "framed"}});
  recovery_pending_ = false;
  return rec;
}

CheckpointRecord CheckpointManager::recover_delta(
    int version, const std::vector<byte_t>& data) {
  CheckpointRecord rec;
  rec.version = version;
  rec.stored_bytes = data.size();

  const ParsedDeltaStream parsed = parse_delta_stream(data);
  rec.base_version = parsed.base_version;
  rec.chain_len = parsed.chain_len;

  // One unresolved reference: where the chunk's doubles must land and the
  // hash that names its content somewhere down the chain.
  struct PendingRef {
    int var_id = 0;
    const std::string* var_name = nullptr;
    const Compressor* comp = nullptr;
    std::uint64_t hash = 0;
    std::span<double> out;
  };
  std::vector<PendingRef> pending;

  WallTimer timer;
  for (const auto& var : parsed.vars) {
    Entry& e = entry_for(var.id);
    if (var.kind == DeltaVarKind::kBlob) {
      require(e.blob != nullptr, "recover: kind mismatch (expected blob)");
      e.blob->assign(var.blob.begin(), var.blob.end());
      rec.raw_bytes += var.blob.size();
      rec.per_var_bytes[var.name] = var.blob.size();
      continue;
    }
    const Compressor& comp = codec_for(e, var.comp_name, var.name);
    e.dst->resize(var.elem_count);
    rec.raw_bytes += var.elem_count * sizeof(double);
    rec.chunks += var.chunks.size();

    // Literal chunks decompress in place; a reference first tries the
    // literals of this same stream (within-version dedup), then joins the
    // chain walk below.
    std::unordered_map<std::uint64_t, std::span<const byte_t>> own_literals;
    std::size_t var_stored = 0;
    const ChunkGeometry geo(static_cast<std::size_t>(var.elem_count),
                            static_cast<std::size_t>(var.chunk_elems));
    for (std::size_t c = 0; c < var.chunks.size(); ++c) {
      const std::span<double> slice{e.dst->data() + geo.begin(c),
                                    geo.length(c)};
      const ParsedChunk& chunk = var.chunks[c];
      if (chunk.tag == ChunkTag::kLiteral) {
        comp.decompress(chunk.payload, slice);
        own_literals.emplace(chunk.hash, chunk.payload);
        var_stored += chunk.payload.size();
      } else if (const auto lit = own_literals.find(chunk.hash);
                 lit != own_literals.end()) {
        comp.decompress(lit->second, slice);
        verify_ref_hash(comp, slice, chunk.hash, e.name);
        ++rec.chunks_deduped;
      } else {
        pending.push_back({var.id, &e.name, &comp, chunk.hash, slice});
        ++rec.chunks_deduped;
      }
    }
    rec.per_var_bytes[var.name] = var_stored;
  }

  // Chain walk: resolve the remaining references against base versions,
  // nearest first. Every literal a base holds for the right variable and
  // hash is decompressed straight into the recovery target.
  int base = parsed.base_version;
  std::uint32_t steps = 0;
  while (!pending.empty() && base >= 0) {
    if (++steps > parsed.chain_len)
      throw corrupt_stream_error(
          "recover: delta chain longer than its declared length");
    const auto base_data = store_->read(base);
    const ParsedDeltaStream base_parsed = parse_delta_stream(base_data);
    rec.stored_bytes += base_data.size();
    std::unordered_map<std::uint64_t, const ParsedChunk*> literals;
    for (const auto& var : base_parsed.vars) {
      if (var.kind != DeltaVarKind::kVector) continue;
      literals.clear();
      for (const auto& chunk : var.chunks)
        if (chunk.tag == ChunkTag::kLiteral)
          literals.emplace(chunk.hash, &chunk);
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->var_id != var.id) {
          ++it;
          continue;
        }
        const auto lit = literals.find(it->hash);
        if (lit == literals.end()) {
          ++it;
          continue;
        }
        // The base's payloads were produced by the compressor recorded in
        // *its* stream; feeding them to a different registered decoder
        // (compressor swapped mid-chain via unprotect/protect) would
        // corrupt state silently.
        if (it->comp->name() != var.comp_name)
          throw corrupt_stream_error(
              "recover: compressor mismatch in delta chain for variable " +
              *it->var_name + " (base stored " + var.comp_name +
              ", registered " + it->comp->name() + ")");
        it->comp->decompress(lit->second->payload, it->out);
        verify_ref_hash(*it->comp, it->out, it->hash, *it->var_name);
        it = pending.erase(it);
      }
    }
    base = base_parsed.base_version;
  }
  if (!pending.empty())
    throw corrupt_stream_error(
        "recover: delta chain is missing chunks for variable " +
        *pending.front().var_name +
        " (base checkpoint pruned or invalidated?)");

  rec.compress_seconds = timer.seconds();
  if (sink_.metrics != nullptr)
    sink_.metrics->observe("ckpt.recover_seconds", rec.compress_seconds,
                           {{"format", "delta"}});
  recovery_pending_ = false;
  return rec;
}

CheckpointManager::Entry& CheckpointManager::entry_for(int id) {
  const auto it = entries_.find(id);
  if (it == entries_.end())
    throw corrupt_stream_error("recover: unregistered variable id " +
                               std::to_string(id));
  return it->second;
}

const Compressor& CheckpointManager::codec_for(const Entry& e,
                                               const std::string& stored,
                                               const std::string& name) const {
  require(e.dst != nullptr, "recover: kind mismatch (expected vector)");
  const Compressor& comp = *compressor_for(e);
  if (comp.name() != stored)
    throw corrupt_stream_error("recover: compressor mismatch for variable " +
                               name + " (stored " + stored + ", registered " +
                               comp.name() + ")");
  return comp;
}

CheckpointRecord CheckpointManager::snapshot() {
  if (recovery_pending_ && has_checkpoint()) return recover();
  recovery_pending_ = false;
  return checkpoint();
}

}  // namespace lck
