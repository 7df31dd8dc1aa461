#include "checkpoint/write_pipeline.h"

#include <algorithm>
#include <utility>

#include "rpc/service.h"

namespace lwfs::checkpoint {

driver::Step WritePipeline::Fail(Status status) {
  result_ = std::move(status);
  stage_ = Stage::kDone;
  return driver::Step::kDone;
}

driver::Step WritePipeline::Issue(driver::Context& ctx, Stage stage) {
  switch (stage) {
    case Stage::kLogin: {
      auto handle = spec_.client->LoginAsync(spec_.principal, spec_.secret);
      if (!handle.ok()) return Fail(handle.status());
      call_ = std::move(*handle);
      break;
    }
    case Stage::kAcquireCap: {
      auto handle = spec_.client->GetCapAsync(cred_, spec_.cid, spec_.cap_ops);
      if (!handle.ok()) return Fail(handle.status());
      call_ = std::move(*handle);
      break;
    }
    case Stage::kCreate: {
      auto pending =
          spec_.client->CreateObjectAsync(spec_.server, cap_, spec_.txid);
      if (!pending.ok()) return Fail(pending.status());
      create_ = std::move(*pending);
      stage_ = stage;
      ctx.WakeOnComplete(create_.handle());
      return driver::Step::kBlocked;
    }
    case Stage::kPlace: {
      auto handle = spec_.client->PlaceReplicatedAsync(
          cap_.cid, spec_.server, spec_.replication_factor);
      if (!handle.ok()) return Fail(handle.status());
      call_ = std::move(*handle);
      break;
    }
    case Stage::kVerify: {
      for (;;) {
        const std::uint32_t target =
            replicated() ? chain_.servers[verify_member_] : spec_.server;
        auto handle = spec_.client->GetAttrAsync(target, cap_, oid_);
        if (handle.ok()) {
          call_ = std::move(*handle);
          break;
        }
        // Replicated verify fails over through the chain on issue-time
        // unreachability, same as on an errored reply.
        if (replicated() && core::FailoverWorthy(handle.status()) &&
            verify_member_ + 1 < chain_.servers.size()) {
          ++verify_member_;
          continue;
        }
        return Fail(handle.status());
      }
      break;
    }
    default:
      return Fail(Internal("WritePipeline: not an issuable stage"));
  }
  stage_ = stage;
  ctx.WakeOnComplete(call_);
  return driver::Step::kBlocked;
}

driver::Step WritePipeline::Poll(driver::Context& ctx) {
  for (;;) {
    switch (stage_) {
      case Stage::kStart: {
        if (spec_.client == nullptr) {
          return Fail(InvalidArgument("WritePipeline: no client"));
        }
        if (spec_.window == 0) spec_.window = 1;
        if (spec_.cap.has_value()) {
          cap_ = *spec_.cap;
          return Issue(ctx, replicated() ? Stage::kPlace : Stage::kCreate);
        }
        if (spec_.cred.has_value()) {
          cred_ = *spec_.cred;
          return Issue(ctx, Stage::kAcquireCap);
        }
        return Issue(ctx, Stage::kLogin);
      }

      case Stage::kLogin: {
        Result<Buffer> reply = Buffer{};
        if (!call_.TryAwait(&reply)) return driver::Step::kBlocked;
        auto cred = core::Client::ResolveLogin(std::move(reply));
        if (!cred.ok()) return Fail(cred.status());
        cred_ = *cred;
        return Issue(ctx, Stage::kAcquireCap);
      }

      case Stage::kAcquireCap: {
        Result<Buffer> reply = Buffer{};
        if (!call_.TryAwait(&reply)) return driver::Step::kBlocked;
        auto cap = core::Client::ResolveGetCap(std::move(reply));
        if (!cap.ok()) return Fail(cap.status());
        cap_ = *cap;
        return Issue(ctx, replicated() ? Stage::kPlace : Stage::kCreate);
      }

      case Stage::kCreate: {
        Result<storage::ObjectId> oid = storage::ObjectId{};
        if (!create_.TryAwait(&oid)) return driver::Step::kBlocked;
        // Timestamped on failure too: the create phase ends when the last
        // create *resolves*, matching the blocking implementation.
        create_done_ = ctx.clock()->Now();
        if (!oid.ok()) return Fail(oid.status());
        oid_ = *oid;
        created_ = true;
        if (spec_.create_only) {
          stage_ = Stage::kDone;
          return driver::Step::kDone;
        }
        stage_ = Stage::kStream;
        continue;
      }

      case Stage::kPlace: {
        Result<Buffer> reply = Buffer{};
        if (!call_.TryAwait(&reply)) return driver::Step::kBlocked;
        auto chain = core::Client::ResolvePlaceReplicated(std::move(reply));
        if (!chain.ok()) {
          // Sharded metadata: a mis-routed or deposed-primary placement
          // comes back kWrongShard — refresh the client's shard map and
          // re-issue to the shard's current primary (bounded so a broken
          // map cannot loop forever).
          constexpr int kMaxPlaceRetries = 3;
          if (chain.status().code() == ErrorCode::kWrongShard &&
              place_retries_ < kMaxPlaceRetries) {
            ++place_retries_;
            (void)spec_.client->RefreshShardRoute();
            return Issue(ctx, Stage::kPlace);
          }
          return Fail(chain.status());
        }
        chain_ = std::move(*chain);
        oid_ = chain_.oid;
        // Fan the create out to every chain member at once.  An issue-time
        // failure (down node, open breaker) is a failed *member*, not a
        // failed write — the survivors carry the epoch.
        creates_.clear();
        create_states_.assign(chain_.servers.size(), 0);
        for (std::size_t i = 0; i < chain_.servers.size(); ++i) {
          auto handle = spec_.client->CreateObjectAtAsync(chain_.servers[i],
                                                          cap_, oid_,
                                                          spec_.txid);
          creates_.emplace_back();
          if (!handle.ok()) {
            create_states_[i] = -1;
            if (create_error_.ok()) create_error_ = handle.status();
            continue;
          }
          creates_.back() = std::move(*handle);
          ctx.WakeOnComplete(creates_.back());
        }
        stage_ = Stage::kCreateReplicas;
        continue;
      }

      case Stage::kCreateReplicas: {
        bool pending = false;
        for (std::size_t i = 0; i < creates_.size(); ++i) {
          if (create_states_[i] != 0) continue;
          Result<Buffer> reply = Buffer{};
          if (!creates_[i].TryAwait(&reply)) {
            pending = true;
            continue;
          }
          auto done = rpc::ResolveTyped<rpc::Void>(std::move(reply));
          if (done.ok()) {
            create_states_[i] = 1;
          } else {
            create_states_[i] = -1;
            if (create_error_.ok()) create_error_ = done.status();
          }
        }
        if (pending) return driver::Step::kBlocked;
        // The create phase ends when the last fan-out create resolves.
        create_done_ = ctx.clock()->Now();
        std::vector<std::uint32_t> failed;
        std::size_t created = 0;
        for (std::size_t i = 0; i < creates_.size(); ++i) {
          if (create_states_[i] == 1) {
            ++created;
          } else {
            failed.push_back(chain_.servers[i]);
          }
        }
        if (created == 0) return Fail(create_error_);
        // Members unreachable at create time start out stale; the background
        // replicator brings them back.  Best-effort: a failed report only
        // delays repair until the first degraded write re-reports.
        if (!failed.empty()) {
          (void)spec_.client->ReportStaleReplicas(chain_.oid, 0, failed);
        }
        created_ = true;
        if (spec_.create_only) {
          stage_ = Stage::kDone;
          return driver::Step::kDone;
        }
        stage_ = Stage::kStream;
        continue;
      }

      case Stage::kStream: {
        if (replicated()) {
          // Retire completed chain writes from the front of the window.  A
          // write whose head failed over has a fresh handle; its generation
          // moved, so re-arm the wake before blocking on it.
          while (!rep_writes_.empty()) {
            RepWrite& front = rep_writes_.front();
            Result<std::uint64_t> n = std::uint64_t{0};
            if (!front.io.TryAwait(&n)) {
              if (front.io.generation() != front.armed) {
                front.armed = front.io.generation();
                ctx.WakeOnComplete(front.io.handle());
              }
              break;
            }
            rep_writes_.pop_front();
            if (!n.ok()) return Fail(n.status());
          }
          const std::uint64_t total = spec_.payload.size();
          const std::uint64_t chunk = spec_.chunk_bytes == 0
                                          ? kReplicatedChunkBytes
                                          : spec_.chunk_bytes;
          while (offset_ < total && rep_writes_.size() < spec_.window) {
            const std::uint64_t n = std::min(chunk, total - offset_);
            auto io = spec_.client->WriteReplicatedSliceAsync(
                cap_, chain_, offset_,
                spec_.payload.Slice(static_cast<std::size_t>(offset_),
                                    static_cast<std::size_t>(n)));
            if (!io.ok()) return Fail(io.status());
            rep_writes_.push_back(RepWrite{std::move(*io), 0});
            RepWrite& back = rep_writes_.back();
            back.armed = back.io.generation();
            ctx.WakeOnComplete(back.io.handle());
            offset_ += n;
          }
          if (!rep_writes_.empty()) return driver::Step::kBlocked;
          dumped_ = true;
          if (spec_.verify_attr) return Issue(ctx, Stage::kVerify);
          stage_ = Stage::kDone;
          return driver::Step::kDone;
        }
        // Retire completed chunk writes from the front of the window.
        while (!writes_.empty()) {
          Result<core::IoResult> n = core::IoResult{};
          if (!writes_.front().TryAwait(&n)) break;
          writes_.pop_front();
          if (!n.ok()) return Fail(n.status());
        }
        // Refill the window.
        const std::uint64_t total = spec_.payload.size();
        const std::uint64_t chunk =
            spec_.chunk_bytes == 0 ? total : spec_.chunk_bytes;
        while (offset_ < total && writes_.size() < spec_.window) {
          const std::uint64_t n = std::min(chunk, total - offset_);
          auto io = spec_.client->WriteObjectAsync(
              spec_.server, cap_, oid_,
              {{offset_, spec_.payload.Slice(static_cast<std::size_t>(offset_),
                                             static_cast<std::size_t>(n))}});
          if (!io.ok()) return Fail(io.status());
          writes_.push_back(std::move(*io));
          for (rpc::CallHandle& h : writes_.back().handles()) {
            ctx.WakeOnComplete(h);
          }
          offset_ += n;
        }
        if (!writes_.empty()) return driver::Step::kBlocked;
        dumped_ = true;
        if (spec_.verify_attr) return Issue(ctx, Stage::kVerify);
        stage_ = Stage::kDone;
        return driver::Step::kDone;
      }

      case Stage::kVerify: {
        Result<Buffer> reply = Buffer{};
        if (!call_.TryAwait(&reply)) return driver::Step::kBlocked;
        auto attr = core::Client::ResolveGetAttr(std::move(reply));
        if (!attr.ok()) {
          // Replicated verify fails over through the chain: any surviving
          // member can vouch for the committed bytes.
          if (replicated() && core::FailoverWorthy(attr.status()) &&
              verify_member_ + 1 < chain_.servers.size()) {
            ++verify_member_;
            return Issue(ctx, Stage::kVerify);
          }
          return Fail(attr.status());
        }
        if (attr->size < spec_.payload.size()) {
          return Fail(DataLoss("dump verification: object short"));
        }
        stage_ = Stage::kDone;
        return driver::Step::kDone;
      }

      case Stage::kDone:
        return driver::Step::kDone;
    }
  }
}

}  // namespace lwfs::checkpoint
