// Test helper for the run-to-completion data plane: holds one shard's
// consumer claim so that other connections' commands for that shard queue
// by construction instead of running inline.
//
// Declare `holder.releaseOnExit()` right after the server (see
// ReleaseOnExit).
//
// The holder opens the server's first connection, so it lands on event
// loop 0; connections opened after hold() returns land on loop 1 (the
// default eventLoops == 2 hands connections out round-robin).  Its one
// command runs inline on loop 0 and blocks in
// ServerConfig::executeSeamForTest — with the claim held — until release().
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "hello_connection.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/protocol.h"
#include "service/server.h"

namespace tprm::service::testutil {

class ClaimHolder {
 public:
  /// Installs the seam on `config`; build the server from it afterwards.
  /// `next`, when set, runs for every execution except the held one.
  explicit ClaimHolder(ServerConfig* config,
                       std::function<void(int shard)> next = {}) {
    config->executeSeamForTest = [state = state_,
                                  next = std::move(next)](int shard) {
      if (state->armed.load() && !state->entered.exchange(true)) {
        state->shard.store(shard);
        // The deadline only bounds a test that failed before release().
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!state->released.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return;
      }
      if (next) next(shard);
    };
  }

  ClaimHolder(const ClaimHolder&) = delete;
  ClaimHolder& operator=(const ClaimHolder&) = delete;
  ~ClaimHolder() { release(); }

  /// Opens the holder's connection (HELLO included) now, so that it takes
  /// loop 0 even when the test runs other commands before hold().
  ::testing::AssertionResult connect(const NegotiationServer& server) {
    return helloConnection(server, &socket_);
  }

  /// Sends `request` (connecting first unless connect() ran)
  /// and waits until its execution is blocked in the seam.  Without
  /// connect(), call before the test opens any connection.
  ::testing::AssertionResult hold(const NegotiationServer& server,
                                  const Request& request) {
    using namespace std::chrono_literals;
    if (!socket_.valid()) {
      if (auto connected = connect(server); !connected) return connected;
    }
    state_->armed.store(true);
    if (!net::writeFrame(socket_, encodeRequest(request), limits_,
                         net::Deadline::after(1s))
             .ok()) {
      return ::testing::AssertionFailure() << "holder write failed";
    }
    for (int i = 0; i < 2500 && !state_->entered.load(); ++i) {
      std::this_thread::sleep_for(2ms);
    }
    if (!state_->entered.load()) {
      return ::testing::AssertionFailure() << "held command never executed";
    }
    return ::testing::AssertionSuccess();
  }

  /// Shard whose claim is held (valid once hold() succeeded).
  [[nodiscard]] int shard() const { return state_->shard.load(); }

  void release() { state_->released.store(true); }

  /// Releases the holder when it goes out of scope.  Declare it right after
  /// the server, so it is destroyed first: a test that fails between hold()
  /// and release() then unblocks the seam before ~NegotiationServer joins
  /// the event loop, instead of waiting out the seam's deadline.
  struct ReleaseOnExit {
    ClaimHolder* holder;
    ~ReleaseOnExit() { holder->release(); }
  };
  [[nodiscard]] ReleaseOnExit releaseOnExit() { return ReleaseOnExit{this}; }

  /// Reads the held command's response (after release()).
  [[nodiscard]] ResponseParseResult response() {
    using namespace std::chrono_literals;
    auto frame = net::readFrame(socket_, limits_, net::Deadline::after(5s),
                                net::Deadline::after(5s));
    if (!frame.ok()) {
      ResponseParseResult failed;
      failed.error = "holder read failed: " + frame.message;
      return failed;
    }
    return decodeResponse(frame.payload);
  }

 private:
  struct State {
    std::atomic<bool> armed{false};
    std::atomic<bool> entered{false};
    std::atomic<bool> released{false};
    std::atomic<int> shard{-1};
  };
  // Shared with the seam, which the server may call after this is gone.
  std::shared_ptr<State> state_ = std::make_shared<State>();
  net::Socket socket_;
  net::FrameLimits limits_;
};

/// A STATS frame: a shard-0 command that changes no arbitrator state.
inline Request statsRequest(std::uint64_t id) {
  Request request;
  request.command = Command::Stats;
  request.id = id;
  return request;
}

}  // namespace tprm::service::testutil
